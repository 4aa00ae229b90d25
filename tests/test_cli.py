import json
import math

import pytest

from skewtherm.cli import Runner, main
from skewtherm.config import ExperimentConfig
from skewtherm.errors import ConfigError
from skewtherm.fibers import MpFamily
from skewtherm.potential import TrigPotential


def write_config(path, **overrides):
    cfg = ExperimentConfig().to_json()
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture
def zero_config(tmp_path):
    # constant-zero potential keeps every check trivially satisfied
    return write_config(tmp_path / "cfg.json",
                        potential={"terms": [], "constant": 0.0},
                        n_fiber=256, n_x=64, n_y=64, n_x_base=64,
                        constants_samples=2000, capacity=64)


COMMANDS = ["check-hypotheses", "compute-phi", "holder", "cones",
            "fiber-measures", "rpf-base", "rpf-full", "pressure", "intertwine",
            "words", "verify"]


class TestConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        assert cfg.config_hash()

    def test_round_trip(self):
        cfg = ExperimentConfig()
        again = ExperimentConfig.from_json(cfg.to_json())
        assert again == cfg
        assert again.config_hash() == cfg.config_hash()

    def test_hash_sensitive_to_values(self):
        a = ExperimentConfig()
        b = ExperimentConfig(seed=999)
        assert a.config_hash() != b.config_hash()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json({"no_such_knob": 1})

    def test_bad_grid_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(n_fiber=100)

    def test_n_theta_bounded_by_n_fiber_and_cap(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(n_fiber=32, n_theta=64)
        with pytest.raises(ConfigError):
            ExperimentConfig(n_fiber=4096, n_theta=2048)
        assert ExperimentConfig(n_theta=256).n_theta == 256

    def test_bad_alpha_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(alpha=1.5)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            ExperimentConfig(seed=-3)
        with pytest.raises(ConfigError, match="seed"):
            ExperimentConfig().with_seed(-1)
        assert ExperimentConfig(seed=0).seed == 0

    def test_cone_k_below_diameter_bound_rejected(self):
        # the cone needs K >= diam(Y)^-alpha, which is 2 at alpha = 1
        with pytest.raises(ConfigError, match="cone_k"):
            ExperimentConfig(cone_k=1.0)
        assert ExperimentConfig(cone_k=2.0).cone.K == 2.0
        assert ExperimentConfig(cone_k=1.5, alpha=0.5).cone.K == 1.5

    def test_int_float_and_bool_fields_keep_their_values(self):
        raw = {"capacity": 40, "cone_k": 50, "phi_tol": 1e-9,
               "exploratory": True}
        cfg = ExperimentConfig.from_json(raw)
        assert [type(getattr(cfg, k)) for k in raw] == [int, int, float, bool]
        assert cfg.to_json()["cone_k"] == 50

    @pytest.mark.parametrize("bad", [
        {"phi_tol": math.nan}, {"power_tol": math.inf},
        {"pair_distance": math.inf}, {"eps": math.nan},
        {"eps_phi": math.inf}, {"cone_k": math.nan},
        {"fiber_family": {**MpFamily().to_json(), "p1": math.nan}},
        {"potential": {"terms": [[0, 1, math.nan]], "constant": 0.0}},
        {"potential": {"terms": [], "constant": math.inf}},
        {"fiber_family": {**MpFamily().to_json(), "p0": math.nan}},
    ], ids=["phi_tol", "power_tol", "pair_distance", "eps", "eps_phi",
            "cone_k", "p1", "amplitude", "constant", "p0"])
    def test_non_finite_value_rejected(self, bad):
        with pytest.raises(ConfigError, match=f"{next(iter(bad))} must be finite"):
            ExperimentConfig.from_json({**ExperimentConfig().to_json(), **bad})

    def test_overflowing_literal_rejected(self, tmp_path):
        # json reads 1e999 as inf
        path = tmp_path / "cfg.json"
        path.write_text('{"phi_tol": 1e999}')
        with pytest.raises(ConfigError, match="phi_tol must be finite"):
            ExperimentConfig.load(path)

    def test_serializes_family_and_potential(self):
        cfg = ExperimentConfig(family=MpFamily(p0=0.7, p1=0.2),
                               potential=TrigPotential(terms=((0, 1, 0.003),)))
        raw = cfg.to_json()
        assert raw["fiber_family"]["p0"] == 0.7
        assert raw["potential"]["terms"] == [[0, 1, 0.003]]


class TestCli:
    def test_verify_zero_potential_passes(self, zero_config, tmp_path, capsys):
        code = main(["--config", str(zero_config), "--out",
                     str(tmp_path / "out"), "verify"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "FAIL" not in out
        report = json.loads((tmp_path / "out" / "verify.json").read_text())
        assert report["all_ok"] is True
        assert report["config_hash"]

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["--config", str(bad), "--out", str(tmp_path / "out"),
                     "verify"])
        assert code == 2
        err = json.loads((tmp_path / "out" / "error.json").read_text())
        assert err["error"] == "config"

    def test_unknown_key_exits_2(self, tmp_path):
        bad = write_config(tmp_path / "bad.json", bogus=True)
        assert main(["--config", str(bad), "--out", str(tmp_path / "out"),
                     "verify"]) == 2

    def test_root_tol_is_an_unknown_family_key(self, tmp_path):
        family = {**MpFamily().to_json(), "root_tol": 1e-13}
        bad = write_config(tmp_path / "bad.json", fiber_family=family)
        assert main(["--config", str(bad), "--out", str(tmp_path / "out"),
                     "verify"]) == 2
        err = json.loads((tmp_path / "out" / "error.json").read_text())
        assert err["error"] == "config"

    @pytest.mark.parametrize("bad", [
        {"max_power_iter": 1.5}, {"capacity": 40.0}, {"exploratory": "no"},
        {"exploratory": 0}, {"seed": "abc"}, {"seed": True}, {"alpha": False},
        {"phi_tol": "1e-9"},
    ], ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()))
    def test_mistyped_value_exits_2(self, tmp_path, bad):
        cfg = write_config(tmp_path / "cfg.json", **bad)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "verify"]) == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "config"
        assert next(iter(bad)) in err["message"]

    @pytest.mark.parametrize("argv", [
        ["fiber-measures", "--depth", "64"],
        ["intertwine", "--depth", "65"],
    ], ids=lambda argv: argv[0])
    def test_depth_beyond_capacity_exits_2(self, zero_config, tmp_path,
                                           argv):
        out = tmp_path / "out"
        assert main(["--config", str(zero_config), "--out", str(out),
                     *argv, "--points", "1", "--functions", "1"]) == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "config"
        assert "capacity" in err["message"]

    def test_n_theta_above_n_fiber_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", n_fiber=32, n_theta=64)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "cones"]) == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "config"
        assert "n_theta" in err["message"]

    @pytest.mark.parametrize("argv", [
        ["cones", "--points", "0"],
        ["fiber-measures", "--points", "0"],
        ["fiber-measures", "--functions", "0"],
        ["compute-phi", "--points", "0"],
        ["intertwine", "--points", "0"],
        ["intertwine", "--functions", "0"],
        ["fiber-measures", "--depth", "-3"],
        ["intertwine", "--depth", "-2"],
        ["holder", "--pairs", "0"],
        ["words", "--m-min", "0"],
        # not larger: the word mask allocates 2^n entries
        ["words", "--n", "21"],
    ], ids=lambda argv: "-".join(argv).replace("--", ""))
    def test_out_of_range_count_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main(["--out", str(out), *argv]) == 2
        assert "is not in" in capsys.readouterr().err
        assert not out.exists()

    def test_pressure_emits_gap(self, zero_config, tmp_path):
        out = tmp_path / "out"
        code = main(["--config", str(zero_config), "--out", str(out),
                     "pressure"])
        assert code == 0
        payload = json.loads((out / "pressure.json").read_text())
        assert abs(float(payload["P_phi"]) - math.log(4.0)) < 1e-8
        assert abs(float(payload["P_Phi"]) - math.log(4.0)) < 1e-8
        assert float(payload["gap"]) < 1e-8

    def test_intertwine_reads_phi_on_the_fiber_grid(self, tmp_path,
                                                    monkeypatch):
        # the measures and columns live on the n_y grid, and so must Phi:
        # the residual is the one a matched evaluator gives
        from skewtherm import cli
        from skewtherm.measures import intertwine_residual
        from skewtherm.phi import phi_evaluator
        cfg_path = write_config(tmp_path / "cfg.json", n_fiber=128, n_x=32,
                                n_y=64, n_x_base=16, capacity=48)
        cfg = ExperimentConfig.load(cfg_path)
        calls = []

        def recording(*args, **kwargs):
            calls.append((args, kwargs))
            return intertwine_residual(*args, **kwargs)

        monkeypatch.setattr(cli, "intertwine_residual", recording)
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--out", str(out),
                     "intertwine", "--points", "3", "--functions", "2",
                     "--depth", "12"]) == 0
        got = json.loads((out / "intertwine.json").read_text())["max_residual"]
        [((pot, family, psis, xs, depth, _), kwargs)] = calls
        matched = phi_evaluator(pot, family, tol=cfg.phi_tol,
                                anchor_y=cfg.anchor_y, n_nodes=cfg.n_y)
        assert got == intertwine_residual(pot, family, psis, xs, depth,
                                          matched, **kwargs)
        assert pot.terms and psis[0].shape == (32, 64)

    def test_words_csv(self, zero_config, tmp_path):
        out = tmp_path / "out"
        code = main(["--config", str(zero_config), "--out", str(out),
                     "words", "--n", "10", "--m-min", "2", "--m-max", "4"])
        assert code == 0
        lines = (out / "words.csv").read_text().strip().splitlines()
        assert lines[1] == "n,m,iota,good_count,bad_count,mass_ratio"
        assert len(lines) == 5

    def test_compute_phi_deterministic(self, zero_config, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["--config", str(zero_config), "--out", str(out),
                         "compute-phi", "--points", "4"]) == 0
        csv_a = (out_a / "phi_values.csv").read_text()
        csv_b = (out_b / "phi_values.csv").read_text()
        assert csv_a == csv_b

    def test_overflow_exits_3_without_nan_artifacts(self, tmp_path):
        # e^800 overflows: the run must stop with a numerical failure
        # instead of writing nan into its tables
        cfg = write_config(tmp_path / "cfg.json",
                           potential={"terms": [[0, 1, 0.002]],
                                      "constant": 800.0},
                           n_x=16, n_y=16, n_x_base=16, n_fiber=16,
                           n_theta=16)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "words",
                     "--n", "10"]) == 3
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "numerical"
        for csv in out.glob("*.csv"):
            assert "nan" not in csv.read_text()

    @pytest.mark.parametrize("constant", [-800.0, 800.0])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_under_and_overflow_exit_3(self, tmp_path, capsys, command,
                                       constant):
        # e^phi underflows to 0 at -800 and overflows at +800: every run
        # stops with a numerical failure, never with a traceback
        cfg = write_config(tmp_path / "cfg.json",
                           potential={"terms": [[0, 1, 0.002]],
                                      "constant": constant},
                           n_x=16, n_y=16, n_x_base=16, n_fiber=16,
                           n_theta=16)
        out = tmp_path / "out"
        code = main(["--config", str(cfg), "--out", str(out), command])
        assert "Traceback" not in capsys.readouterr().err
        if command == "check-hypotheses" and constant < 0.0:
            # condition (P) fails, which is a failed check
            assert code == 1
            return
        assert code == 3
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "numerical"

    @pytest.mark.parametrize("command, bad", [
        ("compute-phi", {"phi_tol": math.nan}), ("cones", {"cone_k": math.nan}),
    ], ids=["compute-phi", "cones"])
    def test_non_finite_config_exits_2(self, tmp_path, command, bad):
        cfg = write_config(tmp_path / "cfg.json", n_fiber=16, n_theta=16,
                           n_x=16, n_y=16, n_x_base=16, **bad)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), command]) == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "config"
        assert next(iter(bad)) in err["message"]

    @pytest.mark.parametrize("bad", [
        {"phi_tol": 10 ** 400},
        {"fiber_family": {**MpFamily().to_json(), "p0": 10 ** 400}},
        {"potential": {"terms": [[0, 1, 10 ** 400]], "constant": 0.0}},
    ], ids=["phi_tol", "fiber_family", "potential"])
    def test_integer_beyond_float_range_exits_2(self, tmp_path, bad):
        # a JSON integer that no double can hold, written out in full
        cfg = write_config(tmp_path / "cfg.json", n_fiber=16, n_theta=16,
                           n_x=16, n_y=16, n_x_base=16, **bad)
        assert "0" * 400 in cfg.read_text()
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out),
                     "compute-phi"]) == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "config"
        assert f"{next(iter(bad))} must be finite" in err["message"]

    def test_integer_past_the_parser_digit_limit_exits_2(self, tmp_path):
        # json refuses integers of more than 4300 digits with a ValueError
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"phi_tol": 1' + "0" * 5000 + "}")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out),
                     "compute-phi"]) == 2
        assert json.loads((out / "error.json").read_text())["error"] == "config"

    @pytest.mark.parametrize("command", ["cones", "verify"])
    def test_cone_k_below_bound_exits_2(self, tmp_path, command):
        cfg = write_config(tmp_path / "cfg.json", cone_k=1.0)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), command]) == 2
        assert json.loads((out / "error.json").read_text())["error"] == "config"

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_artifact_is_rejected_unwritten(self, tmp_path, bad):
        runner = Runner(ExperimentConfig(), tmp_path, None)
        with pytest.raises(FloatingPointError, match="fit.json"):
            runner.write_json("fit.json", {"ok": 1.0, "rows": [[0.5, bad]]})
        assert not (tmp_path / "fit.json").exists()

    def test_phi_cache_round_trip(self, zero_config, tmp_path):
        out = tmp_path / "out"
        cache = tmp_path / "phi.json"
        assert main(["--config", str(zero_config), "--out", str(out),
                     "--phi-cache", str(cache), "compute-phi",
                     "--points", "3"]) == 0
        assert cache.exists()
        payload = json.loads(cache.read_text())
        assert len(payload["entries"]) == 3

    @pytest.mark.parametrize("content, reason", [
        ("{not json", "not JSON"),
        ('{"config_hash": "other", "entries": {}}', "config hash 'other'"),
        ('{"config_hash": "HASH", "entries": {"k": 5}}', "not [value, n_used, bound]"),
        ("[1, 2]", "not a JSON object"),
        ('{"config_hash": "HASH", "entries": {"k": [NaN, 3, 0.0]}}', "not finite"),
        ('{"config_hash": "HASH", "entries": {"k": ["0.25", "3", "1e-12"]}}',
         "not [number, int, number]"),
        ('{"config_hash": "HASH", "entries": {"k": [true, 2.7, 0.0]}}',
         "not [number, int, number]"),
        ('{"config_hash": "HASH", "entries": {"k": [0.25, 1e300, 1e-12]}}',
         "not [number, int, number]"),
    ], ids=["not-json", "hash-mismatch", "entry-shape", "top-level-list",
            "non-finite", "strings", "bool-value", "float-n_used"])
    def test_bad_phi_cache_warns_and_starts_empty(self, zero_config, tmp_path,
                                                  capsys, content, reason):
        config_hash = ExperimentConfig.load(zero_config).config_hash()
        cache = tmp_path / "phi.json"
        cache.write_text(content.replace("HASH", config_hash))
        assert main(["--config", str(zero_config), "--out", str(tmp_path / "out"),
                     "--phi-cache", str(cache), "compute-phi",
                     "--points", "2"]) == 0
        err = capsys.readouterr().err
        assert err.count("warning:") == 1
        assert "discarded" in err and reason in err
        payload = json.loads(cache.read_text())
        assert payload["config_hash"] == config_hash
        assert len(payload["entries"]) == 2

    def test_unwritable_phi_cache_exits_2(self, zero_config, tmp_path, capsys):
        cache = tmp_path / "cache_dir"
        cache.mkdir()
        out = tmp_path / "out"
        assert main(["--config", str(zero_config), "--out", str(out),
                     "--phi-cache", str(cache), "compute-phi",
                     "--points", "2"]) == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "config"
        assert str(cache) in err["message"]
        lines = capsys.readouterr().err.splitlines()
        assert [ln for ln in lines if ln.startswith("config error:")] == [
            f"config error: {err['message']}"]

    def test_check_hypotheses(self, zero_config, tmp_path):
        out = tmp_path / "out"
        code = main(["--config", str(zero_config), "--out", str(out),
                     "check-hypotheses"])
        assert code == 0
        payload = json.loads((out / "hypotheses.json").read_text())
        assert payload["all_ok"] is True

    @pytest.mark.parametrize("config, argv", [
        ({"seed": -3}, []),
        ({}, ["--seed", "-1"]),
    ], ids=["config", "option"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, config, argv):
        cfg = write_config(tmp_path / "cfg.json", **config)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), *argv,
                     "check-hypotheses"]) == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "config" and "seed" in err["message"]
        assert "config error:" in capsys.readouterr().err

    def test_out_that_is_a_file_exits_2(self, zero_config, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("not a directory\n")
        assert main(["--config", str(zero_config), "--out", str(out),
                     "check-hypotheses"]) == 2
        assert f"config error: cannot create --out {out}" in \
            capsys.readouterr().err
        assert out.read_text() == "not a directory\n"

    def test_empty_word_range_exits_2(self, zero_config, tmp_path):
        out = tmp_path / "out"
        assert main(["--config", str(zero_config), "--out", str(out),
                     "words", "--m-min", "5", "--m-max", "2"]) == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "config" and "--m-min" in err["message"]
        assert not (out / "words.csv").exists()

    def test_seed_override_changes_hash(self, zero_config, tmp_path):
        out = tmp_path / "out"
        assert main(["--config", str(zero_config), "--out", str(out),
                     "--seed", "777", "check-hypotheses"]) == 0
        payload = json.loads((out / "hypotheses.json").read_text())
        assert payload["seed"] == 777

    def test_rpf_base_artifacts(self, zero_config, tmp_path):
        out = tmp_path / "out"
        assert main(["--config", str(zero_config), "--out", str(out),
                     "rpf-base"]) == 0
        payload = json.loads((out / "rpf_base.json").read_text())
        assert abs(float(payload["log_eigenvalue"]) - math.log(4.0)) < 1e-8
        lines = (out / "rpf_base_eigendata.csv").read_text().splitlines()
        assert lines[1] == "node,h,nu_weight"
        assert len(lines) == 66  # comment + header + 64 nodes

    def test_rpf_full_artifacts(self, zero_config, tmp_path):
        out = tmp_path / "out"
        assert main(["--config", str(zero_config), "--out", str(out),
                     "rpf-full"]) == 0
        payload = json.loads((out / "rpf_full.json").read_text())
        assert abs(float(payload["log_eigenvalue"]) - math.log(4.0)) < 1e-8

    def test_intertwine_artifact(self, zero_config, tmp_path):
        # depth 10 leaves a genuine truncation tail ~ tau^10; the acceptance
        # suite checks the tight tolerance at depth 30
        out = tmp_path / "out"
        assert main(["--config", str(zero_config), "--out", str(out),
                     "intertwine", "--points", "2", "--functions", "1",
                     "--depth", "10"]) == 0
        payload = json.loads((out / "intertwine.json").read_text())
        assert float(payload["max_residual"]) < 1e-4

    def test_fiber_measures_artifact(self, zero_config, tmp_path):
        out = tmp_path / "out"
        assert main(["--config", str(zero_config), "--out", str(out),
                     "fiber-measures", "--points", "2", "--functions", "2",
                     "--depth", "12"]) == 0
        lines = (out / "eigen_residuals.csv").read_text().splitlines()
        assert lines[1] == "bits,function,depth,residual"
        assert len(lines) == 6

    def test_cones_artifact(self, zero_config, tmp_path):
        out = tmp_path / "out"
        assert main(["--config", str(zero_config), "--out", str(out),
                     "cones", "--points", "1"]) == 0
        payload = json.loads((out / "cones.json").read_text())
        assert payload["reports"][0]["zeta_emp"] < 1.0

    def test_holder_artifacts_do_not_depend_on_the_phi_cache(self, tmp_path):
        # compute-phi fills the cache first, with the same random points;
        # holder then reads values from it but writes what a plain run does
        cfg = write_config(tmp_path / "cfg.json", n_fiber=64, n_theta=64,
                           capacity=40)
        names = ("holder.json", "holder_scales.csv")
        plain, cached = tmp_path / "plain", tmp_path / "cached"
        cache = tmp_path / "phi.json"
        assert main(["--config", str(cfg), "--out", str(plain),
                     "holder", "--pairs", "2"]) == 0
        assert main(["--config", str(cfg), "--out", str(cached),
                     "--phi-cache", str(cache), "compute-phi",
                     "--points", "3"]) == 0
        assert main(["--config", str(cfg), "--out", str(cached),
                     "--phi-cache", str(cache), "holder", "--pairs", "2"]) == 0
        assert json.loads((plain / "holder.json").read_text())["degenerate"] is False
        for name in names:
            assert (cached / name).read_text() == (plain / name).read_text()

    def test_holder_caches_under_the_config_anchor(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", n_fiber=64, n_theta=64,
                           capacity=40, anchor_y=0.25)
        cache = tmp_path / "phi.json"
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--phi-cache", str(cache), "holder", "--pairs", "1"]) == 0
        keys = json.loads(cache.read_text())["entries"]
        assert keys and all(key.endswith(":64:delta:0.25") for key in keys)

    def test_holder_artifact(self, zero_config, tmp_path):
        out = tmp_path / "out"
        assert main(["--config", str(zero_config), "--out", str(out),
                     "holder", "--pairs", "2"]) == 0
        payload = json.loads((out / "holder.json").read_text())
        assert payload["degenerate"] is True  # constant potential


class TestSharedSteps:
    """verify and the single-check subcommands run the same Runner steps,
    so at one config and seed they report the same numbers."""

    @pytest.fixture
    def small_config(self, tmp_path):
        return write_config(tmp_path / "cfg.json", n_fiber=16, n_x=16,
                            n_y=16, n_x_base=16, n_theta=16)

    @staticmethod
    def verify_details(cfg, out):
        assert main(["--config", str(cfg), "--out", str(out), "verify"]) == 0
        report = json.loads((out / "verify.json").read_text())
        return {c["name"]: c["detail"] for c in report["checks"]}

    def test_cone_contraction_matches_cones(self, small_config, tmp_path):
        details = self.verify_details(small_config, tmp_path / "verify")
        out = tmp_path / "cones"
        assert main(["--config", str(small_config), "--out", str(out),
                     "cones", "--points", "1"]) == 0
        (rep,) = json.loads((out / "cones.json").read_text())["reports"]
        assert details["cone contraction"] == (
            f"M_emp {rep['m_emp']:.4g}, zeta_emp {rep['zeta_emp']:.4g}")

    def test_corrupted_word_mask_fails_the_partition(self, small_config,
                                                     tmp_path, monkeypatch,
                                                     capsys):
        # one good word flipped to bad: the mask's count no longer matches
        # the scalar count of every word (3584 of 4096 at this config)
        from skewtherm import cli
        good_mask = cli.good_mask

        def corrupted(*args):
            mask = good_mask(*args)
            mask[mask.argmax()] = False
            return mask

        monkeypatch.setattr(cli, "good_mask", corrupted)
        out = tmp_path / "out"
        assert main(["--config", str(small_config), "--out", str(out),
                     "verify"]) == 1
        assert "FAIL word partition: good 3583 of 4096" in capsys.readouterr().out
        report = json.loads((out / "verify.json").read_text())
        assert report["all_ok"] is False

    def test_condition_p_matches_check_hypotheses(self, small_config,
                                                  tmp_path):
        details = self.verify_details(small_config, tmp_path / "verify")
        out = tmp_path / "hyp"
        assert main(["--config", str(small_config), "--out", str(out),
                     "check-hypotheses"]) == 0
        cond = json.loads((out / "hypotheses.json").read_text())["condition_p"]
        assert details["condition (P)"] == (
            f"range {cond['sup_phi'] - cond['inf_phi']:.3g}, "
            f"seminorm {cond['exp_seminorm']:.3g}")

    @pytest.mark.parametrize("argv", [
        ["verify"],
        ["fiber-measures", "--points", "1", "--functions", "1"],
    ], ids=lambda argv: argv[0])
    def test_eigen_check_evaluates_phi_at_one_tolerance(self, tmp_path,
                                                        monkeypatch, argv):
        # a config phi_tol below 1e-12 is the tolerance of the check
        cfg = write_config(tmp_path / "cfg.json", n_fiber=16, n_x=16, n_y=16,
                           n_x_base=16, n_theta=16, phi_tol=1e-13)
        evaluator = Runner.evaluator
        tols = []

        def recording(self, tol=None, n_nodes=None):
            tols.append(tol)
            return evaluator(self, tol, n_nodes)

        monkeypatch.setattr(Runner, "evaluator", recording)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                     *argv]) == 0
        assert tols == [1e-13]
