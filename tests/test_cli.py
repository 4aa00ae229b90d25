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
    ], ids=["not-json", "hash-mismatch", "entry-shape", "top-level-list",
            "non-finite"])
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

    def test_holder_artifact(self, zero_config, tmp_path):
        out = tmp_path / "out"
        assert main(["--config", str(zero_config), "--out", str(out),
                     "holder", "--pairs", "2"]) == 0
        payload = json.loads((out / "holder.json").read_text())
        assert payload["degenerate"] is True  # constant potential
