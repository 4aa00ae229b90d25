"""tools/cli_artifacts.py on two subcommands and a 16-node config."""

import importlib.util
import json
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "cli_artifacts.py"
SRC = ROOT / "src"


def load():
    spec = importlib.util.spec_from_file_location("cli_artifacts", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_same_tree_matches_and_a_changed_constant_differs(tmp_path):
    tool = load()
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"n_fiber": 16, "n_x": 16, "n_y": 16,
                                  "n_x_base": 16, "n_theta": 16}))
    runs = [run for run in tool.RUNS if run[0] in ("compute-phi", "rpf-base")]
    assert len(runs) == 2
    assert tool.compare(SRC, SRC, tmp_path / "same", config, runs) == []
    assert (tmp_path / "same" / "new" / "compute-phi" / "phi_values.csv").is_file()

    changed = tmp_path / "changed"
    shutil.copytree(SRC / "skewtherm", changed / "skewtherm",
                    ignore=shutil.ignore_patterns("__pycache__"))
    phi = changed / "skewtherm" / "phi.py"
    text = phi.read_text()
    assert "CONSERVATIVE_TAU = 0.9\n" in text
    phi.write_text(text.replace("CONSERVATIVE_TAU = 0.9\n",
                                "CONSERVATIVE_TAU = 0.8\n"))
    # the tolerance loop's threshold moves the values at compute-phi's
    # random points; its fit and stdout stay
    found = tool.compare(SRC, changed, tmp_path / "diff", config, runs[:1])
    assert found == ["compute-phi: phi_values.csv differs"]
