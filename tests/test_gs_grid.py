"""tools/gs_grid.py tells two trees apart by the bits of their GS outcomes."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("gs_grid", ROOT / "tools" / "gs_grid.py")
gs_grid = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gs_grid)


def test_a_perturbed_truncation_slack_changes_the_hash(tmp_path, capsys):
    # the slack enters truncation_bound alone: statistics and p-values stay
    # the same, so only the truncated calls' extra bound tells the trees apart
    package = tmp_path / "src" / "mdhtest"
    shutil.copytree(
        ROOT / "src" / "mdhtest", package, ignore=shutil.ignore_patterns("__pycache__")
    )
    gs = package / "gs.py"
    text = gs.read_text(encoding="utf-8")
    line = "_TRUNCATION_SLACK = 1e-11\n"
    assert text.count(line) == 1
    gs.write_text(text.replace(line, "_TRUNCATION_SLACK = 2e-11\n"), encoding="utf-8")
    assert gs_grid.main([str(ROOT), str(tmp_path)]) == 1
    (calls, here, _), (calls_copy, there, _) = (
        line.split() for line in capsys.readouterr().out.splitlines()
    )
    assert calls == calls_copy == "300"
    assert here != there
