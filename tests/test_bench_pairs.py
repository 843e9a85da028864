"""tools/bench_pairs.py refuses to pair trees that differ in compiled bytecode."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def _tree(root: Path, bytecode: bool) -> Path:
    (root / "src" / "pkg").mkdir(parents=True)
    (root / "src" / "pkg" / "__init__.py").write_text("")
    (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": []}))
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-C", str(root)]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-qm", "tree"]):
        subprocess.run([*git, *args], check=True)
    if bytecode:
        (root / "src" / "pkg" / "__pycache__").mkdir()
    return root


def _pair(tmp_path: Path, parent_bytecode: bool, change_bytecode: bool) -> subprocess.CompletedProcess:
    parent = _tree(tmp_path / "parent", parent_bytecode)
    change = _tree(tmp_path / "change", change_bytecode)
    # a workload bench/run.py would fail on, so a pairing that gets past the check fails after it
    argv = [sys.executable, str(TOOL), "--parent", str(parent), "--change", str(change), "--pairs", "none=1",
            "--out", str(tmp_path / "out.json")]
    return subprocess.run(argv, capture_output=True, text=True, timeout=60)


def test_trees_that_differ_in_bytecode_are_refused_before_any_run(tmp_path):
    proc = _pair(tmp_path, parent_bytecode=False, change_bytecode=True)
    assert proc.returncode == 2
    assert "only the change tree's src/ holds __pycache__" in proc.stderr
    assert proc.stdout == "" and not (tmp_path / "out.json").exists()


def test_trees_alike_in_bytecode_go_on_to_the_runs(tmp_path):
    proc = _pair(tmp_path, parent_bytecode=True, change_bytecode=True)
    assert proc.returncode not in (0, 2)
    assert "bench/run.py" in proc.stderr  # the first run was attempted
