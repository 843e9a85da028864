"""tools/bench_pairs.py refuses to pair trees that differ in compiled bytecode, and keeps
the finished pairs when a run fails."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"

# A bench/run.py that exits 1 on the workload "none" and runs any other.
_RUN = """
import json, sys
workload = sys.argv[sys.argv.index("--workload") + 1]
if workload == "none":
    sys.exit(f"no workload {workload}")
print(json.dumps({"metrics": {"items_per_s": {"value": 1.0}}}))
"""


def _tree(root: Path, bytecode: bool, runner: bool = False) -> Path:
    (root / "src" / "pkg").mkdir(parents=True)
    (root / "src" / "pkg" / "__init__.py").write_text("")
    (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [{"name": "items_per_s", "better": "higher"}]}))
    if runner:
        (root / "bench").mkdir()
        (root / "bench" / "run.py").write_text(_RUN)
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-C", str(root)]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-qm", "tree"]):
        subprocess.run([*git, *args], check=True)
    if bytecode:
        (root / "src" / "pkg" / "__pycache__").mkdir()
    return root


def _pair(tmp_path: Path, parent_bytecode: bool, change_bytecode: bool, runner: bool = False,
          pairs: tuple[str, ...] = ("none=1",)) -> subprocess.CompletedProcess:
    parent = _tree(tmp_path / "parent", parent_bytecode, runner)
    change = _tree(tmp_path / "change", change_bytecode, runner)
    argv = [sys.executable, str(TOOL), "--parent", str(parent), "--change", str(change),
            *[arg for spec in pairs for arg in ("--pairs", spec)], "--out", str(tmp_path / "out.json")]
    return subprocess.run(argv, capture_output=True, text=True, timeout=60)


def test_trees_that_differ_in_bytecode_are_refused_before_any_run(tmp_path):
    proc = _pair(tmp_path, parent_bytecode=False, change_bytecode=True)
    assert proc.returncode == 2
    assert "only the change tree's src/ holds __pycache__" in proc.stderr
    assert proc.stdout == "" and not (tmp_path / "out.json").exists()


def test_trees_alike_in_bytecode_go_on_to_the_runs(tmp_path):
    # neither tree has a bench/run.py, so the pairing gets past the check and its first run fails
    proc = _pair(tmp_path, parent_bytecode=True, change_bytecode=True)
    assert proc.returncode not in (0, 2)
    assert "bench/run.py" in proc.stderr  # the first run was attempted


def test_a_failed_run_keeps_the_finished_pairs(tmp_path):
    proc = _pair(tmp_path, parent_bytecode=False, change_bytecode=False, runner=True,
                 pairs=("ok=2", "single=1", "none=1"))
    assert proc.returncode == 1
    assert "no workload none" in proc.stderr and "Traceback" not in proc.stderr
    doc = json.loads((tmp_path / "out.json").read_text())
    ok = doc["workloads"]["ok"]
    assert [(run["seed"], run["first"]) for run in ok["runs"]] == [(1, "parent"), (2, "change")]
    assert ok["summary"]["items_per_s"]["pairs"] == 2
    # one pair has quartiles too: its one value
    assert doc["workloads"]["single"]["summary"]["items_per_s"]["parent"] == {"q1": 1.0, "median": 1.0, "q3": 1.0}
    assert doc["workloads"]["none"] == {"runs": []}
    failed = doc["failed"]
    assert {key: failed[key] for key in ("side", "workload", "seed", "returncode")} == {
        "side": "parent", "workload": "none", "seed": 1, "returncode": 1}
    assert "no workload none" in failed["stderr_tail"]
