"""tools/bench_pairs.py refuses to pair trees that differ in compiled bytecode, keeps
the finished pairs when a run fails or prints no good result, keeps a traced run's
detail, times the host yardstick around every paired run, states each metric's
verdicts, and states the rates per yardstick unit."""

import importlib.util
import json
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"

# A bench/run.py that exits 1 on the workload "none", prints a non-JSON
# last line on "garbage", a result with a failed check on "incorrect", and
# otherwise a good detail and result line as bench/run.py prints them.
_RUN = """
import json, sys
workload = sys.argv[sys.argv.index("--workload") + 1]
if workload == "none":
    sys.exit(f"no workload {workload}")
if workload == "garbage":
    print("half a line {")
    sys.exit()
failed = int(workload == "incorrect")
detail = {"hashes": {}, "problems": ["golden hash differs"] * failed}
if sys.argv[sys.argv.index("--trace") + 1] == "1":
    detail.update(absent=[], time_split={"storage.write_dataset": 0.5}, traced_rates_per_s={"stdio_calls": 0.0},
                  round_s={"untraced": [1.0], "traced": [1.2]})
print(json.dumps(detail))
print(json.dumps({"correct": not failed, "attempted": 3, "failed": failed, "metrics": {"items_per_s": {"value": 1.0}}}))
"""


def _tree(root: Path, bytecode: bool, runner: str | None = None,
          metrics: tuple[dict, ...] = ({"name": "items_per_s", "better": "higher", "bound": 0.25},)) -> Path:
    (root / "src" / "pkg").mkdir(parents=True)
    (root / "src" / "pkg" / "__init__.py").write_text("")
    (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": list(metrics)}))
    if runner:
        (root / "bench").mkdir()
        (root / "bench" / "run.py").write_text(runner)
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-C", str(root)]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-qm", "tree"]):
        subprocess.run([*git, *args], check=True)
    if bytecode:
        (root / "src" / "pkg" / "__pycache__").mkdir()
    return root


def _pair(tmp_path: Path, parent_bytecode: bool, change_bytecode: bool, runner: bool = False,
          pairs: tuple[str, ...] = ("none=1",), trace: tuple[str, ...] = ()) -> subprocess.CompletedProcess:
    parent = _tree(tmp_path / "parent", parent_bytecode, _RUN if runner else None)
    change = _tree(tmp_path / "change", change_bytecode, _RUN if runner else None)
    argv = [sys.executable, str(TOOL), "--parent", str(parent), "--change", str(change),
            *[arg for spec in pairs for arg in ("--pairs", spec)], *[arg for w in trace for arg in ("--trace", w)],
            "--out", str(tmp_path / "out.json")]
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


@pytest.mark.parametrize("workload, why", [
    ("incorrect", {"result": {"correct": False, "attempted": 3, "failed": 1}, "problems": ["golden hash differs"]}),
    ("garbage", {"stdout_tail": "half a line {\n"}),
])
def test_a_run_with_failed_checks_or_no_result_line_fails(tmp_path, workload, why):
    proc = _pair(tmp_path, parent_bytecode=False, change_bytecode=False, runner=True, pairs=("ok=1", f"{workload}=1"))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and f"parent run of {workload} failed (exit code 0)" in proc.stderr
    doc = json.loads((tmp_path / "out.json").read_text())
    assert doc["workloads"]["ok"]["summary"]["items_per_s"]["pairs"] == 1
    assert doc["workloads"][workload] == {"runs": []}
    assert doc["failed"] == {"side": "parent", "workload": workload, "seed": 1, "trace": 0, "returncode": 0, **why}


def test_a_traced_run_keeps_its_detail(tmp_path):
    proc = _pair(tmp_path, parent_bytecode=False, change_bytecode=False, runner=True, pairs=("ok=1",), trace=("ok",))
    assert proc.returncode == 0, proc.stderr
    traced = json.loads((tmp_path / "out.json").read_text())["traced"]["ok"]
    for side in ("parent", "change"):
        assert traced[side]["correct"] is True
        assert traced[side]["detail"] == {"absent": [], "time_split": {"storage.write_dataset": 0.5},
                                          "traced_rates_per_s": {"stdio_calls": 0.0},
                                          "round_s": {"untraced": [1.0], "traced": [1.2]}}


def test_each_paired_run_is_timed_against_the_host_yardstick(tmp_path):
    proc = _pair(tmp_path, parent_bytecode=False, change_bytecode=False, runner=True, pairs=("ok=3",))
    assert proc.returncode == 0, proc.stderr
    workload = json.loads((tmp_path / "out.json").read_text())["workloads"]["ok"]
    yardstick = workload["summary"]["yardstick"]
    assert set(yardstick) == {"python_loop_s", "gemm_s"}
    for side in ("parent", "change"):
        timings = [run[side]["yardstick"] for run in workload["runs"]]
        assert all(set(timing) == {"before", "after"} for timing in timings)
        for name, sides in yardstick.items():
            values = [timing[when][name] for timing in timings for when in ("before", "after")]
            q = sides[side]
            assert len(values) == 6 and min(values) > 0
            assert min(values) <= q["q1"] <= q["median"] <= q["q3"] <= max(values)
            assert q["median"] == pytest.approx(statistics.median(values))


# A bench/run.py that prints, for each metric, the value its tree's table holds at the run's seed.
_TABLE_RUN = """
import json, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
print(json.dumps({"problems": []}))
print(json.dumps({"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {name: {"value": values[seed - 1]} for name, values in TABLE.items()}}))
"""

VERDICT_METRICS = (  # name, better, bound, parent values, change values, gain_resolved, within_bound
    # 10/10 wins by more than the parent's spread, and every change run better than every parent run
    ("items_per_s", "higher", 0.25, [100 + i for i in range(10)], [120 + i for i in range(10)], True, True),
    # 9/10 wins, but the medians are 1.0 apart, inside the parent's q3 - q1 of 4.5
    ("spread", "higher", 0.25, [100 + i for i in range(10)], [102 + i for i in range(9)] + [50], False, True),
    # a lower-is-better metric 5% worse in every pair, inside its 10% bound
    ("flat", "lower", 0.1, [10.0] * 10, [10.5] * 10, False, True),
    # 20% worse, outside its 10% bound
    ("worse", "lower", 0.1, [10.0] * 10, [12.0] * 10, False, False),
    # the parent's q3 - q1 (120) is wider than 10% of its median (120): unresolved, though 12.5% worse
    ("noisy", "higher", 0.1, [60, 180] * 5, [84, 126] * 5, False, "unresolved"),
    # as wide, but every change run beats every parent run; 80 better in the median is inside the spread
    ("clear", "higher", 0.1, [60, 180] * 5, [200] * 10, False, True),
)


def test_each_metric_states_its_gain_and_bound_verdicts(tmp_path):
    metrics = tuple({"name": name, "better": better, "bound": bound} for name, better, bound, *_ in VERDICT_METRICS)
    trees = {}
    for side, column in (("parent", 3), ("change", 4)):
        table = {row[0]: row[column] for row in VERDICT_METRICS}
        trees[side] = _tree(tmp_path / side, False, f"TABLE = {table!r}\n" + _TABLE_RUN, metrics)
    argv = [sys.executable, str(TOOL), "--parent", str(trees["parent"]), "--change", str(trees["change"]),
            "--pairs", "w=10", "--out", str(tmp_path / "out.json")]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((tmp_path / "out.json").read_text())["workloads"]["w"]["summary"]
    for name, _, _, _, _, gain_resolved, within_bound in VERDICT_METRICS:
        assert (summary[name]["gain_resolved"], summary[name]["within_bound"]) == (gain_resolved, within_bound), name


def test_a_host_twice_as_fast_on_one_side_moves_the_raw_rates_but_not_the_per_unit_rates():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)

    def side(rate: float, slowness: float) -> dict:
        timing = {"python_loop_s": 0.05 * slowness, "gemm_s": 0.02 * slowness}
        return {"metrics": {"items_per_s": {"value": rate}},
                "yardstick": {"before": timing, "after": {k: v * 1.1 for k, v in timing.items()}}}

    # the change side's host is twice as fast: its yardsticks take half the time and it makes twice the items
    runs = [{"parent": side(100.0 + i, 2.0), "change": side(2 * (100.0 + i), 1.0)} for i in range(5)]
    summary = tool.summarize(runs, [{"name": "items_per_s", "better": "higher", "bound": 0.25}])
    assert summary["items_per_s"]["ratios"] == [2.0] * 5
    per_unit = summary["items_per_yardstick"]
    assert set(per_unit) == {"python_loop_s", "gemm_s"}
    for name, stats in per_unit.items():
        assert stats["ratios"] == pytest.approx([1.0] * 5) and stats["median_ratio"] == pytest.approx(1.0)
        assert stats["parent"] == pytest.approx(stats["change"])
        # the rate times the mean of the before and after seconds
        timing = runs[2]["parent"]["yardstick"]
        assert stats["parent"]["median"] == pytest.approx(102.0 * (timing["before"][name] + timing["after"][name]) / 2)
