"""Alternating parent/change runs of bench/run.py, summarized in one BENCH_<n>.json.

Run from any directory, with two checkouts of the repository:

    python3 tools/bench_pairs.py --parent PARENT_DIR --change CHANGE_DIR \\
        --pairs abstract-ref=10 --pairs langsym-ref=4 --pairs eval-stdio=4 \\
        --seconds 40 --trace abstract-ref --out BENCH_12.json

Pair i of a workload runs both trees at seed i + 1, the parent first when i
is even and the change first when it is odd, so a host that speeds up or
slows down during the session weighs on both sides. Every run's result line
is kept as bench/run.py printed it. Per workload and end-to-end metric of
BENCHMARK.json the file holds q1/median/q3 on each side, the per-pair
change/parent ratios and the number of pairs the change wins (better in the
metric's direction; a tie is no win) and two verdicts, so the file states
its own outcome: `gain_resolved` (at least nine tenths of the pairs won,
and the medians apart by more than the parent's q3 - q1) and
`within_bound` (true, false, or "unresolved" where the parent's q3 - q1
exceeds the metric's bound). Before and after every paired run the script
times a host yardstick in its own process: a fixed pure-Python loop and a
fixed small float64 GEMM. Each run keeps both timings, and each workload's
summary holds the yardstick's q1/median/q3 on each side under "yardstick",
so a file states how fast the host was while its pairs ran. --trace W adds
one `--trace 1` run of workload W per tree, whose result keeps its detail
line's `absent`, `time_split`, `traced_rates_per_s` and `round_s` under
"detail". Each tree is identified by its git HEAD, whether its working
tree differs from HEAD, a sha256 over its src/ files and whether its src/
holds any __pycache__. Where the environment sets PYTHONDONTWRITEBYTECODE,
a tree with bytecode skips the compile that the other pays in every CLI
stage, so the script exits with status 2 before the first run when the two
trees differ in that.

A run fails when it exits non-zero, when its last two stdout lines are not
the detail and result JSON lines bench/run.py prints, or when its result
is not correct or counts a failed operation. A failed run ends the session
with status 1. The file is still written: it holds every pair finished so
far (a workload cut short has its runs but no summary) and, under
"failed", the failing run's side, workload, seed and exit code with the
tail of its stderr, the tail of its stdout, or its result counts and
problems.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np


class RunFailed(Exception):
    """A bench/run.py run that failed (see the module docstring); args[0] describes it."""


# what a traced run's detail line holds besides provenance, hashes and problems
TRACE_DETAIL = ("absent", "time_split", "traced_rates_per_s", "round_s")


def run_bench(trees: dict, side: str, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The result line of a good run, with the TRACE_DETAIL of its detail line under "detail" when traced."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=trees[side], capture_output=True, text=True)
    failure = {"side": side, "workload": workload, "seed": seed, "trace": trace, "returncode": proc.returncode}
    if proc.returncode:
        raise RunFailed({**failure, "stderr_tail": proc.stderr[-4000:]})
    try:
        detail, result = map(json.loads, proc.stdout.strip().splitlines()[-2:])
        counts = {key: result[key] for key in ("correct", "attempted", "failed")}
        problems = None if counts["correct"] is True and counts["failed"] == 0 else detail["problems"]
        if trace:
            result["detail"] = {key: detail[key] for key in TRACE_DETAIL}
    except (ValueError, LookupError, TypeError):  # fewer than two lines, not JSON, or not bench/run.py's keys
        raise RunFailed({**failure, "stdout_tail": proc.stdout[-4000:]}) from None
    if problems is not None:
        raise RunFailed({**failure, "result": counts, "problems": problems})
    return result


LOOP_STEPS = 500_000  # iterations of the yardstick's pure-Python loop
GEMM_N, GEMM_REPEATS = 128, 200  # the yardstick's GEMM: GEMM_REPEATS products of two GEMM_N x GEMM_N matrices
YARDSTICK = ("python_loop_s", "gemm_s")


def yardstick() -> dict:
    """Seconds this host takes for the fixed pure-Python loop and for the fixed float64 GEMMs."""
    started = time.perf_counter()
    total = 0
    for i in range(LOOP_STEPS):
        total += i % 7
    loop_s = time.perf_counter() - started
    a = np.random.default_rng(0).standard_normal((GEMM_N, GEMM_N))
    product = np.empty_like(a)
    started = time.perf_counter()
    for _ in range(GEMM_REPEATS):
        np.matmul(a, a, out=product)
    return dict(zip(YARDSTICK, (loop_s, time.perf_counter() - started)))


def tree_id(tree: Path) -> dict:
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=tree, capture_output=True, text=True, check=True).stdout.strip()

    digest = hashlib.sha256()
    for path in sorted(p for p in (tree / "src").rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(tree)).encode() + b"\0" + path.read_bytes())
    return {"head": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain", "--", "src")),
            "src_sha256": digest.hexdigest(), "pycache": any((tree / "src").rglob("__pycache__"))}


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:  # statistics.quantiles needs two
        return dict.fromkeys(("q1", "median", "q3"), values[0])
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def verdicts(parent: list[float], change: list[float], wins: int, metric: dict) -> dict:
    """Whether the change's runs resolve a gain, and whether they stay within the metric's bound.

    gain_resolved: the change wins at least nine tenths of the pairs and its
    median is better than the parent's by more than the parent's q3 - q1.
    within_bound: true when every change run is better than every parent
    run; else "unresolved" when the parent's q3 - q1 exceeds the bound (a
    fraction of the parent's median); else whether the change's median is
    worse than the parent's by at most the bound.
    """
    sign = 1 if metric["better"] == "higher" else -1
    p, c = quartiles(parent), quartiles(change)
    spread = p["q3"] - p["q1"]
    gain = sign * (c["median"] - p["median"])
    allowed = metric["bound"] * abs(p["median"])
    if min(sign * v for v in change) > max(sign * v for v in parent):
        within = True
    elif spread > allowed:
        within = "unresolved"
    else:
        within = -gain <= allowed
    return {"gain_resolved": wins >= 0.9 * len(parent) and gain > spread, "within_bound": within}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric the pair statistics and verdicts; under "yardstick" the host timings on each side."""
    out = {"yardstick": {name: {side: quartiles([run[side]["yardstick"][when][name] for run in runs
                                                 for when in ("before", "after")])
                                for side in ("parent", "change")}
                         for name in YARDSTICK}}
    for metric in metrics:
        name = metric["name"]
        sides = {side: [run[side]["metrics"][name]["value"] for run in runs] for side in ("parent", "change")}
        ratios = [c / p for p, c in zip(sides["parent"], sides["change"])]
        higher = metric["better"] == "higher"
        wins = sum((c > p) if higher else (c < p) for p, c in zip(sides["parent"], sides["change"]))
        out[name] = {"better": metric["better"], "parent": quartiles(sides["parent"]),
                     "change": quartiles(sides["change"]), "ratios": ratios,
                     "median_ratio": statistics.median(ratios), "wins": wins, "pairs": len(runs),
                     **verdicts(sides["parent"], sides["change"], wins, metric)}
    return out


def machine() -> dict:
    cpuinfo = Path("/proc/cpuinfo")
    lines = cpuinfo.read_text().splitlines() if cpuinfo.exists() else []
    model = next((line.split(":", 1)[1].strip() for line in lines if line.startswith("model name")), "")
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True, check=True).stdout.strip()
    return {"nproc": os.cpu_count(), "cpu": model or platform.processor(), "python": platform.python_version(),
            "numpy": numpy}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pairs", action="append", required=True, help="WORKLOAD=N, repeatable")
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", action="append", default=[], help="workload for one --trace 1 run per tree")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    metrics = json.loads((trees["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    doc = {"trees": {side: tree_id(tree) for side, tree in trees.items()}, "machine": machine(),
           "command": f"bench/run.py --workload W --seed S --seconds {args.seconds} --trace 0", "workloads": {}}
    if doc["trees"]["parent"]["pycache"] != doc["trees"]["change"]["pycache"]:
        with_bytecode = next(side for side, tree in doc["trees"].items() if tree["pycache"])
        print(f"only the {with_bytecode} tree's src/ holds __pycache__; remove it, or compile both trees",
              file=sys.stderr)
        return 2
    try:
        for spec in args.pairs:
            workload, count = spec.split("=")
            runs = []
            doc["workloads"][workload] = {"runs": runs}
            for i in range(int(count)):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                run = {"seed": i + 1, "first": order[0]}
                for side in order:
                    before = yardstick()
                    run[side] = run_bench(trees, side, workload, i + 1, args.seconds, 0)
                    run[side]["yardstick"] = {"before": before, "after": yardstick()}
                runs.append(run)
                print(workload, i, {side: run[side]["metrics"]["items_per_s"]["value"] for side in order}, flush=True)
            doc["workloads"][workload]["summary"] = summarize(runs, metrics)
        doc["traced"] = {w: {side: run_bench(trees, side, w, 1, args.seconds, 1) for side in trees}
                         for w in args.trace}
    except RunFailed as exc:
        failed = doc["failed"] = exc.args[0]
        why = next(failed[key] for key in ("stderr_tail", "stdout_tail", "problems") if key in failed)
        print(f"{failed['side']} run of {failed['workload']} failed (exit code {failed['returncode']}):\n{why}",
              file=sys.stderr)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 1 if "failed" in doc else 0


if __name__ == "__main__":
    sys.exit(main())
