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
metric's direction; a tie is no win). --trace W adds one `--trace 1` run of
workload W per tree. Each tree is identified by its git HEAD, whether its
working tree differs from HEAD, a sha256 over its src/ files and whether its
src/ holds any __pycache__. Where the environment sets
PYTHONDONTWRITEBYTECODE, a tree with bytecode skips the compile that the
other pays in every CLI stage, so the script exits with status 2 before
the first run when the two trees differ in that.

A run that exits non-zero ends the session with status 1. The file is
still written: it holds every pair finished so far (a workload cut short
has its runs but no summary) and, under "failed", the failing run's side,
workload, seed, exit code and the tail of its stderr.
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
from pathlib import Path


class RunFailed(Exception):
    """A bench/run.py run that exited non-zero; args[0] describes it."""


def run_bench(trees: dict, side: str, workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=trees[side], capture_output=True, text=True)
    if proc.returncode:
        raise RunFailed({"side": side, "workload": workload, "seed": seed, "trace": trace,
                         "returncode": proc.returncode, "stderr_tail": proc.stderr[-4000:]})
    return json.loads(proc.stdout.strip().splitlines()[-1])


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


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for metric in metrics:
        name = metric["name"]
        sides = {side: [run[side]["metrics"][name]["value"] for run in runs] for side in ("parent", "change")}
        ratios = [c / p for p, c in zip(sides["parent"], sides["change"])]
        higher = metric["better"] == "higher"
        wins = sum((c > p) if higher else (c < p) for p, c in zip(sides["parent"], sides["change"]))
        out[name] = {"better": metric["better"], "parent": quartiles(sides["parent"]),
                     "change": quartiles(sides["change"]), "ratios": ratios,
                     "median_ratio": statistics.median(ratios), "wins": wins, "pairs": len(runs)}
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
                    run[side] = run_bench(trees, side, workload, i + 1, args.seconds, 0)
                runs.append(run)
                print(workload, i, {side: run[side]["metrics"]["items_per_s"]["value"] for side in order}, flush=True)
            doc["workloads"][workload]["summary"] = summarize(runs, metrics)
        doc["traced"] = {w: {side: run_bench(trees, side, w, 1, args.seconds, 1) for side in trees}
                         for w in args.trace}
    except RunFailed as exc:
        failed = doc["failed"] = exc.args[0]
        print(f"{failed['side']} run of {failed['workload']} failed with exit code {failed['returncode']}:\n"
              f"{failed['stderr_tail']}", file=sys.stderr)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 1 if "failed" in doc else 0


if __name__ == "__main__":
    sys.exit(main())
