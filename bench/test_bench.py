"""Tests of the benchmark itself, at smoke size (a few items per dataset).

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run as bench  # noqa: E402

DECLARED = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = bench.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_smoke_run_is_correct_and_prints_every_declared_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", str(bench.DEFAULT_SEED), "--seconds", "0",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    *_, detail_line, result_line = proc.stdout.splitlines()
    result, detail = json.loads(result_line), json.loads(detail_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, detail["problems"]
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert detail["failed_op_share"] == {"value": 0.0, "failed": 0, "attempted": result["attempted"]}
    assert {"nproc", "cpu", "python", "numpy", "commit", "seed"} <= set(detail["provenance"])
    if trace:
        assert detail["absent"] == []
        spans = (bench.ROOT / bench.WORK / f"{workload}-seed{bench.DEFAULT_SEED}-trace1-smoke" / "spans.jsonl")
        first = json.loads(spans.read_text().splitlines()[0])
        assert set(first) == {"name", "start", "end", "parent", "item"}


def test_smoke_sizes_are_pinned():
    golden = json.loads(bench.GOLDEN.read_text())
    assert golden["seed"] == bench.DEFAULT_SEED
    for name in bench.WORKLOADS:
        assert bench.golden_key(name, bench.SMOKE_ITEMS) in golden["hashes"]


def test_gate_fires_on_one_corrupted_byte(tmp_path, monkeypatch):
    monkeypatch.chdir(bench.ROOT)
    wl = bench.WORKLOADS["abstract-ref"]
    pipe = bench.Pipeline(wl, bench.SMOKE_ITEMS, bench.DEFAULT_SEED, tmp_path, workers=1)
    cli = bench.SubprocessCli(tmp_path / "cli.log")
    assert cli(pipe.gen(pipe.data))[0] == 0
    copy = tmp_path / "copy"
    shutil.copytree(pipe.data, copy)
    shard = next(copy.glob("part-*.jsonl"))
    raw = bytearray(shard.read_bytes())
    raw[len(raw) // 2] ^= 0x01
    shard.write_bytes(bytes(raw))

    key = bench.golden_key("abstract-ref", bench.SMOKE_ITEMS)
    pinned = json.loads(bench.GOLDEN.read_text())
    golden = dict(pinned, hashes={key: {"gen": pinned["hashes"][key]["gen"]}})
    intact = bench.Gate()
    rc, _ = cli(pipe.verify(pipe.data))
    intact.check("verify", rc == 0)
    bench.check_golden(intact, golden, key, bench.DEFAULT_SEED, {"gen": bench.dataset_digest(pipe.data)[0]})
    assert intact.failed == 0, intact.problems

    gate = bench.Gate()
    rc, _ = cli(pipe.verify(copy))
    gate.check("verify", rc == 0, f"rc={rc}")
    bench.check_golden(gate, golden, key, bench.DEFAULT_SEED, {"gen": bench.dataset_digest(copy)[0]})
    assert gate.failed == 2, gate.problems
    assert "pinned with numpy" in gate.problems[1]


def test_renamed_layer_is_reported_absent(monkeypatch):
    sys.path.insert(0, str(bench.ROOT / "src"))
    import cotforge.cli  # noqa: F401  (loads every module the tracer patches)
    import cotforge.sequences as sequences

    monkeypatch.setattr(layers, "LAYERS", [*layers.LAYERS, ("sequences.gone", "cotforge.sequences", "no_such_function")])
    original = sequences.generate_sequence
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert tracer.absent == ["cotforge.sequences.no_such_function"]
        assert sequences.generate_sequence is not original
        assert cotforge.storage.generate_sequence is sequences.generate_sequence
    finally:
        tracer.uninstall()
    assert sequences.generate_sequence is original
    assert cotforge.storage.generate_sequence is original


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "abstract-ref", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
