import concurrent.futures
import copy
import json
import math
import multiprocessing
import os
import shlex
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cotforge import harness, sequences, storage
from cotforge.cli import main
from cotforge.harness import make_eval_prompt
from cotforge.langsym import make_langsym_eval_prompt
from cotforge.recipe import Recipe
from cotforge.rng import STREAM_CACHE, STREAM_EMBED, ItemStream, derive_seed
from cotforge.sequences import DatasetConfig, parse_sequence
from cotforge.storage import (
    KIND_ABSTRACT,
    KIND_LANGSYM,
    Manifest,
    read_records,
    shard_ranges,
    strip_dataset,
    verify_dataset,
    write_dataset,
)
from cotforge.vocab import Vocabulary

from helpers import LANGSYM_REF_CFG, peak_rss_mb, reference_sequence

ABSTRACT_CFG = {
    "vocab_size": 256,
    "dim": 8,
    "n_choices": [4],
    "m_choices": [4],
    "c_choices": [4],
    "k": 6,
    "t": 24,
    "recipe": {"alpha": 0.0, "a": 1, "b": 0},
    "cache_size": 8,
    "master_seed": 321,
}

LANGSYM_CFG = {
    "n_choices": [4],
    "m_choices": [2],
    "c_choices": [3],
    "k": 4,
    "t": 12,
    "recipe": {"alpha": 0.0, "a": 1, "b": 0},
    "master_seed": 77,
    "w": 8,
}


def test_shard_ranges_cover_everything():
    ranges = shard_ranges(10, 3)
    assert ranges == [(0, 4), (4, 8), (8, 10)]
    # more shards than records: one record per shard, no empty shards
    assert shard_ranges(2, 8) == [(0, 1), (1, 2)]


def test_shard_ranges_equal_one_block_per_requested_shard_that_starts_inside():
    for total in range(1, 61):
        for shards in range(1, 71):
            per = math.ceil(total / shards)
            want = [(s * per, min((s + 1) * per, total)) for s in range(shards) if s * per < total]
            assert shard_ranges(total, shards) == want, (total, shards)


def test_shard_ranges_are_exact_past_2_to_the_53_items():
    # total / shards in floats rounds 2**53 + 1 to 2**53 and 2**59 + 0.5 to 2**59
    assert shard_ranges(2**53 + 1, 1) == [(0, 2**53 + 1)]
    assert shard_ranges(2**60 + 1, 2) == [(0, 2**59 + 1), (2**59 + 1, 2**60 + 1)]


def test_cli_10_to_the_18_shards_of_5_items_are_5_one_item_shards(tmp_path, capsys):
    # quickly: the shard count is never looped over
    cfg = _write_cfg(tmp_path, ABSTRACT_CFG)
    out = tmp_path / "ds"
    started = time.monotonic()
    assert main(["gen-abstract", "--config", cfg, "--out", str(out), "--shards", str(10**18), "--t", "5"]) == 0
    assert time.monotonic() - started < 30
    manifest = Manifest.load(str(out))
    assert [o["count"] for o in manifest.outputs] == [1] * 5
    assert main(["verify", "--manifest", str(out)]) == 0
    capsys.readouterr()


def test_write_and_read_round_trip(tmp_path):
    out = str(tmp_path / "ds")
    manifest = write_dataset(out, KIND_ABSTRACT, ABSTRACT_CFG, shards=3)
    assert len(manifest.outputs) == 3
    assert sum(o["count"] for o in manifest.outputs) == 24
    records = list(read_records(out))
    assert [r["seq_id"] for r in records] == list(range(24))
    assert Manifest.load(out).to_json() == manifest.to_json()


def test_worker_count_does_not_change_bytes(tmp_path):
    a = write_dataset(str(tmp_path / "w1"), KIND_ABSTRACT, ABSTRACT_CFG, shards=2, workers=1)
    b = write_dataset(str(tmp_path / "w4"), KIND_ABSTRACT, ABSTRACT_CFG, shards=2, workers=4)
    assert [o["sha256"] for o in a.outputs] == [o["sha256"] for o in b.outputs]


def test_verify_clean_dataset(tmp_path):
    out = str(tmp_path / "ds")
    write_dataset(out, KIND_ABSTRACT, ABSTRACT_CFG, shards=2)
    assert verify_dataset(out) == []


def test_verify_sampled_subset(tmp_path):
    out = str(tmp_path / "ds")
    write_dataset(out, KIND_ABSTRACT, ABSTRACT_CFG, shards=4)
    assert verify_dataset(out, sample=2, seed=1) == []
    # corrupt one shard: the full check must notice it
    path = os.path.join(out, "part-0003.jsonl")
    blob = bytearray(Path(path).read_bytes())
    blob[10] ^= 0xFF
    with open(path, "wb") as fh:
        fh.write(blob)
    assert verify_dataset(out) != []


def test_verify_sample_checks_the_shards_its_seed_draws(tmp_path):
    # one planted corrupt shard at a time: a sampled verify flags it when its seed draws that shard
    out = str(tmp_path / "ds")
    outputs = write_dataset(out, KIND_ABSTRACT, ABSTRACT_CFG, shards=8).outputs
    flagged = {seed: [] for seed in (0, 1, 7)}
    for s, o in enumerate(outputs):
        path = Path(out, o["path"])
        good = path.read_bytes()
        path.write_bytes(good[:10] + bytes([good[10] ^ 0xFF]) + good[11:])
        for seed, shards in flagged.items():
            problems = verify_dataset(out, sample=2, seed=seed)
            assert all(p.startswith(o["path"]) for p in problems)
            if problems:
                shards.append(s)
        path.write_bytes(good)
    assert flagged == {0: [0, 1], 1: [0, 3], 7: [1, 7]}


def test_verify_detects_corruption(tmp_path):
    out = str(tmp_path / "ds")
    write_dataset(out, KIND_ABSTRACT, ABSTRACT_CFG)
    path = os.path.join(out, "part-0000.jsonl")
    blob = bytearray(Path(path).read_bytes())
    blob[100] ^= 0xFF
    with open(path, "wb") as fh:
        fh.write(blob)
    problems = verify_dataset(out)
    assert problems and "sha256" in problems[0]


@pytest.fixture
def pools(monkeypatch):
    """Counts the process pools storage starts (it imports the pool class when it starts one)."""
    started = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    return started


def test_one_pool_per_command(tmp_path, pools):
    serial = write_dataset(str(tmp_path / "w1"), KIND_LANGSYM, LANGSYM_CFG, shards=4, workers=1)
    assert pools == []
    out = str(tmp_path / "w2")
    pooled = write_dataset(out, KIND_LANGSYM, LANGSYM_CFG, shards=4, workers=2)
    assert pools == [2]
    assert pooled.outputs == serial.outputs
    assert verify_dataset(out, workers=2) == []
    assert pools == [2, 2]


def test_no_pool_machinery_is_imported_without_a_pool(tmp_path):
    """The commands that start no pool do not import the pool machinery; a pooled verify does."""
    abstract, langsym = tmp_path / "abstract.json", tmp_path / "langsym.json"
    abstract.write_text(json.dumps(ABSTRACT_CFG))
    langsym.write_text(json.dumps(LANGSYM_CFG))
    script = textwrap.dedent(f"""
        import sys
        from cotforge.cli import main
        tmp = {str(tmp_path)!r}
        def run(*argv):
            assert main(list(argv)) == 0, argv
            assert "concurrent.futures.process" not in sys.modules, argv
        run("gen-abstract", "--config", {str(abstract)!r}, "--out", tmp + "/one", "--t", "1", "--workers", "2")
        run("gen-abstract", "--config", {str(abstract)!r}, "--out", tmp + "/ds")
        run("verify", "--manifest", tmp + "/ds", "--workers", "1")
        run("eval", "--prompts", tmp + "/ds", "--backend", "oracle", "--strategy", "think", "--report", tmp + "/r.json")
        run("gen-langsym", "--config", {str(langsym)!r}, "--out", tmp + "/ls")
        run("eval-langsym", "--prompts", tmp + "/ls", "--backend", "oracle", "--strategy", "think",
            "--report", tmp + "/rl.json")
        assert main(["verify", "--manifest", tmp + "/ds", "--workers", "2"]) == 0
        assert "concurrent.futures.process" in sys.modules  # the check above can see the import
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(storage.__file__).parents[1]),
                                                       os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_shards_hold_the_record_path_lines(tmp_path):
    """Generated and stripped shards, shuffled and at two workers, equal the per-draw reference's bytes in output order."""
    cfg = dict(ABSTRACT_CFG, shuffle=True, recipe={"alpha": 1.0, "a": 0.5, "b": 0.5})
    config = DatasetConfig.from_json(cfg)
    vocab = config.artifacts[0]
    src, dst = str(tmp_path / "src"), str(tmp_path / "dst")
    write_dataset(src, KIND_ABSTRACT, cfg, shards=3, workers=2)
    strip_dataset(src, dst, k_prime=0, seed=5, workers=2)
    strip_dataset(dst, str(tmp_path / "dst2"), k_prime=1, seed=6, workers=1)
    records = [reference_sequence(config, j) for j in config.output_order()]
    assert list(read_records(src)) == records
    stripped = [harness.strip_sequence_record(rec, 0, ItemStream(derive_seed(5, rec["seq_id"])), vocab)
                for rec in records]
    stripped = [harness.strip_sequence_record(rec, 1, ItemStream(derive_seed(6, rec["seq_id"])), vocab)
                for rec in stripped]
    for path, want in ((src, records), (str(tmp_path / "dst2"), stripped)):
        shards = [Path(path, out["path"]).read_bytes() for out in Manifest.load(path).outputs]
        assert b"".join(shards) == b"".join(map(storage.encode_record, want))


@pytest.fixture
def builds(monkeypatch):
    """Counts the artifact builds of abstract configs."""
    calls = []

    def counting(config):
        calls.append(config.master_seed)
        return build(config)

    build = sequences.build_artifacts
    monkeypatch.setattr(sequences, "build_artifacts", counting)
    return calls


def test_each_one_worker_command_builds_the_artifacts_once(tmp_path, builds):
    src, dst = str(tmp_path / "src"), str(tmp_path / "dst")
    write_dataset(src, KIND_ABSTRACT, ABSTRACT_CFG, shards=3)
    assert len(builds) == 1
    assert verify_dataset(src) == []
    assert len(builds) == 2
    strip_dataset(src, dst, k_prime=1, seed=4)
    assert len(builds) == 3
    report = str(tmp_path / "rep.json")
    assert main(["eval", "--prompts", dst, "--backend", "oracle", "--strategy", "think", "--report", report]) == 0
    assert len(builds) == 3  # eval reads the vocabulary size only


def test_one_item_dataset_starts_no_pool(tmp_path, pools):
    out = str(tmp_path / "one")
    one = write_dataset(out, KIND_LANGSYM, dict(LANGSYM_CFG, t=1), shards=2, workers=2)
    assert verify_dataset(out, workers=2) == []
    assert pools == []
    serial = write_dataset(str(tmp_path / "serial"), KIND_LANGSYM, dict(LANGSYM_CFG, t=1), workers=1)
    assert one.outputs == serial.outputs


@pytest.fixture
def tasks(monkeypatch):
    """Records, for each pool task storage submits, its item count and the tasks submitted and not yet taken."""
    submitted, ahead = [], [0]

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def submit(self, fn, items, /):
            future = super().submit(fn, items)
            ahead[0] += 1
            submitted.append((len(items), ahead[0]))
            result = future.result

            def taken(*args, **kwargs):
                ahead[0] -= 1
                return result(*args, **kwargs)

            future.result = taken
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    return submitted


@pytest.mark.parametrize("t, chunk, count", [(60, 3, 20), (2100, storage.CHUNK_MAX, 33)])
def test_the_pool_runs_a_bounded_window_of_bounded_tasks(tmp_path, tasks, t, chunk, count):
    """Tasks of items // (shards * workers * 8) items, at most CHUNK_MAX, and at most TASKS_PER_WORKER per worker ahead."""
    cfg = dict(LANGSYM_CFG, t=t)
    serial = write_dataset(str(tmp_path / "serial"), KIND_LANGSYM, cfg, workers=1)
    assert tasks == []
    out = str(tmp_path / "pooled")
    assert write_dataset(out, KIND_LANGSYM, cfg, workers=2).outputs == serial.outputs
    assert len(tasks) == count and sum(n for n, _ in tasks) == t
    assert {n for n, _ in tasks[:-1]} == {chunk}
    assert max(a for _, a in tasks) == storage.TASKS_PER_WORKER * 2
    tasks.clear()
    assert verify_dataset(out, workers=2) == []
    assert len(tasks) == count and max(a for _, a in tasks) == storage.TASKS_PER_WORKER * 2


def test_a_task_failing_mid_stream_leaves_no_manifest_and_no_live_worker(tmp_path, capsys, tasks):
    # r(j) = 51 - 100 j/T clipped to [0, 1]: the first half of the prompts
    # think in every context example and the prompts from j = 0.51 T on in
    # none, so stripping all K-1 of them fails about half way through
    cfg = _write_cfg(tmp_path, dict(LANGSYM_CFG, t=400, recipe={"alpha": 1.0, "a": -100, "b": 51}))
    src, out = tmp_path / "src", tmp_path / "out"
    assert main(["gen-langsym", "--config", cfg, "--out", str(src), "--shards", "4"]) == 0
    assert main(["gen-langsym", "--config", cfg, "--out", str(out)]) == 0  # a valid dataset to overwrite
    tasks.clear()
    argv = ["strip-cot", "--in", str(src), "--k-prime", str(LANGSYM_CFG["k"] - 1), "--seed", "1", "--out", str(out),
            "--workers", "2"]
    assert main(argv) == 2
    assert "config error: k_prime 3 outside [0, " in capsys.readouterr().err
    assert not (out / "manifest.json").exists()
    assert len((out / "part-0000.jsonl").read_bytes().splitlines()) == 100  # the first shard was written
    assert 0 < len(tasks) < 400 // 6  # tasks of 6 items: the ones past the window were never submitted
    assert multiprocessing.active_children() == []


def test_peak_memory_of_a_pooled_gen_and_verify_does_not_grow_with_the_dataset(tmp_path):
    peaks = {}
    for t in (1000, 10000):
        cfg = tmp_path / f"ref-{t}.json"
        cfg.write_text(json.dumps(dict(LANGSYM_REF_CFG, t=t)))
        ds = str(tmp_path / f"ds-{t}")
        peaks[t] = (peak_rss_mb(["gen-langsym", "--config", str(cfg), "--out", ds, "--shards", "1", "--workers", "2"]),
                    peak_rss_mb(["verify", "--manifest", ds, "--workers", "2"]))
    # tasks sized by t alone (t // 16 lines each here) would add about 26 MB from t = 2,000 to 10,000
    assert all(abs(big - small) < 5 for small, big in zip(peaks[1000], peaks[10000])), peaks


def test_regenerating_with_fewer_shards_removes_stale_ones(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, LANGSYM_CFG)
    out = tmp_path / "ds"
    assert main(["gen-langsym", "--config", cfg, "--out", str(out), "--shards", "4"]) == 0
    assert main(["gen-langsym", "--config", cfg, "--out", str(out), "--shards", "2"]) == 0
    assert sorted(os.listdir(out)) == ["manifest.json", "part-0000.jsonl", "part-0001.jsonl"]
    assert main(["verify", "--manifest", str(out)]) == 0
    capsys.readouterr()


def test_failed_strip_leaves_no_manifest(tmp_path, capsys):
    # r(j) = 1 - j/T: the first prompt thinks in all K-1 context examples and
    # later ones in fewer, so the strip fails past the first line
    cfg = _write_cfg(tmp_path, dict(LANGSYM_CFG, recipe={"alpha": 1.0, "a": -1, "b": 1}))
    src, out = tmp_path / "src", tmp_path / "out"
    assert main(["gen-langsym", "--config", cfg, "--out", str(src)]) == 0
    assert main(["gen-langsym", "--config", cfg, "--out", str(out)]) == 0  # a valid dataset to overwrite
    all_of_them = LANGSYM_CFG["k"] - 1
    argv = ["strip-cot", "--in", str(src), "--k-prime", str(all_of_them), "--seed", "1", "--out", str(out)]
    assert main(argv) == 2
    assert "config error: k_prime 3 outside [0, " in capsys.readouterr().err
    assert not (out / "manifest.json").exists()
    assert (out / "part-0000.jsonl").stat().st_size > 0  # the first line was written


@pytest.mark.parametrize("kind", ["abstract", "langsym"])
def test_an_error_at_the_first_item_leaves_the_old_dataset_whole(tmp_path, capsys, monkeypatch, kind):
    cfg = _write_cfg(tmp_path, ABSTRACT_CFG if kind == "abstract" else LANGSYM_CFG)
    out = tmp_path / "ds"
    assert main([f"gen-{kind}", "--config", cfg, "--out", str(out), "--shards", "3"]) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    if kind == "abstract":  # the artifacts are built by the first line
        def no_memory(vocab, dim, seed):
            raise MemoryError

        monkeypatch.setattr(sequences, "sample_embedding_matrix", no_memory)
        argv = ["gen-abstract", "--config", cfg, "--out", str(out), "--shards", "3"]
    else:  # a strip of the dataset over itself, of more than the K-1 context examples of every prompt
        argv = ["strip-cot", "--in", str(out), "--k-prime", str(LANGSYM_CFG["k"]), "--seed", "1", "--out", str(out)]
    capsys.readouterr()
    assert main(argv) == 2
    assert "config error" in capsys.readouterr().err
    monkeypatch.undo()
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before
    assert main(["verify", "--manifest", str(out)]) == 0
    capsys.readouterr()


# Items whose first array is past the 48-bit address space, so that no host
# can allocate it lazily; the last one is more bytes than an array can address.
_UNALLOCATABLE = {
    "abstract-k": ("abstract", {"k": 10**14}, "the 100000000000000 x 4 input tokens of item 0 (k x N)"),
    "langsym-w": ("langsym", {"w": 10**14}, "the 4 x 4 x 100000000000000 letters of item 0 (k x N x w)"),
    "langsym-distinct-k": ("langsym", {"k": 10**14, "w": 8, "distinct_letters": True},
                           "the 100000000000000 x 4 x 8 letters of item 0 (k x N x w)"),
    "langsym-w-too-big": ("langsym", {"w": 10**18}, "the 4 x 4 x 1000000000000000000 letters of item 0 (k x N x w)"),
}


@pytest.mark.parametrize("name", sorted(_UNALLOCATABLE))
def test_an_unallocatable_item_is_a_config_error(tmp_path, capsys, name):
    kind, over, what = _UNALLOCATABLE[name]
    base = ABSTRACT_CFG if kind == "abstract" else LANGSYM_CFG
    out, bad = tmp_path / "ds", tmp_path / "bad"
    assert main([f"gen-{kind}", "--config", _write_cfg(tmp_path, base), "--out", str(out)]) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    bad.mkdir()
    for path in out.iterdir():
        (bad / path.name).write_bytes(path.read_bytes())
    manifest = json.loads((out / "manifest.json").read_text())
    (bad / "manifest.json").write_text(json.dumps(dict(manifest, config=dict(base, **over))))
    capsys.readouterr()
    for argv in ([f"gen-{kind}", "--config", _write_cfg(tmp_path, dict(base, **over)), "--out", str(out),
                  "--workers", "2"],
                 ["verify", "--manifest", str(bad)],
                 ["strip-cot", "--in", str(bad), "--k-prime", "0", "--seed", "1", "--out", str(tmp_path / "dst")]):
        assert main(argv) == 2, argv
        assert f"config error: no memory for {what}" in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before
    assert main(["verify", "--manifest", str(out)]) == 0
    capsys.readouterr()


def test_langsym_write_verify(tmp_path):
    out = str(tmp_path / "ls")
    manifest = write_dataset(out, KIND_LANGSYM, LANGSYM_CFG, shards=2, workers=2)
    assert manifest.kind == KIND_LANGSYM
    assert verify_dataset(out) == []
    rec = next(iter(read_records(out)))
    assert rec["messages"][0]["role"] == "system"


def test_strip_dataset_regenerable(tmp_path):
    src = str(tmp_path / "src")
    dst = str(tmp_path / "dst")
    write_dataset(src, KIND_ABSTRACT, ABSTRACT_CFG)
    manifest = strip_dataset(src, dst, k_prime=2, seed=9)
    assert manifest.transforms == [{"kind": "strip-cot", "k_prime": 2, "seed": 9}]
    assert verify_dataset(dst) == []
    cfg = DatasetConfig.from_json(ABSTRACT_CFG)
    vocab = cfg.artifacts[0]
    for rec in read_records(dst):
        parsed = parse_sequence(rec["tokens"], vocab)
        assert sum(ex.is_cot for ex in parsed[:-1]) == cfg.k - 1 - 2
        assert parsed[-1].is_cot


def test_strip_langsym_dataset(tmp_path):
    src = str(tmp_path / "src")
    dst = str(tmp_path / "dst")
    write_dataset(src, KIND_LANGSYM, LANGSYM_CFG)
    strip_dataset(src, dst, k_prime=1, seed=4)
    assert verify_dataset(dst) == []
    for rec in read_records(dst):
        flags = rec["meta"]["cot_flags"]
        assert sum(flags[:-1]) == LANGSYM_CFG["k"] - 1 - 1


# --- CLI ---------------------------------------------------------------------

def _write_cfg(tmp_path, cfg):
    """cfg.json holding `cfg` as JSON, or a str as the file's text."""
    path = tmp_path / "cfg.json"
    path.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
    return str(path)


def test_cli_gen_verify_cycle(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, ABSTRACT_CFG)
    out = str(tmp_path / "ds")
    assert main(["gen-abstract", "--config", cfg, "--out", out]) == 0
    assert main(["verify", "--manifest", out]) == 0
    capsys.readouterr()


def test_cli_verify_corruption_exit_code(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, ABSTRACT_CFG)
    out = str(tmp_path / "ds")
    main(["gen-abstract", "--config", cfg, "--out", out])
    path = os.path.join(out, "part-0000.jsonl")
    blob = bytearray(Path(path).read_bytes())
    blob[50] ^= 1
    with open(path, "wb") as fh:
        fh.write(blob)
    assert main(["verify", "--manifest", out]) == 4
    capsys.readouterr()


def test_cli_missing_shard_is_io_error(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, ABSTRACT_CFG)
    out = str(tmp_path / "ds")
    main(["gen-abstract", "--config", cfg, "--out", out])
    os.remove(os.path.join(out, "part-0000.jsonl"))
    assert main(["verify", "--manifest", out]) == 3
    capsys.readouterr()


# JSON text nested past the parser's depth: json.loads raises RecursionError.
_DEEP = "[" * 200_000 + "]" * 200_000


def test_cli_bad_config_exit_code(tmp_path, capsys):
    bad = dict(ABSTRACT_CFG, k=0)
    cfg = _write_cfg(tmp_path, bad)
    assert main(["gen-abstract", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "kind, bad",
    [
        ("abstract", {"k": "8"}),
        ("langsym", {"templates": {"sytem_prompt": "Solve the puzzles."}}),
        ("abstract", {"t": 2**62}),  # would alias the reserved artifact streams
        ("langsym", {"recipe": {"alpha": 10**400}}),  # an int float() cannot convert
        # bool fields take JSON booleans only: bool("false") is True
        *[(kind, {key: value}) for kind, key in [("abstract", "shuffle"), ("langsym", "shuffle"),
                                                 ("langsym", "distinct_letters")] for value in ["false", "no", 2]],
        # json reads NaN and Infinity; a and b must be finite
        ("abstract", {"recipe": {"alpha": 1, "a": math.nan}}),
        ("langsym", {"recipe": {"alpha": 1, "b": math.inf}}),
        # str.format fails on any field but {words}, or on a lone brace
        *[("langsym", {"templates": {"question_template": q}}) for q in ["{words} {x}", "{words} {0}", "{words} {"]],
        ("abstract", [ABSTRACT_CFG]),  # not a JSON object, so --seed has nothing to override
        # an escaped {{words}} renders a literal {words}: no field for the words
        ("langsym", {"templates": {"question_template": "The input words are: {{words}}. What is the final word?"}}),
        # JSON booleans are not recipe numbers, though float(true) is 1.0
        ("abstract", {"recipe": {"alpha": True, "a": False, "b": True}}),
        # the file's text, nested past the JSON parser's depth: a RecursionError
        pytest.param("abstract", _DEEP, id="abstract-nested-json"),
        # normal tokens are drawn with spans of at most 2**32
        ("abstract", {"vocab_size": 2**32 + 10}),
        ("abstract", {"vocab_size": 2**40}),
        # a master_seed is a 64-bit key: 5 + 2**64 would write the shards of 5
        ("abstract", {"master_seed": 5 + 2**64}),
        ("langsym", {"master_seed": 2**64}),
        ("abstract", {"master_seed": -1}),
        ("langsym", {"master_seed": "5"}),
    ],
)
def test_cli_bad_config_value_exit_code(tmp_path, capsys, kind, bad):
    base = ABSTRACT_CFG if kind == "abstract" else LANGSYM_CFG
    cfg = _write_cfg(tmp_path, dict(base, **bad) if isinstance(bad, dict) else bad)
    out = tmp_path / "x"
    seed = [] if isinstance(bad, dict) and "master_seed" in bad else ["--seed", "3"]  # --seed would override it
    assert main([f"gen-{kind}", "--config", cfg, "--out", str(out), *seed]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_manifest_json_keys_in_order(tmp_path):
    out = tmp_path / "ds"
    write_dataset(str(out), KIND_ABSTRACT, ABSTRACT_CFG)
    doc = json.loads((out / "manifest.json").read_text())
    assert list(doc) == ["tool_version", "kind", "config", "transforms", "outputs", "stats"]


def test_cli_zero_shards_creates_nothing(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, LANGSYM_CFG)
    out = tmp_path / "x"
    assert main(["gen-langsym", "--config", cfg, "--out", str(out), "--shards", "0"]) == 2
    assert not out.exists()
    capsys.readouterr()


@pytest.mark.parametrize("sample", ["0", "-3"])
def test_cli_verify_sample_below_one_exit_code(tmp_path, capsys, sample):
    cfg = _write_cfg(tmp_path, LANGSYM_CFG)
    out = str(tmp_path / "ds")
    assert main(["gen-langsym", "--config", cfg, "--out", out, "--shards", "4"]) == 0
    capsys.readouterr()
    assert main(["verify", "--manifest", out, "--sample", sample]) == 2
    captured = capsys.readouterr()
    assert "config error" in captured.err and "verified" not in captured.out


def test_a_utf8_config_reads_the_same_under_an_ascii_locale(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(LANGSYM_CFG, templates={"system_prompt": "Réponds."}), ensure_ascii=False),
                   encoding="utf-8")
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
               PYTHONPATH=os.pathsep.join([str(Path(storage.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "cotforge", "gen-langsym", "--config", str(cfg), "--out", str(tmp_path / "ds")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert Manifest.load(str(tmp_path / "ds")).config["templates"] == {"system_prompt": "Réponds."}


def test_cli_malformed_manifest_exit_code(tmp_path, capsys):
    ds = tmp_path / "ds"
    ds.mkdir()
    for text in ('{"kind": "abstract", "config": ', '{"kind": "abstract", "config": %s}' % _DEEP):
        (ds / "manifest.json").write_text(text)
        assert main(["verify", "--manifest", str(ds)]) == 2
        assert "malformed manifest" in capsys.readouterr().err


def test_cli_budget_json_first_line(tmp_path, capsys):
    assert main(["budget", "--alpha", "0", "--n", "4", "--c", "4", "--k", "40", "--t", "100"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out.splitlines()[0])
    assert doc["expected_cot_examples_exact"] == 4000.0
    assert "expected tokens" in out


def test_cli_budget_json_keys_in_order(capsys):
    assert main(["budget", "--alpha", "1", "--n", "4", "--c", "4", "--k", "8", "--t", "100"]) == 0
    doc = json.loads(capsys.readouterr().out.splitlines()[0])
    assert list(doc) == [
        "expected_cot_examples_exact",
        "expected_cot_examples_approx",
        "expected_standard_examples",
        "expected_tokens",
        "params",
    ]
    assert list(doc["params"]) == ["n", "c", "k", "t", "recipe"]


@pytest.mark.parametrize("flag, value", [("--alpha", "abc"), ("--a", "nan"), ("--b", "inf")])
def test_cli_budget_bad_recipe_exit_code(capsys, flag, value):
    argv = {"--alpha": "1", "--n": "4", "--c": "4", "--k": "8", "--t": "100", flag: value}
    assert main(["budget", *[part for item in argv.items() for part in item]]) == 2
    captured = capsys.readouterr()
    assert "config error" in captured.err and captured.out == ""


def test_cli_budget_inf_alpha(capsys):
    assert main(["budget", "--alpha", "inf", "--n", "4", "--c", "4", "--k", "40", "--t", "100"]) == 0
    doc = json.loads(capsys.readouterr().out.splitlines()[0])
    assert doc["expected_cot_examples_exact"] == 0.0
    assert doc["params"]["recipe"]["alpha"] == "inf"


def test_cli_strip_and_eval(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, ABSTRACT_CFG)
    ds = str(tmp_path / "ds")
    stripped = str(tmp_path / "stripped")
    report = str(tmp_path / "report.json")
    assert main(["gen-abstract", "--config", cfg, "--out", ds]) == 0
    assert main(["strip-cot", "--in", ds, "--k-prime", "3", "--seed", "8", "--out", stripped]) == 0
    assert main(["eval", "--prompts", stripped, "--backend", "oracle", "--strategy", "think", "--report", report]) == 0
    doc = json.loads(Path(report).read_text())
    assert doc["accuracy"] == 1.0
    assert doc["n_prompts"] == ABSTRACT_CFG["t"]
    assert "step_grid" in doc and "dag_breakdown" in doc
    capsys.readouterr()


def test_cli_eval_random_backend(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, ABSTRACT_CFG)
    ds = str(tmp_path / "ds")
    report = str(tmp_path / "rep.json")
    main(["gen-abstract", "--config", cfg, "--out", ds])
    assert main(["eval", "--prompts", ds, "--backend", "random", "--strategy", "answer", "--seed", "3", "--report", report]) == 0
    doc = json.loads(Path(report).read_text())
    assert 0.0 <= doc["accuracy"] <= 1.0
    assert doc["format_failures"] == 0
    capsys.readouterr()


def test_cli_eval_langsym_oracle(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, LANGSYM_CFG)
    ds = str(tmp_path / "ls")
    report = str(tmp_path / "rep.json")
    assert main(["gen-langsym", "--config", cfg, "--out", ds]) == 0
    assert main(["eval-langsym", "--prompts", ds, "--backend", "oracle", "--strategy", "think", "--budget", "1000", "--report", report]) == 0
    doc = json.loads(Path(report).read_text())
    assert doc["accuracy"] == 1.0
    capsys.readouterr()


def test_cli_eval_langsym_stdio_text(tmp_path, capsys):
    bot = tmp_path / "textbot.py"
    bot.write_text(
        "import json, sys\n"
        "for line in sys.stdin:\n"
        "    json.loads(line)\n"
        "    print(json.dumps({'completion': '\\\\boxed{aaaa}'}), flush=True)\n"
    )
    cfg = _write_cfg(tmp_path, LANGSYM_CFG)
    ds = str(tmp_path / "ls")
    report = str(tmp_path / "rep.json")
    main(["gen-langsym", "--config", cfg, "--out", ds])
    code = main([
        "eval-langsym", "--prompts", ds, "--backend", "stdio-text",
        "--backend-cmd", f"{sys.executable} {bot}",
        "--strategy", "answer", "--budget", "100", "--report", report,
    ])
    assert code == 0
    doc = json.loads(Path(report).read_text())
    assert doc["format_failures"] == 0
    capsys.readouterr()


def test_cli_inspect_lists_every_token(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, ABSTRACT_CFG)
    ds = str(tmp_path / "ds")
    main(["gen-abstract", "--config", cfg, "--out", ds])
    capsys.readouterr()
    assert main(["inspect", "--in", ds, "--index", "2"]) == 0
    out = capsys.readouterr().out
    rec = next(r for r in read_records(ds) if r["seq_id"] == 2)
    token_lines = [l for l in out.splitlines() if l.startswith("[")]
    assert len(token_lines) == len(rec["tokens"])
    shown = [int(l.split("]")[1].split()[0]) for l in token_lines]
    assert shown == rec["tokens"]
    names = [l.split("]")[1].split()[1] for l in token_lines]
    assert names == [Vocabulary.token_name(tok) for tok in rec["tokens"]]
    assert names[:3] == ["bos", "inp_start", f"tok{rec['tokens'][2]}"]


@pytest.mark.parametrize("kind", ["abstract", "langsym"])
def test_cli_inspect_of_a_dataset_with_a_malformed_config_exits_2(tmp_path, capsys, kind):
    ds = _edit_record(tmp_path, kind, lambda rec: None)
    manifest = json.loads(Path(ds, "manifest.json").read_text())
    manifest["config"]["k"] = "six"
    Path(ds, "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["inspect", "--in", ds, "--index", "0"]) == 2
    captured = capsys.readouterr()
    assert "config error: " in captured.err and captured.out == ""


def test_cli_inspect_langsym(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, LANGSYM_CFG)
    ds = str(tmp_path / "ls")
    main(["gen-langsym", "--config", cfg, "--out", ds])
    capsys.readouterr()
    assert main(["inspect", "--in", ds, "--index", "0"]) == 0
    out = capsys.readouterr().out
    assert "--- system ---" in out and "--- assistant ---" in out


@pytest.mark.parametrize("kind, command", [(KIND_ABSTRACT, "eval"), (KIND_LANGSYM, "eval-langsym")])
def test_cli_takes_a_dataset_by_its_manifest_path(tmp_path, capsys, monkeypatch, kind, command):
    # verify, eval, eval-langsym and inspect read a dataset given as its
    # directory, as its manifest.json (or a copy under another name), or as
    # a bare manifest.json in the working directory, with the same output
    config = ABSTRACT_CFG if kind == KIND_ABSTRACT else LANGSYM_CFG
    cfg = _write_cfg(tmp_path, config)
    ds = tmp_path / "ds"
    report = tmp_path / "report.json"
    assert main([f"gen-{kind}", "--config", cfg, "--out", str(ds), "--shards", "2"]) == 0
    (ds / "copy.json").write_text((ds / "manifest.json").read_text())
    capsys.readouterr()
    outputs = []
    for where in (str(ds), str(ds / "manifest.json"), str(ds / "copy.json"), "manifest.json"):
        if where == "manifest.json":
            monkeypatch.chdir(ds)
        assert main(["verify", "--manifest", where]) == 0
        assert main([command, "--prompts", where, "--backend", "oracle", "--strategy", "think", "--report", str(report)]) == 0
        assert main(["inspect", "--in", where, "--index", str(config["t"] - 1)]) == 0  # a record of the last shard
        outputs.append((json.loads(report.read_text()), capsys.readouterr()))
    assert outputs[0][0]["accuracy"] == 1.0 and outputs[0][1].err == ""
    assert outputs[1:] == outputs[:1] * 3


def test_cli_seed_override_changes_output(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, ABSTRACT_CFG)
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    main(["gen-abstract", "--config", cfg, "--out", a])
    main(["gen-abstract", "--config", cfg, "--out", b, "--seed", "999"])
    ha = Manifest.load(a).outputs[0]["sha256"]
    hb = Manifest.load(b).outputs[0]["sha256"]
    assert ha != hb
    assert Manifest.load(b).config["master_seed"] == 999
    capsys.readouterr()


def test_cli_embedding_matrix_without_memory_is_a_config_error(tmp_path, capsys, monkeypatch):
    def no_memory(vocab, dim, seed):
        raise MemoryError

    monkeypatch.setattr(sequences, "sample_embedding_matrix", no_memory)
    cfg = _write_cfg(tmp_path, dict(ABSTRACT_CFG, vocab_size=2**32 + 9))
    out = tmp_path / "x"
    assert main(["gen-abstract", "--config", cfg, "--out", str(out)]) == 2
    assert "no memory for a 4294967305 x 8 embedding (vocab_size x dim)" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_generators_are_built_only_for_the_normals(tmp_path, capsys, monkeypatch):
    # shuffle, verify --sample and RandomBackend read ItemStream: the one Generator
    # per artifact is the embedding matrix's and the processor cache's, in each
    # command that regenerates items
    keys = []
    generator = np.random.Generator

    def counting(bit_generator):
        keys.append(int(bit_generator.state["state"]["key"][0]))
        return generator(bit_generator)

    monkeypatch.setattr(np.random, "Generator", counting)
    normals = [derive_seed(ABSTRACT_CFG["master_seed"], stream) for stream in (STREAM_EMBED, STREAM_CACHE)]
    cfg = _write_cfg(tmp_path, dict(ABSTRACT_CFG, shuffle=True))
    ds, report = str(tmp_path / "ds"), str(tmp_path / "rep.json")
    assert main(["gen-abstract", "--config", cfg, "--out", ds, "--shards", "4"]) == 0
    assert keys == normals
    assert main(["verify", "--manifest", ds, "--sample", "2", "--seed", "5"]) == 0
    assert keys == normals * 2
    assert main(["eval", "--prompts", ds, "--backend", "random", "--strategy", "answer", "--seed", "3",
                 "--report", report]) == 0
    assert keys == normals * 2
    capsys.readouterr()


def test_cli_shuffled_dataset_verifies(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, dict(ABSTRACT_CFG, shuffle=True))
    ds = str(tmp_path / "ds")
    assert main(["gen-abstract", "--config", cfg, "--out", ds]) == 0
    ids = [r["seq_id"] for r in read_records(ds)]
    assert ids != sorted(ids)
    assert sorted(ids) == list(range(ABSTRACT_CFG["t"]))
    assert main(["verify", "--manifest", ds]) == 0
    capsys.readouterr()


# A backend for both eval commands that knows each prompt's answer.
# answers.json holds [answers, faults]: answers maps a prompt's key (its
# query question, or its token context up to the last inp_end) to [the
# replies of its steps, action]. The bot replies in turn, but on a prompt's
# last step an action other than "ok" exits without replying ("close"),
# sends a string token or an integer completion ("other-type"), or sends
# the fault line of that name with NAME replaced by the reply's key. So a
# token prompt fails mid-prompt, after two good replies.
_BOT = textwrap.dedent(
    """
    import json, sys
    with open(sys.argv[1]) as fh:
        answers, faults = json.load(fh)
    for line in sys.stdin:
        request = json.loads(line)
        if "messages" in request:  # the query question, then the forced assistant turn
            name, key, step = "completion", request["messages"][-2]["content"], 0
        else:
            toks = request["tokens"]
            split = len(toks) - toks[::-1].index(4)  # just past the last inp_end
            name, key, step = "next", json.dumps(toks[:split]), len(toks) - split - 1
        replies, action = answers[key]
        if action == "ok" or step < len(replies) - 1:
            reply = json.dumps({name: replies[step]})
        elif action == "close":
            break
        elif action == "other-type":
            reply = json.dumps({name: "7" if name == "next" else 7})
        else:
            reply = faults[action].replace("NAME", name)
        sys.stdout.buffer.write(reply.encode("latin-1") + b"\\n")
        sys.stdout.buffer.flush()
    """
)

# Fault lines the bot can send; latin-1 encodes "\xff" as a byte that is not UTF-8.
_FAULTS = {
    "non-utf8": '{"NAME": "\xff"}',
    "null": '{"NAME": null}',
    "float": '{"NAME": 4.9}',
    "bool": '{"NAME": true}',
    "malformed": "nonsense",
    "nested": '{"NAME": %s}' % _DEEP,
}
# What a failed prompt's error says, after "backend failed on prompt <id>: ", per bot action.
_ERRORS = {**{action: "stdio backend sent malformed reply" for action in [*_FAULTS, "other-type"]},
           "close": "stdio backend closed its output", "no-program": "stdio backend failed: [Errno 2]"}


def _bot_eval(tmp_path, command, actions, backend_cmd=None, t=None):
    """`command` --strategy answer through _BOT on a fresh all-CoT dataset; returns (exit code, report path, prompts).

    actions(i) is the bot's action on prompt i; `backend_cmd` replaces the
    bot's command line and `t` the dataset size.
    """
    abstract = command == "eval"
    base = ABSTRACT_CFG if abstract else LANGSYM_CFG
    cfg = _write_cfg(tmp_path, dict(base, t=t or base["t"]))
    ds = str(tmp_path / "ds")
    assert main([f"gen-{KIND_ABSTRACT if abstract else KIND_LANGSYM}", "--config", cfg, "--out", ds]) == 0
    if abstract:
        vocab = Vocabulary(base["vocab_size"])
        prompts = [make_eval_prompt(rec, vocab) for rec in read_records(ds)]
        keys = [json.dumps(list(p.context)) for p in prompts]
        replies = [[p.ground_truth_chain[-1], vocab.ans_end, vocab.eos] for p in prompts]
    else:
        prompts = [make_langsym_eval_prompt(rec) for rec in read_records(ds)]
        keys = [p.context[-1]["content"] for p in prompts]
        replies = [["\\boxed{%s}" % p.ground_truth_chain[-1]] for p in prompts]
    bots = tmp_path / "bots dir"  # the space must survive --backend-cmd parsing
    bots.mkdir()
    answers = {key: [reply, actions(i)] for i, (key, reply) in enumerate(zip(keys, replies))}
    (bots / "answers.json").write_text(json.dumps([answers, _FAULTS]))
    (bots / "the bot.py").write_text(_BOT)
    if backend_cmd is None:
        backend_cmd = shlex.join([sys.executable, str(bots / "the bot.py"), str(bots / "answers.json")])
    report = tmp_path / "rep.json"
    code = main([command, "--prompts", ds, "--backend", "stdio" if abstract else "stdio-text", "--backend-cmd", backend_cmd,
                 "--strategy", "answer", "--report", str(report)])
    return code, report, prompts


def test_cli_text_stdio_bot_scores_one(tmp_path, capsys):
    code, report, _ = _bot_eval(tmp_path, "eval-langsym", lambda i: "ok")
    assert code == 0, capsys.readouterr().err
    doc = json.loads(report.read_text())
    assert doc["accuracy"] == 1.0
    assert all(r["error"] is None for r in doc["records"])


@pytest.mark.parametrize("command", ["eval", "eval-langsym"])
def test_cli_stdio_faults_become_error_records(tmp_path, capsys, command):
    faults = [action for action in _ERRORS if action != "no-program"]
    code, report, prompts = _bot_eval(tmp_path, command, lambda i: faults[i] if i < len(faults) else "ok")
    assert code == 0, capsys.readouterr().err
    records = json.loads(report.read_text())["records"]
    for prompt, rec, action in zip(prompts, records, faults):
        assert rec["error"].startswith(f"backend failed on prompt {prompt.meta['seq_id']}: {_ERRORS[action]}"), action
        assert (rec["predicted"], rec["format_failure"], rec["generated"]) == (None, True, [])
        assert len(rec["error"]) < 300, action  # the nested reply is 400,050 characters
    ok = len(records) - len(faults)
    assert [r["error"] for r in records[len(faults):]] == [None] * ok
    assert [r["indicator"] for r in records] == [0] * len(faults) + [1] * ok


@pytest.mark.parametrize("action", ["malformed", "close", "no-program"])
@pytest.mark.parametrize("command", ["eval", "eval-langsym"])
def test_cli_stdio_all_failing_exits_3(tmp_path, capsys, command, action):
    missing = shlex.quote(str(tmp_path / "no such program")) if action == "no-program" else None
    code, report, prompts = _bot_eval(tmp_path, command, lambda i: action, backend_cmd=missing, t=3)
    assert code == 3
    first = prompts[0].meta["seq_id"]
    assert f"backend failed on all 3 prompts; backend failed on prompt {first}: {_ERRORS[action]}" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("backend_cmd, want", [
    ("   ", "names a program"),
    ("bot 'unbalanced", "--backend-cmd \"bot 'unbalanced\": No closing quotation"),
])
@pytest.mark.parametrize("command", ["eval", "eval-langsym"])
def test_cli_empty_or_unbalanced_backend_cmd_is_a_config_error(tmp_path, capsys, command, backend_cmd, want):
    code, report, _ = _bot_eval(tmp_path, command, lambda i: "ok", backend_cmd=backend_cmd, t=2)
    assert code == 2
    assert want in capsys.readouterr().err and not report.exists()


# A token bot that ignores SIGTERM and lingers after its stdin closes; it
# answers every query with ans_start, 9, ans_end, eos, writes its pid, and
# marks the pid file if it lives to the end of its linger.
_STUBBORN_BOT = textwrap.dedent(
    """
    import json, os, signal, sys, time
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    with open(sys.argv[1], "w") as fh:
        fh.write(str(os.getpid()))
    for line in sys.stdin:
        toks = json.loads(line)["tokens"]
        suffix = toks[len(toks) - toks[::-1].index(4) :]
        print(json.dumps({"next": [7, 9, 8, 2][len(suffix)] if len(suffix) < 4 else 2}), flush=True)
    time.sleep(30)
    with open(sys.argv[1], "a") as fh:
        fh.write(" lived")
    """
)


def test_cli_eval_kills_a_backend_that_ignores_sigterm(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(harness, "CLOSE_GRACE_S", 0.2)
    cfg = _write_cfg(tmp_path, ABSTRACT_CFG)
    ds = str(tmp_path / "ds")
    assert main(["gen-abstract", "--config", cfg, "--out", ds]) == 0
    bot, pid_file, report = tmp_path / "bot.py", tmp_path / "bot.pid", tmp_path / "rep.json"
    bot.write_text(_STUBBORN_BOT)
    code = main(["eval", "--prompts", ds, "--backend", "stdio", "--backend-cmd", shlex.join([sys.executable, str(bot), str(pid_file)]),
                 "--strategy", "answer", "--report", str(report)])
    assert code == 0, capsys.readouterr().err
    assert json.loads(report.read_text())["n_prompts"] == ABSTRACT_CFG["t"]
    pid = pid_file.read_text()
    assert "lived" not in pid
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid), 0)  # killed and reaped


def _nest_flags(rec):
    rec["meta"]["cot_flags"] = [[f] for f in rec["meta"]["cot_flags"]]


def _drop_query_chain(rec):
    rec["meta"]["chains"].pop()


def _drop_query_exchange(rec):
    del rec["messages"][-2:]


def _huge_c(rec):
    assert not any(rec["meta"]["cot_flags"])  # so c never enters the stream length
    rec["meta"]["c"] = 10**12


# (record edit, the error it must give); the first three edits gave a
# traceback (IndexError, exit 1) or, for the dropped exchange, a prompt
# without a query question that the oracle scored 1.0, and the huge c one a
# MemoryError traceback from a terabyte layout grid
_MALFORMED = {
    "nested-flags": (_nest_flags, "FormatError: cot_flags must be a non-empty flat list of 0/1"),
    "short-chains": (_drop_query_chain, "ValueError: meta needs k=4 chains of c=3 words"),
    "no-query": (_drop_query_exchange, "ValueError: 7 messages are not the system turn and k=4 user/assistant exchanges"),
    "huge-c": (_huge_c, "ValueError: dag over 4 inputs and 4 chain nodes, meta has n=4 c=1000000000000"),
}


@pytest.mark.parametrize("kind, command, key, corrupt", [
    *[(kind, command, key, corrupt) for kind, command, key in [("abstract", "eval", "c"), ("langsym", "eval-langsym", "k")]
      for corrupt in ["truncated", "missing-key", "nested"]],
    ("abstract", "eval", "cot_flags", "nested-flags"),
    ("langsym", "eval-langsym", "chains", "short-chains"),
    ("langsym", "eval-langsym", "messages", "no-query"),
    ("abstract", "eval", "c", "huge-c"),
])
def test_cli_eval_malformed_record_exits_3(tmp_path, capsys, corrupt, kind, command, key):
    cfg = ABSTRACT_CFG if kind == "abstract" else LANGSYM_CFG
    if corrupt == "huge-c":
        # r(0) = 1 and r(j) = 0 after it: record 0 builds a prompt, record 1 is all plain
        cfg = dict(cfg, recipe={"alpha": 1, "a": -cfg["t"], "b": 1})
    cfg = _write_cfg(tmp_path, cfg)
    ds = str(tmp_path / "ds")
    assert main([f"gen-{kind}", "--config", cfg, "--out", ds]) == 0
    shard = os.path.join(ds, "part-0000.jsonl")
    lines = Path(shard).read_text().splitlines()
    if corrupt in ("truncated", "nested"):
        lines[2] = lines[2][: len(lines[2]) // 2] if corrupt == "truncated" else _DEEP
        want = f"{shard} line 3: invalid JSON"
    else:
        rec = json.loads(lines[1])
        if corrupt == "missing-key":
            del rec["meta"][key]
            error = f"KeyError: '{key}'"
        else:
            edit, error = _MALFORMED[corrupt]
            edit(rec)
        lines[1] = json.dumps(rec)
        want = f"{ds}: record 1 is malformed ({error})"
    with open(shard, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    report = tmp_path / "rep.json"
    capsys.readouterr()
    code = main([command, "--prompts", ds, "--backend", "oracle", "--strategy", "think", "--report", str(report)])
    err = capsys.readouterr().err
    assert code == 3, err
    assert want in err and not report.exists()
    if corrupt in ("truncated", "nested"):  # inspect reads every line while it looks for an index none has
        assert main(["inspect", "--in", ds, "--index", "-1"]) == 3
        assert want in capsys.readouterr().err


@pytest.mark.parametrize("dag, want", [(None, "KeyError: 'dag'"), ({"n_inputs": 2}, "KeyError: 'n_chain'"),
                                       ("x", "TypeError"), ("parents", "ValueError: chain node 1: parent 9")])
def test_cli_eval_langsym_missing_or_bad_dag_exits_3(tmp_path, capsys, dag, want):
    cfg = _write_cfg(tmp_path, dict(LANGSYM_CFG, t=3))
    ds = str(tmp_path / "ds")
    assert main(["gen-langsym", "--config", cfg, "--out", ds]) == 0
    shard = Path(ds, "part-0000.jsonl")
    lines = shard.read_text().splitlines()
    rec = json.loads(lines[1])
    if dag is None:
        del rec["meta"]["dag"]
    elif dag == "parents":
        rec["meta"]["dag"]["parents"][0][0] = 9
    else:
        rec["meta"]["dag"] = dag
    lines[1] = json.dumps(rec)
    shard.write_text("\n".join(lines) + "\n")
    report = tmp_path / "rep.json"
    capsys.readouterr()
    code = main(["eval-langsym", "--prompts", ds, "--backend", "oracle", "--strategy", "think", "--report", str(report)])
    err = capsys.readouterr().err
    assert code == 3, err
    assert f"{ds}: record 1 is malformed ({want}" in err and not report.exists()


@pytest.mark.parametrize("kind, command", [(KIND_ABSTRACT, "eval"), (KIND_LANGSYM, "eval-langsym")])
def test_cli_eval_one_example_prompts_are_a_config_error(tmp_path, capsys, kind, command):
    cfg = _write_cfg(tmp_path, dict(ABSTRACT_CFG if kind == KIND_ABSTRACT else LANGSYM_CFG, k=1))
    ds = str(tmp_path / "ds")
    assert main([f"gen-{kind}", "--config", cfg, "--out", ds]) == 0
    capsys.readouterr()
    code = main([command, "--prompts", ds, "--backend", "oracle", "--strategy", "think", "--report", str(tmp_path / "rep.json")])
    assert code == 2
    assert "need at least 2 examples" in capsys.readouterr().err


def _edit_record(tmp_path, kind: str, edit, index: int = 1) -> str:
    """A fresh all-CoT dataset of `kind` whose record `index` went through edit(record)."""
    cfg = _write_cfg(tmp_path, dict(ABSTRACT_CFG if kind == "abstract" else LANGSYM_CFG, t=3))
    ds = str(tmp_path / "ds")
    assert main([f"gen-{kind}", "--config", cfg, "--out", ds]) == 0
    shard = Path(ds, "part-0000.jsonl")
    lines = shard.read_text().splitlines()
    rec = json.loads(lines[index])
    edit(rec)
    lines[index] = json.dumps(rec)
    shard.write_text("\n".join(lines) + "\n")
    return ds


def _parent_99(rec):
    rec["meta"]["dag"]["parents"][0][0] = 99


def _parent_minus_5(rec):
    rec["meta"]["dag"]["parents"][0][0] = -5


def _drop_chain_node(rec):
    dag = rec["meta"]["dag"]
    dag["parents"].pop()
    dag["n_chain"] -= 1


@pytest.mark.parametrize("edit, want", [
    (_parent_99, "ValueError: chain node 1: parent 99 outside [0, 4)"),
    (_parent_minus_5, "ValueError: chain node 1: parent -5 outside [0, 4)"),
    (_drop_chain_node, "ValueError: dag over 4 inputs and {c_minus_1} chain nodes, meta has n=4 c={c}"),
], ids=["parent-99", "parent-minus-5", "drop-chain-node"])
@pytest.mark.parametrize("kind, command", [("abstract", "eval"), ("langsym", "eval-langsym")])
def test_cli_eval_dag_that_does_not_fit_the_record_exits_3(tmp_path, capsys, kind, command, edit, want):
    ds = _edit_record(tmp_path, kind, edit)
    c = (ABSTRACT_CFG if kind == "abstract" else LANGSYM_CFG)["c_choices"][0]
    report = tmp_path / "rep.json"
    capsys.readouterr()
    code = main([command, "--prompts", ds, "--backend", "oracle", "--strategy", "think", "--report", str(report)])
    err = capsys.readouterr().err
    assert code == 3, err
    assert f"{ds}: record 1 is malformed ({want.format(c=c, c_minus_1=c - 1)})" in err and not report.exists()


def test_cli_eval_langsym_query_chain_that_does_not_fit_c_exits_3(tmp_path, capsys):
    ds = _edit_record(tmp_path, "langsym", lambda rec: rec["meta"]["chains"][-1].insert(0, "abc"))
    report = tmp_path / "rep.json"
    capsys.readouterr()
    code = main(["eval-langsym", "--prompts", ds, "--backend", "oracle", "--strategy", "think", "--report", str(report)])
    err = capsys.readouterr().err
    assert code == 3, err
    assert f"{ds}: record 1 is malformed (ValueError: query chain has 4 words, meta has c=3)" in err
    assert not report.exists()


@pytest.mark.parametrize("kind", ["abstract", "langsym"])
def test_cli_inspect_record_without_meta_exits_3(tmp_path, capsys, kind):
    ds = _edit_record(tmp_path, kind, lambda rec: rec.pop("meta"))
    capsys.readouterr()
    assert main(["inspect", "--in", ds, "--index", "0"]) == 0
    capsys.readouterr()
    assert main(["inspect", "--in", ds, "--index", "1"]) == 3
    captured = capsys.readouterr()
    assert f"{ds}: record 1 is malformed (KeyError: 'meta')" in captured.err and captured.out == ""


def test_cli_inspect_langsym_message_that_is_not_text_exits_3(tmp_path, capsys):
    ds = _edit_record(tmp_path, "langsym", lambda rec: rec["messages"][3].update(content=None))
    capsys.readouterr()
    assert main(["inspect", "--in", ds, "--index", "1"]) == 3
    captured = capsys.readouterr()
    assert f"{ds}: record 1 is malformed (TypeError: sequence item 8: expected str instance" in captured.err
    assert captured.out == ""


def _stripped_dataset(root) -> tuple[str, dict]:
    """A one-shard abstract dataset with one strip-cot transform, and its manifest."""
    cfg = dict(ABSTRACT_CFG, vocab_size=64, dim=4, k=8, t=4, n_choices=[2], m_choices=[2], c_choices=[2])
    path = root / "cfg.json"
    path.write_text(json.dumps(cfg))
    ds = str(root / "ds")
    assert main(["gen-abstract", "--config", str(path), "--out", str(root / "full")]) == 0
    assert main(["strip-cot", "--in", str(root / "full"), "--k-prime", "3", "--seed", "5", "--out", ds]) == 0
    return ds, json.loads(Path(ds, "manifest.json").read_text())


@pytest.mark.parametrize("edit, what", [
    (lambda m: m["transforms"][0].pop("k_prime"), "transforms"),
    (lambda m: m["transforms"][0].update(k_prime="2"), "transforms"),
    (lambda m: m["transforms"][0].update(k_prime=-1), "transforms"),
    (lambda m: m["transforms"][0].update(kind="shuffle"), "transforms"),
    (lambda m: m["transforms"][0].update(seed=5 + 2**64), "transforms"),  # would strip as seed 5 does
    (lambda m: m["transforms"][0].update(seed=-1), "transforms"),
    (lambda m: m.update(transforms="strip"), "transforms"),
    (lambda m: m["outputs"][0].pop("sha256"), "outputs"),
    (lambda m: m["outputs"][0].update(path="../full/part-0000.jsonl"), "outputs"),
], ids=["no-k-prime", "str-k-prime", "negative-k-prime", "unknown-kind", "seed-past-2-64", "negative-seed",
        "transforms-str", "no-sha256", "path-outside"])
def test_cli_verify_malformed_manifest_exits_2(tmp_path, capsys, edit, what):
    ds, manifest = _stripped_dataset(tmp_path)
    assert main(["verify", "--manifest", ds]) == 0
    edit(manifest)
    Path(ds, "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["verify", "--manifest", ds]) == 2
    err = capsys.readouterr().err
    assert "malformed manifest" in err and f"malformed {what} entry" in err


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.floats(allow_nan=False) | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)
_SHARDISH = st.sampled_from(["part-0001.jsonl", "part-00000.jsonl", "../full/part-0000.jsonl", "/dev/null", ""])


@st.composite
def _broken_manifests(draw, valid: dict):
    """`valid` with one part replaced, deleted or added; an added transform never strips 0."""
    doc = copy.deepcopy(valid)
    where = draw(st.sampled_from(["doc", "kind", "config", "transforms", "transform", "extra-transform", "outputs", "output"]))
    if where == "doc":
        return draw(_JSON)
    if where in ("kind", "config", "transforms", "outputs"):
        if draw(st.booleans()):
            del doc[where]
        else:
            doc[where] = draw(st.sampled_from(["langsym", "abstract"]) | _JSON if where == "kind" else _JSON)
        return doc
    if where == "extra-transform":
        k_prime = draw(st.integers(1, 9) | _JSON.filter(lambda v: v != 0))
        doc["transforms"].append({"kind": draw(st.just("strip-cot") | _JSON), "k_prime": k_prime, "seed": draw(st.integers())})
        return doc
    entry = doc["transforms"][0] if where == "transform" else doc["outputs"][0]
    key = draw(st.sampled_from([*entry, "extra"]))
    if key in entry and draw(st.booleans()):
        del entry[key]
    else:
        entry[key] = draw(st.integers() | _SHARDISH | _JSON)
    return doc


@pytest.fixture(scope="module")
def stripped_dataset(tmp_path_factory):
    return _stripped_dataset(tmp_path_factory.mktemp("verify-fuzz"))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cli_verify_of_any_broken_manifest_exits_2_3_or_4(stripped_dataset, data):
    ds, valid = stripped_dataset
    doc = data.draw(_broken_manifests(valid))
    assume(doc != valid)
    Path(ds, "manifest.json").write_text(json.dumps(doc))
    try:
        assert main(["verify", "--manifest", ds]) in (2, 3, 4)
    finally:
        Path(ds, "manifest.json").write_text(json.dumps(valid))


# Each command's argv before the option under test, from a dataset directory
# `ds`, a config file `cfg` and an output directory `out`; a bad value must
# stop the command before it reads or writes anything.
_RANGED = {
    "gen-abstract": "gen-abstract --config {cfg} --out {out}",
    "gen-langsym": "gen-langsym --config {cfg} --out {out}",
    "strip-cot": "strip-cot --in {ds} --k-prime 1 --out {out}",
    "eval": "eval --prompts {ds} --backend random --strategy think --report {out}",
    "verify": "verify --manifest {ds}",
}


@pytest.mark.parametrize("command, option, value", [
    *[(command, "--workers", value) for command in ["gen-abstract", "gen-langsym", "strip-cot", "verify"] for value in ["0", "-3"]],
    *[(command, "--seed", value) for command in _RANGED for value in ["-1", str(2**64), str(5 + 2**64)]],
])
def test_cli_workers_below_1_or_seed_outside_64_bits_exits_2(tmp_path, capsys, command, option, value):
    ds, out = tmp_path / "missing-ds", tmp_path / "out"
    argv = _RANGED[command].format(ds=ds, cfg=tmp_path / "missing.json", out=out).split()
    if command == "strip-cot" and option != "--seed":
        argv += ["--seed", "1"]
    with pytest.raises(SystemExit) as stop:
        main([*argv, option, value])
    assert stop.value.code == 2
    assert f"argument {option}: must be {'>= 1' if option == '--workers' else 'in [0, 2**64)'}, got {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen-abstract", "strip-cot", "eval", "verify"])
def test_cli_seed_at_the_ends_of_its_range_is_accepted(tmp_path, capsys, command):
    cfg = _write_cfg(tmp_path, dict(ABSTRACT_CFG, t=4))
    ds, out = tmp_path / "ds", tmp_path / "out"
    assert main(["gen-abstract", "--config", cfg, "--out", str(ds)]) == 0
    argv = _RANGED[command].format(ds=ds, cfg=cfg, out=out).split()
    for seed in ["0", str(2**64 - 1)]:
        assert main([*argv, "--seed", seed]) == 0, capsys.readouterr().err


# --- exits that only a hand-edited manifest or a wrong command reaches -------


def _dataset(tmp_path, kind: str, *args: str) -> Path:
    """A fresh dataset of `kind` from the test config, generated with the extra CLI `args`."""
    cfg = _write_cfg(tmp_path, ABSTRACT_CFG if kind == "abstract" else LANGSYM_CFG)
    ds = tmp_path / "ds"
    assert main([f"gen-{kind}", "--config", cfg, "--out", str(ds), *args]) == 0
    return ds


def _edit_manifest(ds: Path, edit) -> None:
    manifest = json.loads((ds / "manifest.json").read_text())
    edit(manifest)
    (ds / "manifest.json").write_text(json.dumps(manifest))


@pytest.mark.parametrize("kind, cfg, want", [
    ("abstract", dict(ABSTRACT_CFG, shufle=True, vocab=64), "unknown config keys: ['shufle', 'vocab']"),
    ("langsym", dict(LANGSYM_CFG, shufle=True), "unknown config keys: ['shufle']"),
    ("langsym", ABSTRACT_CFG, "unknown config keys: ['cache_size', 'dim', 'vocab_size']"),  # an abstract config
    ("abstract", LANGSYM_CFG, "unknown config keys: ['w']"),
    ("abstract", dict(ABSTRACT_CFG, recipe={"alpha": 1.0, "beta": 2}), "unknown recipe keys: ['beta']"),
    ("langsym", dict(LANGSYM_CFG, recipe={"alpha": 1.0, "A": 2}), "unknown recipe keys: ['A']"),
])
def test_cli_gen_with_a_config_key_that_no_field_reads_exits_2(tmp_path, capsys, kind, cfg, want):
    out = tmp_path / "x"
    assert main([f"gen-{kind}", "--config", _write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
    assert f"config error: {want}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["abstract", "langsym"])
def test_cli_verify_of_a_manifest_whose_config_has_an_unknown_key_exits_2(tmp_path, capsys, kind):
    ds = _dataset(tmp_path, kind)
    _edit_manifest(ds, lambda m: m["config"].update(shufle=True))
    capsys.readouterr()
    assert main(["verify", "--manifest", str(ds)]) == 2
    assert "config error: unknown config keys: ['shufle']" in capsys.readouterr().err


def test_cli_verify_of_a_manifest_with_more_shards_than_its_config_implies_exits_4(tmp_path, capsys):
    ds = _dataset(tmp_path, "abstract", "--t", "5", "--shards", "5")
    _edit_manifest(ds, lambda m: m["outputs"].extend(dict(m["outputs"][-1], path=f"part-000{s}.jsonl") for s in (5, 6)))
    capsys.readouterr()
    assert main(["verify", "--manifest", str(ds)]) == 4
    assert capsys.readouterr().err == "MISMATCH: manifest lists 7 shards but config implies 5\n"


def test_cli_verify_of_a_manifest_with_an_edited_count_exits_4(tmp_path, capsys):
    ds = _dataset(tmp_path, "abstract", "--t", "3")
    _edit_manifest(ds, lambda m: m["outputs"][0].update(count=4))
    capsys.readouterr()
    assert main(["verify", "--manifest", str(ds)]) == 4
    assert capsys.readouterr().err == "MISMATCH: part-0000.jsonl: regenerated 3 records, manifest says 4\n"


@pytest.mark.parametrize("kind, command", [("langsym", "eval"), ("abstract", "eval-langsym")])
def test_cli_eval_of_the_other_kind_exits_2(tmp_path, capsys, kind, command):
    ds = _dataset(tmp_path, kind)
    report = tmp_path / "report.json"
    capsys.readouterr()
    code = main([command, "--prompts", str(ds), "--backend", "oracle", "--strategy", "think", "--report", str(report)])
    assert code == 2
    want = "langsym" if command == "eval-langsym" else "abstract"
    assert f"config error: {command} expects a {want!r} dataset, found kind {kind!r}" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("kind", ["abstract", "langsym"])
def test_cli_inspect_past_the_last_item_exits_3(tmp_path, capsys, kind):
    ds = _dataset(tmp_path, kind, "--t", "3")
    capsys.readouterr()
    assert main(["inspect", "--in", str(ds), "--index", "2"]) == 0
    capsys.readouterr()
    assert main(["inspect", "--in", str(ds), "--index", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: no item with index 3 in {ds}\n" and captured.out == ""


@pytest.mark.parametrize("argv", [
    ["verify", "--manifest", "{ds}"],
    ["inspect", "--in", "{ds}"],
    ["eval", "--prompts", "{ds}", "--backend", "oracle", "--strategy", "think", "--report", "{report}"],
], ids=["verify", "inspect", "eval"])
def test_cli_manifest_of_an_unknown_kind_exits_2(tmp_path, capsys, argv):
    ds = _dataset(tmp_path, "abstract", "--t", "3")
    _edit_manifest(ds, lambda m: m.update(kind="foo"))
    report = tmp_path / "report.json"
    capsys.readouterr()
    assert main([arg.format(ds=ds, report=report) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert "config error: " in captured.err and "'foo'" in captured.err and captured.out == ""
    assert not report.exists()
