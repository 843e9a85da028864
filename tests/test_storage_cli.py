import json
import math
import os
import shlex
import sys
import textwrap

import pytest

from cotforge import DatasetConfig, Recipe, Sequence
from cotforge.cli import main
from cotforge.sequences import build_artifacts, parse_sequence
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
    blob = bytearray(open(path, "rb").read())
    blob[10] ^= 0xFF
    with open(path, "wb") as fh:
        fh.write(blob)
    assert verify_dataset(out) != []


def test_verify_detects_corruption(tmp_path):
    out = str(tmp_path / "ds")
    write_dataset(out, KIND_ABSTRACT, ABSTRACT_CFG)
    path = os.path.join(out, "part-0000.jsonl")
    blob = bytearray(open(path, "rb").read())
    blob[100] ^= 0xFF
    with open(path, "wb") as fh:
        fh.write(blob)
    problems = verify_dataset(out)
    assert problems and "sha256" in problems[0]


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
    vocab, _, _ = build_artifacts(cfg)
    for rec in read_records(dst):
        seq = Sequence.from_record(rec)
        parsed = parse_sequence(list(seq.tokens), vocab)
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
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
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
    blob = bytearray(open(path, "rb").read())
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
    ],
)
def test_cli_bad_config_value_exit_code(tmp_path, capsys, kind, bad):
    cfg = _write_cfg(tmp_path, dict(ABSTRACT_CFG if kind == "abstract" else LANGSYM_CFG, **bad))
    out = tmp_path / "x"
    assert main([f"gen-{kind}", "--config", cfg, "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_cli_malformed_manifest_exit_code(tmp_path, capsys):
    ds = tmp_path / "ds"
    ds.mkdir()
    (ds / "manifest.json").write_text('{"kind": "abstract", "config": ')
    assert main(["verify", "--manifest", str(ds)]) == 2
    assert "malformed manifest" in capsys.readouterr().err


def test_cli_budget_json_first_line(tmp_path, capsys):
    assert main(["budget", "--alpha", "0", "--n", "4", "--c", "4", "--k", "40", "--t", "100"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out.splitlines()[0])
    assert doc["expected_cot_examples_exact"] == 4000.0
    assert "expected tokens" in out


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
    doc = json.loads(open(report).read())
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
    doc = json.loads(open(report).read())
    assert 0.0 <= doc["accuracy"] <= 1.0
    assert doc["format_failures"] == 0
    capsys.readouterr()


def test_cli_eval_langsym_oracle(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, LANGSYM_CFG)
    ds = str(tmp_path / "ls")
    report = str(tmp_path / "rep.json")
    assert main(["gen-langsym", "--config", cfg, "--out", ds]) == 0
    assert main(["eval-langsym", "--prompts", ds, "--backend", "oracle", "--strategy", "think", "--budget", "1000", "--report", report]) == 0
    doc = json.loads(open(report).read())
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
    doc = json.loads(open(report).read())
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


def test_cli_inspect_langsym(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, LANGSYM_CFG)
    ds = str(tmp_path / "ls")
    main(["gen-langsym", "--config", cfg, "--out", ds])
    capsys.readouterr()
    assert main(["inspect", "--in", ds, "--index", "0"]) == 0
    out = capsys.readouterr().out
    assert "--- system ---" in out and "--- assistant ---" in out


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


def test_cli_shuffled_dataset_verifies(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, dict(ABSTRACT_CFG, shuffle=True))
    ds = str(tmp_path / "ds")
    assert main(["gen-abstract", "--config", cfg, "--out", ds]) == 0
    ids = [r["seq_id"] for r in read_records(ds)]
    assert ids != sorted(ids)
    assert sorted(ids) == list(range(ABSTRACT_CFG["t"]))
    assert main(["verify", "--manifest", ds]) == 0
    capsys.readouterr()


# A text backend that knows each prompt's answer: answers.json maps the query
# question to [final word, action]; action "malformed" replies with a
# non-JSON line and "close" exits without replying.
_TEXT_BOT = textwrap.dedent(
    """
    import json, sys
    answers = json.load(open(sys.argv[1]))
    for line in sys.stdin:
        question = [m["content"] for m in json.loads(line)["messages"] if m["role"] == "user"][-1]
        word, action = answers[question]
        if action == "close":
            break
        print("nonsense" if action == "malformed" else json.dumps({"completion": "\\\\boxed{%s}" % word}), flush=True)
    """
)


def _text_bot_eval(tmp_path, actions):
    """eval-langsym --strategy answer through _TEXT_BOT; returns (exit code, report path, records)."""
    cfg = _write_cfg(tmp_path, LANGSYM_CFG)
    ds = str(tmp_path / "ls")
    assert main(["gen-langsym", "--config", cfg, "--out", ds]) == 0
    records = list(read_records(ds))
    bots = tmp_path / "text bots"  # the space must survive --backend-cmd parsing
    bots.mkdir()
    answers = {rec["messages"][-2]["content"]: [rec["meta"]["chains"][-1][-1], actions(i)] for i, rec in enumerate(records)}
    (bots / "answers.json").write_text(json.dumps(answers))
    (bots / "text bot.py").write_text(_TEXT_BOT)
    cmd = shlex.join([sys.executable, str(bots / "text bot.py"), str(bots / "answers.json")])
    report = tmp_path / "rep.json"
    code = main(["eval-langsym", "--prompts", ds, "--backend", "stdio-text", "--backend-cmd", cmd,
                 "--strategy", "answer", "--report", str(report)])
    return code, report, records


def test_cli_text_stdio_bot_scores_one(tmp_path, capsys):
    code, report, _ = _text_bot_eval(tmp_path, lambda i: "ok")
    assert code == 0, capsys.readouterr().err
    doc = json.loads(report.read_text())
    assert doc["accuracy"] == 1.0
    assert all(r["error"] is None for r in doc["records"])


def test_cli_text_stdio_faults_become_error_records(tmp_path, capsys):
    code, report, records = _text_bot_eval(tmp_path, lambda i: {0: "malformed", 1: "close"}.get(i, "ok"))
    assert code == 0, capsys.readouterr().err
    doc = json.loads(report.read_text())
    errors = [r["error"] for r in doc["records"]]
    assert "malformed reply" in errors[0]
    assert "closed its output" in errors[1]
    assert errors[2:] == [None] * (len(records) - 2)
    assert [r["indicator"] for r in doc["records"]] == [0, 0] + [1] * (len(records) - 2)


@pytest.mark.parametrize("action", ["malformed", "close"])
def test_cli_text_stdio_all_failing_exits_3(tmp_path, capsys, action):
    code, report, _ = _text_bot_eval(tmp_path, lambda i: action)
    assert code == 3
    assert "backend failed on all" in capsys.readouterr().err
    assert not report.exists()
