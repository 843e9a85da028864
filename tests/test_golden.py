"""Golden bytes: pinned sha256 values of small datasets and eval reports.

Self-consistency tests (generate == regenerate, 1 worker == N workers) do
not notice a change that reorders random draws or a numpy upgrade that
changes a Generator stream. These do: every value below was computed once
and committed, and a refactor must reproduce it byte for byte.

Each dataset hash covers the concatenated shards in manifest order, so it
does not depend on the shard count. Report hashes cover the report file
written by the CLI.
"""

import hashlib
import json

import pytest

from cotforge.cli import main

MIXED = {"alpha": 1.0, "a": 0.5, "b": 0.5}  # r(j) in [0.5, 1]: both renderings
ALL_COT = {"alpha": 0.0, "a": 1.0, "b": 0.0}

ABSTRACT = {
    "n_choices": [3, 4],
    "m_choices": [1, 2, 3],
    "c_choices": [2, 3],
    "k": 6,
    "t": 16,
    "master_seed": 20251,
    "shuffle": True,
    "vocab_size": 128,
    "dim": 6,
    "cache_size": 8,
}
LANGSYM = {
    "n_choices": [3, 4],
    "m_choices": [1, 2],
    "c_choices": [2, 3],
    "k": 5,
    "t": 12,
    "master_seed": 20252,
    "shuffle": True,
    "w": 6,
}
# N*w odd, so one example's letters end on half of a buffered 32-bit draw
LANGSYM_ODD = dict(LANGSYM, n_choices=[3], k=4, t=6, master_seed=20253, w=5)
LANGSYM_DISTINCT = dict(LANGSYM, k=4, t=6, master_seed=20254, w=7, distinct_letters=True)

PINNED = {
    "abstract-mixed": "4a21b0cb75c3fda5bc6ea0bf3dc694c630614ff5534ef2451e6137d86744ecdc",
    "abstract-mixed-strip": "693e9e6bcfdb7c69f407bce7dde33b98c57301a0d4acec35417337ba663cdf7c",
    "abstract-cot": "a6c8e967d861d69785836fbeb3203260c3eaa69a2c12ec29a864ea8cffd5db0c",
    "abstract-cot-strip": "19ed34330d8bdb4b38c5f1ea5db1926f9bfe67d5aa9661ca908817b203db2a96",
    "eval-oracle-think": "5d3cac541cfd337e4ab69f147f425c1595181d838f000806549e581e3bf47e8c",
    "eval-oracle-answer": "b4fd0decd2f5bc8d7c3b9458a06eb1064cb15896cb904ac1efbbc44d7f668d5f",
    "eval-oracle-none": "5d3cac541cfd337e4ab69f147f425c1595181d838f000806549e581e3bf47e8c",
    "eval-random-think": "5dcd8d2523a79cf72a7dd8d48e633cfd40f2199ed18ea990e6bf6519582c4d26",
    "eval-random-answer": "19c6c263216ae69a03efe64a19c5ee45d5297f0cba1d4136db886d4aa37946a3",
    "eval-random-none": "5dcd8d2523a79cf72a7dd8d48e633cfd40f2199ed18ea990e6bf6519582c4d26",
    "langsym-mixed": "e8302187b2cbfe6f65864199635bb957ce400f352c5d6df1ca59bfae18765257",
    "langsym-mixed-strip": "5bc09d3ddc0d6f1bc47e3bd5cf42d2cd27a7202148a8e83c7ebf8cd8c0ed4c68",
    "eval-langsym-answer": "b995e48b8eaa43d40429263a9feb9c109a2d68660ee3bf4ecdc94d5378d49dc4",
    "langsym-odd-w": "1f8c1360599eec26d632d52cd830026ec907018492c735bdafbe212256edba1f",
    "langsym-distinct": "767e8253c63cbfcdd6ba8568220c5c2b511ba8ab75022d3d2087947fe13d77d7",
}


def dataset_sha256(path) -> str:
    digest = hashlib.sha256()
    for out in json.loads((path / "manifest.json").read_text())["outputs"]:
        digest.update((path / out["path"]).read_bytes())
    return digest.hexdigest()


def file_sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(*argv) -> None:
    assert main([str(a) for a in argv]) == 0, argv


def gen(tmp, name: str, kind: str, config: dict):
    cfg = tmp / f"{name}.json"
    cfg.write_text(json.dumps(config))
    out = tmp / name
    run(f"gen-{kind}", "--config", cfg, "--out", out, "--shards", 2)
    return out


def strip(tmp, src, k_prime: int, seed: int):
    out = tmp / f"{src.name}-strip"
    run("strip-cot", "--in", src, "--k-prime", k_prime, "--seed", seed, "--out", out)
    return out


@pytest.fixture(scope="module")
def hashes(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden")
    found = {}

    mixed = gen(tmp, "abstract-mixed", "abstract", dict(ABSTRACT, recipe=MIXED))
    found["abstract-mixed"] = dataset_sha256(mixed)
    found["abstract-mixed-strip"] = dataset_sha256(strip(tmp, mixed, 2, 7))

    cot = gen(tmp, "abstract-cot", "abstract", dict(ABSTRACT, recipe=ALL_COT))
    found["abstract-cot"] = dataset_sha256(cot)
    cot_strip = strip(tmp, cot, 3, 8)
    found["abstract-cot-strip"] = dataset_sha256(cot_strip)
    for backend in ("oracle", "random"):
        for strategy in ("think", "answer", "none"):
            report = tmp / f"eval-{backend}-{strategy}.json"
            run("eval", "--prompts", cot_strip, "--backend", backend, "--strategy", strategy,
                "--seed", 3, "--report", report)
            found[f"eval-{backend}-{strategy}"] = file_sha256(report)

    lang = gen(tmp, "langsym-mixed", "langsym", dict(LANGSYM, recipe=MIXED))
    found["langsym-mixed"] = dataset_sha256(lang)
    lang_strip = strip(tmp, lang, 1, 9)
    found["langsym-mixed-strip"] = dataset_sha256(lang_strip)
    report = tmp / "eval-langsym-answer.json"
    run("eval-langsym", "--prompts", lang_strip, "--backend", "oracle", "--strategy", "answer",
        "--report", report)
    found["eval-langsym-answer"] = file_sha256(report)

    found["langsym-odd-w"] = dataset_sha256(gen(tmp, "langsym-odd-w", "langsym", dict(LANGSYM_ODD, recipe=MIXED)))
    found["langsym-distinct"] = dataset_sha256(
        gen(tmp, "langsym-distinct", "langsym", dict(LANGSYM_DISTINCT, recipe=MIXED))
    )
    return found


@pytest.mark.parametrize("name", sorted(PINNED))
def test_output_matches_pinned_sha256(hashes, name, capsys):
    capsys.readouterr()
    assert hashes[name] == PINNED[name]
