"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured runtime (run with -s or -rA to see them).

The heavy criteria parallelize over item indices exactly the way the
library's own generation does (per-index seeding makes any partition of
the work byte-identical), so wall-clock bounds hold on modest hardware.
"""

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from cotforge import (
    DatasetConfig,
    ForcingConfig,
    OracleBackend,
    RandomBackend,
    Recipe,
    Vocabulary,
    evaluate,
    expected_cot_examples,
    expected_tokens,
    make_eval_prompt,
    new_cache,
    sample_dag,
    sample_embedding_matrix,
    step_correctness_grid,
    step_dag_breakdown,
    string_transform,
    validate_dag,
)
from cotforge.harness import FORCE_ANSWER, FORCE_THINK, NO_FORCING, strip_sequence_record
from cotforge.langsym import (
    LangSymConfig,
    extract_langsym_answer,
    extract_steps,
    generate_langsym_prompt,
)
from cotforge.recipe import r_cot_vector
from cotforge.rng import make_rng
from cotforge.processors import chain_tokens_batch
from cotforge.sequences import generate_sequence, parse_sequence, recompute_chains
from cotforge.storage import KIND_ABSTRACT, Manifest, verify_dataset, write_dataset
from cotforge.vocab import N_SPECIAL

from helpers import (
    binomial_interval,
    chi_square_critical,
    chi_square_uniform,
    oracle_chain_token,
)

WORKERS = min(8, os.cpu_count() or 1)


def _report(name: str, started: float, limit: float) -> None:
    elapsed = time.monotonic() - started
    print(f"\nACCEPTANCE PASS: {name} ({elapsed:.1f}s, limit {limit:.0f}s)")
    assert elapsed < limit, f"{name} exceeded its runtime budget: {elapsed:.1f}s >= {limit}s"


def _reference_config(alpha: float, t: int, master_seed: int) -> DatasetConfig:
    return DatasetConfig(
        n_choices=(4,),
        m_choices=(4,),
        c_choices=(4,),
        k=40,
        t=t,
        recipe=Recipe(alpha=alpha),
        master_seed=master_seed,
        vocab_size=1024,
        dim=10,
        cache_size=64,
    )


# --- criterion 1+2: token-budget closed forms ------------------------------------

def test_budget_ratios_and_euler_maclaurin():
    started = time.monotonic()
    all_cot = expected_tokens(Recipe(alpha=0.0), 4, 4, 40, 6_400_000)
    never = expected_tokens(Recipe(alpha=math.inf), 4, 4, 40, 6_400_000)
    ratio = all_cot.expected_tokens / never.expected_tokens
    assert 1.498 <= ratio <= 1.500, ratio
    for alpha in (0.5, 1.0, 2.0):
        exact, approx = expected_cot_examples(Recipe(alpha=alpha), k=40, t=1000)
        rel = abs(exact - approx) / exact
        assert rel <= 1e-3, (alpha, rel)
    _report("token-budget ratio 601/401; Euler-Maclaurin rel err <= 1e-3", started, 1.0)


def test_budget_quadratic_ratio_at_training_scale():
    started = time.monotonic()
    quad = expected_tokens(Recipe(alpha=2.0), 4, 4, 40, 6_400_000)
    never = expected_tokens(Recipe(alpha=math.inf), 4, 4, 40, 6_400_000)
    ratio = quad.expected_tokens / never.expected_tokens
    assert abs(ratio - 1.16) <= 0.01, ratio
    _report("alpha=2 vs alpha=inf token ratio 1.16 +/- 0.01 at T=64e5", started, 1.0)


# --- criterion 3: Monte-Carlo recipe check ---------------------------------------

def _count_cot(args) -> int:
    config_json, j_start, j_stop = args
    config = DatasetConfig.from_json(config_json)
    total = 0
    for j in range(j_start, j_stop):
        seq = generate_sequence(config, j)
        total += sum(seq["meta"]["cot_flags"])
    return total


def _parallel_sum(config: DatasetConfig, fn) -> int:
    t = config.t
    step = math.ceil(t / (WORKERS * 2))
    tasks = [(config.to_json(), a, min(a + step, t)) for a in range(0, t, step)]
    with ProcessPoolExecutor(max_workers=WORKERS) as pool:
        return sum(pool.map(fn, tasks))


def test_monte_carlo_cot_totals_match_expectation():
    started = time.monotonic()
    t, k = 10_000, 40
    for alpha in (0.0, 0.5, 1.0, 2.0, math.inf):
        config = _reference_config(alpha, t, master_seed=90_000 + int(alpha if not math.isinf(alpha) else 9))
        observed = _parallel_sum(config, _count_cot)
        exact, _ = expected_cot_examples(config.recipe, k, t)
        if alpha == 0.0:
            assert observed == k * t, observed
        elif math.isinf(alpha):
            assert observed == 0, observed
        else:
            r = r_cot_vector(config.recipe, t)
            sigma = math.sqrt(float(np.sum(k * r * (1.0 - r))))
            assert abs(observed - exact) <= 4.0 * sigma, (alpha, observed, exact, sigma)
    _report("Monte-Carlo CoT totals within 4 sigma (alpha in {0,.5,1,2,inf})", started, 120.0)


# --- criterion 4: structural invariants -------------------------------------------

def _check_structure(args) -> int:
    config_json, j_start, j_stop = args
    config = DatasetConfig.from_json(config_json)
    vocab = config.artifacts[0]
    checked = 0
    for j in range(j_start, j_stop):
        seq = generate_sequence(config, j)
        n, c = seq["meta"]["n"], seq["meta"]["c"]
        n_cot = sum(seq["meta"]["cot_flags"])
        expected_len = 1 + n_cot * (n + c + 7) + (config.k - n_cot) * (n + 6)
        assert len(seq["tokens"]) == expected_len, f"seq {j}: length"
        assert len(seq["loss_mask"]) == expected_len, f"seq {j}: mask length"
        assert sum(seq["loss_mask"]) == n_cot * (c + 5) + (config.k - n_cot) * 4, f"seq {j}: mask ones"
        parsed = parse_sequence(list(seq["tokens"]), vocab)
        assert [p.is_cot for p in parsed] == list(seq["meta"]["cot_flags"]), f"seq {j}: flags"
        # parse-render identity
        from cotforge.sequences import render_example_tokens

        rebuilt = [vocab.bos]
        for ex in parsed:
            rebuilt.extend(render_example_tokens(ex, vocab, as_cot=ex.is_cot))
        assert rebuilt == seq["tokens"], f"seq {j}: parse/render identity"
        # chain self-consistency against stored metadata
        chains = recompute_chains(seq, config)
        for i, ex in enumerate(parsed):
            assert ex.answer == chains[i][-1], f"seq {j} ex {i}: answer"
            if ex.is_cot:
                assert list(ex.intermediates) == [int(v) for v in chains[i][:-1]], f"seq {j} ex {i}: chain"
        checked += 1
    return checked


def test_structural_invariants_bulk():
    started = time.monotonic()
    config = _reference_config(1.0, 10_000, master_seed=123_456)
    checked = _parallel_sum(config, _check_structure)
    assert checked == 10_000
    _report("structural invariants on 1e4 sequences", started, 120.0)


# --- criterion 5: oracle / random evaluation -------------------------------------

def test_oracle_and_random_evaluation_protocol():
    started = time.monotonic()
    config = _reference_config(0.0, 1000, master_seed=777_777)  # all-CoT rendering
    vocab = config.artifacts[0]
    records = [generate_sequence(config, j) for j in range(config.t)]
    base = [make_eval_prompt(rec, vocab) for rec in records]
    for k_prime in (0, 10, 20, 30, 39):
        rng = make_rng(4242 + k_prime)
        prompts = [make_eval_prompt(strip_sequence_record(rec, k_prime, rng, vocab), vocab) for rec in records]
        backend = OracleBackend()
        for strategy in (FORCE_THINK, FORCE_ANSWER, NO_FORCING):
            report = evaluate(backend, backend.one_at_a_time(prompts), ForcingConfig(strategy=strategy))
            assert report.accuracy == 1.0, (k_prime, strategy, report.accuracy)
    random_backend = RandomBackend(vocab, seed=11)
    random_report = evaluate(random_backend, random_backend.one_at_a_time(base), ForcingConfig(strategy=FORCE_ANSWER))
    hits = sum(r.indicator for r in random_report.records)
    lo, hi = binomial_interval(len(base), 1.0 / vocab.n_normal, 0.99)
    assert lo <= hits <= hi, (hits, lo, hi)
    _report("oracle accuracy 1.0 for all K' and strategies; random baseline in CI", started, 120.0)


# --- criterion 6: chain-token oracle equivalence -----------------------------------

def test_chain_token_matches_independent_oracle():
    started = time.monotonic()
    vocab = Vocabulary(1024)
    emb = sample_embedding_matrix(vocab, 10, seed=31_415)
    cache = new_cache(64, 10, 1, 0.01, seed=27_182)
    rng = make_rng(16_180)
    for trial in range(1000):
        mlp = cache[int(rng.integers(64))]
        n_parents = int(rng.integers(1, 5))
        parents = [int(p) for p in rng.integers(N_SPECIAL, 1024, size=n_parents)]
        # the generation kernel on a one-row batch whose chain node reads every input
        ours = int(chain_tokens_batch((tuple(range(n_parents)),), [mlp], emb, np.array([parents]))[0, 0])
        theirs = oracle_chain_token(mlp.weights, mlp.slope, emb.data, parents, N_SPECIAL)
        assert ours == theirs, f"trial {trial}: {ours} != {theirs}"
    _report("chain-token generation == independent dense oracle (1000 instances)", started, 10.0)


# --- criterion 7: langsym ground truth and round trips ------------------------------

def test_langsym_ground_truth_and_round_trip():
    started = time.monotonic()
    assert string_transform(["aghmarib", "aribbsjc"]) == "bsjcctkd"
    config = LangSymConfig(
        n_choices=(4,),
        m_choices=(2,),
        c_choices=(3,),
        k=40,
        t=1000,
        recipe=Recipe(alpha=0.0),
        master_seed=60_606,
        w=8,
    )
    for j in range(config.t):
        chat = generate_langsym_prompt(config, j)
        for i in range(config.k):
            chain = chat["meta"]["chains"][i]
            assert all(len(word) == 8 for word in chain), f"prompt {j}: closure"
            assistant = chat["messages"][2 + 2 * i]["content"]
            assert extract_langsym_answer(assistant) == chain[-1], f"prompt {j} ex {i}: answer"
            if chat["meta"]["cot_flags"][i]:
                assert extract_steps(assistant) == chain[:-1], f"prompt {j} ex {i}: steps"
    _report("langsym transform ground truth, render/extract round trip, closure", started, 30.0)


# --- criterion 8: DAG sampling and breakdown tables ---------------------------------

def test_dag_sampling_and_breakdown_tables():
    started = time.monotonic()
    n, m, c_len, draws = 3, 2, 3, 10_000
    rng = make_rng(55_555)
    counts = [np.zeros(n + c - 1) for c in range(1, c_len + 1)]
    for _ in range(draws):
        dag = sample_dag(n, m, c_len, rng)
        assert validate_dag(dag) is None
        for c, plist in enumerate(dag.parents, start=1):
            for p in plist:
                counts[c - 1][p] += 1
    for c in range(1, c_len + 1):
        pool = n + c - 1
        expected = np.full(pool, draws * min(m, n) / pool)
        stat = chi_square_uniform(counts[c - 1], expected)
        assert stat < chi_square_critical(pool - 1, 0.01), (c, stat)

    # breakdown tables partition their prompt counts exactly
    config = _reference_config(0.0, 300, master_seed=98_765)
    vocab = config.artifacts[0]
    prompts = [
        make_eval_prompt(generate_sequence(config, j), vocab)
        for j in range(config.t)
    ]
    backend = RandomBackend(vocab, seed=2)
    report = evaluate(backend, backend.one_at_a_time(prompts), ForcingConfig(strategy=FORCE_THINK))
    n_correct = sum(1 for r in report.records if r.indicator)
    n_wrong = len(report.records) - n_correct
    grid = step_correctness_grid(report)
    assert grid["answer_correct"]["n"] == n_correct
    assert grid["answer_wrong"]["n"] == n_wrong
    breakdown = step_dag_breakdown(report)
    for table in breakdown["answer_correct"]:
        assert table["n"] == n_correct
    for table in breakdown["answer_wrong"]:
        assert table["n"] == n_wrong
    _report("1e4 DAGs validate; marginal chi-square at 0.01; table margins partition", started, 60.0)


# --- criterion 9: determinism across worker counts -----------------------------------

def test_regeneration_matches_manifest_with_1_and_8_workers(tmp_path):
    started = time.monotonic()
    config = _reference_config(1.0, 600, master_seed=24_242).to_json()
    one = write_dataset(str(tmp_path / "w1"), KIND_ABSTRACT, config, shards=4, workers=1)
    eight = write_dataset(str(tmp_path / "w8"), KIND_ABSTRACT, config, shards=4, workers=8)
    assert [o["sha256"] for o in one.outputs] == [o["sha256"] for o in eight.outputs]
    assert verify_dataset(str(tmp_path / "w1"), workers=8) == []
    assert verify_dataset(str(tmp_path / "w8"), workers=1) == []
    manifest = Manifest.load(str(tmp_path / "w1"))
    assert manifest.config == config
    _report("shard hashes identical with 1 and 8 workers; verify green both ways", started, 120.0)
