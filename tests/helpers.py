"""Independent oracles and statistical helpers shared across the test suite.

Everything here deliberately avoids the package's own vectorized code paths:
the chain-token oracle is an explicit per-step loop, reachability is an
exhaustive path enumeration, items of both kinds are drawn with make_rng
Generator calls, one per value (LangSym: per word), not the package's
ItemStream, and rendered example by example, dataset and prompt stripping parse and
re-render every example with the per-example renderers, eval prompts come
from a token-by-token parse, and the distribution checks use textbook formulas (scipy only
supplies critical values). peak_rss_mb measures a CLI command's memory.
recompute_chains is the one exception: it replays generation's own chain
arithmetic from a record's meta, so its agreement with the stored chains
is exact.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

from cotforge.dag import sample_dag
from cotforge.errors import ConfigError
from cotforge.harness import EvalPrompt
from cotforge.langsym import random_word, render_assistant, render_question, string_transform
from cotforge.processors import chain_tokens_batch
from cotforge.recipe import r_cot
from cotforge.rng import derive_seed, make_rng, pick
from cotforge.sequences import (
    check_layout,
    cot_example_mask,
    parse_examples,
    parse_sequence,
    render_cot_example,
    render_example_tokens,
    render_standard_example,
    standard_example_mask,
)
from cotforge.vocab import N_SPECIAL


def oracle_chain_token(weights, slope, emb_f32, parent_ids, n_special):
    """Step-by-step single chain token: per-parent MLP, mean, LeakyReLU, argmax.

    Written with explicit loops over parents, layers, and score rows so it
    shares no code with the library implementation.
    """
    e64 = emb_f32.astype(np.float64)
    hidden_sum = np.zeros(e64.shape[1])
    for pid in parent_ids:
        h = e64[pid].copy()
        for li, w in enumerate(weights):
            h = w.astype(np.float64) @ h
            if li < len(weights) - 1:
                h = np.array([v if v >= 0 else slope * v for v in h])
        hidden_sum += h
    mean = hidden_sum / len(parent_ids)
    act = np.array([v if v >= 0 else slope * v for v in mean])
    best_id, best_score = None, -math.inf
    for tid in range(n_special, e64.shape[0]):
        score = float(np.dot(e64[tid], act))
        if score > best_score:
            best_id, best_score = tid, score
    return best_id


def reference_start_item(config, j: int):
    """config.start_item(j) with a make_rng Generator in place of the item's ItemStream.

    Returns the Generator, left where the start's draws leave it.
    """
    seed = derive_seed(config.master_seed, j)
    rng = make_rng(seed)
    n = pick(rng, sorted(config.n_choices))
    m = pick(rng, sorted(config.m_choices))
    c = pick(rng, sorted(config.c_choices))
    return seed, rng, r_cot(config.recipe, j, config.t), n, m, c, sample_dag(n, m, c, rng)


def reference_sequence(config, j: int) -> dict:
    """generate_sequence as one Generator call per draw, rendered example by example."""
    vocab, emb, cache = config.artifacts
    seed, rng, r, n, m, c, dag = reference_start_item(config, j)
    proc_ids = [int(rng.integers(len(cache))) for _ in range(c)]
    inputs = [[N_SPECIAL + int(rng.integers(vocab.n_normal)) for _ in range(n)] for _ in range(config.k)]
    flags = [int(r >= rng.random()) for _ in range(config.k)]
    chains = chain_tokens_batch(dag.parents, [cache[i] for i in proc_ids], emb, np.array(inputs)).tolist()
    tokens, mask = [vocab.bos], [0]
    for x, chain, is_cot in zip(inputs, chains, flags):
        if is_cot:
            tokens += render_cot_example(x, chain, vocab)
            mask += cot_example_mask(n, c)
        else:
            tokens += render_standard_example(x, chain[-1], vocab)
            mask += standard_example_mask(n)
    meta = {"n": n, "m": m, "c": c, "k": config.k, "r_cot": r, "dag": dag.to_json(), "proc_ids": proc_ids,
            "cot_flags": flags, "seed": seed}
    return {"seq_id": j, "tokens": tokens, "loss_mask": mask, "meta": meta}


def reference_prompt(config, j: int) -> dict:
    """generate_langsym_prompt as one Generator call per word and variate and
    one string_transform per chain word."""
    seed, rng, r, n, m, c, dag = reference_start_item(config, j)
    messages = [{"role": "system", "content": config.templates.system_prompt}]
    inputs, chains, flags = [], [], []
    for _ in range(config.k):
        words = [random_word(config.w, rng, config.distinct_letters) for _ in range(n)]
        pool = list(words)
        for parents in dag.parents:
            pool.append(string_transform([pool[p] for p in parents]))
        chain = pool[n:]
        is_cot = r >= rng.random()
        messages.append({"role": "user", "content": render_question(words, config.templates)})
        messages.append({"role": "assistant", "content": render_assistant(chain, is_cot, config.templates)})
        inputs.append(words)
        chains.append(chain)
        flags.append(int(is_cot))
    meta = {"n": n, "m": m, "c": c, "k": config.k, "w": config.w, "r_cot": r, "dag": dag.to_json(),
            "inputs": inputs, "chains": chains, "cot_flags": flags, "seed": seed}
    return {"prompt_id": j, "messages": messages, "meta": meta}


def all_paths_reach(dag, src: int, dst: int) -> bool:
    """Exhaustive simple-path search src -> dst over the DAG's child edges."""
    children = [[] for _ in range(dag.n_inputs + dag.n_chain)]
    for c, plist in enumerate(dag.parents, start=1):
        for p in plist:
            children[p].append(dag.n_inputs + c - 1)

    def walk(node: int) -> bool:
        if node == dst:
            return True
        return any(walk(nxt) for nxt in children[node])

    return walk(src)


def reference_stripped(cot_flags, k_prime: int, rng) -> set[int]:
    """Positions of k_prime of the set flags, by partial Fisher-Yates over the positions, one draw per swap."""
    positions = [i for i, flag in enumerate(cot_flags) if flag]
    if not 0 <= k_prime <= len(positions):
        raise ConfigError(f"k_prime {k_prime} outside [0, {len(positions)}] thinking context examples")
    for i in range(k_prime):
        j = int(rng.integers(i, len(positions)))
        positions[i], positions[j] = positions[j], positions[i]
    return set(positions[:k_prime])


def reference_strip_sequence_record(record: dict, k_prime: int, rng, vocab) -> dict:
    """Dataset-level stripping by parse and re-render, one example at a time.

    Draws the stripped examples exactly as harness.strip_sequence_record
    does, then renders every example again in its new mode.
    """
    parsed = parse_sequence(list(record["tokens"]), vocab)
    chosen = reference_stripped([ex.is_cot for ex in parsed[:-1]], k_prime, rng)
    n, c = record["meta"]["n"], record["meta"]["c"]
    tokens, mask, flags = [vocab.bos], [0], []
    for i, ex in enumerate(parsed):
        as_cot = ex.is_cot and i not in chosen
        tokens.extend(render_example_tokens(ex, vocab, as_cot=as_cot))
        mask.extend(cot_example_mask(n, c) if as_cot else standard_example_mask(n))
        flags.append(int(as_cot))
    meta = dict(record["meta"], cot_flags=flags)
    return {"seq_id": record["seq_id"], "tokens": tokens, "loss_mask": mask, "meta": meta}


def reference_strip_cot(prompt: EvalPrompt, k_prime: int, rng, vocab) -> EvalPrompt:
    """Prompt-level stripping by parse and re-render, one example at a time.

    Draws the stripped examples exactly as harness.strip_sequence_record
    does, over the parsed context examples' flags; the query's input
    segment, the last n+2 tokens of the context, is kept as it is. The
    meta's cot_flags are those of the re-rendered context plus the query's.
    """
    split = len(prompt.context) - (prompt.meta["n"] + 2)
    parsed = parse_examples(list(prompt.context[:split]), vocab, start=1)
    chosen = reference_stripped([ex.is_cot for ex in parsed], k_prime, rng)
    context, flags = [vocab.bos], []
    for i, ex in enumerate(parsed):
        as_cot = ex.is_cot and i not in chosen
        context.extend(render_example_tokens(ex, vocab, as_cot=as_cot))
        flags.append(int(as_cot))
    meta = dict(prompt.meta, cot_flags=[*flags, prompt.meta["cot_flags"][-1]])
    return EvalPrompt((*context, *prompt.context[split:]), prompt.ground_truth_chain, meta)


def reference_make_eval_prompt(record: dict, vocab) -> EvalPrompt:
    """The (K-1)-shot prompt of a sequence record, from a token-by-token parse.

    The parse validates the stream's structure; the last example's inputs
    and chain come from it, and the context is the stored tokens before it
    plus its input segment.
    """
    tokens = record["tokens"]
    parsed = parse_sequence(list(tokens), vocab)
    if len(parsed) < 2:
        raise ConfigError(f"need at least 2 examples to build a prompt, got {len(parsed)}")
    query = parsed[-1]
    if not query.is_cot:
        raise ConfigError("query example lacks a thinking segment; build prompts from all-CoT sequences")
    chain = (*query.intermediates, query.answer)
    query_len = len(query.inputs) + len(chain) + 7
    meta = dict(record["meta"])
    meta["seq_id"] = record["seq_id"]
    return EvalPrompt(
        context=(*tokens[: len(tokens) - query_len], vocab.inp_start, *query.inputs, vocab.inp_end),
        ground_truth_chain=chain,
        meta=meta,
    )


def recompute_chains(record: dict, config) -> np.ndarray:
    """Chains for every example of a sequence record of `config`, recomputed from its meta.

    Reads the inputs from the record's cell grid (`check_layout`) and
    replays the chain computation through the stored DAG and processor ids.
    Shares the exact arithmetic of generation, so equality with the stored
    chain tokens is an integrity check, not a tolerance comparison.
    """
    vocab, emb, cache = config.artifacts
    meta = record["meta"]
    cells, grid = check_layout(record["tokens"], meta, vocab)
    procs = [cache[i] for i in meta["proc_ids"]]
    return chain_tokens_batch(meta["dag"]["parents"], procs, emb, grid[:, cells.inputs])


def chi_square_uniform(counts, expected) -> float:
    """Pearson statistic against per-category expected counts."""
    counts = np.asarray(counts, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    return float(np.sum((counts - expected) ** 2 / expected))


def chi_square_critical(dof: int, significance: float) -> float:
    from scipy.stats import chi2

    return float(chi2.ppf(1.0 - significance, dof))


def normal_cdf(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.vectorize(math.erf)(x / math.sqrt(2.0)))


def ks_statistic_vs_normal(samples: np.ndarray) -> float:
    """Two-sided KS distance of the empirical CDF from N(0,1)."""
    xs = np.sort(np.asarray(samples, dtype=np.float64))
    n = len(xs)
    cdf = normal_cdf(xs)
    upper = np.max(np.arange(1, n + 1) / n - cdf)
    lower = np.max(cdf - np.arange(0, n) / n)
    return float(max(upper, lower))


def ks_critical(n: int, significance: float = 0.01) -> float:
    # asymptotic Kolmogorov distribution quantile: c(a) * sqrt(-ln(a/2) / 2) / sqrt(n)
    return math.sqrt(-0.5 * math.log(significance / 2.0)) / math.sqrt(n)


def _binom_pmf(n: int, k: int, p: float) -> float:
    log_pmf = (
        math.lgamma(n + 1)
        - math.lgamma(k + 1)
        - math.lgamma(n - k + 1)
        + k * math.log(p)
        + (n - k) * math.log1p(-p)
    )
    return math.exp(log_pmf) if log_pmf > -745 else 0.0


def binomial_interval(n: int, p: float, confidence: float = 0.99) -> tuple[int, int]:
    """Equal-tail interval [lo, hi]: at most (1-confidence)/2 mass outside each end."""
    tail = (1.0 - confidence) / 2.0
    pmf = [_binom_pmf(n, k, p) for k in range(n + 1)]
    acc, lo = 0.0, 0
    for k in range(n + 1):
        acc += pmf[k]
        if acc >= tail:
            lo = k
            break
    acc, hi = 0.0, n
    for k in range(n, -1, -1):
        acc += pmf[k]
        if acc >= tail:
            hi = k
            break
    return lo, hi


def shown(oracle, prompt: EvalPrompt):
    """`oracle` once it has been shown `prompt`, as an eval through its one_at_a_time shows it."""
    next(oracle.one_at_a_time([prompt]))
    return oracle


def line_outcome(write, *args):
    """("line", the bytes) of write(*args), or ("ConfigError", its text)."""
    try:
        return "line", write(*args)
    except ConfigError as exc:
        return "ConfigError", str(exc)


def strips(*k_primes):
    """One strip-cot transform per k', seeded 40, 41, ..."""
    return [{"kind": "strip-cot", "k_prime": k, "seed": 40 + i} for i, k in enumerate(k_primes)]


SRC = str(Path(__file__).resolve().parents[1] / "src")

# the reference LangSym config of the benchmark (k=40, n=m=c=4) but its t, about 66 KB per prompt
LANGSYM_REF_CFG = {
    "n_choices": [4], "m_choices": [4], "c_choices": [4], "k": 40,
    "recipe": {"alpha": 2.0, "a": 0.5, "b": 0.5}, "master_seed": 1,
}

# Runs argv[1:] and prints its exit code and peak RSS in KB. A child's peak
# RSS counts the memory of the process it was spawned from (its pages until
# the exec), so the command is spawned from this small interpreter, not
# from the test process.
_MEASURE = textwrap.dedent(
    """
    import os, subprocess, sys
    proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
    """
)


def peak_rss_mb(argv: list[str]) -> float:
    """Peak RSS in MB of `python -m cotforge *argv`, which must exit 0; its pool workers' peaks count too."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _MEASURE, sys.executable, "-m", "cotforge", *argv],
                          env=env, capture_output=True, text=True, timeout=300)
    code, peak_kb = map(int, done.stdout.split())
    assert code == 0, done.stderr
    return peak_kb / 1024
