"""Independent oracles and statistical helpers shared across the test suite.

Everything here deliberately avoids the package's own vectorized code paths:
the chain-token oracle is an explicit per-step loop, reachability is an
exhaustive path enumeration, dataset stripping parses and re-renders every
example with the per-example renderers, eval prompts come from a token-by-
token parse, and the distribution checks use textbook formulas (scipy only
supplies critical values).
"""

from __future__ import annotations

import math

import numpy as np

from cotforge.errors import ConfigError
from cotforge.harness import EvalPrompt
from cotforge.recipe import choose_stripped
from cotforge.sequences import cot_example_mask, parse_sequence, render_example_tokens, standard_example_mask


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


def reference_strip_sequence_record(record: dict, k_prime: int, rng, vocab) -> dict:
    """Dataset-level stripping by parse and re-render, one example at a time.

    Draws the stripped examples exactly as harness.strip_sequence_record
    does, then renders every example again in its new mode.
    """
    parsed = parse_sequence(list(record["tokens"]), vocab)
    chosen = choose_stripped([ex.is_cot for ex in parsed[:-1]], k_prime, rng)
    n, c = record["meta"]["n"], record["meta"]["c"]
    tokens, mask, flags = [vocab.bos], [0], []
    for i, ex in enumerate(parsed):
        as_cot = ex.is_cot and i not in chosen
        tokens.extend(render_example_tokens(ex, vocab, as_cot=as_cot))
        mask.extend(cot_example_mask(n, c) if as_cot else standard_example_mask(n))
        flags.append(int(as_cot))
    meta = dict(record["meta"], cot_flags=flags)
    return {"seq_id": record["seq_id"], "tokens": tokens, "loss_mask": mask, "meta": meta}


def reference_make_eval_prompt(seq, vocab) -> EvalPrompt:
    """The (K-1)-shot prompt of a sequence, from a token-by-token parse.

    The parse validates the stream's structure; the last example's inputs
    and chain come from it, and the context is the stored tokens before it.
    """
    parsed = parse_sequence(list(seq.tokens), vocab)
    if len(parsed) < 2:
        raise ConfigError(f"need at least 2 examples to build a prompt, got {len(parsed)}")
    query = parsed[-1]
    if not query.is_cot:
        raise ConfigError("query example lacks a thinking segment; build prompts from all-CoT sequences")
    chain = (*query.intermediates, query.answer)
    query_len = len(query.inputs) + len(chain) + 7
    meta = dict(seq.meta.to_json())
    meta["seq_id"] = seq.seq_id
    return EvalPrompt(
        context_tokens=tuple(seq.tokens[: len(seq.tokens) - query_len]),
        query_segment=(vocab.inp_start, *query.inputs, vocab.inp_end),
        ground_truth_chain=chain,
        meta=meta,
    )


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
