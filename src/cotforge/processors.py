"""Randomly weighted MLP token processors and chain-token generation.

A chain token is produced from its parent tokens by (1) pushing each
parent's embedding through the processor MLP, (2) averaging the outputs,
(3) applying LeakyReLU to the average, and (4) taking the normal-token id
whose embedding row has the largest dot product with the result. Argmax is
restricted to normal tokens so chain tokens can never be delimiters, and
ties break toward the smallest id.

Weights are stored float32; all arithmetic runs in float64 so the argmax
is stable across platforms. The weights are converted to float64 once per
MLP (each keeps C-contiguous float64 transposes of its layers), and the
embeddings once per matrix (its float64 rows and their C-contiguous
transpose), so the kernel converts nothing per call. The converted arrays
are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError
from .rng import ItemStream, make_rng
from .vocab import N_SPECIAL, EmbeddingMatrix, read_only


@dataclass(frozen=True)
class Mlp:
    """Depth-l stack of square weight matrices with LeakyReLU activation.

    Layer composition: LeakyReLU after every layer except the last, whose
    output stays linear because the chain-token step applies the activation
    once more after averaging across parents. At the default depth 1 the MLP
    is a single linear map.
    """

    weights: tuple[np.ndarray, ...]
    slope: float

    @cached_property
    def weights_f64_t(self) -> tuple[np.ndarray, ...]:
        """Each layer's weights transposed, as C-contiguous float64."""
        return tuple(read_only(np.ascontiguousarray(w.T, dtype=np.float64)) for w in self.weights)

    def apply_f64(self, x: np.ndarray) -> np.ndarray:
        """Apply to a batch of row vectors (..., dim), in float64."""
        out = x
        last = len(self.weights) - 1
        for i, w_t in enumerate(self.weights_f64_t):
            out = out @ w_t
            if i < last:
                out = leaky_relu(out, self.slope)
        return out


def leaky_relu(x: np.ndarray, slope: float) -> np.ndarray:
    # for 0 < slope <= 1 the larger of x and slope * x is x when x >= 0 and
    # slope * x otherwise: np.where(x >= 0, x, slope * x) bit for bit, -0.0
    # and nan included, in one pass
    return np.maximum(x, slope * x)


def new_cache(cache_size: int, dim: int, depth: int, slope: float, seed: int) -> tuple[Mlp, ...]:
    """cache_size MLPs with i.i.d. N(0,1) weights from Philox(seed).

    Fill order: processor 0 layer 0 row-major, then layer 1, ..., then
    processor 1, so the cache regenerates bit-exactly from its seed.
    """
    if cache_size < 1:
        raise ConfigError(f"cache_size must be >= 1, got {cache_size}")
    if dim < 1 or depth < 1:
        raise ConfigError(f"dim and depth must be >= 1, got ({dim}, {depth})")
    if not 0.0 < slope <= 1.0:
        raise ConfigError(f"activation slope must be in (0, 1], got {slope}")
    rng = make_rng(seed)
    procs = []
    for _ in range(cache_size):
        weights = tuple(
            rng.standard_normal((dim, dim)).astype(np.float32) for _ in range(depth)
        )
        procs.append(Mlp(weights=weights, slope=slope))
    return tuple(procs)


def sample_processors(cache: tuple[Mlp, ...], n_chain: int, rng: ItemStream) -> list[int]:
    """n_chain uniform cache indices, with replacement (one per chain node)."""
    if n_chain < 1:
        raise ConfigError(f"n_chain must be >= 1, got {n_chain}")
    return [int(rng.integers(len(cache))) for _ in range(n_chain)]


def chain_tokens_batch(
    dag_parents: tuple[tuple[int, ...], ...],
    processors: list[Mlp],
    emb: EmbeddingMatrix,
    inputs: np.ndarray,
) -> np.ndarray:
    """Chain tokens for a whole batch of examples sharing one DAG.

    `inputs` is (K, N) int64; returns (K, C) int64. One matmul pass per chain
    node, all in float64 on the arrays the embedding matrix and each
    processor converted once. Generation calls it, and so does the tests'
    recomputation of a stored record's chains from its meta, so the two
    match bit for bit.
    """
    e64, e64_t = emb.f64, emb.f64_t
    n_examples, n_inputs = inputs.shape
    n_chain = len(dag_parents)
    toks = np.empty((n_examples, n_inputs + n_chain), dtype=np.int64)
    toks[:, :n_inputs] = inputs
    # One (K, vocab) score buffer for every node: a fresh one per node costs
    # more in page faults than the matmul that fills it.
    scores = np.empty((n_examples, e64.shape[0]))
    for c in range(1, n_chain + 1):
        mlp = processors[c - 1]
        parent_idx = list(dag_parents[c - 1])
        hidden = mlp.apply_f64(e64[toks[:, parent_idx]])
        # mean over the parents as ndarray.mean computes it (sum, then divide
        # by the count), without its per-call Python overhead
        activated = leaky_relu(np.add.reduce(hidden, axis=1) / len(parent_idx), mlp.slope)
        np.matmul(activated, e64_t, out=scores)
        scores[:, :N_SPECIAL] = -np.inf
        toks[:, n_inputs + c - 1] = scores.argmax(axis=1)
    return toks[:, n_inputs:]
