"""Seed derivation and generator construction.

All randomness in this package flows through numpy's Philox counter-based
bit generator, keyed directly with a 64-bit seed (bypassing SeedSequence so
the mapping seed -> stream is fully specified by Philox itself). Per-item
seeds are derived from a master seed with SplitMix64, which gives every
dataset index its own independent stream and makes generation embarrassingly
parallel: worker processes can produce any subset of indices and the bytes
come out identical.

Stream layout for a master seed s:
  - dataset item j          -> derive_seed(s, j)          (j < 2**62)
  - embedding matrix        -> derive_seed(s, STREAM_EMBED)
  - token-processor cache   -> derive_seed(s, STREAM_CACHE)
  - output shuffle          -> Philox keyed with s + 1 directly

numpy >= 1.26 is required. NEP 19 freezes only the legacy RandomState, not
Generator, so a numpy release may change the streams of the Generator
methods used here (integers, random, standard_normal). tests/test_golden.py
and bench/golden.json pin the resulting bytes and catch such a change.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# High-bit stream ids reserved for per-dataset artifacts; item indices are
# required to stay below 2**62 so the two ranges cannot collide.
STREAM_EMBED = (1 << 63) | 1
STREAM_CACHE = (1 << 63) | 2

MAX_ITEM_STREAM = 1 << 62


def splitmix64(x: int) -> int:
    """SplitMix64 finalizer: a bijective 64-bit mix."""
    x &= _MASK64
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def derive_seed(master_seed: int, stream: int) -> int:
    """Seed for sub-stream `stream` of `master_seed`.

    Computed as the SplitMix64 output at state master_seed + (stream+1)*gamma,
    i.e. indexed access into the canonical SplitMix64 sequence.
    """
    state = (master_seed + ((stream + 1) * _GAMMA & _MASK64)) & _MASK64
    return splitmix64(state)


def make_rng(seed: int) -> np.random.Generator:
    """Philox generator keyed with a raw 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=seed & _MASK64))


def choose_distinct(rng: np.random.Generator, pool_size: int, k: int) -> list[int]:
    """k distinct uniform draws from range(pool_size), via partial Fisher-Yates.

    Implemented here rather than with Generator.choice so the exact draw
    sequence is pinned by this code, not by numpy internals.
    """
    idx = list(range(pool_size))
    for i in range(k):
        j = int(rng.integers(i, pool_size))
        idx[i], idx[j] = idx[j], idx[i]
    return idx[:k]


def permutation(rng: np.random.Generator, n: int) -> list[int]:
    """Uniform permutation of range(n) by full Fisher-Yates (draw order pinned)."""
    return choose_distinct(rng, n, n)


def pick(rng: np.random.Generator, choices: list[int]) -> int:
    """Uniform element of a non-empty choice list. Always consumes one draw."""
    return choices[int(rng.integers(len(choices)))]
