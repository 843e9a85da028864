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

Streams keyed by a seed given on the command line, not by s:
  - strip-cot of item j     -> derive_seed(transform seed, j)
  - verify --sample shards  -> make_rng(seed) directly
  - RandomBackend chains    -> make_rng(seed) directly

numpy >= 1.26 is required. NEP 19 freezes only the legacy RandomState, not
Generator, so a numpy release may change the streams of the Generator
methods used here (integers, random, standard_normal). tests/test_golden.py
and bench/golden.json pin the resulting bytes and catch such a change.

bulk_rounds reproduces two more numpy behaviours from raw Philox words,
with no Generator call per draw:
  - Philox's buffered 32-bit half. A 32-bit draw takes the low half of a
    new 64-bit word and keeps the high half (has_uint32, uinteger in the
    state) for the next 32-bit draw; 64-bit draws such as random() pass
    the buffer by.
  - Lemire bounded draws. integers(0, h) for h < 2**32 maps a 32-bit value
    u to (u * h) >> 32 and redraws when the low 32 bits of u * h are below
    the threshold (2**32 - h) mod h.
The golden hashes and tests/test_rng.py's equivalence tests pin both.
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

_DRAW_CHUNK = 1 << 16  # swap targets per array draw in permutation


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
    """Uniform permutation of range(n) by full Fisher-Yates (draw order pinned).

    The swap targets are drawn as arrays of up to _DRAW_CHUNK, the same
    stream as choose_distinct's n scalar draws integers(i, n).
    """
    idx = list(range(n))
    for lo in range(0, n, _DRAW_CHUNK):
        targets = rng.integers(np.arange(lo, min(lo + _DRAW_CHUNK, n)), n).tolist()
        for i, j in enumerate(targets, lo):
            idx[i], idx[j] = idx[j], idx[i]
    return idx


def bulk_rounds(rng: np.random.Generator, rounds: int, size: int, high: int) -> tuple[np.ndarray, np.ndarray] | None:
    """`rounds` x (integers(0, high, size=size), then random()) from one raw block.

    Returns the draws as uint8 codes (rounds, size) and the variates
    (rounds,), with the generator left where the per-round calls leave it;
    2 <= high <= 256. The integers take the 32-bit halves of the raw words,
    low half first, after the buffered half when there is one; round e's
    variate is the word that follows its last half. When any draw would
    have been redrawn (probability below size * rounds * high / 2**32) it
    restores the generator and returns None, for the caller to draw per
    round.
    """
    bitgen = rng.bit_generator
    saved = bitgen.state
    has = saved["has_uint32"]
    variate_at = [(size * (e + 1) - has + 1) // 2 + e for e in range(rounds)]
    raw = bitgen.random_raw(variate_at[-1] + 1)
    is_half = np.ones(len(raw), dtype=bool)
    is_half[variate_at] = False
    halves = raw[is_half].astype("<u8", copy=False).view("<u4")
    if has:
        halves = np.concatenate((np.array([saved["uinteger"]], dtype=np.uint32), halves))
    wide = halves[: rounds * size].astype(np.uint64) * high
    if (wide.astype(np.uint32) < (2**32 - high) % high).any():
        bitgen.state = saved
        return None
    state = bitgen.state
    state["has_uint32"], state["uinteger"] = len(halves) - rounds * size, int(halves[-1])
    bitgen.state = state
    variates = (raw[variate_at] >> 11) * 2.0**-53
    return (wide >> 32).astype(np.uint8).reshape(rounds, size), variates


def pick(rng: np.random.Generator, choices: list[int]) -> int:
    """Uniform element of a non-empty choice list. Always consumes one draw."""
    return choices[int(rng.integers(len(choices)))]
