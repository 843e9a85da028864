"""Seed derivation, item streams and generator construction.

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
  - verify --sample shards  -> Philox keyed with the seed directly
  - RandomBackend chains    -> Philox keyed with the seed directly

Every discrete draw (items, strip-cot, the output shuffle, verify --sample
and RandomBackend) is read through ItemStream, a cursor over the raw words
of one process-wide Philox, re-keyed through its state for each stream, so
no Generator is built or called per stream. The normals of the embedding
matrix and the processor cache are the one other reader: standard_normal
of a make_rng Generator.

ItemStream gives the values and the stream positions of the Generator
calls it replaces, from raw words and this module's code:
  - Philox's buffered 32-bit half. A 32-bit draw takes the low half of a
    new 64-bit word and keeps the high half (has_uint32, uinteger in the
    state) for the next 32-bit draw; 64-bit draws such as random() pass
    the buffer by.
  - Lemire bounded draws. integers(0, h) for 2 <= h <= 2**32 maps a 32-bit
    value u to (u * h) >> 32 and redraws when the low 32 bits of u * h are
    below the threshold (2**32 - h) mod h; h = 1 draws nothing. An array
    of lower bounds draws element by element, as Generator.integers does.
  - random() is (word >> 11) * 2**-53.
So every discrete draw depends on Philox's raw words and this code, not on
numpy's integers or random. numpy >= 1.26 is required. NEP 19 freezes only
the legacy RandomState, not Generator, so a numpy release may change the
standard_normal stream that make_rng's users read. tests/test_golden.py and
bench/golden.json pin the resulting bytes, and tests/test_rng.py pins
ItemStream against Generator.
"""

from __future__ import annotations

import functools

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# High-bit stream ids reserved for per-dataset artifacts; item indices are
# required to stay below 2**62 so the two ranges cannot collide.
STREAM_EMBED = (1 << 63) | 1
STREAM_CACHE = (1 << 63) | 2

MAX_ITEM_STREAM = 1 << 62

_M32 = (1 << 32) - 1
_BLOCK = 256  # raw words per ItemStream refill, about two reference items' draws

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


class ItemStream:
    """Cursor over the stream of Philox(key=seed), drawn as make_rng(seed) draws.

    integers(low, high[, size]) and random([size]) return what the same
    Generator calls return and leave the stream where they leave it, for
    1 <= high - low <= 2**32 (>= 2 for an array of lows); bulk_rounds is a
    batch of such calls. Raw words come in blocks from the process-wide
    Philox, re-keyed to this stream's key and counter for each block. The
    cursor owns its position: cursors drawn alternately each keep their own
    stream.
    """

    __slots__ = ("_key", "_blocks", "_raw", "_pos", "_half")

    def __init__(self, seed: int):
        self._key = seed & _MASK64
        self._blocks = 0  # Philox counter: 4-word blocks read so far
        self._raw = np.empty(0, dtype=np.uint64)  # words read; those from _pos on are unconsumed
        self._pos = 0
        self._half: int | None = None  # the buffered high half, if any

    def _words(self, count: int) -> np.ndarray:
        """The next `count` raw words, read ahead but not consumed."""
        end = self._pos + count
        if end > len(self._raw):
            left = self._raw[self._pos :]
            fresh = -(-max(count - len(left), _BLOCK) // 4) * 4  # whole blocks
            philox, state = _shared_philox()
            state["state"]["key"][0] = self._key
            state["state"]["counter"][0] = self._blocks
            philox.state = state
            self._raw = np.concatenate((left, philox.random_raw(fresh)))
            self._blocks += fresh // 4
            self._pos, end = 0, count
        return self._raw[self._pos : end]

    def _word(self) -> int:
        if self._pos == len(self._raw):
            self._words(1)
        self._pos += 1
        return int(self._raw[self._pos - 1])

    def _half32(self) -> int:
        """The next 32-bit draw: the buffered half, else the low half of a new word."""
        if self._half is not None:
            u, self._half = self._half, None
            return u
        word = self._word()
        self._half = word >> 32
        return word & _M32

    def _halves(self, count: int) -> np.ndarray:
        """The next `count` 32-bit draws as uint32, read ahead but not consumed."""
        buffered = self._half is not None
        words = self._words((count - buffered + 1) // 2)
        halves = words.astype("<u8", copy=False).view("<u4")  # low half first
        if buffered:
            halves = np.concatenate((np.array([self._half], dtype=np.uint32), halves))
        return halves[:count]

    def _skip_halves(self, count: int) -> None:
        """Consume `count` 32-bit draws that _halves read ahead."""
        if count and self._half is not None:
            self._half = None
            count -= 1
        self._pos += (count + 1) // 2
        if count % 2:
            self._half = int(self._raw[self._pos - 1]) >> 32

    def integers(self, low, high: int | None = None, size=None):
        """Generator.integers(low, high, size): an int, or an int64 array of shape `size`.

        With a size, `low` may be an int64 array of that shape: one lower bound per draw.
        """
        if high is None:
            low, high = 0, low
        span = high - low
        many = size is not None and isinstance(span, np.ndarray)  # a span per draw, sliced from the first undrawn one
        if many:
            if span.size and not (span.min() >= 2 and span.max() <= 1 << 32):
                raise ValueError(f"ItemStream array draws need 2 <= high - low <= 2**32, got high {high}")
            span = span.reshape(-1).astype(np.uint64)
        elif not 1 <= span <= 1 << 32:
            raise ValueError(f"ItemStream draws need 1 <= high - low <= 2**32, got [{low}, {high})")
        threshold = ((1 << 32) - span) % span
        if size is None:
            if span == 1:
                return low
            while True:
                m = self._half32() * span
                if m & _M32 >= threshold:
                    return low + (m >> 32)
        out = np.zeros(size, dtype=np.int64)
        flat = out.reshape(-1)
        done = 0 if many or span > 1 else flat.size
        while done < flat.size:
            wide = self._halves(flat.size - done).astype(np.uint64) * (span[done:] if many else span)
            rejected = np.flatnonzero(wide.astype(np.uint32) < (threshold[done:] if many else threshold))
            # values up to the first rejected draw stand; the rejected draw
            # is consumed and the rest are drawn again after it
            take = int(rejected[0]) if rejected.size else len(wide)
            flat[done : done + take] = wide[:take] >> 32
            self._skip_halves(take + (1 if rejected.size else 0))
            done += take
        out += low
        return out

    def random(self, size=None):
        """Generator.random(size): a float, or a float64 array of shape `size`."""
        if size is None:
            return (self._word() >> 11) * 2.0**-53
        out = np.empty(size)
        count = out.size
        out.reshape(-1)[:] = (self._words(count) >> 11) * 2.0**-53
        self._pos += count
        return out

    def bulk_rounds(self, rounds: int, size: int, high: int) -> tuple[np.ndarray, np.ndarray]:
        """`rounds` x (integers(0, high, size=size), then random()), in one pass over the words.

        Returns the integers as an int64 (rounds, size) array and the
        variates as (rounds,). Round e's integers are the next `size`
        32-bit draws and its variate the whole word after the last of them
        (an odd count leaves a half buffered for the next round). The
        rounds before the first rejected draw are taken at once; the round
        holding it is drawn call by call, which redraws in place, and the
        pass goes on after it.
        """
        if not 2 <= high <= 1 << 32:
            raise ValueError(f"bulk_rounds needs 2 <= high <= 2**32, got {high}")
        codes = np.empty((rounds, size), dtype=np.int64)
        variates = np.empty(rounds)
        threshold = ((1 << 32) - high) % high
        done = 0
        while done < rounds:
            left = rounds - done
            buffered = self._half is not None
            variate_at = np.arange(left) + (size * np.arange(1, left + 1) - buffered + 1) // 2
            raw = self._words(int(variate_at[-1]) + 1)
            is_half = np.ones(len(raw), dtype=bool)
            is_half[variate_at] = False
            halves = raw[is_half].astype("<u8", copy=False).view("<u4")
            if buffered:
                halves = np.concatenate((np.array([self._half], dtype=np.uint32), halves))
            wide = halves[: left * size].astype(np.uint64) * high
            rejected = np.flatnonzero(wide.astype(np.uint32) < threshold)
            whole = int(rejected[0]) // size if rejected.size else left
            if whole:
                codes[done : done + whole] = (wide[: whole * size] >> 32).reshape(whole, size)
                variates[done : done + whole] = (raw[variate_at[:whole]] >> 11) * 2.0**-53
                used = int(variate_at[whole - 1]) + 1
                # halves of the used words that no draw took: 0, or 1 to buffer
                spare = buffered + 2 * (used - whole) - whole * size
                self._half = int(halves[whole * size]) if spare else None
                self._pos += used
                done += whole
            if done < rounds:
                codes[done] = self.integers(0, high, size)
                variates[done] = self.random()
                done += 1
        return codes, variates


@functools.cache
def _shared_philox() -> tuple[np.random.Philox, dict]:
    """The process-wide Philox every ItemStream reads its blocks from, and its state.

    Each read first sets the whole state: the stream's key and counter
    written into the state's arrays, an empty buffer and no buffered half,
    as they are here. So no stream sees another's position, and a stream
    costs one state write per block instead of a Generator. Built on the
    first read, so that importing this module does not import numpy.random.
    """
    philox = np.random.Philox(key=0)
    return philox, philox.state


def choose_distinct(rng: ItemStream, pool_size: int, k: int) -> list[int]:
    """k distinct uniform draws from range(pool_size), via partial Fisher-Yates.

    Implemented here rather than with Generator.choice so the exact draw
    sequence is pinned by this code, not by numpy internals.
    """
    idx = list(range(pool_size))
    for i in range(k):
        j = int(rng.integers(i, pool_size))
        idx[i], idx[j] = idx[j], idx[i]
    return idx[:k]


def permutation(rng: ItemStream, n: int) -> list[int]:
    """Uniform permutation of range(n) by full Fisher-Yates (draw order pinned).

    The swap targets are drawn as arrays of up to _DRAW_CHUNK, the same
    stream as choose_distinct's scalar draws integers(i, n). The last step,
    integers(n - 1, n), draws nothing and is left out.
    """
    idx = list(range(n))
    for lo in range(0, n - 1, _DRAW_CHUNK):
        lows = np.arange(lo, min(lo + _DRAW_CHUNK, n - 1))
        targets = rng.integers(lows, n, size=len(lows)).tolist()
        for i, j in enumerate(targets, lo):
            idx[i], idx[j] = idx[j], idx[i]
    return idx


def pick(rng: ItemStream, choices: list[int]) -> int:
    """Uniform element of a non-empty choice list: one draw, none for a single choice."""
    return choices[int(rng.integers(len(choices)))]
