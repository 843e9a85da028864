"""Array draws that must give the stream of the scalar draws they replace.

permutation and bulk_rounds take their values from array calls where
the reference takes one Generator call per value. Each test runs both on
twin generators and compares the values and then the draws that follow,
so a stream that only matches up to its last value is caught too.
"""

import numpy as np
import pytest

from cotforge.rng import bulk_rounds, make_rng, permutation


def twins(seed: int, buffered: bool) -> tuple[np.random.Generator, np.random.Generator]:
    """Two generators in one state; `buffered` leaves a 32-bit half in Philox's buffer."""
    a, b = make_rng(seed), make_rng(seed)
    if buffered:
        a.integers(0, 26), b.integers(0, 26)
    assert a.bit_generator.state["has_uint32"] == int(buffered)
    return a, b


def assert_same_next_draws(a: np.random.Generator, b: np.random.Generator) -> None:
    for name in ("has_uint32", "uinteger"):
        assert a.bit_generator.state[name] == b.bit_generator.state[name]
    assert a.integers(0, 26, size=3).tolist() == b.integers(0, 26, size=3).tolist()
    assert a.random() == b.random()


def per_round(rng: np.random.Generator, rounds: int, size: int, high: int):
    codes, variates = [], []
    for _ in range(rounds):
        codes.append(rng.integers(0, high, size=size).tolist())
        variates.append(rng.random())
    return codes, variates


@pytest.mark.parametrize("n", [1, 2, 7, 1000, 100003])
def test_permutation_is_the_stream_of_scalar_draws(n):
    bulk, twin = make_rng(n), make_rng(n)
    idx = list(range(n))
    for i in range(n):
        j = int(twin.integers(i, n))
        idx[i], idx[j] = idx[j], idx[i]
    assert permutation(bulk, n) == idx
    assert_same_next_draws(bulk, twin)


@pytest.mark.parametrize("buffered", [False, True])
@pytest.mark.parametrize("size", [2, 5, 15, 32])
@pytest.mark.parametrize("rounds", [1, 2, 7, 40])
def test_bulk_rounds_are_the_stream_of_per_round_draws(rounds, size, buffered):
    # odd sizes end a round on half of a 32-bit pair, which the next round's
    # first integer takes after the variate's whole word
    for seed in range(5):
        bulk, twin = twins(seed, buffered)
        codes, variates = bulk_rounds(bulk, rounds, size, 26)
        assert codes.dtype == np.uint8 and codes.shape == (rounds, size)
        assert (codes.tolist(), variates.tolist()) == per_round(twin, rounds, size, 26)
        assert_same_next_draws(bulk, twin)


@pytest.mark.parametrize("high", [2, 3, 26, 256])
def test_bulk_rounds_other_bounds(high):
    bulk, twin = twins(high, True)
    codes, variates = bulk_rounds(bulk, 9, 7, high)
    assert (codes.tolist(), variates.tolist()) == per_round(twin, 9, 7, high)
    assert_same_next_draws(bulk, twin)


def rejecting(seed: int, where: str) -> np.random.Generator:
    """A generator whose next few 32-bit draws include a 0, which Lemire redraws.

    where="buffer": the next raw word is 0, so its low half is the first
    integer (no half buffered) or the second (one buffered). where="half":
    the buffered half itself is 0.
    """
    rng = make_rng(seed)
    rng.integers(0, 26)
    state = rng.bit_generator.state
    if where == "half":
        state["uinteger"] = 0
    else:
        assert state["buffer_pos"] < 4  # the next raw word comes from the buffer
        state["buffer"][state["buffer_pos"]] = 0
        state["has_uint32"] = seed % 2
    rng.bit_generator.state = state
    return rng


@pytest.mark.parametrize("seed, where", [(2, "buffer"), (3, "buffer"), (4, "half")])
def test_bulk_rounds_restores_the_generator_on_a_rejected_draw(seed, where):
    rng, twin = rejecting(seed, where), rejecting(seed, where)
    assert bulk_rounds(rng, 4, 5, 26) is None
    assert_same_next_draws(rng, twin)
