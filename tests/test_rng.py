"""Draws that must give the stream of the Generator calls they replace.

ItemStream answers integers and random from raw Philox words, and
bulk_rounds takes many values at once where the reference makes one
Generator call per value; the output shuffle is choose_distinct over the
whole range. Each test runs both on twins of one
seed, an ItemStream or a Generator against a make_rng Generator, and
compares the values and then the draws that follow, so a stream that only
matches up to its last value is caught too.
"""

import numpy as np
import pytest

from cotforge.langsym import LangSymConfig, generate_langsym_prompt
from cotforge.recipe import Recipe
from cotforge.rng import ItemStream, choose_distinct, make_rng
from cotforge.sequences import DatasetConfig, generate_sequence
from cotforge.storage import encode_record

from helpers import reference_prompt, reference_sequence


def twins(seed: int, buffered: bool) -> tuple[ItemStream, np.random.Generator]:
    """An ItemStream and a Generator in one state; `buffered` leaves a 32-bit half in the buffer."""
    a, b = ItemStream(seed), make_rng(seed)
    if buffered:
        assert a.integers(0, 26) == b.integers(0, 26)
    assert b.bit_generator.state["has_uint32"] == int(buffered)
    return a, b


def assert_same_next_draws(a, b) -> None:
    # bound 2**32 returns the raw 32-bit halves, so the buffered half, the
    # next words and the half an odd count leaves buffered are compared exactly
    assert a.integers(0, 2**32, size=3).tolist() == b.integers(0, 2**32, size=3).tolist()
    assert a.random() == b.random()
    assert a.integers(0, 2**32) == b.integers(0, 2**32)


def per_round(rng: np.random.Generator, rounds: int, size: int, high: int):
    codes, variates = [], []
    for _ in range(rounds):
        codes.append(rng.integers(0, high, size=size).tolist())
        variates.append(rng.random())
    return codes, variates


def lemire(halves, span: int) -> tuple[list[int], list[int]]:
    """Lemire's bounded draws over a list of 32-bit values: the values and the redrawn indices."""
    values, redrawn = [], []
    threshold = (2**32 - span) % span
    for i, u in enumerate(halves):
        if u * span % 2**32 < threshold:
            redrawn.append(i)
        else:
            values.append(u * span >> 32)
    return values, redrawn


def halves_drawn(rng: np.random.Generator) -> int:
    """32-bit draws a fresh Generator has taken: its whole words, less a buffered half."""
    state = rng.bit_generator.state
    words = 4 * int(state["state"]["counter"][0]) - 4 + state["buffer_pos"]
    return 2 * words - state["has_uint32"]


@pytest.mark.parametrize("n", [1, 2, 7, 1000, 100003])
def test_permutation_is_the_stream_of_scalar_draws(n):
    # the output shuffle: choose_distinct over the whole range; at 100003
    # seeds 0 and 2 redraw one swap target each
    redraws = 0
    for seed in (0, 2, 2**64 - 1):
        bulk, twin = ItemStream(seed), make_rng(seed)
        idx = list(range(n))
        for i in range(n):
            j = int(twin.integers(i, n))
            idx[i], idx[j] = idx[j], idx[i]
        redraws += halves_drawn(twin) - (n - 1)
        assert choose_distinct(bulk, n, n) == idx
        assert_same_next_draws(bulk, twin)
    assert redraws == (2 if n == 100003 else 0)


@pytest.mark.parametrize("buffered", [False, True])
@pytest.mark.parametrize("span", [1, 2, 26, 2**31 + 1, 2**32])
def test_scalar_integers_are_the_generator_stream(span, buffered):
    # 2**31 + 1 redraws about half of its draws; a span of 1 draws nothing
    for seed in range(5):
        a, b = twins(seed, buffered)
        assert [a.integers(7, 7 + span) for _ in range(60)] == [int(b.integers(7, 7 + span)) for _ in range(60)]
        assert a.integers(span) == b.integers(span)
        assert_same_next_draws(a, b)


@pytest.mark.parametrize("buffered", [False, True])
def test_array_with_a_redraw_in_the_middle(buffered):
    span, size = 2**31 + 1, 9
    for seed in range(8):
        a, b = twins(seed, buffered)
        raw = twins(seed, buffered)[1].integers(0, 2**32, size=4 * size).tolist()
        want, redrawn = lemire(raw, span)
        drawn = a.integers(-3, span - 3, size=(3, 3))
        assert drawn.dtype == np.int64 and drawn.shape == (3, 3)
        assert (drawn + 3).ravel().tolist() == want[:size] == b.integers(0, span, size=size).tolist()
        if any(0 < i < size for i in redrawn[:1]):
            break
    else:
        pytest.fail("no seed put the first redraw inside the array")
    assert_same_next_draws(a, b)


@pytest.mark.parametrize("halves", [0, 1, 2, 3])
def test_random_passes_the_buffered_half_by(halves):
    # after an odd count of 32-bit draws a half is buffered: random() takes
    # the next whole word and the half waits for the next 32-bit draw
    for seed in range(4):
        a, b = ItemStream(seed), make_rng(seed)
        assert a.integers(0, 26, size=halves).tolist() == b.integers(0, 26, size=halves).tolist()
        assert a.random() == b.random()
        assert a.random(3).tolist() == b.random(3).tolist()
        assert_same_next_draws(a, b)


def test_reads_past_the_first_block():
    # a few thousand words, in draws that end and start on either side of
    # each block boundary
    a, b = ItemStream(11), make_rng(11)
    for i in range(300):
        assert a.integers(0, 1000, size=i % 17).tolist() == b.integers(0, 1000, size=i % 17).tolist()
        assert a.random() == b.random()
        assert a.integers(0, 26) == b.integers(0, 26)
        if i % 50 == 0:
            assert a.random(i).tolist() == b.random(i).tolist()
    assert_same_next_draws(a, b)


@pytest.mark.parametrize("buffered", [False, True])
@pytest.mark.parametrize("size", [2, 5, 15, 32])
@pytest.mark.parametrize("rounds", [1, 2, 7, 40])
def test_bulk_rounds_are_the_stream_of_per_round_draws(rounds, size, buffered):
    # odd sizes end a round on half of a 32-bit pair, which the next round's
    # first integer takes after the variate's whole word
    for seed in range(5):
        bulk, twin = twins(seed, buffered)
        codes, variates = bulk.bulk_rounds(rounds, size, 26)
        assert codes.dtype == np.int64 and codes.shape == (rounds, size)
        assert (codes.tolist(), variates.tolist()) == per_round(twin, rounds, size, 26)
        assert_same_next_draws(bulk, twin)


@pytest.mark.parametrize("low, high", [(0, 0), (5, 4), (0, 2**32 + 1), (-1, 2**32)])
def test_integers_refuse_a_span_outside_one_to_two_to_the_32(low, high):
    for size in (None, 3):
        with pytest.raises(ValueError, match=r"ItemStream draws need 1 <= high - low <= 2\*\*32"):
            ItemStream(0).integers(low, high, size=size)


@pytest.mark.parametrize("high", [-1, 0, 1, 2**32 + 1])
def test_bulk_rounds_refuse_a_high_outside_two_to_two_to_the_32(high):
    with pytest.raises(ValueError, match=f"bulk_rounds needs 2 <= high <= 2\\*\\*32, got {high}"):
        ItemStream(0).bulk_rounds(2, 3, high)


@pytest.mark.parametrize("high", [2, 3, 26, 256, 3 * 2**30, 2**31 + 1, 2**32])
def test_bulk_rounds_other_bounds(high):
    # 3 * 2**30 redraws a quarter of its draws and 2**31 + 1 about half, so
    # rounds before a redraw are taken at once and the rest call by call
    for seed in range(4):
        bulk, twin = twins(high + seed, seed % 2 == 1)
        codes, variates = bulk.bulk_rounds(9, 7, high)
        assert (codes.tolist(), variates.tolist()) == per_round(twin, 9, 7, high)
        assert_same_next_draws(bulk, twin)


def rejecting(seed: int, where: str) -> tuple[ItemStream, np.random.Generator]:
    """Twins whose next few 32-bit draws include a 0, which Lemire redraws for any bound.

    where="buffer": the next raw word is 0, so its low half is the first
    integer (no half buffered) or the second (one buffered). where="half":
    the buffered half itself is 0.
    """
    a, b = twins(seed, True)
    state = b.bit_generator.state
    a._words(1)  # the block holding the next raw word
    if where == "half":
        state["uinteger"] = a._half = 0
    else:
        assert state["buffer_pos"] < 4  # the next raw word comes from the buffer
        state["buffer"][state["buffer_pos"]] = a._raw[a._pos] = 0
        state["has_uint32"] = seed % 2
        if not seed % 2:
            a._half = None
    b.bit_generator.state = state
    return a, b


@pytest.mark.parametrize("seed, where", [(2, "buffer"), (3, "buffer"), (4, "half")])
def test_bulk_rounds_redraw_a_rejected_draw_in_place(seed, where):
    rng, twin = rejecting(seed, where)
    codes, variates = rng.bulk_rounds(4, 5, 26)
    assert (codes.tolist(), variates.tolist()) == per_round(twin, 4, 5, 26)
    assert_same_next_draws(rng, twin)


def test_cursors_drawn_alternately_keep_their_own_streams():
    # both re-key the one process-wide Philox whenever they read a block
    cursors = [ItemStream(seed) for seed in (5, 6)]
    gens = [make_rng(seed) for seed in (5, 6)]
    for i in range(200):
        for a, b in zip(cursors, gens):
            assert a.integers(0, 26, size=i % 9).tolist() == b.integers(0, 26, size=i % 9).tolist()
            assert a.random() == b.random()
    for a, b in zip(cursors, gens):
        assert_same_next_draws(a, b)


GRID = [  # (n_choices, m_choices, c_choices, cache_size)
    ((4,), (4,), (4,), 64),  # the reference shape
    ((1, 3, 5), (1, 2, 7), (1, 4), 1),  # several members, m > n, c = 1, one processor
    ((2,), (5,), (1,), 3),  # m > n and c = 1 in every item
    ((1, 2, 3), (2, 3), (2, 3, 6), 1),
]


@pytest.mark.parametrize("n_choices, m_choices, c_choices, cache_size", GRID)
def test_items_equal_the_per_draw_reference(n_choices, m_choices, c_choices, cache_size):
    shape = dict(n_choices=n_choices, m_choices=m_choices, c_choices=c_choices, recipe=Recipe(2.0, 0.5, 0.5))
    cfg = DatasetConfig(**shape, k=9, t=40, master_seed=8, vocab_size=64, dim=6, cache_size=cache_size)
    for j in range(cfg.t):
        assert encode_record(generate_sequence(cfg, j)) == encode_record(reference_sequence(cfg, j))
    lcfg = LangSymConfig(**shape, k=7, t=40, master_seed=9, w=3)
    for j in range(lcfg.t):
        assert encode_record(generate_langsym_prompt(lcfg, j)) == encode_record(reference_prompt(lcfg, j))
