import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotforge import sequences
from cotforge.errors import ConfigError
from cotforge.harness import strip_sequence_record
from cotforge.langsym import LangSymConfig
from cotforge.recipe import Recipe
from cotforge.rng import ItemStream, derive_seed
from cotforge.sequences import (
    DatasetConfig,
    ID_TEXT_BOUND,
    Sequence,
    cot_example_mask,
    generate_sequence,
    parse_sequence,
    recompute_chains,
    render_cot_example,
    render_standard_example,
    sequence_line,
    standard_example_mask,
)
from cotforge.storage import encode_record
from cotforge.vocab import N_SPECIAL, Vocabulary

from helpers import line_outcome, reference_sequence, strips


def small_config(**over):
    base = dict(
        n_choices=(4,),
        m_choices=(4,),
        c_choices=(4,),
        k=8,
        t=40,
        recipe=Recipe(alpha=1.0),
        master_seed=1234,
        vocab_size=256,
        dim=8,
        cache_size=8,
    )
    base.update(over)
    return DatasetConfig(**base)


VOCAB = Vocabulary(64)


def test_standard_rendering_token_count():
    toks = render_standard_example([10, 11, 12, 13], 20, VOCAB)
    assert len(toks) == 4 + 6
    assert toks == [3, 10, 11, 12, 13, 4, 7, 20, 8, 2]


def test_standard_minimal_input():
    assert len(render_standard_example([10], 11, VOCAB)) == 7


def test_cot_rendering_token_count():
    toks = render_cot_example([10, 11, 12, 13], [20, 21, 22, 23], VOCAB)
    assert len(toks) == 4 + 4 + 7
    assert toks == [3, 10, 11, 12, 13, 4, 5, 20, 21, 22, 6, 7, 23, 8, 2]


def test_cot_single_chain_has_empty_thinking():
    toks = render_cot_example([10, 11], [30], VOCAB)
    i = toks.index(VOCAB.think_start)
    assert toks[i + 1] == VOCAB.think_end


def test_rendering_rejects_special_tokens():
    with pytest.raises(ConfigError):
        render_standard_example([10, VOCAB.eos], 20, VOCAB)
    with pytest.raises(ConfigError):
        render_cot_example([10], [VOCAB.ans_start], VOCAB)


def test_masks_match_spec_counts():
    assert sum(standard_example_mask(4)) == 4
    assert len(standard_example_mask(4)) == 10
    assert sum(cot_example_mask(4, 4)) == 4 + 5
    assert len(cot_example_mask(4, 4)) == 15


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 8),
    c=st.integers(1, 8),
    seed=st.integers(0, 10_000),
    as_cot=st.booleans(),
)
def test_parse_render_round_trip(n, c, seed, as_cot):
    rng = np.random.default_rng(seed)
    inputs = [int(v) for v in rng.integers(9, 64, size=n)]
    chain = [int(v) for v in rng.integers(9, 64, size=c)]
    if as_cot:
        toks = [VOCAB.bos] + render_cot_example(inputs, chain, VOCAB)
    else:
        toks = [VOCAB.bos] + render_standard_example(inputs, chain[-1], VOCAB)
    (ex,) = parse_sequence(toks, VOCAB)
    assert list(ex.inputs) == inputs
    assert ex.answer == chain[-1]
    assert ex.is_cot == as_cot
    if as_cot:
        assert list(ex.intermediates) == chain[:-1]


def test_all_cot_sequence_length():
    cfg = small_config(recipe=Recipe(alpha=0.0))  # r_cot = 1 everywhere
    seq = generate_sequence(cfg, 3)
    n, c, k = seq["meta"]["n"], seq["meta"]["c"], cfg.k
    assert all(seq["meta"]["cot_flags"])
    assert len(seq["tokens"]) == 1 + k * (n + c + 7)
    assert sum(seq["loss_mask"]) == k * (c + 5)


def test_all_standard_sequence_length():
    cfg = small_config(recipe=Recipe(alpha=math.inf))  # r_cot = 0 everywhere
    seq = generate_sequence(cfg, 3)
    n, k = seq["meta"]["n"], cfg.k
    assert not any(seq["meta"]["cot_flags"])
    assert len(seq["tokens"]) == 1 + k * (n + 6)
    assert sum(seq["loss_mask"]) == k * 4


def test_sequence_starts_with_bos_and_mask_shape():
    cfg = small_config()
    vocab = cfg.artifacts[0]
    seq = generate_sequence(cfg, 10)
    assert seq["tokens"][0] == vocab.bos
    assert len(seq["loss_mask"]) == len(seq["tokens"])
    assert seq["loss_mask"][0] == 0


def test_mask_never_covers_input_segment():
    cfg = small_config()
    vocab = cfg.artifacts[0]
    seq = generate_sequence(cfg, 11)
    for pos, (tok, m) in enumerate(zip(seq["tokens"], seq["loss_mask"])):
        if tok in (vocab.bos, vocab.inp_start, vocab.inp_end):
            assert m == 0, f"supervised delimiter at {pos}"


def test_generation_deterministic():
    cfg = small_config()
    a = generate_sequence(cfg, 17)
    b = generate_sequence(cfg, 17)
    assert a == b


def test_generation_order_independent():
    # generating j alone equals sequence j out of a full run
    cfg = small_config(t=12)
    full = {s["seq_id"]: s for s in (generate_sequence(cfg, j) for j in cfg.output_order())}
    for j in (0, 5, 11):
        assert generate_sequence(cfg, j) == full[j]


def test_is_cot_flag_consistent_with_r():
    cfg = small_config(recipe=Recipe(alpha=1.0), t=40)
    vocab = cfg.artifacts[0]
    seq = generate_sequence(cfg, 20)
    parsed = parse_sequence(list(seq["tokens"]), vocab)
    assert [p.is_cot for p in parsed] == list(seq["meta"]["cot_flags"])
    assert seq["meta"]["r_cot"] == 0.5


def test_chain_self_consistency():
    cfg = small_config(t=20)
    vocab = cfg.artifacts[0]
    for j in range(20):
        seq = generate_sequence(cfg, j)
        chains = recompute_chains(seq, cfg)
        parsed = parse_sequence(list(seq["tokens"]), vocab)
        for i, ex in enumerate(parsed):
            assert ex.answer == chains[i][-1]
            if ex.is_cot:
                assert list(ex.intermediates) == [int(v) for v in chains[i][:-1]]


def test_varying_choice_sets():
    cfg = small_config(n_choices=(3, 4), m_choices=(3, 4), c_choices=(3, 4), t=60)
    seen = set()
    for seq in (generate_sequence(cfg, j) for j in cfg.output_order()):
        seen.add((seq["meta"]["n"], seq["meta"]["m"], seq["meta"]["c"]))
        assert seq["meta"]["n"] in (3, 4) and seq["meta"]["m"] in (3, 4) and seq["meta"]["c"] in (3, 4)
    assert len(seen) > 1


def test_choice_lists_are_stored_as_sorted_tuples_at_construction():
    shuffled = small_config(n_choices=[4, 3], m_choices=(4, 3, 3), c_choices=[3, 4], t=60)
    assert (shuffled.n_choices, shuffled.m_choices, shuffled.c_choices) == ((3, 4), (3, 3, 4), (3, 4))
    as_json = DatasetConfig.from_json(dict(shuffled.to_json(), n_choices=[4, 3], c_choices=[4, 3]))
    assert as_json == shuffled
    ordered = small_config(n_choices=(3, 4), m_choices=(3, 3, 4), c_choices=(3, 4), t=60)
    assert [generate_sequence(shuffled, j) for j in range(8)] == [generate_sequence(ordered, j) for j in range(8)]


@pytest.mark.parametrize("n, c", [(1, 1), (1, 5), (4, 4), (6, 2)])
def test_layout_names_the_input_and_chain_cells_of_a_thinking_example(n, c):
    vocab = Vocabulary(512)
    inputs, chain = list(range(100, 100 + n)), list(range(200, 200 + c))
    example = np.array(render_cot_example(inputs, chain, vocab))
    cells = sequences.layout(n, c)
    assert example[cells.inputs].tolist() == inputs and example[cells.inputs.stop] == vocab.inp_end
    assert example[cells.chain].tolist() == chain
    assert np.where(example >= N_SPECIAL, sequences.NORMAL, example).tolist() == cells.template.tolist()
    assert example[cells.keep[0]].tolist() == render_standard_example(inputs, chain[-1], vocab)
    assert cells.keep[1].all()


def test_shuffle_permutes_order_but_not_content():
    plain_cfg, shuffled_cfg = small_config(t=16), small_config(t=16, shuffle=True)
    plain = [generate_sequence(plain_cfg, j) for j in plain_cfg.output_order()]
    shuffled = [generate_sequence(shuffled_cfg, j) for j in shuffled_cfg.output_order()]
    assert [s["seq_id"] for s in shuffled] != list(range(16))
    assert sorted(s["seq_id"] for s in shuffled) == list(range(16))
    by_id = {s["seq_id"]: s for s in shuffled}
    for seq in plain:
        assert by_id[seq["seq_id"]] == seq


def test_unshuffled_order_is_a_range():
    order = small_config(t=16).output_order()
    assert isinstance(order, range) and order == range(16)


def test_a_replaced_config_builds_its_own_artifacts():
    cfg = small_config()
    vocab, emb, cache = cfg.artifacts
    other = dataclasses.replace(cfg, master_seed=cfg.master_seed + 1)
    assert not np.array_equal(other.artifacts[1].data, emb.data)
    assert cfg.artifacts[1] is emb and cfg.artifacts[2] is cache


def test_record_round_trip():
    cfg = small_config()
    record = generate_sequence(cfg, 0)
    assert Sequence.from_record(record).to_record() == record
    assert set(record) == {"seq_id", "tokens", "loss_mask", "meta"}
    assert set(record["meta"]) == {"n", "m", "c", "k", "r_cot", "dag", "proc_ids", "cot_flags", "seed"}


def test_config_validation():
    with pytest.raises(ConfigError):
        small_config(n_choices=())
    with pytest.raises(ConfigError):
        small_config(c_choices=(0,))
    with pytest.raises(ConfigError):
        small_config(k=0)
    with pytest.raises(ConfigError):
        small_config(vocab_size=9)
    small_config(vocab_size=2**32 + 9)  # 2**32 normal tokens, the widest span a draw takes; nothing is allocated
    with pytest.raises(ConfigError, match=r"vocab_size must be <= 2\*\*32 \+ 9, got 4294967306"):
        small_config(vocab_size=2**32 + 10)
    with pytest.raises(ConfigError):
        generate_sequence(small_config(), 40)


def test_config_json_round_trip():
    cfg = small_config(recipe=Recipe(alpha=math.inf), shuffle=True)
    assert DatasetConfig.from_json(cfg.to_json()) == cfg


def test_config_missing_keys_is_config_error():
    with pytest.raises(ConfigError, match="missing required keys"):
        DatasetConfig.from_json({"k": 4})
    with pytest.raises(ConfigError, match="alpha"):
        DatasetConfig.from_json(
            {"n_choices": [2], "m_choices": [2], "c_choices": [2], "k": 2, "t": 2, "recipe": {}, "master_seed": 0}
        )


@pytest.mark.parametrize("kind", [DatasetConfig, LangSymConfig])
@pytest.mark.parametrize("value, message", [
    ([True], "n_choices member must be an integer, got True"),
    ([4.0], "n_choices member must be an integer, got 4.0"),
    ([0], "n_choices member must be >= 1, got 0"),
    (4, "n_choices must be a list, got 4"),
    ("4", "n_choices must be a list, got '4'"),
])
def test_a_choice_list_is_a_json_list_whose_members_the_constructor_checks(kind, value, message):
    cfg = {"n_choices": value, "m_choices": [2], "c_choices": [2], "k": 2, "t": 2, "recipe": {"alpha": 0},
           "master_seed": 0}
    with pytest.raises(ConfigError) as caught:
        kind.from_json(cfg)
    assert str(caught.value) == message


@pytest.mark.parametrize("mode", ["thinking", "plain", "mixed"])
def test_array_renderer_matches_per_example_renderers(mode):
    rng = np.random.default_rng(["thinking", "plain", "mixed"].index(mode))
    k = 6
    for n in range(1, 7):
        for c in range(1, 7):
            inputs = rng.integers(N_SPECIAL, VOCAB.size, size=(k, n))
            chains = rng.integers(N_SPECIAL, VOCAB.size, size=(k, c))
            mixed = [True, False, *(rng.random(k - 2) < 0.5)]
            flags = {"thinking": [True] * k, "plain": [False] * k, "mixed": mixed}[mode]
            want_tokens, want_mask = [VOCAB.bos], [0]
            for x, y, is_cot in zip(inputs.tolist(), chains.tolist(), flags):
                if is_cot:
                    want_tokens += render_cot_example(x, y, VOCAB)
                    want_mask += cot_example_mask(n, c)
                else:
                    want_tokens += render_standard_example(x, y[-1], VOCAB)
                    want_mask += standard_example_mask(n)
            cells, kept = sequences._kept_cells(inputs, chains, flags, VOCAB)
            assert [VOCAB.bos] + kept.tolist() == want_tokens, (n, c)
            assert cells.mask(flags) == want_mask, (n, c)


@pytest.mark.parametrize("where", ["input", "intermediate", "answer"])
@pytest.mark.parametrize("bad", [VOCAB.think_end, VOCAB.size])
def test_array_renderer_rejects_abnormal_tokens(where, bad):
    inputs = np.full((2, 3), N_SPECIAL, dtype=np.int64)
    chains = np.full((2, 3), N_SPECIAL + 1, dtype=np.int64)
    {"input": inputs, "intermediate": chains, "answer": chains}[where][0, -1 if where == "answer" else 1] = bad
    with pytest.raises(ConfigError, match=f"token {bad} is not a normal token"):
        sequences._kept_cells(inputs, chains, [True, False], VOCAB)


def _record_line(config, j, transforms):
    """encode_record of the per-draw reference sequence, stripped by each transform in turn."""
    record = reference_sequence(config, j)
    for tf in transforms:
        record = strip_sequence_record(record, tf["k_prime"], ItemStream(derive_seed(tf["seed"], j)),
                                       config.artifacts[0])
    return encode_record(record)


LINE_CONFIGS = {
    "reference": dict(n_choices=(4,), m_choices=(4,), c_choices=(4,), k=40, vocab_size=1024, dim=10, cache_size=64,
                      recipe=Recipe(alpha=2.0, a=0.5, b=0.5)),
    "choices": dict(n_choices=(1, 3, 6), m_choices=(1, 2, 5), c_choices=(1, 2, 7), k=5, vocab_size=16, dim=3,
                    cache_size=5, recipe=Recipe(alpha=1.0)),
    "depth-2-shuffled": dict(n_choices=(2, 5), m_choices=(3,), c_choices=(3, 4), k=7, vocab_size=200, dim=6,
                             cache_size=6, depth=2, shuffle=True, recipe=Recipe(alpha=0.0)),
    "vocab-12000": dict(n_choices=(3,), m_choices=(2,), c_choices=(3,), k=6, vocab_size=12000, dim=4,
                        cache_size=4, recipe=Recipe(alpha=0.5)),
    "vocab-at-bound": dict(n_choices=(2,), m_choices=(2,), c_choices=(2,), k=4, vocab_size=ID_TEXT_BOUND, dim=2,
                           cache_size=3, recipe=Recipe(alpha=0.0)),
    "vocab-past-bound": dict(n_choices=(3,), m_choices=(2,), c_choices=(3,), k=4, vocab_size=2 * ID_TEXT_BOUND,
                             dim=2, cache_size=3, recipe=Recipe(alpha=0.0)),
}
TRANSFORMS = [[], strips(0), strips(1), strips(2), strips(1, 0), strips(1, 2), strips(0, 3)]


@pytest.mark.parametrize("name", sorted(LINE_CONFIGS))
def test_sequence_line_equals_the_record_path(name):
    config = small_config(t=12, master_seed=77, **LINE_CONFIGS[name])
    outcomes = set()
    for j in range(config.t):
        for transforms in TRANSFORMS:
            got = line_outcome(sequence_line, config, j, transforms)
            assert got == line_outcome(_record_line, config, j, transforms), (j, transforms)
            outcomes.add(got[0])
        # a k' past the item's thinking context examples is the same error both ways
        too_many = strips(config.k)
        assert line_outcome(sequence_line, config, j, too_many) == line_outcome(_record_line, config, j, too_many)
        assert line_outcome(sequence_line, config, j, too_many)[0] == "ConfigError"
    assert "line" in outcomes
    if name == "vocab-past-bound":  # ids past the text table's bound were written
        assert max(max(generate_sequence(config, j)["tokens"]) for j in range(config.t)) >= ID_TEXT_BOUND
    assert len(sequences._ID_TEXT) <= ID_TEXT_BOUND


def test_id_text_table_holds_the_text_of_every_id_below_its_bound():
    table = sequences._id_text(ID_TEXT_BOUND)
    assert len(table) == ID_TEXT_BOUND
    assert table.tobytes().translate(None, b"\0") == "".join(f",{i}" for i in range(ID_TEXT_BOUND)).encode()
    assert sequences._id_text(5) is table  # never rebuilt smaller
