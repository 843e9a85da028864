import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotforge import langsym, storage
from cotforge.cli import main
from cotforge.errors import BackendError, ConfigError
from cotforge.harness import FORCE_ANSWER, FORCE_THINK, NO_FORCING, EvalPrompt, ForcingConfig
from cotforge.langsym import (
    LangSymConfig,
    Templates,
    TextOracleBackend,
    evaluate_langsym,
    extract_langsym_answer,
    extract_steps,
    generate_langsym_prompt,
    make_langsym_eval_prompt,
    random_word,
    render_assistant,
    string_transform,
    strip_chat_prompt,
)
from cotforge.recipe import Recipe, strip_flags
from cotforge.rng import ItemStream, derive_seed, make_rng

import helpers
from helpers import (
    chi_square_critical, chi_square_uniform, line_outcome, reference_prompt, reference_start_item, strips,
)


def small_config(**over):
    base = dict(
        n_choices=(4,),
        m_choices=(2,),
        c_choices=(3,),
        k=6,
        t=20,
        recipe=Recipe(alpha=0.0),
        master_seed=555,
    )
    base.update(over)
    return LangSymConfig(**base)


# --- words -----------------------------------------------------------------

def test_random_word_shape():
    rng = make_rng(1)
    for _ in range(200):
        assert re.fullmatch(r"[a-z]{8}", random_word(8, rng))


def test_random_word_zero_rejected():
    with pytest.raises(ConfigError):
        random_word(0, make_rng(0))


def test_character_marginal_uniform():
    rng = make_rng(12)
    counts = [0] * 26
    draws = 100_000
    word = random_word(draws, rng)  # one long word = stream of iid letters
    for ch in word:
        counts[ord(ch) - ord("a")] += 1
    stat = chi_square_uniform(counts, [draws / 26] * 26)
    assert stat < chi_square_critical(25, 0.01)


@pytest.mark.parametrize("w", [2, 5, 8, 26])
def test_one_long_draw_equals_per_word_draws(w):
    # generate_langsym_prompt draws an example's N*w letters at once; that
    # must be the stream N per-word draws give, the draw after it included
    # (odd N*w leaves half of a 32-bit pair buffered for the next draw)
    for seed in range(20):
        for n in (1, 3, 4):
            bulk, twin = make_rng(seed), make_rng(seed)
            letters = random_word(n * w, bulk)
            assert [letters[i : i + w] for i in range(0, n * w, w)] == [random_word(w, twin) for _ in range(n)]
            assert bulk.random() == twin.random()


def test_distinct_letter_mode():
    rng = make_rng(2)
    for _ in range(100):
        w = random_word(10, rng, distinct=True)
        assert len(set(w)) == 10
    with pytest.raises(ConfigError):
        random_word(27, make_rng(0), distinct=True)


# --- transform ---------------------------------------------------------------

def test_transform_reference_example():
    # halves "arib" + "bsjc" -> "aribbsjc" -> advance -> "bsjcctkd"
    assert string_transform(["aghmarib", "aribbsjc"]) == "bsjcctkd"


def test_transform_uniform_halves():
    assert string_transform(["aaaaaaaa", "aaaaaaaa"]) == "bbbbbbbb"


def test_transform_wraparound():
    assert string_transform(["zzzz"]) == "aa"


def reference_transform(parent_words):
    tail = "".join(w[len(w) // 2 :] for w in parent_words)
    return "".join(chr((ord(ch) - ord("a") + 1) % 26 + ord("a")) for ch in tail)


def test_transform_matches_per_character_reference():
    rng = make_rng(31)
    alphabet_word = "abcdefghijklmnopqrstuvwxyz" * 2  # its tail holds every letter, z included
    assert string_transform([alphabet_word]) == reference_transform([alphabet_word]) == "bcdefghijklmnopqrstuvwxyza"
    for length in range(1, 14):  # odd and even lengths
        for fan_in in (1, 2, 4):
            words = [random_word(length, rng) for _ in range(fan_in)]
            assert string_transform(words) == reference_transform(words)


def test_transform_empty_rejected():
    with pytest.raises(ConfigError):
        string_transform([])


@settings(max_examples=100, deadline=None)
@given(words=st.lists(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=12), min_size=1, max_size=4))
def test_transform_length_formula(words):
    out = string_transform(words)
    assert len(out) == sum(len(w) - len(w) // 2 for w in words)
    assert re.fullmatch(r"[a-z]+", out)


def test_shift_is_alphabet_bijection():
    word = "thequickbrownfoxjumpsoverthelazydog".replace(" ", "")
    # advancing by one, 26 times, must return to the original tail-compose:
    current = word
    for _ in range(26):
        current = "".join(chr((ord(ch) - ord("a") + 1) % 26 + ord("a")) for ch in current)
    assert current == word


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_closure_fan_in_two_w8(seed):
    # with two length-8 parents each contributes 4 letters -> chains stay length 8
    rng = make_rng(seed)
    a, b = random_word(8, rng), random_word(8, rng)
    assert len(string_transform([a, b])) == 8


# --- prompts -----------------------------------------------------------------

def test_prompt_message_structure():
    cfg = small_config()
    chat = generate_langsym_prompt(cfg, 3)
    assert chat["messages"][0]["role"] == "system"
    body = chat["messages"][1:]
    assert len(body) == 2 * cfg.k
    assert all(m["role"] == "user" for m in body[0::2])
    assert all(m["role"] == "assistant" for m in body[1::2])


def test_prompt_all_plain_when_never_thinking():
    import math

    cfg = small_config(recipe=Recipe(alpha=math.inf))
    chat = generate_langsym_prompt(cfg, 5)
    for msg in chat["messages"]:
        if msg["role"] == "assistant":
            assert msg["content"].startswith(cfg.templates.answer_open)
            assert "Step" not in msg["content"]


def test_prompt_meta_self_consistency():
    cfg = small_config()
    chat = generate_langsym_prompt(cfg, 7)
    meta = chat["meta"]
    from cotforge.dag import Dag

    dag = Dag.from_json(meta["dag"])
    for inputs, chain in zip(meta["inputs"], meta["chains"]):
        pool = list(inputs)
        for node in range(meta["c"]):
            word = string_transform([pool[p] for p in dag.parents[node]])
            assert word == chain[node]
            pool.append(word)


def test_rendered_words_match_meta():
    cfg = small_config()
    chat = generate_langsym_prompt(cfg, 2)
    for i in range(cfg.k):
        user = chat["messages"][1 + 2 * i]["content"]
        assistant = chat["messages"][2 + 2 * i]["content"]
        for word in chat["meta"]["inputs"][i]:
            assert word in user
        chain = chat["meta"]["chains"][i]
        assert extract_langsym_answer(assistant) == chain[-1]
        if chat["meta"]["cot_flags"][i]:
            assert extract_steps(assistant) == chain[:-1]


def test_dataset_determinism():
    cfg = small_config(t=8)
    a = [generate_langsym_prompt(cfg, j) for j in cfg.output_order()]
    b = [generate_langsym_prompt(cfg, j) for j in cfg.output_order()]
    assert a == b


def test_prompt_independent_of_dataset_iteration():
    cfg = small_config(t=8)
    full = [generate_langsym_prompt(cfg, j) for j in cfg.output_order()]
    assert generate_langsym_prompt(cfg, 5) == full[5]


def record_bytes(chat: dict) -> bytes:
    return json.dumps(chat).encode()


BULK_CONFIGS = [  # (config fields, has_uint32 values seen after the start's draws)
    (dict(w=5, n_choices=(1, 3, 5), m_choices=(1, 2, 3), c_choices=(1, 4), k=7), {0, 1}),  # odd N*w
    (dict(w=3, n_choices=(1, 2, 3), m_choices=(2,), c_choices=(2, 3), k=12), {0, 1}),  # odd and even N*w
    # the reference config: its DAG always takes an odd count of 32-bit draws
    (dict(w=8, n_choices=(4,), m_choices=(4,), c_choices=(4,), k=40, recipe=Recipe(alpha=2.0, a=0.5, b=0.5)), {1}),
]


@pytest.mark.parametrize("over, parities", BULK_CONFIGS)
def test_prompts_equal_the_per_draw_reference(over, parities):
    cfg = small_config(t=60, **over)
    seen = set()
    for j in range(cfg.t):
        assert record_bytes(generate_langsym_prompt(cfg, j)) == record_bytes(reference_prompt(cfg, j))
        seen.add(reference_start_item(cfg, j)[1].bit_generator.state["has_uint32"])
    assert seen == parities


def test_distinct_letter_prompts_equal_the_per_draw_reference():
    cfg = small_config(t=30, w=7, n_choices=(3, 4), distinct_letters=True)
    for j in range(cfg.t):
        assert record_bytes(generate_langsym_prompt(cfg, j)) == record_bytes(reference_prompt(cfg, j))


def zero_next_word(rng) -> None:
    """Make the next raw word of an ItemStream or a Generator 0, a 32-bit draw Lemire rejects."""
    if isinstance(rng, ItemStream):
        rng._words(1)
        rng._raw[rng._pos] = 0
        return
    state = rng.bit_generator.state
    if state["buffer_pos"] == 4:  # the next word opens a new 4-word block: fill it now
        philox = np.random.Philox(key=0)
        philox.state = state
        philox.random_raw(4)
        state = {**philox.state, "buffer_pos": 0}
    state["buffer"][state["buffer_pos"]] = 0
    rng.bit_generator.state = state


def test_a_rejected_letter_is_redrawn_in_place(monkeypatch):
    # the first example's first or second letter is a rejected draw, so the
    # letters' bulk_rounds redraws it in place in the first round
    def poked(start):
        def start_and_poke(*args):
            seed, rng, *rest = start(*args)
            zero_next_word(rng)
            return (seed, rng, *rest)
        return start_and_poke

    monkeypatch.setattr(LangSymConfig, "start_item", poked(LangSymConfig.start_item))
    monkeypatch.setattr(helpers, "reference_start_item", poked(helpers.reference_start_item))
    cfg = small_config(t=12, **BULK_CONFIGS[0][0])
    for j in range(cfg.t):
        assert record_bytes(generate_langsym_prompt(cfg, j)) == record_bytes(reference_prompt(cfg, j))


def test_advanced_letters_wrap_past_z_at_any_depth():
    codes = np.array([[0, 7, 25], [24, 1, 13]], dtype=np.uint8)
    letters = langsym._advanced_letters(codes, 60)
    for a in range(61):
        for e, row in enumerate(codes):
            word = bytes(letters[e, a * 3 : a * 3 + 3]).decode()
            assert word == "".join(chr(ord("a") + (int(x) + a) % 26) for x in row)


@pytest.mark.parametrize("distinct", [False, True])
def test_example_draws_equal_per_example_draws(distinct):
    for seed in range(6):
        rng, twin = ItemStream(seed), make_rng(seed)
        if seed % 2:
            rng.integers(0, 26), twin.integers(0, 26)
        codes, variates = langsym._draw_examples(rng, 9, 3, 5, distinct)
        for row, variate in zip(codes, variates):
            letters = "".join(random_word(5, twin, distinct) for _ in range(3))
            assert row.tobytes().translate(langsym._LETTER_OF_CODE).decode() == letters
            assert variate == twin.random()
        assert rng.random() == twin.random()


def test_word_length_config_floor():
    with pytest.raises(ConfigError):
        small_config(w=1)


def test_distinct_letters_need_a_word_no_longer_than_the_alphabet():
    assert small_config(distinct_letters=True, w=26).w == 26
    with pytest.raises(ConfigError, match="distinct letters impossible for word length 27"):
        small_config(distinct_letters=True, w=27)


# --- templates / anti-leak ----------------------------------------------------

def test_default_templates_pass_lint():
    Templates().validate()


@pytest.mark.parametrize("marker", ["slice", "half", "offset", "shift", "+1"])
def test_leaking_task_text_rejected(marker):
    with pytest.raises(ConfigError):
        Templates(system_prompt=f"Apply a {marker} to the words.").validate()


def test_question_template_needs_placeholder():
    with pytest.raises(ConfigError):
        Templates(question_template="What is the answer?").validate()


@pytest.mark.parametrize("template", ["{words} {words.upper}", "{words.__class__}", "{words:{words}}"])
def test_question_template_fields_only_format_the_words(template):
    # an attribute or a nested field could put text of its own where the words go
    with pytest.raises(ConfigError, match="only {words}"):
        Templates(question_template=template).validate()


# --- extraction -----------------------------------------------------------------

def test_extract_reference_response():
    text = "Step 1: aghmarib\nStep 2: aribbsjc\nfinal answer\n\\boxed{bsjcctkd}"
    assert extract_langsym_answer(text) == "bsjcctkd"
    assert extract_steps(text) == ["aghmarib", "aribbsjc"]


def test_extract_no_boxed_is_failure():
    assert extract_langsym_answer("Step 1: abc\nno answer here") is None


def test_extract_alphabet_violation_is_failure():
    assert extract_langsym_answer("\\boxed{Hello!}") is None
    # but a later clean boxed word is still found
    assert extract_langsym_answer("\\boxed{Nope1} then \\boxed{yes}") == "yes"


def test_extract_steps_requires_consecutive_numbering():
    assert extract_steps("Step 1: aa\nStep 3: bb") == ["aa"]
    assert extract_steps("Step 2: aa\nStep 1: bb") == []
    assert extract_steps("Step 1: aa\nStep 2: bb\nStep 3: cc") == ["aa", "bb", "cc"]


def test_render_extract_round_trip_bulk():
    cfg = small_config(t=30)
    for chat in (generate_langsym_prompt(cfg, j) for j in cfg.output_order()):
        for i in range(cfg.k):
            assistant = chat["messages"][2 + 2 * i]["content"]
            chain = chat["meta"]["chains"][i]
            assert extract_langsym_answer(assistant) == chain[-1]
            if chat["meta"]["cot_flags"][i]:
                assert extract_steps(assistant) == chain[:-1]


# --- stripping and text eval ------------------------------------------------------

def test_strip_chat_prompt_counts():
    cfg = small_config()
    chat = generate_langsym_prompt(cfg, 1)
    stripped = strip_chat_prompt(chat, 3, make_rng(9), cfg.templates)
    assert sum(stripped["meta"]["cot_flags"][:-1]) == (cfg.k - 1) - 3
    assert stripped["meta"]["cot_flags"][-1] == 1
    n_think = sum("Step 1:" in m["content"] for m in stripped["messages"] if m["role"] == "assistant")
    assert n_think == cfg.k - 3


def test_strip_chat_zero_identity():
    cfg = small_config()
    chat = generate_langsym_prompt(cfg, 1)
    assert strip_chat_prompt(chat, 0, make_rng(0), cfg.templates) == chat


def test_strip_chat_prompt_rerenders_only_the_turns_strip_flags_clears():
    # mixed flags: the draw is among the thinking context turns, the rule of the token-level strip
    cfg = small_config(recipe=Recipe(alpha=1.0), k=8)
    for j in range(cfg.t):
        chat = generate_langsym_prompt(cfg, j)
        flags = chat["meta"]["cot_flags"]
        k_prime = min(2, sum(flags[:-1]))
        stripped = strip_chat_prompt(chat, k_prime, ItemStream(j), cfg.templates)
        want = strip_flags(flags, k_prime, ItemStream(j))
        assert stripped["meta"]["cot_flags"] == want
        changed = [i for i, (a, b) in enumerate(zip(chat["messages"], stripped["messages"])) if a != b]
        assert changed == [2 + 2 * i for i, (old, new) in enumerate(zip(flags, want)) if old and not new]
        assert len(changed) == k_prime


def test_text_oracle_both_strategies():
    cfg = small_config(t=10)
    prompts = [make_langsym_eval_prompt(c) for c in (generate_langsym_prompt(cfg, j) for j in cfg.output_order())]
    backend = TextOracleBackend(cfg.templates)
    for strategy in (FORCE_THINK, FORCE_ANSWER):
        report = evaluate_langsym(backend, backend.one_at_a_time(prompts), ForcingConfig(strategy, 1000), cfg.templates)
        assert report.accuracy == 1.0
        oracle = TextOracleBackend(cfg.templates)  # a lazy stream: each prompt shown as it is read
        streamed = evaluate_langsym(oracle, oracle.one_at_a_time(iter(prompts)), ForcingConfig(strategy, 1000), cfg.templates)
        assert streamed.to_json() == report.to_json()
        if strategy == FORCE_THINK:
            assert all(all(r.step_correct) for r in report.records)


def test_the_text_oracle_refuses_a_forced_prefix_that_starts_no_canonical_turn():
    cfg = small_config(t=2)
    oracle = TextOracleBackend(cfg.templates)
    prompt = next(oracle.one_at_a_time([make_langsym_eval_prompt(generate_langsym_prompt(cfg, 0))]))
    assert oracle.complete([*prompt.context, {"role": "assistant", "content": cfg.templates.answer_open}])
    forced = [*prompt.context, {"role": "assistant", "content": "no canonical turn starts so"}]
    with pytest.raises(BackendError, match="forced prefix 'no canonical turn starts so' does not match"):
        oracle.complete(forced)


def test_text_budget_truncation_causes_format_failure():
    cfg = small_config(t=4)
    prompts = [make_langsym_eval_prompt(c) for c in (generate_langsym_prompt(cfg, j) for j in cfg.output_order())]
    backend = TextOracleBackend(cfg.templates)
    report = evaluate_langsym(backend, backend.one_at_a_time(prompts), ForcingConfig(FORCE_THINK, 5), cfg.templates)
    assert all(r.format_failure for r in report.records)
    assert report.accuracy == 0.0


class _CountingTextBackend:
    """Completes every request with one fixed text and counts the requests."""

    def __init__(self, completion: str):
        self.completion = completion
        self.calls = 0

    def complete(self, messages):
        self.calls += 1
        return self.completion


def test_text_no_forcing_is_a_config_error_before_any_backend_call():
    cfg = small_config(t=3)
    prompts = [make_langsym_eval_prompt(c) for c in (generate_langsym_prompt(cfg, j) for j in cfg.output_order())]
    backend = _CountingTextBackend("\\boxed{abc}")
    with pytest.raises(ConfigError, match="unsupported text strategy"):
        evaluate_langsym(backend, prompts, ForcingConfig(NO_FORCING), cfg.templates)
    assert backend.calls == 0


def test_an_in_process_text_backend_exception_fails_only_its_prompt():
    cfg = small_config(t=3)
    prompts = [make_langsym_eval_prompt(c) for c in (generate_langsym_prompt(cfg, j) for j in cfg.output_order())]
    oracle = TextOracleBackend(cfg.templates)

    class FailsOnce:
        def complete(self, messages):
            if messages[-2] == prompts[1].context[-1]:
                raise RuntimeError("no model here")
            return oracle.complete(messages)

    report = evaluate_langsym(FailsOnce(), oracle.one_at_a_time(prompts), ForcingConfig(FORCE_THINK), cfg.templates)
    assert [r.error for r in report.records] == [None, f"backend failed on prompt {prompts[1].meta['seq_id']}: no model here", None]
    assert [r.indicator for r in report.records] == [1, 0, 1]


@pytest.mark.parametrize("budget, kept", [
    (None, "Step 1: abcd\n"), (1, "S"), (7, "Step 1:"), (13, "Step 1: abcd\n"), (14, "Step 1: abcd\n"), (1000, "Step 1: abcd\n"),
])
def test_text_budget_is_a_character_cap_and_none_keeps_the_whole_completion(budget, kept):
    cfg = small_config(t=2)
    prompt = make_langsym_eval_prompt(generate_langsym_prompt(cfg, 0))
    backend = _CountingTextBackend("Step 1: abcd\n")
    for strategy, marker in ((FORCE_THINK, cfg.templates.think_open), (FORCE_ANSWER, cfg.templates.answer_open)):
        text = langsym.force_generate_text(backend, prompt, ForcingConfig(strategy, budget), cfg.templates)
        assert text == marker + kept
    assert backend.calls == 2


def test_render_assistant_modes():
    t = Templates()
    cot = render_assistant(["aa", "bb", "cc"], True, t)
    plain = render_assistant(["aa", "bb", "cc"], False, t)
    assert cot.startswith(t.think_open) and t.think_close in cot
    assert "Step 1: aa" in cot and "Step 2: bb" in cot and "Step 3" not in cot
    assert cot.endswith("\\boxed{cc}")
    assert plain == f"{t.answer_open}\\boxed{{cc}}"


def test_text_oracle_answers_only_the_context_it_was_last_shown():
    t = Templates()
    question = {"role": "user", "content": "the same question"}

    def prompt(context: str, chain: tuple[str, ...]) -> EvalPrompt:
        messages = ({"role": "system", "content": "s"}, {"role": "user", "content": context}, question)
        return EvalPrompt(context=messages, ground_truth_chain=chain, meta={})

    a, b = prompt("context a", ("ab", "cd")), prompt("context b", ("ef", "gh"))
    backend = TextOracleBackend(t)
    with pytest.raises(BackendError, match="unknown prompt context"):  # shown nothing yet
        backend.complete([*a.context])
    stream = backend.one_at_a_time([a, b])
    for p, other in ((a, b), (b, a)):
        assert next(stream) is p
        assert backend.complete([*p.context]) == render_assistant(list(p.ground_truth_chain), True, t)
        forced = [*p.context, {"role": "assistant", "content": t.answer_open}]
        assert t.answer_open + backend.complete(forced) == render_assistant(list(p.ground_truth_chain), False, t)
        with pytest.raises(BackendError, match="unknown prompt context"):  # the same question, another context
            backend.complete([*other.context])


# --- shard lines -----------------------------------------------------------------

def _record_line(config, j, transforms):
    """encode_record of the per-draw reference prompt, stripped by each transform in turn."""
    record = reference_prompt(config, j)
    for tf in transforms:
        record = strip_chat_prompt(record, tf["k_prime"], ItemStream(derive_seed(tf["seed"], j)), config.templates)
    return storage.encode_record(record)


ESCAPED = Templates(  # quotes, a backslash, newlines, non-ASCII (a non-BMP character too) and an escaped brace
    system_prompt='Solve "these" \\ puzzles.\nÉtape: 漢字 \U0001F600',
    question_template='Words: "{words}" \\ {{x}}\né {words!r}?',
    think_open='<think q="1">\n',
    think_close="</think>\\\n",
    answer_open="réponse\n",
)
LINE_CONFIGS = {
    "reference": dict(n_choices=(4,), m_choices=(4,), c_choices=(4,), k=40, recipe=Recipe(alpha=2.0, a=0.5, b=0.5)),
    "odd-w": dict(w=5, n_choices=(1, 3, 5), m_choices=(1, 2, 3), c_choices=(1, 4), k=7, recipe=Recipe(alpha=1.0)),
    "distinct": dict(w=7, n_choices=(3, 4), distinct_letters=True, k=6, recipe=Recipe(alpha=0.5)),
    "choices-c1": dict(w=3, n_choices=(1, 2, 6), m_choices=(1, 3), c_choices=(1,), k=5, recipe=Recipe(alpha=1.0)),
    "shuffled": dict(w=4, n_choices=(2, 3), m_choices=(2,), c_choices=(2, 6), k=9, shuffle=True,
                     recipe=Recipe(alpha=0.0, a=0.7, b=0.0)),
    "escaped-templates": dict(w=6, n_choices=(2, 3), c_choices=(2, 3), k=8, templates=ESCAPED, recipe=Recipe(alpha=1.0)),
    "two-fields": dict(k=6, templates=Templates(question_template="{words} and then {words} once more"),
                       recipe=Recipe(alpha=1.0)),
    "right-aligned": dict(w=3, n_choices=(2, 5), k=6, templates=Templates(question_template="[{words:>60}]"),
                          recipe=Recipe(alpha=1.0)),
    "cut-short": dict(w=5, k=6, templates=Templates(question_template="Begins {words:.5}... then {words:*^9.3}"),
                      recipe=Recipe(alpha=1.0)),
}
TRANSFORMS = [[], strips(0), strips(1), strips(2), strips(1, 1), strips(0, 2)]


@pytest.mark.parametrize("name", sorted(LINE_CONFIGS))
def test_prompt_line_equals_the_record_path(name):
    config = small_config(t=12, master_seed=77, **LINE_CONFIGS[name])
    outcomes = set()
    for j in config.output_order():
        for transforms in TRANSFORMS:
            got = line_outcome(langsym.prompt_line, config, j, transforms)
            assert got == line_outcome(_record_line, config, j, transforms), (j, transforms)
            outcomes.add(got[0])
        # a k' past the item's thinking context examples is the same error both ways
        too_many = strips(config.k)
        assert line_outcome(langsym.prompt_line, config, j, too_many) == line_outcome(_record_line, config, j, too_many)
        assert line_outcome(langsym.prompt_line, config, j, too_many)[0] == "ConfigError"
    assert "line" in outcomes
    assert storage.KINDS["langsym"].line is langsym.prompt_line


def test_gen_verify_and_strip_build_no_record(tmp_path, capsys, monkeypatch):
    def record_api(*args, **kwargs):
        raise AssertionError("the line path built a record")

    for module, name in ((langsym, "generate_langsym_prompt"), (langsym, "strip_chat_prompt"),
                         (storage, "encode_record")):
        monkeypatch.setattr(module, name, record_api)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_choices": [3, 4], "m_choices": [2], "c_choices": [2, 3], "k": 6, "t": 16,
                               "recipe": {"alpha": 0.0, "a": 0.0, "b": 0.8}, "master_seed": 5, "w": 5}))
    src, dst = str(tmp_path / "src"), str(tmp_path / "dst")
    assert main(["gen-langsym", "--config", str(cfg), "--out", src, "--shards", "3", "--workers", "2"]) == 0
    assert main(["verify", "--manifest", src, "--workers", "2"]) == 0
    assert main(["strip-cot", "--in", src, "--k-prime", "1", "--seed", "3", "--out", dst, "--workers", "2"]) == 0
    assert main(["verify", "--manifest", dst]) == 0
    capsys.readouterr()
    monkeypatch.undo()
    config = LangSymConfig.from_json(json.loads(cfg.read_text()))
    want = [_record_line(config, j, [{"kind": "strip-cot", "k_prime": 1, "seed": 3}]) for j in config.output_order()]
    assert b"".join(path.read_bytes() for path in sorted((tmp_path / "dst").glob("part-*.jsonl"))) == b"".join(want)
