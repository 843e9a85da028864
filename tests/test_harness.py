import json
import math
import re
import sys
import textwrap

import numpy as np
import pytest

from cotforge.errors import BackendError, ConfigError, FormatError
from cotforge.harness import (
    FORCE_ANSWER,
    FORCE_THINK,
    ForcingConfig,
    NO_FORCING,
    OracleBackend,
    RandomBackend,
    StdioBackend,
    evaluate,
    extract_answer,
    extract_thinking,
    force_generate,
    make_eval_prompt,
    step_correctness_grid,
    step_dag_breakdown,
    strip_sequence_record,
)
from cotforge.recipe import Recipe
from cotforge.rng import ItemStream, make_rng
from cotforge.sequences import DatasetConfig, generate_sequence, parse_sequence, render_example_tokens
from cotforge.storage import encode_record

from helpers import (
    binomial_interval,
    recompute_chains,
    reference_make_eval_prompt,
    reference_strip_cot,
    reference_strip_sequence_record,
    shown,
)


def all_cot_config(**over):
    base = dict(
        n_choices=(4,),
        m_choices=(4,),
        c_choices=(4,),
        k=8,
        t=30,
        recipe=Recipe(alpha=0.0),
        master_seed=2718,
        vocab_size=256,
        dim=8,
        cache_size=8,
    )
    base.update(over)
    return DatasetConfig(**base)


@pytest.fixture(scope="module")
def world():
    cfg = all_cot_config()
    vocab = cfg.artifacts[0]
    seqs = [generate_sequence(cfg, j) for j in range(cfg.t)]
    prompts = [make_eval_prompt(s, vocab) for s in seqs]
    return cfg, vocab, seqs, prompts


def test_prompt_context_has_k_minus_one_examples(world):
    cfg, vocab, _, prompts = world
    for p in prompts:
        query_segment = p.context[-(p.meta["n"] + 2) :]
        assert p.context.count(vocab.eos) == cfg.k - 1
        assert query_segment[0] == vocab.inp_start
        assert query_segment[-1] == vocab.inp_end


def test_minimal_two_example_prompt():
    cfg = all_cot_config(k=2, t=4)
    vocab = cfg.artifacts[0]
    p = make_eval_prompt(generate_sequence(cfg, 0), vocab)
    assert p.context.count(vocab.eos) == 1


def test_single_example_prompt_rejected():
    cfg = all_cot_config(k=1, t=4)
    vocab = cfg.artifacts[0]
    with pytest.raises(ConfigError):
        make_eval_prompt(generate_sequence(cfg, 0), vocab)


def test_ground_truth_matches_recomputation(world):
    cfg, _, seqs, prompts = world
    for seq, prompt in zip(seqs, prompts):
        chains = recompute_chains(seq, cfg)
        assert list(prompt.ground_truth_chain) == [int(v) for v in chains[-1]]


def stripped_prompt(seq, k_prime, rng, vocab):
    """The eval prompt of the record `seq` after k_prime of its context examples are stripped."""
    return make_eval_prompt(strip_sequence_record(seq, k_prime, rng, vocab), vocab)


def test_strip_zero_is_identity(world):
    _, vocab, seqs, prompts = world
    rec = seqs[0]
    assert strip_sequence_record(rec, 0, make_rng(0), vocab) == rec
    assert stripped_prompt(seqs[0], 0, make_rng(0), vocab) == prompts[0]


def test_strip_all_context(world):
    cfg, vocab, seqs, prompts = world
    p = stripped_prompt(seqs[0], cfg.k - 1, make_rng(1), vocab)
    split = len(p.context) - (p.meta["n"] + 2)
    parsed = parse_sequence(list(p.context[:split]), vocab)
    assert not any(ex.is_cot for ex in parsed)
    assert p.context[split:] == prompts[0].context[-(p.meta["n"] + 2) :]
    assert p.ground_truth_chain == prompts[0].ground_truth_chain


def test_strip_token_delta(world):
    cfg, vocab, seqs, prompts = world
    c = prompts[0].meta["c"]
    for k_prime in (1, 3, cfg.k - 1):
        stripped = stripped_prompt(seqs[0], k_prime, make_rng(2), vocab)
        delta = len(prompts[0].context) - len(stripped.context)
        assert delta == k_prime * (c + 1)


def test_strip_out_of_range(world):
    cfg, vocab, seqs, _ = world
    with pytest.raises(ConfigError):
        strip_sequence_record(seqs[0], cfg.k, make_rng(0), vocab)


def test_strip_sequence_record_counts(world):
    cfg, vocab, seqs, _ = world
    rec = strip_sequence_record(seqs[0], 3, make_rng(5), vocab)
    flags = rec["meta"]["cot_flags"]
    assert sum(flags) == cfg.k - 3
    assert flags[-1] == 1  # the future query is never stripped
    n, c = rec["meta"]["n"], rec["meta"]["c"]
    n_cot = sum(flags)
    assert len(rec["tokens"]) == 1 + n_cot * (n + c + 7) + (cfg.k - n_cot) * (n + 6)
    assert sum(rec["loss_mask"]) == n_cot * (c + 5) + (cfg.k - n_cot) * 4


@pytest.fixture(scope="module")
def mixed_records():
    """Records whose first K-1 examples mix both renderings, over several (n, c)."""
    cfg = all_cot_config(n_choices=(1, 3, 5), c_choices=(1, 2, 6), recipe=Recipe(alpha=1.0), t=40, k=10)
    vocab = cfg.artifacts[0]
    records = [generate_sequence(cfg, j) for j in range(cfg.t)]
    return vocab, [r for r in records if 0 < sum(r["meta"]["cot_flags"][:-1]) < cfg.k - 1]


@pytest.mark.parametrize("k_prime", ["0", "1", "all"])
def test_strip_sequence_record_matches_parse_and_rerender(mixed_records, k_prime):
    vocab, records = mixed_records
    assert len(records) >= 10
    for j, rec in enumerate(records):
        n_cot = sum(rec["meta"]["cot_flags"][:-1])
        kp = {"0": 0, "1": 1, "all": n_cot}[k_prime]
        ours = strip_sequence_record(rec, kp, make_rng(j), vocab)
        want = reference_strip_sequence_record(rec, kp, make_rng(j), vocab)
        assert encode_record(ours) == encode_record(want), rec["seq_id"]


def _flip_first_flag(rec, vocab):
    rec["meta"]["cot_flags"][0] ^= 1


def _swap_unequal_flags(rec, vocab):
    flags = rec["meta"]["cot_flags"]
    i, j = flags.index(0), flags.index(1)
    flags[i], flags[j] = flags[j], flags[i]


def _truncate(rec, vocab):
    rec["tokens"].pop()


def _delimiter_to_normal(rec, vocab):
    rec["tokens"][rec["tokens"].index(vocab.think_end)] = vocab.normal_ids.start


def _special_in_input(rec, vocab):
    rec["tokens"][2] = vocab.ans_end  # bos, inp_start, then the first input token


def _nested_flags(rec, vocab):
    rec["meta"]["cot_flags"] = [[f] for f in rec["meta"]["cot_flags"]]


def _no_examples(rec, vocab):
    rec["meta"]["cot_flags"], rec["tokens"] = [], [vocab.bos]


@pytest.mark.parametrize(
    "corrupt",
    [_flip_first_flag, _swap_unequal_flags, _truncate, _delimiter_to_normal, _special_in_input, _nested_flags,
     _no_examples],
    ids=lambda f: f.__name__.lstrip("_"),
)
def test_strip_sequence_record_rejects_a_broken_layout(mixed_records, corrupt):
    vocab, records = mixed_records
    rec = json.loads(encode_record(records[0]))
    corrupt(rec, vocab)
    with pytest.raises(FormatError):
        strip_sequence_record(rec, 0, make_rng(0), vocab)


def test_all_plain_record_with_a_huge_c_fails_on_its_dag_before_any_layout_array():
    # every example plain, so c never enters the stream length; a layout of
    # n+c+7 cells per example would ask numpy for terabytes
    cfg = all_cot_config(recipe=Recipe(alpha=math.inf), t=2)
    vocab = cfg.artifacts[0]
    rec = json.loads(encode_record(generate_sequence(cfg, 1)))
    assert not any(rec["meta"]["cot_flags"])
    rec["meta"]["c"] = 10**12
    want = "dag over 4 inputs and 4 chain nodes, meta has n=4 c=1000000000000"
    with pytest.raises(ValueError, match=want):
        make_eval_prompt(rec, vocab)
    with pytest.raises(ValueError, match=want):
        strip_sequence_record(rec, 0, make_rng(0), vocab)


def test_eval_prompt_context_matches_rerender(mixed_records):
    vocab, records = mixed_records
    checked = 0
    for j, rec in enumerate(records):
        stripped = strip_sequence_record(rec, 1, make_rng(j), vocab)
        if not stripped["meta"]["cot_flags"][-1]:
            continue
        checked += 1
        parsed = parse_sequence(list(stripped["tokens"]), vocab)
        want = [vocab.bos]
        for ex in parsed[:-1]:
            want += render_example_tokens(ex, vocab, as_cot=ex.is_cot)
        prompt = make_eval_prompt(stripped, vocab)
        assert prompt.context == (*want, vocab.inp_start, *parsed[-1].inputs, vocab.inp_end)
        assert prompt.context == tuple(stripped["tokens"][: len(want) + len(parsed[-1].inputs) + 2])
    assert checked >= 5


@pytest.fixture(scope="module")
def layout_sequences():
    """Sequence records over n, c in 1..6 and k in 2..8: all-CoT, mixed, and stripped mixed ones."""
    records = []
    for k in range(2, 9):
        for alpha in (0.0, 1.0):
            cfg = all_cot_config(n_choices=tuple(range(1, 7)), m_choices=(1, 2), c_choices=tuple(range(1, 7)),
                                 k=k, t=12, recipe=Recipe(alpha=alpha), master_seed=100 * k + int(alpha))
            vocab = cfg.artifacts[0]
            for j in range(cfg.t):
                rec = generate_sequence(cfg, j)
                records.append(rec)
                if alpha:
                    n_cot = sum(rec["meta"]["cot_flags"][:-1])
                    stripped = strip_sequence_record(rec, j % (n_cot + 1), make_rng(j), vocab)
                    records.append(json.loads(encode_record(stripped)))
    return vocab, records


def test_eval_prompt_matches_parse_based_reference(layout_sequences):
    vocab, records = layout_sequences
    built = rejected = 0
    for rec in records:
        try:
            want = reference_make_eval_prompt(rec, vocab)
        except ConfigError as exc:
            with pytest.raises(ConfigError, match=re.escape(str(exc))):
                make_eval_prompt(rec, vocab)
            rejected += 1
            continue
        got = make_eval_prompt(rec, vocab)
        assert got == want and got.meta == want.meta, rec["seq_id"]
        assert all(type(t) is int for t in (*got.context, *got.ground_truth_chain))
        built += 1
    assert built >= 100 and rejected >= 10
    assert {r["meta"]["n"] for r in records} == {r["meta"]["c"] for r in records} == set(range(1, 7))


def test_strip_cot_matches_parse_based_reference(layout_sequences):
    """Stripping a record and then building its prompt equals a parse-based strip of the prompt."""
    vocab, records = layout_sequences
    mixed = set()
    for rec in records:
        flags = rec["meta"]["cot_flags"]
        if len(flags) < 2 or not flags[-1]:
            continue
        prompt = make_eval_prompt(rec, vocab)
        n_cot = sum(flags[:-1])
        if 0 < n_cot < len(flags) - 1:
            mixed.add((rec["meta"]["n"], rec["meta"]["c"]))
        for k_prime in sorted({0, min(1, n_cot), n_cot}):
            stripped = strip_sequence_record(rec, k_prime, make_rng(rec["seq_id"] + k_prime), vocab)
            got = make_eval_prompt(stripped, vocab)
            want = reference_strip_cot(prompt, k_prime, make_rng(rec["seq_id"] + k_prime), vocab)
            assert got == want and got.meta == want.meta, (rec["seq_id"], k_prime)
            assert list(got.meta) == list(want.meta)  # key order too
            assert all(type(t) is int for t in got.context)
    assert len(mixed) >= 10


def test_strip_cot_twice_keeps_meta_flags_equal_to_the_context(world):
    cfg, vocab, seqs, _ = world
    for j, seq in enumerate(seqs[:6]):
        rec = seq
        once = strip_sequence_record(rec, 2, make_rng(j), vocab)
        twice = strip_sequence_record(once, 3, make_rng(100 + j), vocab)
        for p in (make_eval_prompt(once, vocab), make_eval_prompt(twice, vocab)):
            parsed = parse_sequence(list(p.context[: -(p.meta["n"] + 2)]), vocab)
            assert p.meta["cot_flags"][:-1] == [int(ex.is_cot) for ex in parsed]
        assert sum(twice["meta"]["cot_flags"]) == cfg.k - 5
        assert rec["meta"]["cot_flags"] == [1] * cfg.k  # the input record's meta is left as it was


def _flip_last_flag(rec, vocab):
    rec["meta"]["cot_flags"][-1] ^= 1


def _c_plus_one(rec, vocab):
    rec["meta"]["c"] += 1


def _answer_to_delimiter(rec, vocab):
    rec["tokens"][-3] = vocab.eos


@pytest.mark.parametrize("corrupt", [_flip_last_flag, _c_plus_one, _truncate, _answer_to_delimiter],
                         ids=lambda f: f.__name__.lstrip("_"))
def test_eval_prompt_rejects_a_record_that_disagrees_with_its_layout(world, corrupt):
    _, vocab, seqs, _ = world
    rec = json.loads(encode_record(seqs[0]))
    corrupt(rec, vocab)
    with pytest.raises(FormatError):
        make_eval_prompt(rec, vocab)


def test_oracle_emits_canonical_thinking_tail(world):
    _, vocab, _, prompts = world
    p = prompts[0]
    backend = shown(OracleBackend(), p)
    out = force_generate(backend, p, ForcingConfig(strategy=FORCE_THINK))
    chain = list(p.ground_truth_chain)
    assert out == [vocab.think_start, *chain[:-1], vocab.think_end, vocab.ans_start, chain[-1], vocab.ans_end, vocab.eos]


def test_force_answer_appends_ans_start(world):
    _, vocab, _, prompts = world
    backend = shown(OracleBackend(), prompts[1])
    out = force_generate(backend, prompts[1], ForcingConfig(strategy=FORCE_ANSWER))
    assert out[0] == vocab.ans_start
    assert out == [vocab.ans_start, prompts[1].ground_truth_chain[-1], vocab.ans_end, vocab.eos]


def test_budget_one_generates_one_token(world):
    _, vocab, _, prompts = world
    backend = shown(OracleBackend(), prompts[0])
    out = force_generate(backend, prompts[0], ForcingConfig(strategy=NO_FORCING, budget=1))
    assert len(out) == 1
    out = force_generate(backend, prompts[0], ForcingConfig(strategy=FORCE_THINK, budget=1))
    assert len(out) == 2  # forced token + one generated token


_REPLIES = {"float": lambda tok: 4.9, "bool": lambda tok: True, "str": lambda tok: "7", "numpy": np.int64}


@pytest.mark.parametrize("kind", list(_REPLIES))
def test_a_reply_that_is_not_an_integer_fails_its_prompt(world, kind):
    _, _, _, prompts = world
    oracle = OracleBackend()
    first = prompts[0].context

    class Stub:
        def next_token(self, tokens):
            tok = oracle.next_token(tokens)
            return _REPLIES[kind](tok) if tuple(tokens[: len(first)]) == first else tok

    report = evaluate(Stub(), oracle.one_at_a_time(prompts[:3]), ForcingConfig(strategy=FORCE_ANSWER))
    rec = report.records[0]
    if kind == "numpy":
        assert (rec.error, rec.indicator) == (None, 1) and all(type(t) is int for t in rec.generated)
    else:
        name = type(_REPLIES[kind](0)).__name__
        assert rec.error == f"backend failed on prompt {prompts[0].meta['seq_id']}: backend sent a {name}, not a token id"
        assert (rec.predicted, rec.generated) == (None, [])
    assert [r.indicator for r in report.records[1:]] == [1, 1]


def test_extract_answer_patterns():
    from cotforge.vocab import Vocabulary

    v = Vocabulary(64)
    assert extract_answer([v.think_start, 17, 23, v.think_end, v.ans_start, 42, v.ans_end, v.eos]) == 42
    assert extract_answer([v.ans_start, 42]) is None
    assert extract_answer([]) is None
    # two patterns: first wins
    assert extract_answer([v.ans_start, 9, v.ans_end, v.ans_start, 10, v.ans_end]) == 9


def test_extract_answer_recovers_rendered_answer():
    from cotforge.sequences import render_cot_example, render_standard_example
    from cotforge.vocab import Vocabulary

    v = Vocabulary(64)
    assert extract_answer(render_standard_example([10, 11], 33, v)) == 33
    assert extract_answer(render_cot_example([10, 11], [20, 21, 33], v)) == 33


def test_oracle_accuracy_one_under_everything(world):
    cfg, vocab, seqs, _ = world
    for k_prime in (0, 3, cfg.k - 1):
        stripped = [stripped_prompt(s, k_prime, make_rng(100 + k_prime), vocab) for s in seqs]
        backend = OracleBackend()
        for strategy in (FORCE_THINK, FORCE_ANSWER, NO_FORCING):
            report = evaluate(backend, backend.one_at_a_time(stripped), ForcingConfig(strategy=strategy))
            assert report.accuracy == 1.0
            assert all(r.step_correct == [True, True, True] for r in report.records if strategy == FORCE_THINK)


def test_random_backend_within_binomial_interval(world):
    _, vocab, _, prompts = world
    hits = 0
    trials = 0
    for seed in range(40):
        backend = RandomBackend(vocab, seed=seed)
        report = evaluate(backend, backend.one_at_a_time(prompts), ForcingConfig(strategy=FORCE_ANSWER))
        hits += sum(r.indicator for r in report.records)
        trials += len(report.records)
    lo, hi = binomial_interval(trials, 1 / vocab.n_normal, 0.99)
    assert lo <= hits <= hi


def test_random_backend_never_format_fails(world):
    _, vocab, _, prompts = world
    backend = RandomBackend(vocab, seed=3)
    report = evaluate(backend, backend.one_at_a_time(prompts), ForcingConfig(strategy=FORCE_THINK))
    assert not any(r.format_failure for r in report.records)


def test_report_accounting(world):
    _, vocab, _, prompts = world
    backend = RandomBackend(vocab, seed=7)
    report = evaluate(backend, backend.one_at_a_time(prompts), ForcingConfig(strategy=NO_FORCING))
    assert 0.0 <= report.accuracy <= 1.0
    matched = sum(0 if r.format_failure else 1 for r in report.records)
    failures = sum(1 if r.format_failure else 0 for r in report.records)
    assert matched + failures == len(prompts)


def test_step_grid_partitions_counts(world):
    _, vocab, _, prompts = world
    backend = RandomBackend(vocab, seed=11)
    report = evaluate(backend, backend.one_at_a_time(prompts), ForcingConfig(strategy=FORCE_THINK))
    grid = step_correctness_grid(report)
    total = grid["answer_correct"]["n"] + grid["answer_wrong"]["n"]
    assert total == len(prompts)
    for side in ("answer_correct", "answer_wrong"):
        cells = sum(
            grid[side][a][b] for a in ("correct", "incorrect") for b in ("correct", "incorrect")
        )
        assert cells == grid[side]["n"]


def test_oracle_grid_all_mass_in_correct_cells(world):
    _, vocab, _, prompts = world
    backend = OracleBackend()
    report = evaluate(backend, backend.one_at_a_time(prompts), ForcingConfig(strategy=FORCE_THINK))
    grid = step_correctness_grid(report)
    assert grid["answer_correct"]["correct"]["correct"] == len(prompts)
    assert grid["answer_wrong"]["n"] == 0
    breakdown = step_dag_breakdown(report)
    for table in breakdown["answer_correct"]:
        assert table["in_dag"]["incorrect"] == 0
        assert table["not_in_dag"]["incorrect"] == 0
        assert table["n"] == len(prompts)


def test_dag_breakdown_margins(world):
    _, vocab, _, prompts = world
    backend = RandomBackend(vocab, seed=13)
    report = evaluate(backend, backend.one_at_a_time(prompts), ForcingConfig(strategy=FORCE_THINK))
    breakdown = step_dag_breakdown(report)
    n_correct = sum(1 for r in report.records if r.indicator)
    n_wrong = len(report.records) - n_correct
    for table in breakdown["answer_correct"]:
        assert table["n"] == n_correct
    for table in breakdown["answer_wrong"]:
        assert table["n"] == n_wrong


def test_evaluate_requires_prompts():
    oracle = OracleBackend()
    with pytest.raises(ConfigError):
        evaluate(oracle, oracle.one_at_a_time([]), ForcingConfig(strategy=NO_FORCING))
    with pytest.raises(ConfigError):  # known only once the iterator runs out
        evaluate(oracle, oracle.one_at_a_time(iter(())), ForcingConfig(strategy=NO_FORCING))


@pytest.mark.parametrize("random", [False, True], ids=["oracle", "random"])
def test_an_oracle_answers_only_the_prompt_it_was_last_shown(world, random):
    _, vocab, _, prompts = world
    oracle = RandomBackend(vocab, seed=5) if random else OracleBackend()
    forcing = ForcingConfig(strategy=FORCE_THINK)
    with pytest.raises(BackendError, match="unknown prompt prefix"):  # shown nothing yet
        force_generate(oracle, prompts[0], forcing)
    stream = oracle.one_at_a_time(iter(prompts[:2]))
    answered = []
    for current, other in ((prompts[0], prompts[1]), (prompts[1], prompts[0])):
        assert next(stream) is current
        out = force_generate(oracle, current, forcing)
        answered.append([*extract_thinking(out), extract_answer(out)])
        with pytest.raises(BackendError, match="unknown prompt prefix"):  # not yet, or no longer, the current one
            force_generate(oracle, other, forcing)
    want = [list(p.ground_truth_chain) for p in prompts[:2]]
    if random:  # drawn as each prompt is shown, in stream order
        draws = ItemStream(5)
        want = [draws.integers(vocab.normal_ids.start, vocab.normal_ids.stop, size=len(w)).tolist() for w in want]
    assert answered == want


def test_the_oracle_splits_a_request_at_the_length_of_the_context_it_was_shown(world):
    _, vocab, _, prompts = world
    oracle = OracleBackend()
    prompt = next(oracle.one_at_a_time(prompts[:1]))
    context, chain = list(prompt.context), prompt.ground_truth_chain
    assert oracle.next_token(context + [vocab.think_start]) == chain[0]
    assert oracle.next_token(context + [vocab.ans_start]) == chain[-1]
    assert oracle.next_token(context) == vocab.think_start
    for request in (context[:-1], context[1:] + [vocab.think_start], []):
        with pytest.raises(BackendError, match="unknown prompt prefix"):
            oracle.next_token(request)


def test_the_oracle_answers_eos_once_a_request_runs_past_its_tail(world):
    _, vocab, _, prompts = world
    oracle = OracleBackend()
    prompt = next(oracle.one_at_a_time(prompts[:1]))
    context, chain = list(prompt.context), prompt.ground_truth_chain
    thinking = [vocab.think_start, *chain[:-1], vocab.think_end, vocab.ans_start, chain[-1], vocab.ans_end, vocab.eos]
    for tail in (thinking, thinking[-4:]):
        for extra in ([], [vocab.eos], [vocab.normal_ids.start] * 3):
            assert oracle.next_token(context + tail + extra) == vocab.eos


def test_an_error_taking_a_prompt_stops_the_eval_and_is_no_prompt_error(world):
    _, _, _, prompts = world
    seen = []

    class Counting(OracleBackend):
        def next_token(self, tokens):
            seen.append(len(tokens))
            return super().next_token(tokens)

    def stream():
        yield prompts[0]
        raise FormatError("record 1 is malformed")

    oracle = Counting()
    with pytest.raises(FormatError, match="record 1 is malformed"):
        evaluate(oracle, oracle.one_at_a_time(stream()), ForcingConfig(strategy=FORCE_ANSWER))
    assert len(seen) == 3  # prompt 0 was evaluated: its answer, ans_end and eos


def test_unknown_strategy_rejected():
    with pytest.raises(ConfigError):
        ForcingConfig(strategy="force_feelings")
    with pytest.raises(ConfigError):
        ForcingConfig(strategy=FORCE_THINK, budget=0)


_STDIO_BOT = textwrap.dedent(
    """
    import json, sys
    # fixed-format bot: completes every query with ans_start, 9, ans_end, eos
    COMPLETION = [7, 9, 8, 2]
    for line in sys.stdin:
        toks = json.loads(line)["tokens"]
        last_inp_end = max(i for i, t in enumerate(toks) if t == 4)
        suffix = toks[last_inp_end + 1 :]
        nxt = COMPLETION[len(suffix)] if len(suffix) < 4 else 2
        print(json.dumps({"next": nxt}), flush=True)
    """
)


def test_stdio_backend_round_trip(tmp_path, world):
    _, vocab, _, prompts = world
    bot = tmp_path / "bot.py"
    bot.write_text(_STDIO_BOT)
    with StdioBackend([sys.executable, str(bot)]) as backend:
        report = evaluate(backend, prompts[:5], ForcingConfig(strategy=FORCE_ANSWER))
    assert not any(r.format_failure for r in report.records)
    assert all(r.predicted == 9 for r in report.records)


def test_stdio_backend_malformed_reply(tmp_path, world):
    _, vocab, _, prompts = world
    bot = tmp_path / "bad_bot.py"
    bot.write_text("import sys\nfor line in sys.stdin:\n    print('nonsense', flush=True)\n")
    with StdioBackend([sys.executable, str(bot)]) as backend:
        with pytest.raises(BackendError):
            backend.next_token(list(prompts[0].context))


def test_stdio_request_lines_equal_json_dumps(world):
    _, _, _, prompts = world
    backend = StdioBackend(["unused"])
    sent = []
    backend.send_line = lambda line, key, convert: sent.append(line) or 0
    prefix = list(prompts[0].context)
    other = list(prompts[1].context)
    seq = prefix[:]  # one list, mutated in place between calls as force_generate does
    requests = []

    def ask(tokens):
        requests.append(json.dumps({"tokens": list(tokens)}) + "\n")
        backend.next_token(tokens)

    ask(seq)
    for tok in (5, 7, 300, 9):
        seq.append(tok)
        ask(seq)
    seq.extend([11, 12])
    ask(seq)  # two new tokens at once
    ask(seq)  # the same list twice
    ask(tuple(seq))
    ask(seq[:-3])  # shorter
    seq[len(prefix) // 2] += 1
    ask(seq)  # diverges mid-prefix, same list object
    ask([*seq[:-1], 13])  # diverges at its last token
    ask([])
    ask([1, 2])  # extends an empty list
    ask(other)
    ask(other + [5])
    assert sent == requests


_RESTARTING_BOT = textwrap.dedent(
    """
    import json, os, sys
    # answers like _STDIO_BOT; the first process exits after its first reply
    COMPLETION = [7, 9, 8, 2]
    first = not os.path.exists(sys.argv[1])
    with open(sys.argv[1], "a") as fh:
        fh.write(f"{os.getpid()}\\n")
    for line in sys.stdin:
        toks = json.loads(line)["tokens"]
        last_inp_end = max(i for i, t in enumerate(toks) if t == 4)
        suffix = toks[last_inp_end + 1 :]
        nxt = COMPLETION[len(suffix)] if len(suffix) < 4 else 2
        print(json.dumps({"next": nxt}), flush=True)
        if first:
            break
    """
)


def test_stdio_backend_restart_mid_prompt_gets_the_full_prefix(tmp_path, world):
    _, vocab, _, prompts = world
    bot, pids = tmp_path / "bot.py", tmp_path / "pids.txt"
    bot.write_text(_RESTARTING_BOT)
    with StdioBackend([sys.executable, str(bot), str(pids)]) as backend:
        seq = [*prompts[0].context, vocab.ans_start]
        assert backend.next_token(seq) == 9
        first = backend._proc
        first.wait(timeout=60)  # the first bot has exited
        seq.append(9)
        assert backend.next_token(seq) == vocab.ans_end  # answered from the whole prefix by a new bot
        assert first.stdin.closed and first.stdout.closed
        report = evaluate(backend, prompts[1:4], ForcingConfig(strategy=FORCE_ANSWER))
        second = backend._proc
    assert [r.predicted for r in report.records] == [9, 9, 9]
    assert len(pids.read_text().split()) == 2
    assert second.stdin.closed and second.stdout.closed and second.returncode is not None


def test_all_prompts_failing_raises(world):
    _, vocab, _, prompts = world

    class Broken:
        def next_token(self, tokens):
            raise RuntimeError("no model here")

    with pytest.raises(BackendError):
        evaluate(Broken(), prompts[:3], ForcingConfig(strategy=NO_FORCING))
