import json
import sys
import textwrap

import pytest

from cotforge import (
    BackendError,
    ConfigError,
    DatasetConfig,
    FormatError,
    ForcingConfig,
    FORMAT_FAILURE,
    OracleBackend,
    RandomBackend,
    Recipe,
    StdioBackend,
    evaluate,
    extract_answer,
    force_generate,
    make_eval_prompt,
    step_correctness_grid,
    step_dag_breakdown,
    strip_cot,
)
from cotforge.harness import FORCE_ANSWER, FORCE_THINK, NO_FORCING, strip_sequence_record
from cotforge.rng import make_rng
from cotforge.sequences import (
    Sequence,
    build_artifacts,
    generate_sequence,
    parse_sequence,
    recompute_chains,
    render_example_tokens,
)
from cotforge.storage import encode_record

from helpers import binomial_interval, reference_strip_sequence_record


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
    vocab, emb, cache = build_artifacts(cfg)
    seqs = [generate_sequence(cfg, j, vocab, emb, cache) for j in range(cfg.t)]
    prompts = [make_eval_prompt(s, vocab) for s in seqs]
    return cfg, vocab, emb, cache, seqs, prompts


def test_prompt_context_has_k_minus_one_examples(world):
    cfg, vocab, _, _, _, prompts = world
    for p in prompts:
        assert p.context_tokens.count(vocab.eos) == cfg.k - 1
        assert p.query_segment[0] == vocab.inp_start
        assert p.query_segment[-1] == vocab.inp_end


def test_minimal_two_example_prompt():
    cfg = all_cot_config(k=2, t=4)
    vocab, emb, cache = build_artifacts(cfg)
    p = make_eval_prompt(generate_sequence(cfg, 0, vocab, emb, cache), vocab)
    assert p.context_tokens.count(vocab.eos) == 1


def test_single_example_prompt_rejected():
    cfg = all_cot_config(k=1, t=4)
    vocab, emb, cache = build_artifacts(cfg)
    with pytest.raises(ConfigError):
        make_eval_prompt(generate_sequence(cfg, 0, vocab, emb, cache), vocab)


def test_ground_truth_matches_recomputation(world):
    cfg, vocab, emb, cache, seqs, prompts = world
    for seq, prompt in zip(seqs, prompts):
        chains = recompute_chains(seq, emb, cache, vocab)
        assert list(prompt.ground_truth_chain) == [int(v) for v in chains[-1]]


def test_strip_zero_is_identity(world):
    _, vocab, _, _, _, prompts = world
    p = prompts[0]
    assert strip_cot(p, 0, make_rng(0), vocab) == p


def test_strip_all_context(world):
    cfg, vocab, _, _, _, prompts = world
    p = strip_cot(prompts[0], cfg.k - 1, make_rng(1), vocab)
    parsed = parse_sequence(list(p.context_tokens), vocab)
    assert not any(ex.is_cot for ex in parsed)
    assert p.query_segment == prompts[0].query_segment


def test_strip_token_delta(world):
    cfg, vocab, _, _, _, prompts = world
    c = prompts[0].meta["c"]
    for k_prime in (1, 3, cfg.k - 1):
        stripped = strip_cot(prompts[0], k_prime, make_rng(2), vocab)
        delta = len(prompts[0].context_tokens) - len(stripped.context_tokens)
        assert delta == k_prime * (c + 1)


def test_strip_out_of_range(world):
    cfg, vocab, _, _, _, prompts = world
    with pytest.raises(ConfigError):
        strip_cot(prompts[0], cfg.k, make_rng(0), vocab)


def test_strip_sequence_record_counts(world):
    cfg, vocab, _, _, seqs, _ = world
    rec = strip_sequence_record(seqs[0].to_record(), 3, make_rng(5), vocab)
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
    vocab, emb, cache = build_artifacts(cfg)
    records = [generate_sequence(cfg, j, vocab, emb, cache).to_record() for j in range(cfg.t)]
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


@pytest.mark.parametrize(
    "corrupt",
    [_flip_first_flag, _swap_unequal_flags, _truncate, _delimiter_to_normal, _special_in_input],
    ids=lambda f: f.__name__.lstrip("_"),
)
def test_strip_sequence_record_rejects_a_broken_layout(mixed_records, corrupt):
    vocab, records = mixed_records
    rec = json.loads(encode_record(records[0]))
    corrupt(rec, vocab)
    with pytest.raises(FormatError):
        strip_sequence_record(rec, 0, make_rng(0), vocab)


def test_eval_prompt_context_matches_rerender(mixed_records):
    vocab, records = mixed_records
    checked = 0
    for j, rec in enumerate(records):
        seq = Sequence.from_record(strip_sequence_record(rec, 1, make_rng(j), vocab))
        if not seq.meta.cot_flags[-1]:
            continue
        checked += 1
        parsed = parse_sequence(list(seq.tokens), vocab)
        want = [vocab.bos]
        for ex in parsed[:-1]:
            want += render_example_tokens(ex, vocab, as_cot=ex.is_cot)
        prompt = make_eval_prompt(seq, vocab)
        assert prompt.context_tokens == tuple(want)
        assert prompt.prefix == seq.tokens[: len(want) + len(parsed[-1].inputs) + 2]
    assert checked >= 5


def test_oracle_emits_canonical_thinking_tail(world):
    _, vocab, _, _, _, prompts = world
    p = prompts[0]
    backend = OracleBackend(prompts, vocab)
    out = force_generate(backend, p, ForcingConfig(strategy=FORCE_THINK), vocab)
    chain = list(p.ground_truth_chain)
    assert out == [vocab.think_start, *chain[:-1], vocab.think_end, vocab.ans_start, chain[-1], vocab.ans_end, vocab.eos]


def test_force_answer_appends_ans_start(world):
    _, vocab, _, _, _, prompts = world
    backend = OracleBackend(prompts, vocab)
    out = force_generate(backend, prompts[1], ForcingConfig(strategy=FORCE_ANSWER), vocab)
    assert out[0] == vocab.ans_start
    assert out == [vocab.ans_start, prompts[1].ground_truth_chain[-1], vocab.ans_end, vocab.eos]


def test_budget_one_generates_one_token(world):
    _, vocab, _, _, _, prompts = world
    backend = OracleBackend(prompts, vocab)
    out = force_generate(backend, prompts[0], ForcingConfig(strategy=NO_FORCING, budget=1), vocab)
    assert len(out) == 1
    out = force_generate(backend, prompts[0], ForcingConfig(strategy=FORCE_THINK, budget=1), vocab)
    assert len(out) == 2  # forced token + one generated token


def test_extract_answer_patterns():
    from cotforge import new_vocabulary

    v = new_vocabulary(64)
    assert extract_answer([v.think_start, 17, 23, v.think_end, v.ans_start, 42, v.ans_end, v.eos], v) == 42
    assert extract_answer([v.ans_start, 42], v) is FORMAT_FAILURE
    assert extract_answer([], v) is FORMAT_FAILURE
    # two patterns: first wins
    assert extract_answer([v.ans_start, 9, v.ans_end, v.ans_start, 10, v.ans_end], v) == 9


def test_extract_answer_recovers_rendered_answer():
    from cotforge import new_vocabulary, render_cot_example, render_standard_example

    v = new_vocabulary(64)
    assert extract_answer(render_standard_example([10, 11], 33, v), v) == 33
    assert extract_answer(render_cot_example([10, 11], [20, 21, 33], v), v) == 33


def test_oracle_accuracy_one_under_everything(world):
    cfg, vocab, _, _, _, prompts = world
    for k_prime in (0, 3, cfg.k - 1):
        stripped = [strip_cot(p, k_prime, make_rng(100 + k_prime), vocab) for p in prompts]
        backend = OracleBackend(stripped, vocab)
        for strategy in (FORCE_THINK, FORCE_ANSWER, NO_FORCING):
            report = evaluate(backend, stripped, ForcingConfig(strategy=strategy), vocab)
            assert report.accuracy == 1.0
            assert all(r.step_correct == [True, True, True] for r in report.records if strategy == FORCE_THINK)


def test_random_backend_within_binomial_interval(world):
    _, vocab, _, _, _, prompts = world
    hits = 0
    trials = 0
    for seed in range(40):
        backend = RandomBackend(prompts, vocab, seed=seed)
        report = evaluate(backend, prompts, ForcingConfig(strategy=FORCE_ANSWER), vocab)
        hits += sum(r.indicator for r in report.records)
        trials += len(report.records)
    lo, hi = binomial_interval(trials, 1 / vocab.n_normal, 0.99)
    assert lo <= hits <= hi


def test_random_backend_never_format_fails(world):
    _, vocab, _, _, _, prompts = world
    backend = RandomBackend(prompts, vocab, seed=3)
    report = evaluate(backend, prompts, ForcingConfig(strategy=FORCE_THINK), vocab)
    assert not any(r.format_failure for r in report.records)


def test_report_accounting(world):
    _, vocab, _, _, _, prompts = world
    backend = RandomBackend(prompts, vocab, seed=7)
    report = evaluate(backend, prompts, ForcingConfig(strategy=NO_FORCING), vocab)
    assert 0.0 <= report.accuracy <= 1.0
    matched = sum(0 if r.format_failure else 1 for r in report.records)
    failures = sum(1 if r.format_failure else 0 for r in report.records)
    assert matched + failures == len(prompts)


def test_step_grid_partitions_counts(world):
    _, vocab, _, _, _, prompts = world
    backend = RandomBackend(prompts, vocab, seed=11)
    report = evaluate(backend, prompts, ForcingConfig(strategy=FORCE_THINK), vocab)
    grid = step_correctness_grid(report)
    total = grid["answer_correct"]["n"] + grid["answer_wrong"]["n"]
    assert total == len(prompts)
    for side in ("answer_correct", "answer_wrong"):
        cells = sum(
            grid[side][a][b] for a in ("correct", "incorrect") for b in ("correct", "incorrect")
        )
        assert cells == grid[side]["n"]


def test_oracle_grid_all_mass_in_correct_cells(world):
    _, vocab, _, _, _, prompts = world
    backend = OracleBackend(prompts, vocab)
    report = evaluate(backend, prompts, ForcingConfig(strategy=FORCE_THINK), vocab)
    grid = step_correctness_grid(report)
    assert grid["answer_correct"]["correct"]["correct"] == len(prompts)
    assert grid["answer_wrong"]["n"] == 0
    breakdown = step_dag_breakdown(report)
    for table in breakdown["answer_correct"]:
        assert table["in_dag"]["incorrect"] == 0
        assert table["not_in_dag"]["incorrect"] == 0
        assert table["n"] == len(prompts)


def test_dag_breakdown_margins(world):
    _, vocab, _, _, _, prompts = world
    backend = RandomBackend(prompts, vocab, seed=13)
    report = evaluate(backend, prompts, ForcingConfig(strategy=FORCE_THINK), vocab)
    breakdown = step_dag_breakdown(report)
    n_correct = sum(1 for r in report.records if r.indicator)
    n_wrong = len(report.records) - n_correct
    for table in breakdown["answer_correct"]:
        assert table["n"] == n_correct
    for table in breakdown["answer_wrong"]:
        assert table["n"] == n_wrong


def test_evaluate_requires_prompts(world):
    _, vocab, _, _, _, prompts = world
    with pytest.raises(ConfigError):
        evaluate(OracleBackend(prompts, vocab), [], ForcingConfig(strategy=NO_FORCING), vocab)


def test_unknown_strategy_rejected():
    with pytest.raises(ConfigError):
        ForcingConfig(strategy="force_feelings")
    with pytest.raises(ConfigError):
        ForcingConfig(strategy=FORCE_THINK, budget=0)


def test_callable_backend_accepted(world):
    _, vocab, _, _, _, prompts = world
    oracle = OracleBackend(prompts, vocab)
    report = evaluate(oracle.next_token, prompts, ForcingConfig(strategy=FORCE_ANSWER), vocab)
    assert report.accuracy == 1.0


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
    _, vocab, _, _, _, prompts = world
    bot = tmp_path / "bot.py"
    bot.write_text(_STDIO_BOT)
    with StdioBackend([sys.executable, str(bot)]) as backend:
        report = evaluate(backend, prompts[:5], ForcingConfig(strategy=FORCE_ANSWER), vocab)
    assert not any(r.format_failure for r in report.records)
    assert all(r.predicted == 9 for r in report.records)


def test_stdio_backend_malformed_reply(tmp_path, world):
    _, vocab, _, _, _, prompts = world
    bot = tmp_path / "bad_bot.py"
    bot.write_text("import sys\nfor line in sys.stdin:\n    print('nonsense', flush=True)\n")
    with StdioBackend([sys.executable, str(bot)]) as backend:
        with pytest.raises(BackendError):
            backend.next_token(list(prompts[0].prefix))


def test_all_prompts_failing_raises(world):
    _, vocab, _, _, _, prompts = world

    def broken(tokens):
        raise RuntimeError("no model here")

    with pytest.raises(BackendError):
        evaluate(broken, prompts[:3], ForcingConfig(strategy=NO_FORCING), vocab)
