"""Evaluation harness: prompt construction, CoT stripping, forced greedy
generation against a pluggable backend, answer extraction, and accuracy
plus step-level breakdowns.

A backend is anything exposing ``next_token(tokens) -> int`` (or a bare
callable with that shape). The harness re-sends the full prefix on every
step, so backends can be stateless. Reference backends:

  * OracleBackend replays the ground-truth completion for each prompt and
    must score accuracy 1.0 under every forcing strategy.
  * RandomBackend follows the output format but answers with a uniformly
    random normal token, giving the 1/|normal vocabulary| chance baseline.
  * StdioBackend drives an external process over a JSON-lines pipe:
    one request ``{"tokens": [...]}`` per line, one reply ``{"next": id}``.

The eval loop, the JSON-lines process transport and the strip selection
are shared with the string-symbolic kind in langsym.
"""

from __future__ import annotations

import json
import subprocess
from dataclasses import dataclass, field
from typing import Callable, Sequence as Seq

import numpy as np

from .dag import Dag
from .errors import BackendError, ConfigError
from .recipe import choose_stripped
from .rng import make_rng
from .sequences import (
    Sequence,
    check_layout,
    example_template,
    keep_cells,
    parse_examples,
    parse_sequence,
    render_example_tokens,
)
from .vocab import Vocabulary

FORCE_THINK = "force_think"
FORCE_ANSWER = "force_answer"
NO_FORCING = "no_forcing"
STRATEGIES = (FORCE_THINK, FORCE_ANSWER, NO_FORCING)


class FormatFailure:
    """Sentinel returned when no (ans_start, token, ans_end) pattern exists."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "FORMAT_FAILURE"


FORMAT_FAILURE = FormatFailure()


@dataclass(frozen=True)
class ForcingConfig:
    """Forcing strategy plus the generation budget.

    The budget caps backend-generated tokens; the forced delimiter (when the
    strategy has one) is appended by the harness and does not count against
    it. A budget of None means C+6 per prompt, enough for a full thinking
    tail plus the closing delimiters.
    """

    strategy: str
    budget: int | None = None

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}")
        if self.budget is not None and self.budget < 1:
            raise ConfigError(f"budget must be >= 1, got {self.budget}")


@dataclass(frozen=True)
class EvalPrompt:
    """Context examples plus the query input segment and its ground truth."""

    context_tokens: tuple[int, ...]
    query_segment: tuple[int, ...]
    ground_truth_chain: tuple[int, ...]
    meta: dict = field(compare=False)

    @property
    def prefix(self) -> tuple[int, ...]:
        return self.context_tokens + self.query_segment


def make_eval_prompt(seq: Sequence, vocab: Vocabulary) -> EvalPrompt:
    """Turn a K-example sequence into a (K-1)-shot prompt.

    The final example must carry its thinking segment: its chain is the
    ground truth and its inputs become the query. Context keeps the first
    K-1 examples exactly as rendered: the stored tokens up to the query,
    which the parse has just validated.
    """
    parsed = parse_sequence(list(seq.tokens), vocab)
    if len(parsed) < 2:
        raise ConfigError(f"need at least 2 examples to build a prompt, got {len(parsed)}")
    query = parsed[-1]
    if not query.is_cot:
        raise ConfigError("query example lacks a thinking segment; build prompts from all-CoT sequences")
    chain = (*query.intermediates, query.answer)

    query_len = len(query.inputs) + len(chain) + 7
    context = tuple(seq.tokens[: len(seq.tokens) - query_len])
    query_segment = (vocab.inp_start, *query.inputs, vocab.inp_end)
    meta = dict(seq.meta.to_json())
    meta["seq_id"] = seq.seq_id
    return EvalPrompt(
        context_tokens=context,
        query_segment=query_segment,
        ground_truth_chain=chain,
        meta=meta,
    )


def strip_cot(prompt: EvalPrompt, k_prime: int, rng: np.random.Generator, vocab: Vocabulary) -> EvalPrompt:
    """Re-render k_prime context examples without their thinking segments.

    The stripped examples are chosen uniformly without replacement among the
    thinking-rendered context examples; the query and every other example
    are untouched. k_prime=0 is the identity.
    """
    parsed = parse_examples(list(prompt.context_tokens), vocab, start=1)
    chosen = choose_stripped([ex.is_cot for ex in parsed], k_prime, rng)
    context: list[int] = [vocab.bos]
    for i, ex in enumerate(parsed):
        context.extend(render_example_tokens(ex, vocab, as_cot=ex.is_cot and i not in chosen))
    return EvalPrompt(
        context_tokens=tuple(context),
        query_segment=prompt.query_segment,
        ground_truth_chain=prompt.ground_truth_chain,
        meta=prompt.meta,
    )


def strip_sequence_record(record: dict, k_prime: int, rng: np.random.Generator, vocab: Vocabulary) -> dict:
    """Dataset-level stripping of one stored sequence record; returns a new record.

    Applies the same selection rule as strip_cot, over the first K-1
    examples (the last one is the future query and is never touched). The
    layout comes from the record's meta (n, c, cot_flags), and the tokens
    are first checked against it: length, every delimiter in its cell and
    a normal token in every other one, else FormatError. Stripping then
    deletes the thinking spans of the chosen examples from the stream,
    with no parse or re-render; the loss mask and cot_flags are rebuilt
    from the same layout.
    """
    meta = record["meta"]
    n, c = meta["n"], meta["c"]
    flags = [bool(f) for f in meta["cot_flags"]]
    stream, keep = check_layout(record["tokens"], n, c, flags, vocab)
    chosen = choose_stripped(flags[:-1], k_prime, rng)

    flags = [f and i not in chosen for i, f in enumerate(flags)]
    new_keep = keep_cells(n, c, flags)
    _, mask_row = example_template(n, c, vocab)
    return {
        "seq_id": record["seq_id"],
        "tokens": [vocab.bos, *stream[1:][new_keep[keep]].tolist()],
        "loss_mask": [0, *np.broadcast_to(mask_row, keep.shape)[new_keep].tolist()],
        "meta": {**meta, "cot_flags": [int(f) for f in flags]},
    }


def _resolve(backend) -> Callable[[list[int]], int]:
    fn = getattr(backend, "next_token", None)
    if fn is None and callable(backend):
        fn = backend
    if fn is None:
        raise ConfigError(f"backend {backend!r} has no next_token method and is not callable")
    return fn


def force_generate(backend, prompt: EvalPrompt, forcing: ForcingConfig, vocab: Vocabulary) -> list[int]:
    """Greedy single-token loop under a forcing strategy.

    Returns the generated suffix, including the forced delimiter when the
    strategy has one. Stops on eos or after `budget` backend calls.
    """
    next_token = _resolve(backend)
    budget = forcing.budget
    if budget is None:
        budget = len(prompt.ground_truth_chain) + 6
    seq = list(prompt.prefix)
    out: list[int] = []
    if forcing.strategy == FORCE_THINK:
        out.append(vocab.think_start)
    elif forcing.strategy == FORCE_ANSWER:
        out.append(vocab.ans_start)
    seq.extend(out)
    for _ in range(budget):
        try:
            tok = int(next_token(seq))
        except Exception as exc:
            pid = prompt.meta.get("seq_id", "?")
            raise BackendError(f"backend failed on prompt {pid}: {exc}") from exc
        out.append(tok)
        seq.append(tok)
        if tok == vocab.eos:
            break
    return out


def extract_answer(generated: Seq[int], vocab: Vocabulary):
    """First (ans_start, token, ans_end) pattern, or FORMAT_FAILURE."""
    for i in range(len(generated) - 2):
        if generated[i] == vocab.ans_start and generated[i + 2] == vocab.ans_end:
            return int(generated[i + 1])
    return FORMAT_FAILURE


def extract_thinking(generated: Seq[int], vocab: Vocabulary) -> list[int] | None:
    """Tokens between the first think_start and its think_end, else None."""
    try:
        start = list(generated).index(vocab.think_start)
    except ValueError:
        return None
    out = []
    for tok in generated[start + 1 :]:
        if tok == vocab.think_end:
            return out
        out.append(tok)
    return out


@dataclass
class PromptRecord:
    prompt_id: int
    predicted: int | str | None  # str for text-mode answers
    format_failure: bool
    indicator: int
    generated: list
    step_correct: list[bool]
    step_in_dag: list[bool]
    error: str | None = None
    meta: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "prompt_id": self.prompt_id,
            "predicted": self.predicted,
            "format_failure": self.format_failure,
            "indicator": self.indicator,
            "generated": self.generated,
            "step_correct": [int(b) for b in self.step_correct],
            "step_in_dag": [int(b) for b in self.step_in_dag],
            "error": self.error,
        }


@dataclass
class EvalReport:
    records: list[PromptRecord]
    accuracy: float

    def to_json(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "n_prompts": len(self.records),
            "format_failures": sum(r.format_failure for r in self.records),
            "records": [r.to_json() for r in self.records],
        }


def evaluate_prompts(prompts: list, generate: Callable, score: Callable) -> EvalReport:
    """The eval loop of both dataset kinds.

    `generate(prompt)` asks the backend for the prompt's completion and may
    raise BackendError. `score(output)` returns the predicted answer (or
    FORMAT_FAILURE), the thinking steps it emitted and the list recorded as
    `generated`. Step i is correct when the i-th emitted step equals the
    i-th ground-truth intermediate; absent steps count as wrong. Prompts are
    evaluated in order; per-prompt backend failures are recorded
    (indicator 0) and only an all-prompt failure raises.
    """
    if not prompts:
        raise ConfigError("prompts must be non-empty")
    records: list[PromptRecord] = []
    failures = 0
    for idx, prompt in enumerate(prompts):
        dag = Dag.from_json(prompt.meta["dag"])
        in_dag = [dag.reaches_answer(dag.n_inputs + c - 1) for c in range(1, dag.n_chain)]
        truth = prompt.ground_truth_chain
        try:
            output = generate(prompt)
        except BackendError as exc:
            failures += 1
            predicted, steps, generated, error = FORMAT_FAILURE, [], [], str(exc)
        else:
            (predicted, steps, generated), error = score(output), None
        failed = predicted is FORMAT_FAILURE
        records.append(
            PromptRecord(
                prompt_id=prompt.meta.get("seq_id", idx),
                predicted=None if failed else predicted,
                format_failure=failed,
                indicator=int(not failed and predicted == truth[-1]),
                generated=generated,
                step_correct=[i < len(steps) and steps[i] == truth[i] for i in range(len(truth) - 1)],
                step_in_dag=in_dag,
                error=error,
                meta=prompt.meta,
            )
        )
    if failures == len(prompts):
        raise BackendError(f"backend failed on all {failures} prompts")
    accuracy = sum(r.indicator for r in records) / len(records)
    return EvalReport(records=records, accuracy=accuracy)


def evaluate(backend, prompts: list[EvalPrompt], forcing: ForcingConfig, vocab: Vocabulary) -> EvalReport:
    """Run every prompt through force_generate and score the answers."""
    return evaluate_prompts(
        prompts,
        lambda prompt: force_generate(backend, prompt, forcing, vocab),
        lambda generated: (extract_answer(generated, vocab), extract_thinking(generated, vocab) or [], generated),
    )


def step_correctness_grid(report: EvalReport, step_a: int = 0, step_b: int = 1) -> dict:
    """2x2 counts of (step_a correct?, step_b correct?) split by final answer.

    Only prompts that have both steps contribute; each table's four cells sum
    to the number of contributing prompts in its answer class.
    """
    grid = {
        "answer_correct": _empty_pair_cells(),
        "answer_wrong": _empty_pair_cells(),
    }
    for rec in report.records:
        if len(rec.step_correct) <= max(step_a, step_b):
            continue
        side = "answer_correct" if rec.indicator else "answer_wrong"
        a = "correct" if rec.step_correct[step_a] else "incorrect"
        b = "correct" if rec.step_correct[step_b] else "incorrect"
        grid[side][a][b] += 1
    for side in grid.values():
        side["n"] = sum(side[a][b] for a in ("correct", "incorrect") for b in ("correct", "incorrect"))
    return grid


def _empty_pair_cells() -> dict:
    return {
        "correct": {"correct": 0, "incorrect": 0},
        "incorrect": {"correct": 0, "incorrect": 0},
    }


def step_dag_breakdown(report: EvalReport) -> dict:
    """Per-step (prediction correct?) x (step feeds the answer?) tables.

    Split by final-answer correctness, mirroring the step-reliance analysis,
    from the DAG reachability flags stored on each record. Steps missing
    from shorter chains simply contribute to fewer tables, and each table
    reports its own margin `n`.
    """
    max_steps = max((len(r.step_correct) for r in report.records), default=0)
    out = {
        "answer_correct": [_empty_dag_cells() for _ in range(max_steps)],
        "answer_wrong": [_empty_dag_cells() for _ in range(max_steps)],
    }
    for rec in report.records:
        side = "answer_correct" if rec.indicator else "answer_wrong"
        for s, correct in enumerate(rec.step_correct):
            row = "in_dag" if rec.step_in_dag[s] else "not_in_dag"
            col = "correct" if correct else "incorrect"
            out[side][s][row][col] += 1
    for side in out.values():
        for table in side:
            table["n"] = sum(
                table[row][col] for row in ("in_dag", "not_in_dag") for col in ("correct", "incorrect")
            )
    return out


def _empty_dag_cells() -> dict:
    return {
        "in_dag": {"correct": 0, "incorrect": 0},
        "not_in_dag": {"correct": 0, "incorrect": 0},
    }


class _CompletionBackend:
    """Base for the reference backends: completes each known prompt prefix.

    Splits incoming tokens at the last inp_end (everything before it is the
    prompt prefix, everything after is forced/generated suffix) and replays
    a canonical completion for that prefix.
    """

    def __init__(self, prompts: list[EvalPrompt], vocab: Vocabulary):
        self._vocab = vocab
        self._chains: dict[tuple[int, ...], tuple[int, ...]] = {
            prompt.prefix: self._chain_for(prompt) for prompt in prompts
        }

    def _chain_for(self, prompt: EvalPrompt) -> tuple[int, ...]:
        raise NotImplementedError

    def next_token(self, tokens: Seq[int]) -> int:
        vocab = self._vocab
        split = None
        for i in range(len(tokens) - 1, -1, -1):
            if tokens[i] == vocab.inp_end:
                split = i + 1
                break
        if split is None:
            raise BackendError("no input segment found in prompt")
        prefix = tuple(tokens[:split])
        chain = self._chains.get(prefix)
        if chain is None:
            raise BackendError("unknown prompt prefix")
        suffix = list(tokens[split:])
        if suffix and suffix[0] == vocab.ans_start:
            completion = [vocab.ans_start, chain[-1], vocab.ans_end, vocab.eos]
        else:
            completion = [
                vocab.think_start,
                *chain[:-1],
                vocab.think_end,
                vocab.ans_start,
                chain[-1],
                vocab.ans_end,
                vocab.eos,
            ]
        if len(suffix) >= len(completion):
            return vocab.eos
        return completion[len(suffix)]


class OracleBackend(_CompletionBackend):
    """Replays each prompt's ground-truth chain; accuracy must be 1.0."""

    def _chain_for(self, prompt: EvalPrompt) -> tuple[int, ...]:
        return prompt.ground_truth_chain


class RandomBackend(_CompletionBackend):
    """Format-following baseline with uniformly random normal chain tokens."""

    def __init__(self, prompts: list[EvalPrompt], vocab: Vocabulary, seed: int = 0):
        self._rng = make_rng(seed)
        super().__init__(prompts, vocab)

    def _chain_for(self, prompt: EvalPrompt) -> tuple[int, ...]:
        length = len(prompt.ground_truth_chain)
        lo, hi = self._vocab.normal_ids.start, self._vocab.normal_ids.stop
        return tuple(int(v) for v in self._rng.integers(lo, hi, size=length))


class JsonLinesProcess:
    """An external process spoken to in JSON lines on stdio.

    Each request is one line in and one reply line out. The process starts
    on the first request and again after it exits or its pipes fail; pipe
    faults, a closed output and malformed replies all raise BackendError.
    """

    def __init__(self, cmd: list[str]):
        self._cmd = cmd
        self._proc: subprocess.Popen | None = None

    def request(self, payload: dict, key: str, convert: Callable):
        """Send `payload`; returns convert(reply[key])."""
        if self._proc is None or self._proc.poll() is not None:
            self._proc = subprocess.Popen(self._cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1)
        try:
            self._proc.stdin.write(json.dumps(payload) + "\n")
            self._proc.stdin.flush()
            line = self._proc.stdout.readline()
        except OSError as exc:
            self.close()
            raise BackendError(f"stdio backend pipe failure: {exc}") from exc
        if not line:
            self.close()
            raise BackendError("stdio backend closed its output")
        try:
            return convert(json.loads(line)[key])
        except (KeyError, TypeError, ValueError) as exc:
            raise BackendError(f"stdio backend sent malformed reply {line!r}") from exc

    def close(self) -> None:
        if self._proc is not None and self._proc.poll() is None:
            self._proc.stdin.close()
            self._proc.terminate()
            self._proc.wait(timeout=5)
        self._proc = None

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class StdioBackend(JsonLinesProcess):
    """Token backend process: ``{"tokens": [...]}`` in, ``{"next": id}`` out."""

    def next_token(self, tokens: Seq[int]) -> int:
        return self.request({"tokens": list(tokens)}, "next", int)
