"""Evaluation harness: prompt construction, CoT stripping, forced greedy
generation against a pluggable backend, answer extraction, and accuracy
plus step-level breakdowns.

A token backend is anything exposing ``next_token(tokens) -> int``, and a
reply that is a bool or not an integer fails its prompt. The harness
re-sends the full prefix on every step, so backends can be stateless.
Delimiter ids are `Vocabulary` class constants: a Vocabulary is passed
only where its size is read. Reference backends:

  * OracleBackend replays the ground-truth completion for each prompt and
    must score accuracy 1.0 under every forcing strategy.
  * RandomBackend is the oracle of uniformly random normal chains: it
    follows the output format, giving the 1/|normal vocabulary| chance
    baseline.
  * Both oracles, and langsym's TextOracleBackend, are PromptOracles:
    each knows one prompt, the one it was last shown, and
    `one_at_a_time` shows it each prompt of a stream as the eval reaches
    it.
  * StdioBackend drives an external process over a JSON-lines pipe: one
    request ``{"tokens": [...]}`` per line, one reply ``{"next": <int>}``.
    Every request still carries the full prefix, but the backend encodes
    a prompt's prefix once: while each request extends the previous one
    it appends only the new tokens to the previous request's JSON.

The eval loop reads its prompts lazily, so an eval over a stream of
records holds one prompt in memory at a time.

The prompt type, the forcing config, the eval loop, the JSON-lines
process transport and the strip selection are shared with the
string-symbolic kind in langsym, whose prompts are built and stripped
the same way: from the shard record. So is failure: the transport turns
every stdio fault into a BackendError, and evaluate_prompts turns any
backend exception into that prompt's error record.
"""

from __future__ import annotations

import contextlib
import json
import subprocess
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, Sequence as Seq

import numpy as np

from .dag import Dag
from .errors import BackendError, ConfigError
from .recipe import strip_flags
from .rng import ItemStream
from .sequences import check_layout
from .vocab import Vocabulary

FORCE_THINK = "force_think"
FORCE_ANSWER = "force_answer"
NO_FORCING = "no_forcing"
STRATEGIES = (FORCE_THINK, FORCE_ANSWER, NO_FORCING)


@dataclass(frozen=True)
class ForcingConfig:
    """Forcing strategy plus the generation budget, for both dataset kinds.

    On tokens the budget caps backend-generated tokens; the forced delimiter
    (when the strategy has one) is appended by the harness and does not
    count against it. A budget of None means C+6 per prompt, enough for a
    full thinking tail plus the closing delimiters. On text it caps the
    completion's characters, and None keeps the whole completion.
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
    """A (K-1)-shot prompt of either dataset kind and its query's ground truth.

    `context` is what the backend is shown: for an abstract prompt the token
    prefix, the context examples plus the query's input segment; for a
    LangSym prompt the chat messages up to and including the query
    question. `meta` is the record's meta plus its seq_id.
    """

    context: tuple
    ground_truth_chain: tuple
    meta: dict = field(compare=False)


def make_eval_prompt(record: dict, vocab: Vocabulary) -> EvalPrompt:
    """Turn a K-example sequence record into a (K-1)-shot prompt.

    The tokens are validated against the layout of the stored (n, c,
    cot_flags) and the DAG against (n, c) with `check_layout`, whose cell
    grid gives each example's cells without parsing. The final example, the
    query, must carry its thinking segment: its chain cells are the ground
    truth, and its input segment, through inp_end, ends the context, after
    the first K-1 examples exactly as stored. The prompt's meta is a copy
    of the record's plus its seq_id.
    """
    meta = record["meta"]
    flags = meta["cot_flags"]
    tokens = record["tokens"]
    cells, grid = check_layout(tokens, meta, vocab)
    if len(flags) < 2:
        raise ConfigError(f"need at least 2 examples to build a prompt, got {len(flags)}")
    if not flags[-1]:
        raise ConfigError("query example lacks a thinking segment; build prompts from all-CoT sequences")
    split = len(tokens) - len(cells.template)
    return EvalPrompt(
        context=tuple(tokens[: split + cells.inputs.stop + 1]),
        ground_truth_chain=tuple(grid[-1, cells.chain].tolist()),
        meta={**meta, "seq_id": record["seq_id"]},
    )


def strip_sequence_record(record: dict, k_prime: int, rng: ItemStream, vocab: Vocabulary) -> dict:
    """Drop the thinking segments of k_prime context examples of a stored sequence record.

    The stripped examples are drawn with `strip_flags`, uniformly without
    replacement among the thinking-rendered first K-1 examples; the last
    one is the future query and is never touched, and k_prime=0 is the
    identity. The layout comes from the record's meta (n, c, cot_flags),
    and the record is first checked against it with `check_layout`: length,
    the DAG, every delimiter in its cell and a normal token in every other
    one.
    Stripping then reads the cells the new flags keep from its cell grid,
    with no parse or re-render; the loss mask and cot_flags are rebuilt
    from the same layout. Returns a new record. This is the strip of a
    stored record; storage strips fresh items with sequences.sequence_line.
    """
    meta = record["meta"]
    cells, grid = check_layout(record["tokens"], meta, vocab)
    flags = strip_flags(meta["cot_flags"], k_prime, rng)
    tokens = [vocab.bos] + grid[cells.keep_cells(flags)].tolist()
    mask = cells.mask(flags)
    return {"seq_id": record["seq_id"], "tokens": tokens, "loss_mask": mask, "meta": {**meta, "cot_flags": flags}}


def force_generate(backend, prompt: EvalPrompt, forcing: ForcingConfig) -> list[int]:
    """Greedy single-token loop under a forcing strategy; a backend's exception propagates.

    Returns the generated suffix, including the forced delimiter when the
    strategy has one. Stops on eos or after `budget` backend calls.
    """
    next_token = backend.next_token
    budget = forcing.budget
    if budget is None:
        budget = len(prompt.ground_truth_chain) + 6
    seq = list(prompt.context)
    out: list[int] = []
    if forcing.strategy == FORCE_THINK:
        out.append(Vocabulary.think_start)
    elif forcing.strategy == FORCE_ANSWER:
        out.append(Vocabulary.ans_start)
    seq.extend(out)
    for _ in range(budget):
        tok = next_token(seq)
        if isinstance(tok, bool) or not isinstance(tok, (int, np.integer)):
            raise BackendError(f"backend sent a {type(tok).__name__}, not a token id")
        tok = int(tok)
        out.append(tok)
        seq.append(tok)
        if tok == Vocabulary.eos:
            break
    return out


def extract_answer(generated: Seq[int]) -> int | None:
    """Answer token of the first (ans_start, token, ans_end) pattern, or None."""
    for i in range(len(generated) - 2):
        if generated[i] == Vocabulary.ans_start and generated[i + 2] == Vocabulary.ans_end:
            return int(generated[i + 1])
    return None


def extract_thinking(generated: Seq[int]) -> list[int]:
    """Tokens between the first think_start and its think_end, else []."""
    try:
        start = list(generated).index(Vocabulary.think_start)
    except ValueError:
        return []
    out = []
    for tok in generated[start + 1 :]:
        if tok == Vocabulary.think_end:
            return out
        out.append(tok)
    return out


@dataclass
class PromptRecord:
    """One prompt's report entry: EvalReport.to_json writes its fields as they are, in this order."""

    prompt_id: int
    predicted: int | str | None  # str for text-mode answers
    format_failure: bool
    indicator: int
    generated: list
    step_correct: list[int]  # 0/1 per step
    step_in_dag: list[int]  # 0/1 per step
    error: str | None = None


@dataclass
class EvalReport:
    """An eval's prompt records and accuracy. `to_json` is the whole report document, keyed in
    this order: accuracy, n_prompts, format_failures, records, step_grid (`step_correctness_grid`)
    and dag_breakdown (`step_dag_breakdown`)."""

    records: list[PromptRecord]
    accuracy: float

    def to_json(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "n_prompts": len(self.records),
            "format_failures": sum(r.format_failure for r in self.records),
            "records": [dict(vars(r)) for r in self.records],  # dataclasses.asdict would deep-copy every leaf
            "step_grid": step_correctness_grid(self),
            "dag_breakdown": step_dag_breakdown(self),
        }


def evaluate_prompts(prompts: Iterable[EvalPrompt], generate: Callable, score: Callable) -> EvalReport:
    """The eval loop of both dataset kinds, and the one place a backend failure is recorded.

    `prompts` is read lazily: each prompt is taken from it, evaluated and
    dropped before the next one is taken, so a generator of prompts is held
    one at a time, and an exception raised while taking a prompt (a
    malformed record, say) stops the eval there with no report.
    `generate(prompt)` asks the backend for the prompt's completion;
    `score(output)` returns the predicted answer (None on a format failure),
    the thinking steps emitted and the list recorded as `generated`. Step i
    is correct when it equals the i-th ground-truth intermediate; absent
    steps count as wrong. Any exception but a ConfigError from `generate`
    fails only its prompt, with indicator 0 and the error "backend failed
    on prompt <seq_id>: <exc>". Once the prompts run out, no prompt at all
    is a ConfigError and an all-prompt failure a BackendError.
    """
    records: list[PromptRecord] = []
    for idx, prompt in enumerate(prompts):
        dag = Dag.from_json(prompt.meta["dag"])
        in_dag = [int(dag.reaches_answer(dag.n_inputs + c - 1)) for c in range(1, dag.n_chain)]
        truth = prompt.ground_truth_chain
        pid = prompt.meta.get("seq_id", idx)
        try:
            output = generate(prompt)
        except ConfigError:
            raise
        except Exception as exc:  # a backend's fault, whatever its type, costs only this prompt
            predicted, steps, generated, error = None, [], [], f"backend failed on prompt {pid}: {exc}"
        else:
            (predicted, steps, generated), error = score(output), None
        failed = predicted is None
        records.append(
            PromptRecord(
                prompt_id=pid,
                predicted=predicted,
                format_failure=failed,
                indicator=int(not failed and predicted == truth[-1]),
                generated=generated,
                step_correct=[int(i < len(steps) and steps[i] == truth[i]) for i in range(len(truth) - 1)],
                step_in_dag=in_dag,
                error=error,
            )
        )
    if not records:
        raise ConfigError("prompts must be non-empty")
    if all(r.error for r in records):
        raise BackendError(f"backend failed on all {len(records)} prompts; {records[0].error}")
    accuracy = sum(r.indicator for r in records) / len(records)
    return EvalReport(records=records, accuracy=accuracy)


def evaluate(backend, prompts: Iterable[EvalPrompt], forcing: ForcingConfig) -> EvalReport:
    """Run every prompt through force_generate and score the answers."""
    return evaluate_prompts(
        prompts,
        lambda prompt: force_generate(backend, prompt, forcing),
        lambda generated: (extract_answer(generated), extract_thinking(generated), generated),
    )


def step_correctness_grid(report: EvalReport) -> dict:
    """2x2 counts of (step 1 correct?, step 2 correct?) split by final answer.

    Only prompts that have both steps contribute; each table's four cells sum
    to the number of contributing prompts in its answer class.
    """
    grid = {side: _cells("correct", "incorrect") for side in ("answer_correct", "answer_wrong")}
    for rec in report.records:
        if len(rec.step_correct) < 2:
            continue
        side = "answer_correct" if rec.indicator else "answer_wrong"
        a = "correct" if rec.step_correct[0] else "incorrect"
        b = "correct" if rec.step_correct[1] else "incorrect"
        grid[side][a][b] += 1
    _add_margins(grid.values())
    return grid


def _cells(*rows: str) -> dict:
    """A count table with one (correct, incorrect) pair per row."""
    return {row: {"correct": 0, "incorrect": 0} for row in rows}


def _add_margins(tables) -> None:
    """Store each table's total count under "n", after its rows."""
    for table in tables:
        table["n"] = sum(sum(row.values()) for row in table.values())


def step_dag_breakdown(report: EvalReport) -> dict:
    """Per-step (prediction correct?) x (step feeds the answer?) tables.

    Split by final-answer correctness, mirroring the step-reliance analysis,
    from the DAG reachability flags stored on each record. Steps missing
    from shorter chains simply contribute to fewer tables, and each table
    reports its own margin `n`.
    """
    max_steps = max((len(r.step_correct) for r in report.records), default=0)
    out = {
        side: [_cells("in_dag", "not_in_dag") for _ in range(max_steps)]
        for side in ("answer_correct", "answer_wrong")
    }
    for rec in report.records:
        side = "answer_correct" if rec.indicator else "answer_wrong"
        for s, correct in enumerate(rec.step_correct):
            row = "in_dag" if rec.step_in_dag[s] else "not_in_dag"
            col = "correct" if correct else "incorrect"
            out[side][s][row][col] += 1
    _add_margins(table for side in out.values() for table in side)
    return out


class PromptOracle:
    """A reference backend that knows one prompt: the one it was last shown.

    It answers a request only when the request's context is that prompt's
    context, and a subclass may redraw the chain it answers with in `_show`.
    """

    _shown: EvalPrompt | None = None

    def _show(self, prompt: EvalPrompt) -> EvalPrompt:
        return prompt

    def one_at_a_time(self, prompts: Iterable[EvalPrompt]) -> Iterator[EvalPrompt]:
        """Yield each of `prompts` once this oracle has been shown it; evaluating the result reads them lazily."""
        for prompt in prompts:
            self._shown = self._show(prompt)
            yield prompt

    def _chain(self, context: tuple, unknown: str) -> tuple:
        """The shown prompt's ground-truth chain if `context` is its context, else BackendError(unknown)."""
        if self._shown is None or self._shown.context != context:
            raise BackendError(unknown)
        return self._shown.ground_truth_chain


class OracleBackend(PromptOracle):
    """Replays each prompt's ground-truth chain; accuracy must be 1.0.

    Splits a request at the length of the context of the prompt it was
    last shown: the head must be that context, and the rest is the forced
    and generated suffix, which it continues along the query example's
    thinking tail, or along its plain tail (the last four cells) when the
    suffix opens with ans_start.
    """

    def next_token(self, tokens: Seq[int]) -> int:
        split = len(self._shown.context) if self._shown else 0
        chain = self._chain(tuple(tokens[:split]), "unknown prompt prefix")
        suffix = tokens[split:]
        tail = [Vocabulary.think_start, *chain[:-1], Vocabulary.think_end,
                Vocabulary.ans_start, chain[-1], Vocabulary.ans_end, Vocabulary.eos]
        if suffix and suffix[0] == Vocabulary.ans_start:
            tail = tail[-4:]
        if len(suffix) >= len(tail):
            return Vocabulary.eos
        return tail[len(suffix)]


class RandomBackend(OracleBackend):
    """The oracle of uniformly random normal chains: a format-following
    chance baseline.

    Each prompt's chain is drawn from Philox(seed) when the oracle is shown
    the prompt, so the chains follow the order of the stream.
    """

    def __init__(self, vocab: Vocabulary, seed: int = 0):
        self._rng = ItemStream(seed)
        self._normal = (vocab.normal_ids.start, vocab.normal_ids.stop)

    def _show(self, prompt: EvalPrompt) -> EvalPrompt:
        chain = self._rng.integers(*self._normal, size=len(prompt.ground_truth_chain))
        return replace(prompt, ground_truth_chain=tuple(chain.tolist()))


# Seconds a backend gets to exit after its stdin closes and it is sent
# SIGTERM; one still running then is killed.
CLOSE_GRACE_S = 5.0


class JsonLinesProcess:
    """An external process spoken to in JSON lines on stdio.

    Each request is one line in and one reply line out, over byte pipes.
    The process starts on the first request and again after it exits. Any
    fault of a request (no program, a broken pipe, a closed output, a
    malformed reply) closes the process and raises BackendError.
    """

    def __init__(self, cmd: list[str]):
        self._cmd = cmd
        self._proc: subprocess.Popen | None = None

    def send_line(self, line: str, key: str, kind: type):
        """Send one request line; returns reply[key], which must be of type `kind` (a bool is no int)."""
        try:
            if self._proc is None or self._proc.poll() is not None:
                self.close()
                self._proc = subprocess.Popen(self._cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
            self._proc.stdin.write(line.encode())
            self._proc.stdin.flush()
            reply = self._proc.stdout.readline()
        except OSError as exc:
            self.close()
            raise BackendError(f"stdio backend failed: {exc}") from exc
        try:
            value = json.loads(reply)[key]  # from bytes: a reply that is not UTF-8 is a ValueError
        except (KeyError, TypeError, ValueError, RecursionError):
            value = None
        if type(value) is not kind:
            self.close()
            raise BackendError(f"stdio backend sent malformed reply {repr(reply)[:200]} ({len(reply)} bytes)"
                               if reply else "stdio backend closed its output")
        return value

    def close(self) -> None:
        """Close the pipes; a live process is sent SIGTERM, and killed after CLOSE_GRACE_S."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        with contextlib.suppress(OSError):  # a write the process never read may be left to flush
            proc.stdin.close()
        proc.stdout.close()
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=CLOSE_GRACE_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class StdioBackend(JsonLinesProcess):
    """Token backend process: ``{"tokens": [...]}`` in, ``{"next": id}`` out.

    Keeps the previous request's tokens and their JSON without the closing
    ``]}``. A request whose tokens start with the previous ones (compared
    by value: the caller may mutate or reuse its list) appends only the new
    tokens to that JSON; any other is encoded in full. Either way the line
    is ``json.dumps({"tokens": list(tokens)})`` byte for byte, for tokens
    that are ints (json writes bools as true/false).
    """

    def __init__(self, cmd: list[str]):
        super().__init__(cmd)
        self._sent: list[int] = []
        self._head = ""

    def next_token(self, tokens: Seq[int]) -> int:
        tokens = list(tokens)
        sent = self._sent
        if sent and tokens[: len(sent)] == sent:
            head = self._head + "".join([", " + int.__repr__(t) for t in tokens[len(sent) :]])
        else:
            head = json.dumps({"tokens": tokens})[:-2]
        self._sent, self._head = tokens, head
        return self.send_line(head + "]}\n", "next", int)
