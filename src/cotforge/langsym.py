"""String-symbolic chat datasets: random lowercase words wired through the
same causal DAGs, with a hidden slice-concat-advance word transform.

Each prompt is a system message plus K user/assistant exchanges. A question
lists N random words; the assistant reply optionally walks through the
intermediate words as "Step i: <word>" lines inside a think wrapper, and
always ends with the final word in \\boxed{...}. The task description text
deliberately never explains how chain words are derived - models must infer
the rule from the examples alone - and template validation enforces that.

The word transform takes the trailing portion of each parent word (from the
midpoint, rounded down, to the end), concatenates those pieces in parent
order, then advances every character one place in the alphabet with z
wrapping to a.

Storage writes each shard line with `prompt_line`, straight from the
item's letter codes: the cot_flags come first (recipe.cot_flags, which
applies each strip-cot transform), then the K examples fill copies of one
byte row of JSON-escaped template text, cached per (templates, N, node
lengths) since every example of an item has words of the same lengths,
and only the meta's scalars and DAG go through json. A record is its line, decoded
(`generate_langsym_prompt`); `strip_chat_prompt` strips a stored record.
"""

from __future__ import annotations

import functools
import itertools
import json
import re
import string
from dataclasses import dataclass, field, asdict, fields
from typing import Iterable, NamedTuple

import numpy as np

from .dag import Dag, check_record_dag
from .errors import BackendError, ConfigError
from .harness import (
    FORCE_ANSWER, FORCE_THINK, EvalPrompt, EvalReport, ForcingConfig,
    JsonLinesProcess, PromptOracle, evaluate_prompts,
)
from .recipe import TaskConfig, check_int, cot_flags, strip_flags
from .rng import ItemStream, choose_distinct
from .vocab import read_only

ALPHABET = string.ascii_lowercase
# bytes.translate table: byte x -> the letter x places after a, wrapping at z
_LETTER_OF_CODE = bytes(ALPHABET.encode("ascii")[x % len(ALPHABET)] for x in range(256))
# row a, column x: the letter x places after a, advanced a more places, as ASCII
_ADVANCED = np.array([[ord(ALPHABET[(x + a) % len(ALPHABET)]) for x in range(len(ALPHABET))]
                      for a in range(len(ALPHABET))], dtype=np.uint8)
_ADVANCE = str.maketrans(ALPHABET, ALPHABET[1:] + ALPHABET[0])
_WORD_RE = re.compile(r"[a-z]+")
_BOXED_RE = re.compile(r"\\boxed\{([^{}]*)\}")
_STEP_RE = re.compile(r"Step (\d+): ([a-z]+)")

#: Substrings that would leak the word transform if present in task text.
LEAK_MARKERS = ("slice", "half", "offset", "shift", "+1")

DEFAULT_SYSTEM_PROMPT = (
    "You will be shown a series of word puzzles. Each question lists several "
    "input words made of lowercase letters. A hidden rule turns them into a "
    "single final answer word. Work out the rule from the solved examples. "
    "You may reason with intermediate words, writing each as 'Step i: <word>', "
    "and you must give the final answer as \\boxed{word}."
)
DEFAULT_QUESTION_TEMPLATE = "The input words are: {words}. What is the final word?"


@dataclass(frozen=True)
class Templates:
    """Chat formatting knobs. Step lines and \\boxed{} are fixed contracts."""

    system_prompt: str = DEFAULT_SYSTEM_PROMPT
    question_template: str = DEFAULT_QUESTION_TEMPLATE
    think_open: str = "<think>\n"
    think_close: str = "</think>\n"
    answer_open: str = "final answer\n"

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, str) or not value:
                raise ConfigError(f"template field {f.name} must be a non-empty string, got {value!r}")
        try:
            named = [(name, spec) for _, name, spec, _ in string.Formatter().parse(self.question_template) if name]
            render_question([], self)
        except Exception as exc:  # a field other than {words}, or bad str.format syntax
            raise ConfigError(f"question_template {self.question_template!r}: {exc!r}") from exc
        if not named:  # an escaped {{words}} is text, not a field
            raise ConfigError("question_template must contain a {words} placeholder")
        # so every letter of the words lands at a place fixed by the word lengths (see _question_pieces)
        for name, spec in named:
            if name != "words" or "{" in spec:
                raise ConfigError(f"question_template field {{{name}:{spec}}}: only {{words}}, with a conversion "
                                  "and a format spec without nested fields, is allowed")
        task_text = (self.system_prompt + " " + self.question_template).lower()
        for marker in LEAK_MARKERS:
            if marker in task_text:
                raise ConfigError(f"task description leaks the transform (contains {marker!r})")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "Templates":
        if not isinstance(obj, dict):
            raise ConfigError(f"templates must be a JSON object, got {obj!r}")
        unknown = set(obj) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown template fields: {sorted(unknown)}")
        return cls(**obj)


@dataclass(frozen=True)
class LangSymConfig(TaskConfig):
    w: int = 8
    distinct_letters: bool = False
    templates: Templates = field(default_factory=Templates)

    def __post_init__(self) -> None:
        super().__post_init__()
        check_int("word length w", self.w, 2)
        if self.distinct_letters and self.w > len(ALPHABET):
            raise ConfigError(f"distinct letters impossible for word length {self.w} > 26")
        self.templates.validate()


def random_word(w: int, rng: ItemStream, distinct: bool = False) -> str:
    """w lowercase letters; i.i.d. by default, distinct in `distinct` mode."""
    if w < 1:
        raise ConfigError(f"word length must be >= 1, got {w}")
    if distinct:
        if w > len(ALPHABET):
            raise ConfigError(f"cannot draw {w} distinct letters")
        codes = choose_distinct(rng, len(ALPHABET), w)
    else:
        codes = rng.integers(0, len(ALPHABET), size=w)
    return np.asarray(codes, dtype=np.uint8).tobytes().translate(_LETTER_OF_CODE).decode("ascii")


def string_transform(parent_words: list[str]) -> str:
    """Trailing portions of the parents, concatenated, every letter advanced.

    Each parent contributes word[len(word)//2:]; the concatenation is then
    mapped a->b, ..., y->z, z->a.
    """
    if not parent_words:
        raise ConfigError("parent_words must be non-empty")
    tail = ""
    for word in parent_words:
        tail += word[len(word) // 2 :]
    return tail.translate(_ADVANCE)


def render_assistant(chain: list[str], as_cot: bool, templates: Templates) -> str:
    """Assistant turn: optional stepwise thinking, then the boxed answer."""
    answer = f"{templates.answer_open}\\boxed{{{chain[-1]}}}"
    if not as_cot:
        return answer
    steps = "".join([f"Step {i}: {word}\n" for i, word in enumerate(chain[:-1], start=1)])
    return f"{templates.think_open}{steps}{templates.think_close}{answer}"


def render_question(words: list[str], templates: Templates) -> str:
    return templates.question_template.format(words=", ".join(words))


def _draw_examples(rng: ItemStream, k: int, n: int, w: int, distinct: bool) -> tuple[np.ndarray, np.ndarray]:
    """Letter codes (k, n*w) as uint8 and rendering variates (k,) of a prompt's examples.

    The stream is that of per-example draws: the example's n*w letters (in
    i.i.d. mode one integers(0, 26) draw, the stream of n random_word
    calls; in distinct mode word by word with choose_distinct), then one
    random(). i.i.d. mode takes all K examples in one ItemStream.bulk_rounds.
    """
    if not distinct:
        codes, variates = rng.bulk_rounds(k, n * w, len(ALPHABET))
        return codes.astype(np.uint8), variates
    codes = np.empty((k, n * w), dtype=np.uint8)
    variates = np.empty(k)
    for e in range(k):
        codes[e] = [code for _ in range(n) for code in choose_distinct(rng, len(ALPHABET), w)]
        variates[e] = rng.random()
    return codes, variates


def _advanced_letters(codes: np.ndarray, c: int) -> np.ndarray:
    """(K, (C+1)*N*w) ASCII of (K, N*w) letter codes: column a*N*w + i is code column i advanced a places.

    a runs 0..C, as far as a chain word can be advanced.
    """
    advanced = _ADVANCED.take(np.arange(c + 1), axis=0, mode="wrap").take(codes, axis=1)
    return advanced.transpose(1, 0, 2).reshape(len(codes), -1)


def _node_letters(dag: Dag, w: int) -> list[list[int]]:
    """Per DAG node, the _advanced_letters column of each letter.

    Input i's letters are columns i*w .. i*w+w-1, unadvanced; a chain node's
    are its parents' trailing portions, advanced once more (N*w columns
    on): string_transform on columns instead of words.
    """
    advance = dag.n_inputs * w
    nodes = [list(range(i * w, i * w + w)) for i in range(dag.n_inputs)]
    for parents in dag.parents:
        nodes.append([x + advance for p in parents for x in nodes[p][len(nodes[p]) // 2 :]])
    return nodes


def generate_langsym_prompt(config: LangSymConfig, j: int) -> dict:
    """Record {"prompt_id", "messages", "meta"} of prompt j: its line, decoded.

    The meta keys are n, m, c, k, w, r_cot, dag (Dag.to_json), inputs and
    chains (the words of each example), cot_flags (0/1 per example) and
    seed, in this order.
    """
    return json.loads(prompt_line(config, j, ()))


def strip_chat_prompt(record: dict, k_prime: int, rng: ItemStream, templates: Templates) -> dict:
    """Re-render k_prime thinking assistant turns as answer-only turns.

    The turns whose flags `strip_flags` clears, the rule of the token-level
    strip, are re-rendered. Takes and returns a prompt record; `templates`
    are the dataset's.
    """
    meta = record["meta"]
    flags = strip_flags(meta["cot_flags"], k_prime, rng)
    messages = list(record["messages"])
    for i, (old, new) in enumerate(zip(meta["cot_flags"], flags)):
        if old and not new:
            # message layout: system at 0, example i's user at 1+2i, assistant at 2+2i
            content = render_assistant(list(meta["chains"][i]), False, templates)
            messages[2 + 2 * i] = {"role": "assistant", "content": content}
    meta = {**meta, "cot_flags": flags}
    return {"prompt_id": record["prompt_id"], "messages": messages, "meta": meta}


# --- shard lines ------------------------------------------------------------------

# Bytes no row writes: escaped JSON text and letters are ASCII. A _SLOT is a
# letter's place in a row, and _CUT marks the bytes a line leaves out.
_SLOT, _CUT = b"\xff", b"\xfe"


def _escaped(text: str) -> bytes:
    """`text` as the inside of a JSON string, ASCII-escaped as json.dumps writes it."""
    return json.dumps(text)[1:-1].encode("ascii")


@functools.lru_cache(maxsize=16)
def _question_pieces(question_template: str, n: int, w: int) -> tuple[bytes | range, ...]:
    """The question of n words of w letters as escaped text and runs of input letter indices, in order.

    A {words} field renders the words through a conversion and a format
    spec only (Templates.validate), which place each letter by position: so
    rendering all letters "a", then all "b", shows where letters go, and one
    rendering per bit of the letter index, letter i being "b" where that bit
    is set, shows which letter goes there.
    """
    def render(letter) -> str:
        return question_template.format(words=", ".join("".join(letter(i * w + p) for p in range(w)) for i in range(n)))

    text = render(lambda i: "a")
    places = dict.fromkeys([p for p, (x, y) in enumerate(zip(text, render(lambda i: "b"))) if x != y], 0)
    for bit in range((n * w - 1).bit_length()):
        probe = render(lambda i: "ab"[i >> bit & 1])
        for p in places:
            places[p] |= (probe[p] == "b") << bit
    pieces: list[bytes | range] = []
    start = 0
    for p, letter in places.items():
        if p == start and pieces and pieces[-1].stop == letter:  # the run goes on
            pieces[-1] = range(pieces[-1].start, letter + 1)
        else:
            pieces += [_escaped(text[start:p]), range(letter, letter + 1)]
        start = p + 1
    return (*pieces, _escaped(text[start:]))


class _Rows(NamedTuple):
    """The bytes of one example in a prompt line, for one (templates, n, node lengths).

    `template` is the example's user and thinking assistant messages, then
    its meta `inputs` entry and its `chains` entry, each part after a
    comma, as ASCII-escaped JSON text; `slots` are the places where a word
    letter goes and `letters` the letter each one takes, an index into the
    item's node letters in node order (_node_letters, flattened). `widths`
    are the byte counts of the three parts; `think` is the span of the
    messages that a plain example leaves out. `system` is the system
    message.
    """

    template: np.ndarray
    slots: np.ndarray
    letters: np.ndarray
    widths: tuple[int, int, int]
    think: slice
    system: bytes


# Each process starts with an empty cache. On the reference config (N=4,
# C=4, w=8, 400 items) the two workers of gen-langsym --workers 2 hit on 150
# of 186 and 178 of 214 items, and verify on 361 of 400; 20,000 items hold
# 43 distinct keys. A miss costs about a fifth of a line and a row there
# about 4.5 kB, so 256 rows leave room for several n and c choices.
@functools.lru_cache(maxsize=256)
def _rows(templates: Templates, n: int, w: int, chain_lengths: tuple[int, ...]) -> _Rows:
    """The _Rows of an item whose N words have w letters and whose chain words have `chain_lengths`.

    Every example of an item has the same word lengths, so one row serves
    them all. A piece of a message is escaped text (bytes) or a run of
    letters (range), written as _SLOT bytes; the meta entries are all the
    N words, then all the chain words, in node order.
    """
    offsets = list(itertools.accumulate((w,) * n + chain_lengths, initial=0))
    word = [range(a, b) for a, b in zip(offsets, offsets[1:])]
    c = len(chain_lengths)
    steps = [piece for i in range(1, c) for piece in (b"Step %d: " % i, word[n + i - 1], b"\\n")]
    user = [b',{"role":"user","content":"', *_question_pieces(templates.question_template, n, w),
            b'"},{"role":"assistant","content":"']
    think = [_escaped(templates.think_open), *steps, _escaped(templates.think_close)]
    answer = [_escaped(templates.answer_open), b"\\\\boxed{", word[n + c - 1], b'}"}']
    parts = [b"".join(_SLOT * len(piece) if isinstance(piece, range) else piece for piece in part)
             for part in (user, think, answer)]
    parts += [b',["' + b'","'.join(_SLOT * len(word[node]) for node in nodes) + b'"]'
              for nodes in (range(n), range(n, n + c))]
    template = np.frombuffer(b"".join(parts), dtype=np.uint8)
    # the messages' letters, then the meta's: every node's, in node order
    letters = [x for piece in user + think + answer if isinstance(piece, range) for x in piece] + [*range(offsets[-1])]
    widths = (len(parts[0]) + len(parts[1]) + len(parts[2]), len(parts[3]), len(parts[4]))
    return _Rows(
        template,
        read_only(np.flatnonzero(template == _SLOT[0])),
        read_only(np.array(letters, dtype=np.intp)),
        widths,
        slice(len(parts[0]), len(parts[0]) + len(parts[1])),
        b'{"role":"system","content":"%b"}' % _escaped(templates.system_prompt),
    )


def prompt_line(config: LangSymConfig, j: int, transforms: list[dict]) -> bytes:
    """Shard line of prompt j after each strip-cot transform in turn, written from its letter codes.

    Draw order per prompt: N, M, C choices, the DAG, then per example the
    N*w letters of its N words followed by the rendering variate
    (_draw_examples). The cot_flags, strips included, come from
    recipe.cot_flags before the messages and the meta are written once:
    the K examples fill copies of the item's _Rows template from their
    letter codes, and only the meta's scalars and DAG go through json. An item whose letters cannot be allocated is a ConfigError.
    """
    seed, rng, r, n, m, c, dag = config.start_item(j)
    try:
        codes, variates = _draw_examples(rng, config.k, n, config.w, config.distinct_letters)
    except (MemoryError, ValueError) as exc:  # ValueError: more bytes than an array can address
        raise ConfigError(f"no memory for the {config.k} x {n} x {config.w} letters of item {j} (k x N x w)") from exc
    flags = cot_flags(r, variates, j, transforms)
    nodes = _node_letters(dag, config.w)
    rows = _rows(config.templates, n, config.w, tuple(len(node) for node in nodes[n:]))
    columns = np.fromiter(itertools.chain.from_iterable(nodes), np.intp)[rows.letters]
    grid = np.empty((config.k, len(rows.template)), dtype=np.uint8)
    grid[:] = rows.template
    grid[:, rows.slots] = _advanced_letters(codes, c)[:, columns]
    grid[np.equal(flags, 0), rows.think] = _CUT[0]
    messages, inputs, _ = itertools.accumulate(rows.widths)
    head = json.dumps({"n": n, "m": m, "c": c, "k": config.k, "w": config.w, "r_cot": r, "dag": dag.to_json()},
                      separators=(",", ":"))
    return b'{"prompt_id":%d,"messages":[%b%b],"meta":%b,"inputs":[%b],"chains":[%b],"cot_flags":[%b],"seed":%d}}\n' % (
        j,
        rows.system,
        grid[:, :messages].tobytes().translate(None, _CUT),
        head[:-1].encode("ascii"),
        grid[:, messages:inputs].tobytes()[1:],
        grid[:, inputs:].tobytes()[1:],
        b",".join([b"%d" % flag for flag in flags]),
        seed,
    )


def extract_langsym_answer(text: str) -> str | None:
    """Contents of the first \\boxed{...} that is a lowercase word, else None."""
    for match in _BOXED_RE.finditer(text):
        word = match.group(1)
        if _WORD_RE.fullmatch(word):
            return word
    return None


def extract_steps(text: str) -> list[str]:
    """Words from 'Step i: <word>' lines with i running 1, 2, ... consecutively.

    Scanning stops at the first out-of-order index, so a stray later step
    cannot append to the list.
    """
    steps: list[str] = []
    for match in _STEP_RE.finditer(text):
        if int(match.group(1)) != len(steps) + 1:
            break
        steps.append(match.group(2))
    return steps


# --- text-side evaluation -------------------------------------------------

def make_langsym_eval_prompt(record: dict) -> EvalPrompt:
    """Withhold a prompt record's final assistant turn; its chain is the ground truth.

    The record must hold its K examples whole: 2K+1 messages (the system
    turn, then one user and one assistant turn of text per example) and K
    chains of c words. Scoring reads the meta's DAG, checked with
    dag.check_record_dag, so a malformed record fails before its prompt
    reaches a backend (KeyError, TypeError or ValueError).
    """
    meta = record["meta"]
    check_record_dag(meta)
    k, c = meta["k"], meta["c"]
    if k < 2:
        raise ConfigError(f"need at least 2 examples to build a prompt, got {k}")
    messages = record["messages"]
    if len(messages) != 2 * k + 1 or [m["role"] for m in messages] != ["system", *("user", "assistant") * k]:
        raise ValueError(f"{len(messages)} messages are not the system turn and k={k} user/assistant exchanges")
    if not all(isinstance(m["content"], str) for m in messages):
        raise ValueError("message content must be text")
    chains = meta["chains"]
    if len(chains) != k or any(len(chain) != c for chain in chains[:-1]):
        raise ValueError(f"meta needs k={k} chains of c={c} words")
    chain = tuple(chains[-1])
    if len(chain) != c:
        raise ValueError(f"query chain has {len(chain)} words, meta has c={c}")
    meta = {**meta, "seq_id": record["prompt_id"]}
    return EvalPrompt(context=tuple(messages[:-1]), ground_truth_chain=chain, meta=meta)


def force_generate_text(backend, prompt: EvalPrompt, forcing: ForcingConfig, templates: Templates) -> str:
    """One whole-completion request under a text forcing strategy.

    The force marker is sent as a partial assistant turn for the backend to
    continue; the returned text is marker + completion, with the completion
    cut to `forcing.budget` characters (None keeps it whole). Text has no
    unforced strategy: NO_FORCING raises ConfigError.
    """
    marker = {FORCE_THINK: templates.think_open, FORCE_ANSWER: templates.answer_open}.get(forcing.strategy)
    if marker is None:
        raise ConfigError(f"unsupported text strategy {forcing.strategy!r}")
    messages = [dict(m) for m in prompt.context]
    messages.append({"role": "assistant", "content": marker})
    return marker + backend.complete(messages)[: forcing.budget]


class TextOracleBackend(PromptOracle):
    """Continues the prompt it was last shown with its ground-truth assistant turn."""

    def __init__(self, templates: Templates):
        self._templates = templates

    def complete(self, messages: list[dict]) -> str:
        partial = ""
        context = tuple(messages)
        if context and context[-1]["role"] == "assistant":
            partial, context = context[-1]["content"], context[:-1]
        chain = self._chain(context, "unknown prompt context")
        for as_cot in (True, False):
            full = render_assistant(chain, as_cot, self._templates)
            if full.startswith(partial):
                return full[len(partial):]
        raise BackendError(f"forced prefix {partial!r} does not match any canonical turn")


class TextStdioBackend(JsonLinesProcess):
    """Completion process: ``{"messages": [...]}`` in, ``{"completion": "..."}`` out."""

    def complete(self, messages: list[dict]) -> str:
        return self.send_line(json.dumps({"messages": messages}) + "\n", "completion", str)


def evaluate_langsym(backend, prompts: Iterable[EvalPrompt], forcing: ForcingConfig, templates: Templates) -> EvalReport:
    """Text analogue of harness.evaluate: boxed-answer accuracy plus step flags."""
    return evaluate_prompts(
        prompts,
        lambda prompt: force_generate_text(backend, prompt, forcing, templates),
        lambda text: (extract_langsym_answer(text), extract_steps(text), [text]),
    )
