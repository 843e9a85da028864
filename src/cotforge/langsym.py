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
"""

from __future__ import annotations

import json
import re
import string
from dataclasses import dataclass, field, asdict, fields

import numpy as np

from .dag import Dag, check_record_dag
from .errors import BackendError, ConfigError
from .harness import (
    FORCE_ANSWER, FORCE_THINK, EvalPrompt, EvalReport, ForcingConfig,
    JsonLinesProcess, evaluate_prompts,
)
from .recipe import TaskConfig, check_int, strip_flags
from .rng import ItemStream, choose_distinct

ALPHABET = string.ascii_lowercase
_SPACE = 255
# bytes.translate table: byte x -> the letter x places after a, wrapping at
# z, for a letter code advanced up to 25 places; _SPACE -> " "
_LETTER_OF_CODE = bytes(ALPHABET.encode("ascii")[x % len(ALPHABET)] for x in range(_SPACE)) + b" "
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
            fields_named = {name for _, name, _, _ in string.Formatter().parse(self.question_template)}
            render_question([], self)
        except Exception as exc:  # a field other than {words}, or bad str.format syntax
            raise ConfigError(f"question_template {self.question_template!r}: {exc!r}") from exc
        if "words" not in fields_named:  # an escaped {{words}} is text, not a field
            raise ConfigError("question_template must contain a {words} placeholder")
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


def _node_letters(dag: Dag, w: int) -> list[list[tuple[int, int]]]:
    """Per DAG node, (input letter column, places advanced mod 26) of each letter.

    Input i's letters are columns i*w .. i*w+w-1, unadvanced; a chain node's
    are its parents' trailing portions, advanced once more: string_transform
    on columns instead of words.
    """
    nodes = [[(col, 0) for col in range(i * w, i * w + w)] for i in range(dag.n_inputs)]
    for parents in dag.parents:
        nodes.append(
            [(col, (s + 1) % len(ALPHABET)) for p in parents for col, s in nodes[p][len(nodes[p]) // 2 :]]
        )
    return nodes


def generate_langsym_prompt(config: LangSymConfig, j: int) -> dict:
    """Record {"prompt_id", "messages", "meta"} of prompt j: fresh words, shared DAG, seeded turns.

    Draw order per prompt: N, M, C choices, the DAG, then per example the
    N*w letters of its N words followed by the rendering variate. In i.i.d.
    mode the letters are one draw, the same stream as N per-word draws, and
    all K examples' draws are one pass over the item stream's raw words
    (rng.ItemStream.bulk_rounds); distinct-letter mode draws word by word. Every
    example's words, chain words included, are then one array gathered
    from the letter columns and decoded once.
    """
    seed, rng, r, n, m, c, dag = config.start_item(j)
    w, templates = config.w, config.templates
    codes, variates = _draw_examples(rng, config.k, n, w, config.distinct_letters)
    # each node's letters and then a space, gathered from an extra column of
    # _SPACE codes, so the decoded text splits into all K*(N+C) words
    codes = np.concatenate((codes, np.full((config.k, 1), _SPACE, dtype=np.uint8)), axis=1)
    space = (n * w, 0)
    columns, shifts = zip(*[letter for node in _node_letters(dag, w) for letter in (*node, space)])
    letters = codes[:, columns] + np.array(shifts, dtype=np.uint8)
    pool = letters.tobytes().translate(_LETTER_OF_CODE).decode("ascii").split(" ")
    messages: list[dict] = [{"role": "system", "content": templates.system_prompt}]
    all_inputs: list[list[str]] = []
    all_chains: list[list[str]] = []
    flags: list[bool] = []
    for start, variate in zip(range(0, config.k * (n + c), n + c), variates.tolist()):
        words, chain = pool[start : start + n], pool[start + n : start + n + c]
        is_cot = r >= variate
        messages.append({"role": "user", "content": render_question(words, templates)})
        messages.append({"role": "assistant", "content": render_assistant(chain, is_cot, templates)})
        all_inputs.append(words)
        all_chains.append(chain)
        flags.append(is_cot)

    meta = {
        "n": n,
        "m": m,
        "c": c,
        "k": config.k,
        "w": config.w,
        "r_cot": r,
        "dag": dag.to_json(),
        "inputs": all_inputs,
        "chains": all_chains,
        "cot_flags": [int(f) for f in flags],
        "seed": seed,
    }
    return {"prompt_id": j, "messages": messages, "meta": meta}


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
    dag.check_record_dag, so a malformed record fails before any
    backend call (KeyError, TypeError or ValueError).
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


class TextOracleBackend:
    """Continues each known prompt with its ground-truth assistant turn."""

    def __init__(self, prompts: list[EvalPrompt], templates: Templates):
        self._templates = templates
        # Indexed by the final message, the query question, which is unique
        # per prompt with overwhelming probability; a hit is confirmed by
        # comparing the whole context, so the lookup stays exact.
        self._prompts: dict[str, list[tuple[tuple[dict, ...], list[str]]]] = {}
        for p in prompts:
            entry = (p.context, list(p.ground_truth_chain))
            self._prompts.setdefault(p.context[-1]["content"], []).append(entry)

    def complete(self, messages: list[dict]) -> str:
        partial = ""
        context = tuple(messages)
        if context and context[-1]["role"] == "assistant":
            partial, context = context[-1]["content"], context[:-1]
        final = context[-1]["content"] if context else None
        chain = next((chain for known, chain in self._prompts.get(final, ()) if known == context), None)
        if chain is None:
            raise BackendError("unknown prompt context")
        for as_cot in (True, False):
            full = render_assistant(chain, as_cot, self._templates)
            if full.startswith(partial):
                return full[len(partial):]
        raise BackendError(f"forced prefix {partial!r} does not match any canonical turn")


class TextStdioBackend(JsonLinesProcess):
    """Completion process: ``{"messages": [...]}`` in, ``{"completion": "..."}`` out."""

    def complete(self, messages: list[dict]) -> str:
        return self.send_line(json.dumps({"messages": messages}) + "\n", "completion", str)


def evaluate_langsym(backend, prompts: list[EvalPrompt], forcing: ForcingConfig, templates: Templates) -> EvalReport:
    """Text analogue of harness.evaluate: boxed-answer accuracy plus step flags."""
    return evaluate_prompts(
        prompts,
        lambda prompt: force_generate_text(backend, prompt, forcing, templates),
        lambda text: (extract_langsym_answer(text), extract_steps(text), [text]),
    )
