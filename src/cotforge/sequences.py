"""Rendering, parsing, and seeded generation of abstract-token datasets.

An example is rendered either plain:

    inp_start x1..xN inp_end ans_start yC ans_end eos          (N+6 tokens)

or with its thinking segment:

    inp_start x1..xN inp_end think_start y1..y{C-1} think_end
    ans_start yC ans_end eos                                   (N+C+7 tokens)

A sequence is one bos token followed by K rendered examples that all share
one sampled DAG and one set of chain-token processors. The loss mask marks
the supervised positions: ans_start, yC, ans_end, eos on a plain example
(4 ones) and additionally think_start, y1..y{C-1}, think_end on a thinking
one (C+5 ones).

Layout rule: every example is laid out on the same N+C+7 cells, the
thinking rendering, and a plain example is that row minus its thinking
span, the C+1 cells think_start..think_end. Which cells a sequence keeps is
therefore a pure function of (n, c, cot_flags), and so is which delimiter
or normal token each kept cell must hold and its mask bit: `layout(n, c)`
builds the template from the roles of a thinking example's cells, the two
keep rows, the two example masks and the cells of the inputs and of the
chain, once per (n, c). `sequence_line` fills the template's input and
chain cells from the arrays and writes the shard line, with the cot_flags
of `recipe.cot_flags`: a strip-cot transform re-draws them there
(`recipe.strip_flags`, the rule strip_sequence_record applies to a stored
record). A record is its line, decoded (`generate_sequence`).
`check_layout` validates a stored stream against the layout and returns
the layout with the stream's cell grid, so harness.make_eval_prompt reads
the query's chain from its cells and harness.strip_sequence_record keeps
the cells of the stripped flags. Neither parses or re-renders.

The per-example renderers, masks and parsers below are not called by the
package: they are the tests' reference implementations of the same rule,
and the benchmark tracer names them. The tracer also names `Sequence` and
its `to_record`/`from_record`, which is all that keeps them here: no
package code builds a `Sequence`.

Every sequence is generated from its config alone (the vocabulary,
embedding matrix and processor cache are `DatasetConfig.artifacts`, built
on first use) and its own Philox stream derived from (master_seed, j),
read through an rng.ItemStream, with a fixed draw order:

    1. N, M, C each as one uniform index into its choice list, which the
       config stores sorted
    2. the DAG (parent lists in chain-node order)
    3. the C processor indices
    4. all K*N input tokens as one batched draw (row k = example k)
    5. the K uniform rendering variates as one batched draw

Each draw gives the values and stream position of the same call on a
numpy Generator keyed with the item's seed (the batched draws equal K*N
and K scalar calls), so tests/helpers.py's reference_sequence redraws
every item with one Generator call per value. Reordering any of these
draws is a compatibility break.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import NamedTuple, Sequence as Seq

import numpy as np

from .dag import check_record_dag
from .errors import ConfigError, FormatError
from .processors import Mlp, chain_tokens_batch, new_cache, sample_processors
from .recipe import TaskConfig, check_int, cot_flags
from .rng import STREAM_CACHE, STREAM_EMBED, derive_seed
from .vocab import EmbeddingMatrix, N_SPECIAL, Vocabulary, read_only, sample_embedding_matrix


@dataclass(frozen=True)
class ParsedExample:
    """Example recovered from a rendered token stream.

    For plain renderings the intermediate tokens are not present in the
    stream, so `intermediates` is None and only the answer is known.
    """

    inputs: tuple[int, ...]
    intermediates: tuple[int, ...] | None
    answer: int
    is_cot: bool


@dataclass(frozen=True)
class Sequence:
    """A shard record as a frozen object: `from_record(record).to_record() == record`."""

    seq_id: int
    tokens: tuple[int, ...]
    loss_mask: tuple[int, ...]
    meta: dict

    def to_record(self) -> dict:
        return {
            "seq_id": self.seq_id,
            "tokens": list(self.tokens),
            "loss_mask": list(self.loss_mask),
            "meta": self.meta,
        }

    @classmethod
    def from_record(cls, obj: dict) -> "Sequence":
        return cls(
            seq_id=obj["seq_id"],
            tokens=tuple(obj["tokens"]),
            loss_mask=tuple(obj["loss_mask"]),
            meta=obj["meta"],
        )


@dataclass(frozen=True)
class DatasetConfig(TaskConfig):
    """Everything needed to regenerate an abstract dataset bit-exactly."""

    vocab_size: int = 1024
    dim: int = 10
    cache_size: int = 64
    depth: int = 1
    slope: float = 0.01

    def __post_init__(self) -> None:
        super().__post_init__()
        check_int("vocab_size", self.vocab_size, N_SPECIAL + 1)
        if self.vocab_size - N_SPECIAL > 1 << 32:  # normal tokens are drawn with spans of at most 2**32
            raise ConfigError(f"vocab_size must be <= 2**32 + {N_SPECIAL}, got {self.vocab_size}")
        for name in ("dim", "cache_size", "depth"):
            check_int(name, getattr(self, name))
        if isinstance(self.slope, bool) or not isinstance(self.slope, (int, float)) or not 0.0 < self.slope <= 1.0:
            raise ConfigError(f"slope must be a number in (0, 1], got {self.slope!r}")

    @functools.cached_property
    def artifacts(self) -> tuple[Vocabulary, EmbeddingMatrix, tuple[Mlp, ...]]:
        """`build_artifacts(self)`, built on first use and kept with this config."""
        return build_artifacts(self)


def build_artifacts(config: DatasetConfig) -> tuple[Vocabulary, EmbeddingMatrix, tuple[Mlp, ...]]:
    """Vocabulary, embedding matrix, and processor cache for a config.

    Embedding and cache seeds are derived from the master seed on reserved
    streams, so the whole dataset regenerates from the config alone. An
    embedding matrix too large to allocate is a ConfigError.
    """
    vocab = Vocabulary(config.vocab_size)
    try:
        emb = sample_embedding_matrix(vocab, config.dim, derive_seed(config.master_seed, STREAM_EMBED))
    except MemoryError as exc:
        raise ConfigError(f"no memory for a {config.vocab_size} x {config.dim} embedding (vocab_size x dim)") from exc
    cache = new_cache(
        config.cache_size,
        config.dim,
        config.depth,
        config.slope,
        derive_seed(config.master_seed, STREAM_CACHE),
    )
    return vocab, emb, cache


def render_standard_example(inputs: list[int], answer: int, vocab: Vocabulary) -> list[int]:
    """Plain rendering: inputs and answer only. N+6 tokens."""
    if not inputs:
        raise ConfigError("inputs must be non-empty")
    for tok in [*inputs, answer]:
        if not vocab.is_normal(tok):
            raise ConfigError(f"token {tok} is not a normal token")
    return [vocab.inp_start, *inputs, vocab.inp_end, vocab.ans_start, answer, vocab.ans_end, vocab.eos]


def render_cot_example(inputs: list[int], chain: list[int], vocab: Vocabulary) -> list[int]:
    """Thinking rendering with the full chain. N+C+7 tokens.

    With a length-1 chain the thinking segment is empty but its delimiters
    are still emitted.
    """
    if not inputs:
        raise ConfigError("inputs must be non-empty")
    if not chain:
        raise ConfigError("chain must be non-empty")
    for tok in [*inputs, *chain]:
        if not vocab.is_normal(tok):
            raise ConfigError(f"token {tok} is not a normal token")
    return [
        vocab.inp_start,
        *inputs,
        vocab.inp_end,
        vocab.think_start,
        *chain[:-1],
        vocab.think_end,
        vocab.ans_start,
        chain[-1],
        vocab.ans_end,
        vocab.eos,
    ]


def standard_example_mask(n: int) -> list[int]:
    """Supervised positions of a plain rendering: the final 4 tokens."""
    return [0] * (n + 2) + [1, 1, 1, 1]


def cot_example_mask(n: int, c: int) -> list[int]:
    """Supervised positions of a thinking rendering: the final C+5 tokens."""
    return [0] * (n + 2) + [1] * (c + 5)


def render_example_tokens(ex: ParsedExample, vocab: Vocabulary, as_cot: bool) -> list[int]:
    """Re-render a parsed example in either mode."""
    if not as_cot:
        return render_standard_example(list(ex.inputs), ex.answer, vocab)
    if ex.intermediates is None:
        raise FormatError("cannot re-render as thinking: intermediates unknown")
    return render_cot_example(list(ex.inputs), [*ex.intermediates, ex.answer], vocab)


def parse_examples(tokens: list[int], vocab: Vocabulary, start: int = 0) -> list[ParsedExample]:
    """Parse a run of rendered examples starting at `start`.

    Raises FormatError on any structural violation; an empty token run
    parses to an empty list.
    """
    out: list[ParsedExample] = []
    i = start
    n_tok = len(tokens)

    def expect(pos: int, tok: int, what: str) -> None:
        if pos >= n_tok or tokens[pos] != tok:
            found = tokens[pos] if pos < n_tok else "<end>"
            raise FormatError(f"position {pos}: expected {what}, found {found}")

    while i < n_tok:
        expect(i, vocab.inp_start, "inp_start")
        i += 1
        inputs = []
        while i < n_tok and tokens[i] != vocab.inp_end:
            if not vocab.is_normal(tokens[i]):
                raise FormatError(f"position {i}: special token {tokens[i]} inside input segment")
            inputs.append(tokens[i])
            i += 1
        expect(i, vocab.inp_end, "inp_end")
        if not inputs:
            raise FormatError(f"position {i}: empty input segment")
        i += 1
        intermediates: tuple[int, ...] | None = None
        is_cot = False
        if i < n_tok and tokens[i] == vocab.think_start:
            is_cot = True
            i += 1
            mids = []
            while i < n_tok and tokens[i] != vocab.think_end:
                if not vocab.is_normal(tokens[i]):
                    raise FormatError(f"position {i}: special token {tokens[i]} inside thinking segment")
                mids.append(tokens[i])
                i += 1
            expect(i, vocab.think_end, "think_end")
            i += 1
            intermediates = tuple(mids)
        expect(i, vocab.ans_start, "ans_start")
        i += 1
        if i >= n_tok or not vocab.is_normal(tokens[i]):
            raise FormatError(f"position {i}: expected a normal answer token")
        answer = tokens[i]
        i += 1
        expect(i, vocab.ans_end, "ans_end")
        i += 1
        expect(i, vocab.eos, "eos")
        i += 1
        out.append(ParsedExample(inputs=tuple(inputs), intermediates=intermediates, answer=answer, is_cot=is_cot))
    return out


def parse_sequence(tokens: list[int], vocab: Vocabulary) -> list[ParsedExample]:
    """Parse a full sequence (leading bos, then rendered examples)."""
    if not tokens or tokens[0] != vocab.bos:
        raise FormatError("sequence must start with bos")
    return parse_examples(tokens, vocab, start=1)


NORMAL = -1  # template cell that holds a normal token


class Layout(NamedTuple):
    """The N+C+7 cells of one example for one (n, c), built once by `layout`.

    `template` holds each delimiter id at its cell and NORMAL where an
    input or chain token goes; `keep` row 0 marks the cells a plain example
    renders and row 1 those of a thinking one (all of them); `inputs` is
    the slice of the cells of x1..xN (inp_end is cell `inputs.stop`) and
    `chain` the index array of the cells of y1..yC; `masks` are the loss
    masks of a plain and of a thinking example,
    `standard_example_mask(n)` and `cot_example_mask(n, c)`, and
    `mask_text` each of them as JSON text, every bit after a comma. The
    arrays are read-only.
    """

    template: np.ndarray
    keep: np.ndarray
    inputs: slice
    chain: np.ndarray
    masks: tuple[tuple[int, ...], tuple[int, ...]]
    mask_text: tuple[bytes, bytes]

    def keep_cells(self, cot_flags: Seq[bool]) -> np.ndarray:
        """(K, N+C+7) bool: the cells each example renders, by its flag."""
        return self.keep[np.array(cot_flags, dtype=np.intp)]

    def mask(self, cot_flags: Seq[bool]) -> list[int]:
        """Loss mask of bos plus one example per flag."""
        out = [0]
        for f in cot_flags:
            out += self.masks[bool(f)]
        return out


@functools.lru_cache(maxsize=256)
def layout(n: int, c: int) -> Layout:
    """The Layout of (n, c), from the roles of a thinking example's cells (the same in every Vocabulary)."""
    v = Vocabulary
    roles = [v.inp_start, *[NORMAL] * n, v.inp_end, v.think_start, *[NORMAL] * (c - 1), v.think_end,
             v.ans_start, NORMAL, v.ans_end, v.eos]
    template = np.array(roles, dtype=np.int64)
    inputs = slice(roles.index(v.inp_start) + 1, roles.index(v.inp_end))
    chain = np.flatnonzero(template == NORMAL)[n:]  # the normal cells after x1..xN
    keep = np.ones((2, len(roles)), dtype=bool)
    keep[0, roles.index(v.think_start) : roles.index(v.think_end) + 1] = False  # the thinking span
    masks = (tuple(standard_example_mask(n)), tuple(cot_example_mask(n, c)))
    mask_text = tuple(b"".join(b",%d" % bit for bit in mask) for mask in masks)
    return Layout(read_only(template), read_only(keep), inputs, read_only(chain), masks, mask_text)


def _abnormal(tokens: np.ndarray, vocab: Vocabulary) -> np.ndarray:
    return tokens[(tokens < N_SPECIAL) | (tokens >= vocab.size)]


def check_layout(tokens: Seq[int], meta: dict, vocab: Vocabulary) -> tuple[Layout, np.ndarray]:
    """Validate a stored sequence against the layout of its meta's (n, c, cot_flags).

    cot_flags must be a non-empty flat list of 0/1, and the stream bos plus
    exactly the kept cells: every delimiter in its cell and a normal token
    in every other one. Returns the Layout and the (K, N+C+7) int64 grid
    whose kept cells hold the tokens (pad elsewhere); raises FormatError
    on any violation, and what `check_record_dag` raises for a bad DAG.
    """
    n, c, cot_flags = meta["n"], meta["c"], meta["cot_flags"]
    if not all(isinstance(v, (int, np.integer)) and v >= 1 for v in (n, c)):
        raise FormatError(f"layout needs n, c >= 1, got n={n!r} c={c!r}")
    if not isinstance(cot_flags, list) or not cot_flags or not all(f in (0, 1) for f in cot_flags):
        raise FormatError("cot_flags must be a non-empty flat list of 0/1")
    stream = np.asarray(tokens)
    if stream.ndim != 1 or stream.dtype.kind not in "iu":
        raise FormatError("tokens must be a flat list of integers")
    # the length first, so a huge n (or c, with a thinking example) fails
    # before any array of that size
    length = 1 + len(cot_flags) * (n + 6) + sum(cot_flags) * (c + 1)
    if len(stream) != length:
        raise FormatError(f"{len(stream)} tokens where the layout of {len(cot_flags)} examples has {length}")
    # then the DAG, which bounds a c that the length leaves free when every
    # example is plain
    check_record_dag(meta)
    cells = layout(n, c)
    keep = cells.keep_cells(cot_flags)
    expected = np.concatenate(([vocab.bos], np.broadcast_to(cells.template, keep.shape)[keep]))
    fixed = expected != NORMAL
    wrong = np.flatnonzero(fixed & (stream != expected))
    if wrong.size:
        pos = int(wrong[0])
        raise FormatError(f"position {pos}: expected delimiter {int(expected[pos])}, found {int(stream[pos])}")
    bad = _abnormal(stream[~fixed], vocab)
    if bad.size:
        raise FormatError(f"special or out-of-range token {int(bad[0])} where a normal token belongs")
    grid = np.zeros(keep.shape, dtype=np.int64)
    grid[keep] = stream[1:]
    return cells, grid


def _kept_cells(inputs: np.ndarray, chains: np.ndarray, cot_flags: Seq[bool], vocab: Vocabulary):
    """(Layout, int64 kept cells of K examples after bos) from (K, N) inputs and (K, C) chains.

    Fills the thinking template of every example and keeps its cells.
    Every input and chain token must be normal (ConfigError otherwise).
    """
    for part in (inputs, chains):
        bad = _abnormal(part, vocab)
        if bad.size:
            raise ConfigError(f"token {int(bad[0])} is not a normal token")
    cells = layout(inputs.shape[1], chains.shape[1])
    grid = np.empty((len(inputs), len(cells.template)), dtype=np.int64)
    grid[:] = cells.template
    grid[:, cells.inputs] = inputs
    grid[:, cells.chain] = chains
    return cells, grid[cells.keep_cells(cot_flags)]


# Token ids below this bound are written through one table of their text (8
# bytes a row, 512 KiB at most), which every caller in the process shares: a
# row depends only on its id. A vocabulary that reaches past the bound
# writes every id with %d.
ID_TEXT_BOUND = 1 << 16
_ID_TEXT = np.zeros(0, dtype=np.uint64)


def _id_text(size: int) -> np.ndarray:
    """The table of ids below `size` (<= ID_TEXT_BOUND): row i is b"," + str(i), zero-padded to 8 bytes.

    Built for the largest size asked for so far in this process.
    """
    global _ID_TEXT
    if len(_ID_TEXT) < size:
        rows = b"".join([(b",%d" % i).ljust(8, b"\0") for i in range(size)])
        _ID_TEXT = np.frombuffer(rows, dtype=np.uint64)
    return _ID_TEXT


def generate_sequence(config: DatasetConfig, j: int) -> dict:
    """Shard record of sequence j, independent of all other indices: its line, decoded.

    The record is {"seq_id", "tokens", "loss_mask", "meta"} with lists of
    ints; the meta keys are n, m, c, k, r_cot, dag (Dag.to_json), proc_ids,
    cot_flags (0/1 per example) and seed, in this order.
    """
    return json.loads(sequence_line(config, j, ()))


def sequence_line(config: DatasetConfig, j: int, transforms: Seq[dict]) -> bytes:
    """Shard line of sequence j after each strip-cot transform in turn, written from its arrays.

    The item is drawn in the documented order and its cot_flags, strips
    included, come from recipe.cot_flags before the kept cells are written
    once, through a table of token-id text and the layout's mask text,
    with only the meta going through json. An item whose inputs
    cannot be allocated is a ConfigError.
    """
    vocab, emb, cache = config.artifacts
    seed, rng, r, n, m, c, dag = config.start_item(j)
    proc_ids = sample_processors(cache, c, rng)
    try:
        inputs = N_SPECIAL + rng.integers(0, vocab.n_normal, size=(config.k, n))
    except (MemoryError, ValueError) as exc:  # ValueError: more bytes than an array can address
        raise ConfigError(f"no memory for the {config.k} x {n} input tokens of item {j} (k x N)") from exc
    flags = cot_flags(r, rng.random(config.k), j, transforms)
    procs = [cache[i] for i in proc_ids]
    chains = chain_tokens_batch(dag.parents, procs, emb, inputs)
    cells, kept = _kept_cells(inputs, chains, flags, vocab)
    if vocab.size <= ID_TEXT_BOUND:
        tokens = _id_text(vocab.size)[kept].tobytes().translate(None, b"\0")
    else:
        tokens = b"".join([b",%d" % t for t in kept.tolist()])
    mask = b"".join([cells.mask_text[f] for f in flags])
    meta = {
        "n": n,
        "m": m,
        "c": c,
        "k": config.k,
        "r_cot": r,
        "dag": dag.to_json(),
        "proc_ids": proc_ids,
        "cot_flags": flags,
        "seed": seed,
    }
    meta_text = json.dumps(meta, separators=(",", ":")).encode()
    return b'{"seq_id":%d,"tokens":[%d%b],"loss_mask":[0%b],"meta":%b}\n' % (j, vocab.bos, tokens, mask, meta_text)

