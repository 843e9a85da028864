"""Dataset files, manifests, and bit-exact regeneration.

A dataset directory holds JSON-lines shards (part-0000.jsonl, ...) plus a
manifest.json recording the full generation config, any transforms applied
on top of it (currently CoT stripping), per-shard sha256 hashes and record
counts, and the tool version. The manifest alone is sufficient to
regenerate every byte, which is what `verify` checks. A config file and a
manifest are each read with `load_json_object`.

Record serialization is pinned: compact separators, ASCII escapes, and
field order fixed by construction, so hashes are stable across runs,
platforms, and worker counts. Each kind writes item j's line, after the
manifest's strip-cot transforms, with its `line(config, j, transforms)`,
straight from the item's arrays: abstract lines from the item's token
layout (sequences.sequence_line), LangSym lines from byte rows filled with
the item's letters (langsym.prompt_line). In both, the strips re-draw the
cot_flags before the one rendering. A record is its line, decoded.

Generation parallelizes over item indices; shard s holds the contiguous
block [s*ceil(T/S), ...) of output positions. A command (write, verify)
runs at most one worker pool: it generates the records of all its shards
as one ordered stream, which the caller cuts at shard boundaries, so the
pool starts once and never drains between shards. The pool machinery is
imported only when a pool starts.

A process's memory does not grow with T or with the shard size: the pool
is given tasks of at most CHUNK_MAX items and runs at most
TASKS_PER_WORKER tasks per worker ahead of the consumer, verify walks the
checked shards' item indices without listing them, and a file is hashed
through one HASH_BLOCK buffer. A shuffled dataset's output order is the
one T-long holder left, at 4 bytes per item (see TaskConfig.output_order).
Reading one item opens one shard: item_place maps the item to its shard
and line.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import itertools
import json
import os
import re
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from . import __version__
from .errors import ConfigError, FormatError
from .langsym import LangSymConfig, prompt_line
from .recipe import TaskConfig
from .rng import SEED_BOUND, ItemStream, choose_distinct
# generate_sequence is not called here: the benchmark's tracer tests look
# it up under this module's name too
from .sequences import DatasetConfig, generate_sequence, sequence_line  # noqa: F401

KIND_ABSTRACT = "abstract"
KIND_LANGSYM = "langsym"


def encode_record(record: dict) -> bytes:
    return (json.dumps(record, separators=(",", ":"), ensure_ascii=True) + "\n").encode("utf-8")


class Kind(NamedTuple):
    """What storage needs to know about one dataset kind.

    `line(config, j, transforms)` returns the shard line of item j after
    each strip-cot transform in turn, the strip of item j drawing from
    ItemStream(derive_seed(seed, j)); it takes nothing derived from the
    config.
    """

    config: type[TaskConfig]
    line: Callable


KINDS = {KIND_ABSTRACT: Kind(DatasetConfig, line=sequence_line), KIND_LANGSYM: Kind(LangSymConfig, line=prompt_line)}


def parse_config(kind: str, config_json: dict) -> TaskConfig:
    """Config of a `kind` dataset; ConfigError for an unknown kind or a bad config."""
    if kind not in KINDS:
        raise ConfigError(f"unknown dataset kind {kind!r}")
    return KINDS[kind].config.from_json(config_json)


MANIFEST_NAME = "manifest.json"
SHARD_RE = re.compile(r"part-\d{4,}\.jsonl")


HASH_BLOCK = 1 << 14  # bytes read into the one buffer of sha256_file per call


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    block = bytearray(HASH_BLOCK)
    view = memoryview(block)
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(block):
            digest.update(view[:size])
    return digest.hexdigest()


def load_json_object(path: str, what: str) -> dict:
    """The JSON object in the UTF-8 file at `path`; ConfigError "malformed <what>" if it holds none, OSError if unreadable."""
    with open(path, encoding="utf-8") as fh:  # not the locale's encoding: a config reads the same on every host
        try:
            obj = json.load(fh)
        except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested past the parser's depth
            raise ConfigError(f"{path}: malformed {what} ({exc!r})") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: malformed {what} (a JSON {type(obj).__name__}, not an object)")
    return obj


def dataset_paths(path: str) -> tuple[str, str]:
    """(directory, manifest file) of the dataset at `path`, given as either one."""
    if os.path.isdir(path):
        return path, os.path.join(path, MANIFEST_NAME)
    return os.path.dirname(path) or os.curdir, path


def _valid_transform(tf) -> bool:
    return (isinstance(tf, dict) and tf.keys() == {"kind", "k_prime", "seed"} and tf["kind"] == "strip-cot"
            and type(tf["k_prime"]) is int and tf["k_prime"] >= 0 and type(tf["seed"]) is int
            and 0 <= tf["seed"] < SEED_BOUND)


def _valid_output(out) -> bool:
    return (isinstance(out, dict) and out.keys() == {"path", "sha256", "count"} and isinstance(out["path"], str)
            and SHARD_RE.fullmatch(out["path"]) is not None and isinstance(out["sha256"], str)
            and type(out["count"]) is int and out["count"] >= 0)


@dataclass(kw_only=True)
class Manifest:
    """manifest.json: to_json writes the fields as they are, in this order."""

    tool_version: str = __version__
    kind: str
    config: dict
    transforms: list[dict] = field(default_factory=list)
    outputs: list[dict]
    stats: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return dict(vars(self))

    @classmethod
    def from_json(cls, obj: dict) -> "Manifest":
        """KeyError, TypeError or ValueError when `obj` is malformed.

        Every transform is {"kind": "strip-cot", "k_prime": int >= 0, "seed":
        int in [0, 2**64)}, every output {"path", "sha256", "count"} with a
        shard name as its path, so no command opens a file outside the
        dataset.
        """
        if not isinstance(obj, dict) or not isinstance(obj["kind"], str):
            raise TypeError("a manifest is a JSON object with a string kind")
        for name, valid in (("transforms", _valid_transform), ("outputs", _valid_output)):
            entries = obj.get(name, [])
            bad = [e for e in entries if not valid(e)] if isinstance(entries, list) else [entries]
            if bad:
                raise ValueError(f"malformed {name} entry {bad[0]!r}")
        return cls(
            kind=obj["kind"],
            config=obj["config"],
            outputs=obj["outputs"],
            transforms=obj.get("transforms", []),
            tool_version=obj.get("tool_version", "unknown"),
            stats=obj.get("stats", {}),
        )

    def save(self, out_dir: str) -> None:
        with open(os.path.join(out_dir, MANIFEST_NAME), "w") as fh:
            json.dump(self.to_json(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "Manifest":
        path = dataset_paths(path)[1]
        obj = load_json_object(path, "manifest")
        try:
            return cls.from_json(obj)
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise ConfigError(f"{path}: malformed manifest ({exc!r})") from exc


def shard_ranges(total: int, shards: int) -> list[tuple[int, int]]:
    """Contiguous [start, stop) output-position blocks of ceil(total / shards), one per shard that gets any."""
    if shards < 1:
        raise ConfigError(f"shards must be >= 1, got {shards}")
    per = max(1, -(-total // shards))  # exact: total / shards in floats rounds past 2**53
    return [(start, min(start + per, total)) for start in range(0, total, per)]


# Per-worker state, built once per process from the pickled manifest payload.
_WORKER = {}

CHUNK_MAX = 64  # items per pool task at most
TASKS_PER_WORKER = 4  # pool tasks submitted per worker and not yet consumed, at most


def _init_worker(kind: str, config_json: dict, transforms: list[dict]) -> None:
    _WORKER.clear()
    _WORKER.update(spec=KINDS[kind], config=parse_config(kind, config_json), transforms=transforms)


def _gen_line(j: int) -> bytes:
    return _WORKER["spec"].line(_WORKER["config"], j, _WORKER["transforms"])


def _gen_lines(indices: list[int]) -> list[bytes]:
    return [_gen_line(j) for j in indices]


def _blocks(indices, size: int):
    """Lists of `size` consecutive items of `indices`, the last one shorter."""
    indices = iter(indices)
    while block := list(itertools.islice(indices, size)):
        yield block


def _emit_lines(kind: str, config_json: dict, transforms: list[dict], indices, count: int, workers: int,
                shards: int):
    """Record bytes for the `count` items of `indices`, the items of `shards` shards, in order.

    At most one process pool serves the whole stream, with no more workers
    than items; one worker generates in this process. Tasks are sized by
    the shard, as if each shard had a pool of its own, up to CHUNK_MAX
    items. At most TASKS_PER_WORKER tasks per worker are submitted ahead
    of the consumer; closing the stream, or a task that fails, cancels
    those not yet started.
    """
    workers = min(workers, count)
    if workers <= 1:
        _init_worker(kind, config_json, transforms)
        for j in indices:
            yield _gen_line(j)
        return
    chunk = max(1, min(CHUNK_MAX, count // (shards * workers * 8)))
    from concurrent.futures import ProcessPoolExecutor  # here, so a command without a pool never imports it

    with ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(kind, config_json, transforms)
    ) as pool:
        tasks = (pool.submit(_gen_lines, block) for block in _blocks(indices, chunk))
        window = collections.deque(itertools.islice(tasks, TASKS_PER_WORKER * workers))
        try:
            while window:
                lines = window.popleft().result()
                window.extend(itertools.islice(tasks, 1))
                yield from lines
        finally:
            for task in window:
                task.cancel()


def _digest_lines(lines, size: int, fh=None) -> tuple[str, int]:
    """sha256 and count of the next `size` lines, each also written to `fh` when given."""
    digest = hashlib.sha256()
    count = 0
    for count, line in enumerate(itertools.islice(lines, size), start=1):
        if fh is not None:
            fh.write(line)
        digest.update(line)
    return digest.hexdigest(), count


def _remove_stale_shards(out_dir: str, outputs: list[dict]) -> None:
    """Delete the part files of `out_dir` that `outputs` does not list."""
    listed = {out["path"] for out in outputs}
    for name in os.listdir(out_dir):
        if SHARD_RE.fullmatch(name) and name not in listed:
            os.remove(os.path.join(out_dir, name))


def write_dataset(
    out_dir: str,
    kind: str,
    config_json: dict,
    transforms: list[dict] | None = None,
    shards: int = 1,
    workers: int = 1,
) -> Manifest:
    """Generate a full dataset into `out_dir` and write its manifest.

    The first line is generated before `out_dir` is touched, so an error
    that the first item shows (a config the artifacts or a strip cannot
    serve) leaves a dataset already there as it was. Then any manifest in
    `out_dir` is removed before the first shard is written and the new one
    is written last, after part files from an earlier run that the new
    manifest does not list are deleted. A run that fails past the first
    line leaves no manifest, so it never looks like a valid dataset.
    """
    transforms = transforms or []
    order = parse_config(kind, config_json).output_order()
    ranges = shard_ranges(len(order), shards)
    started = time.monotonic()
    outputs = []
    stream = _emit_lines(kind, config_json, transforms, order, len(order), workers, len(ranges))
    with contextlib.closing(stream):
        lines = itertools.chain(list(itertools.islice(stream, 1)), stream)
        os.makedirs(out_dir, exist_ok=True)
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out_dir, MANIFEST_NAME))
        for s, (start, stop) in enumerate(ranges):
            path = os.path.join(out_dir, f"part-{s:04d}.jsonl")
            with open(path, "wb") as fh:
                sha256, count = _digest_lines(lines, stop - start, fh)
            outputs.append({"path": os.path.basename(path), "sha256": sha256, "count": count})
    _remove_stale_shards(out_dir, outputs)
    manifest = Manifest(
        kind=kind,
        config=config_json,
        transforms=transforms,
        outputs=outputs,
        stats={"items": len(order), "wall_seconds": round(time.monotonic() - started, 3)},
    )
    manifest.save(out_dir)
    return manifest


def _decode_line(shard: str, lineno: int, line: bytes) -> dict:
    """The record on line `lineno` of `shard`; FormatError naming both if it is not a UTF-8 JSON object."""
    try:
        record = json.loads(line.decode("utf-8"))  # strict: json.loads(bytes) would pass surrogates
    except (ValueError, RecursionError) as exc:  # nested past the parser's depth
        raise FormatError(f"{shard} line {lineno}: invalid JSON ({exc})") from exc
    if not isinstance(record, dict):
        raise FormatError(f"{shard} line {lineno}: not a JSON object ({type(record).__name__})")
    return record


def read_records(path: str):
    """Iterate records of every shard listed in the manifest of the dataset at `path`.

    A line that is not UTF-8 JSON (a cut line, say) or whose value is not
    an object raises FormatError naming its shard file and line number; a
    listed shard that cannot be read raises OSError.
    """
    manifest = Manifest.load(path)
    directory = dataset_paths(path)[0]
    for out in manifest.outputs:
        shard = os.path.join(directory, out["path"])
        with open(shard, "rb") as fh:
            for lineno, line in enumerate(fh, start=1):
                if line.strip():
                    yield _decode_line(shard, lineno, line)


def item_place(config: TaskConfig, shards: int, j: int) -> tuple[int, int, int] | None:
    """(output position, shard, line) of item j in a dataset of `shards` shards, or None if there is no item j.

    The position is j itself unless the config shuffles, else j's place in
    output_order (a scan in C); shard_ranges gives the shard and the line,
    counted from 0.
    """
    try:
        position = config.output_order().index(j)
    except ValueError:
        return None
    ranges = shard_ranges(config.t, shards)
    s = next(s for s, (start, stop) in enumerate(ranges) if position < stop)
    return position, s, position - ranges[s][0]


def read_line(shard: str, line: int) -> dict:
    """The record on line `line` (from 0) of the shard file `shard`, decoded as read_records decodes it.

    The lines before it are skipped as bytes. A shard that ends before the
    line raises FormatError; one that cannot be read raises OSError.
    """
    with open(shard, "rb") as fh:
        text = next(itertools.islice(fh, line, None), b"")
    if not text:
        raise FormatError(f"{shard} line {line + 1}: past the shard's last line")
    return _decode_line(shard, line + 1, text)


def verify_dataset(path: str, sample: int | None = None, seed: int = 0, workers: int = 1) -> list[str]:
    """Regenerate shards from the manifest and compare hashes and counts.

    Returns a list of mismatch descriptions (empty means verified). A
    `sample` limits the check to that many randomly chosen shards; it must
    be at least 1.
    """
    if sample is not None and sample < 1:
        raise ConfigError(f"sample must be >= 1 shard, got {sample}")
    manifest = Manifest.load(path)
    directory = dataset_paths(path)[0]
    order = parse_config(manifest.kind, manifest.config).output_order()
    ranges = shard_ranges(len(order), max(1, len(manifest.outputs)))
    if len(ranges) != len(manifest.outputs):
        return [f"manifest lists {len(manifest.outputs)} shards but config implies {len(ranges)}"]
    checked = list(range(len(manifest.outputs)))
    if sample is not None and sample < len(checked):
        checked = sorted(choose_distinct(ItemStream(seed), len(checked), sample))
    items = (order[i] for s in checked for i in range(*ranges[s]))  # a slice of a shuffled order would copy it
    total = sum(stop - start for start, stop in (ranges[s] for s in checked))
    problems = []
    stream = _emit_lines(manifest.kind, manifest.config, manifest.transforms, items, total, workers, len(checked))
    with contextlib.closing(stream) as lines:
        for s in checked:
            out = manifest.outputs[s]
            actual = sha256_file(os.path.join(directory, out["path"]))  # a missing shard: FileNotFoundError
            if actual != out["sha256"]:
                problems.append(f"{out['path']}: on-disk sha256 {actual[:12]}.. != manifest {out['sha256'][:12]}..")
            start, stop = ranges[s]
            regenerated, count = _digest_lines(lines, stop - start)
            if regenerated != out["sha256"]:
                problems.append(f"{out['path']}: regenerated sha256 {regenerated[:12]}.. != manifest {out['sha256'][:12]}..")
            if count != out["count"]:
                problems.append(f"{out['path']}: regenerated {count} records, manifest says {out['count']}")
    return problems


def strip_dataset(in_dir: str, out_dir: str, k_prime: int, seed: int, workers: int = 1) -> Manifest:
    """Apply CoT stripping to a dataset, producing a new derived dataset.

    The output manifest carries the source config plus the appended
    transform, so the result regenerates from scratch without the input
    directory.
    """
    manifest = Manifest.load(in_dir)
    transforms = [*manifest.transforms, {"kind": "strip-cot", "k_prime": k_prime, "seed": seed}]
    return write_dataset(
        out_dir,
        manifest.kind,
        manifest.config,
        transforms=transforms,
        shards=max(1, len(manifest.outputs)),
        workers=workers,
    )
