"""Dataset files, manifests, and bit-exact regeneration.

A dataset directory holds JSON-lines shards (part-0000.jsonl, ...) plus a
manifest.json recording the full generation config, any transforms applied
on top of it (currently CoT stripping), per-shard sha256 hashes and record
counts, and the tool version. The manifest alone is sufficient to
regenerate every byte, which is what `verify` checks.

Record serialization is pinned: compact separators, ASCII escapes, and
field order fixed by construction, so hashes are stable across runs,
platforms, and worker counts. Generation parallelizes over item indices;
shard s holds the contiguous block [s*ceil(T/S), ...) of output positions.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from . import __version__
from .errors import ConfigError
from .harness import strip_sequence_record
from .langsym import ChatPrompt, LangSymConfig, generate_langsym_prompt, strip_chat_prompt
from .recipe import TaskConfig
from .rng import choose_distinct, derive_seed, make_rng
from .sequences import DatasetConfig, build_artifacts, generate_sequence

KIND_ABSTRACT = "abstract"
KIND_LANGSYM = "langsym"


class Kind(NamedTuple):
    """What storage needs to know about one dataset kind.

    `setup(config)` builds the per-process artifacts; `generate(config,
    artifacts, j)` returns record j; `strip(record, k_prime, rng, config,
    artifacts)` re-renders k_prime of its thinking examples plain.
    """

    config: type[TaskConfig]
    setup: Callable
    generate: Callable
    strip: Callable


# The lambdas look their functions up when called, so a caller that
# replaces a module-level function (a tracer, a test) reaches this path too.
KINDS = {
    KIND_ABSTRACT: Kind(
        DatasetConfig,
        setup=lambda config: build_artifacts(config),
        generate=lambda config, arts, j: generate_sequence(config, j, *arts).to_record(),
        strip=lambda record, k_prime, rng, config, arts: strip_sequence_record(record, k_prime, rng, arts[0]),
    ),
    KIND_LANGSYM: Kind(
        LangSymConfig,
        setup=lambda config: None,
        generate=lambda config, arts, j: generate_langsym_prompt(config, j).to_record(),
        strip=lambda record, k_prime, rng, config, arts: strip_chat_prompt(
            ChatPrompt.from_record(record), k_prime, rng, config.templates
        ).to_record(),
    ),
}


def parse_config(kind: str, config_json: dict) -> TaskConfig:
    """Config of a `kind` dataset; ConfigError for an unknown kind or a bad config."""
    if kind not in KINDS:
        raise ConfigError(f"unknown dataset kind {kind!r}")
    return KINDS[kind].config.from_json(config_json)


MANIFEST_NAME = "manifest.json"


def encode_record(record: dict) -> bytes:
    return (json.dumps(record, separators=(",", ":"), ensure_ascii=True) + "\n").encode("utf-8")


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclass
class Manifest:
    kind: str
    config: dict
    outputs: list[dict]
    transforms: list[dict] = field(default_factory=list)
    tool_version: str = __version__
    stats: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "tool_version": self.tool_version,
            "kind": self.kind,
            "config": self.config,
            "transforms": self.transforms,
            "outputs": self.outputs,
            "stats": self.stats,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Manifest":
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
        if os.path.isdir(path):
            path = os.path.join(path, MANIFEST_NAME)
        with open(path) as fh:
            try:
                return cls.from_json(json.load(fh))
            except (ValueError, KeyError, TypeError) as exc:
                raise ConfigError(f"{path}: malformed manifest ({exc!r})") from exc


def shard_ranges(total: int, shards: int) -> list[tuple[int, int]]:
    """Contiguous [start, stop) output-position blocks, one per shard."""
    if shards < 1:
        raise ConfigError(f"shards must be >= 1, got {shards}")
    per = math.ceil(total / shards)
    return [(s * per, min((s + 1) * per, total)) for s in range(shards) if s * per < total]


# Per-worker state, built once per process from the pickled manifest payload.
_WORKER = {}


def _init_worker(kind: str, config_json: dict, transforms: list[dict]) -> None:
    config = parse_config(kind, config_json)
    spec = KINDS[kind]
    _WORKER.clear()
    _WORKER.update(spec=spec, config=config, artifacts=spec.setup(config), transforms=transforms)


def _gen_line(j: int) -> bytes:
    spec, config, arts = _WORKER["spec"], _WORKER["config"], _WORKER["artifacts"]
    record = spec.generate(config, arts, j)
    for tf in _WORKER["transforms"]:
        if tf["kind"] != "strip-cot":
            raise ConfigError(f"unknown transform kind {tf['kind']!r}")
        rng = make_rng(derive_seed(tf["seed"], j))
        record = spec.strip(record, tf["k_prime"], rng, config, arts)
    return encode_record(record)


def _emit_lines(kind: str, config_json: dict, transforms: list[dict], indices: list[int], workers: int):
    """Record bytes for `indices`, in order, with optional process parallelism."""
    if workers <= 1:
        _init_worker(kind, config_json, transforms)
        for j in indices:
            yield _gen_line(j)
        return
    chunk = max(1, len(indices) // (workers * 8))
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(kind, config_json, transforms)
    ) as pool:
        yield from pool.map(_gen_line, indices, chunksize=chunk)


def write_dataset(
    out_dir: str,
    kind: str,
    config_json: dict,
    transforms: list[dict] | None = None,
    shards: int = 1,
    workers: int = 1,
) -> Manifest:
    """Generate a full dataset into `out_dir` and write its manifest."""
    transforms = transforms or []
    order = parse_config(kind, config_json).output_order()
    os.makedirs(out_dir, exist_ok=True)
    started = time.monotonic()
    outputs = []
    for s, (start, stop) in enumerate(shard_ranges(len(order), shards)):
        path = os.path.join(out_dir, f"part-{s:04d}.jsonl")
        digest = hashlib.sha256()
        count = 0
        with open(path, "wb") as fh:
            for line in _emit_lines(kind, config_json, transforms, order[start:stop], workers):
                fh.write(line)
                digest.update(line)
                count += 1
        outputs.append({"path": os.path.basename(path), "sha256": digest.hexdigest(), "count": count})
    manifest = Manifest(
        kind=kind,
        config=config_json,
        transforms=transforms,
        outputs=outputs,
        stats={"items": len(order), "wall_seconds": round(time.monotonic() - started, 3)},
    )
    manifest.save(out_dir)
    return manifest


def read_records(dataset_dir: str):
    """Iterate records of every shard listed in the dataset's manifest."""
    manifest = Manifest.load(dataset_dir)
    for out in manifest.outputs:
        path = os.path.join(dataset_dir, out["path"])
        with open(path, "rb") as fh:
            for line in fh:
                if line.strip():
                    yield json.loads(line)


def verify_dataset(dataset_dir: str, sample: int | None = None, seed: int = 0, workers: int = 1) -> list[str]:
    """Regenerate shards from the manifest and compare hashes and counts.

    Returns a list of mismatch descriptions (empty means verified). A
    `sample` limits the check to that many randomly chosen shards.
    """
    manifest = Manifest.load(dataset_dir)
    order = parse_config(manifest.kind, manifest.config).output_order()
    ranges = shard_ranges(len(order), max(1, len(manifest.outputs)))
    if len(ranges) != len(manifest.outputs):
        return [f"manifest lists {len(manifest.outputs)} shards but config implies {len(ranges)}"]
    indices = list(range(len(manifest.outputs)))
    if sample is not None and sample < len(indices):
        rng = make_rng(seed)
        indices = sorted(choose_distinct(rng, len(indices), sample))
    problems = []
    for s in indices:
        out = manifest.outputs[s]
        path = os.path.join(dataset_dir, out["path"])
        if not os.path.exists(path):
            raise FileNotFoundError(path)
        actual = sha256_file(path)
        if actual != out["sha256"]:
            problems.append(f"{out['path']}: on-disk sha256 {actual[:12]}.. != manifest {out['sha256'][:12]}..")
        start, stop = ranges[s]
        digest = hashlib.sha256()
        count = 0
        for line in _emit_lines(manifest.kind, manifest.config, manifest.transforms, order[start:stop], workers):
            digest.update(line)
            count += 1
        if digest.hexdigest() != out["sha256"]:
            problems.append(f"{out['path']}: regenerated sha256 {digest.hexdigest()[:12]}.. != manifest {out['sha256'][:12]}..")
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
