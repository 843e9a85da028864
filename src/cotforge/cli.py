"""Command-line entry point.

Subcommands: gen-abstract, gen-langsym, strip-cot, eval, eval-langsym,
budget, inspect, verify. Exit codes: 0 success, 2 configuration problem,
3 I/O problem, 4 verification mismatch (argparse usage errors also exit 2).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shlex
import sys
import tempfile
from typing import Callable

from . import __version__
from .errors import BackendError, ConfigError, FormatError
from .harness import (
    FORCE_ANSWER,
    FORCE_THINK,
    NO_FORCING,
    EvalReport,
    ForcingConfig,
    OracleBackend,
    RandomBackend,
    StdioBackend,
    evaluate,
    make_eval_prompt,
)
from .langsym import (
    TextOracleBackend,
    TextStdioBackend,
    evaluate_langsym,
    make_langsym_eval_prompt,
)
from .recipe import Recipe, expected_tokens
from .rng import SEED_BOUND
from .storage import (
    KIND_ABSTRACT,
    KIND_LANGSYM,
    Manifest,
    dataset_paths,
    item_place,
    load_json_object,
    parse_config,
    read_line,
    read_records,
    strip_dataset,
    verify_dataset,
    write_dataset,
)
from .vocab import Vocabulary

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_VERIFY = 4

_STRATEGY_FLAGS = {"think": FORCE_THINK, "answer": FORCE_ANSWER, "none": NO_FORCING}


def _int_in(low: int, high: int | None, bounds: str) -> Callable[[str], int]:
    """An argparse type: an int in [low, high) (no upper end when high is None), else a usage error naming `bounds`."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low or (high is not None and value >= high):
            raise argparse.ArgumentTypeError(f"must be {bounds}, got {value}")
        return value

    parse.__name__ = "int"  # argparse's "invalid int value" message names the type
    return parse


_WORKERS = _int_in(1, None, ">= 1")
_SEED = _int_in(0, SEED_BOUND, "in [0, 2**64)")


def cmd_gen(args: argparse.Namespace) -> int:
    config_json = load_json_object(args.config, "config")
    if args.seed is not None:
        config_json["master_seed"] = args.seed
    if args.t is not None:
        config_json["t"] = args.t
    manifest = write_dataset(args.out, args.kind, config_json, shards=args.shards, workers=args.workers)
    print(f"wrote {manifest.stats['items']} {args.items} to {args.out} ({len(manifest.outputs)} shard(s))")
    return EXIT_OK


def cmd_strip_cot(args: argparse.Namespace) -> int:
    manifest = strip_dataset(args.inp, args.out, args.k_prime, args.seed, workers=args.workers)
    print(f"stripped k'={args.k_prime} into {args.out} ({manifest.stats['items']} items)")
    return EXIT_OK


def _write_report(report: EvalReport, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(report.to_json(), fh, indent=2)
        fh.write("\n")


def _backend_cmd(args: argparse.Namespace) -> list[str]:
    try:
        cmd = shlex.split(args.backend_cmd or "")  # shlex.split(None) would read stdin
    except ValueError as exc:
        raise ConfigError(f"--backend-cmd {args.backend_cmd!r}: {exc}") from exc
    if not cmd:
        raise ConfigError(f"--backend {args.backend} requires a --backend-cmd that names a program")
    return cmd


@contextlib.contextmanager
def _record(source: str, i: int):
    """Re-raise a KeyError, TypeError or ValueError (not ConfigError) as FormatError naming record i."""
    try:
        yield
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{source}: record {i} is malformed ({type(exc).__name__}: {exc})") from exc


def _prompts(records, to_prompt: Callable, source: str):
    """Yield to_prompt of each record as it is read; a malformed record raises FormatError naming it."""
    for i, rec in enumerate(records):
        with _record(source, i):
            prompt = to_prompt(rec)
        yield prompt


def _abstract_eval(config, records, args: argparse.Namespace, forcing: ForcingConfig) -> EvalReport:
    """`eval`: the report of token prompts under a forcing, from the backend `args` names."""
    vocab = Vocabulary(config.vocab_size)
    prompts = _prompts(records, lambda rec: make_eval_prompt(rec, vocab), args.prompts)
    if args.backend == "stdio":
        with StdioBackend(_backend_cmd(args)) as backend:
            return evaluate(backend, prompts, forcing)
    oracle = OracleBackend() if args.backend == "oracle" else RandomBackend(vocab, seed=args.seed or 0)
    return evaluate(oracle, oracle.one_at_a_time(prompts), forcing)


def _langsym_eval(config, records, args: argparse.Namespace, forcing: ForcingConfig) -> EvalReport:
    """`eval-langsym`: the report of chat prompts under a forcing, from the backend `args` names."""
    prompts = _prompts(records, make_langsym_eval_prompt, args.prompts)
    if args.backend == "oracle":
        oracle = TextOracleBackend(config.templates)
        return evaluate_langsym(oracle, oracle.one_at_a_time(prompts), forcing, config.templates)
    with TextStdioBackend(_backend_cmd(args)) as backend:
        return evaluate_langsym(backend, prompts, forcing, config.templates)


def _check_writable(path: str) -> None:
    """OSError unless a file can be created beside `path` (created, then removed) and `path` is no directory."""
    if os.path.isdir(path):
        raise IsADirectoryError(f"--report {path} is a directory")
    directory, name = os.path.split(os.path.abspath(path))
    with tempfile.NamedTemporaryFile(dir=directory, prefix=f".{name}.", suffix=".tmp"):
        pass


def cmd_eval(args: argparse.Namespace) -> int:
    forcing = ForcingConfig(strategy=_STRATEGY_FLAGS[args.strategy], budget=args.budget)
    manifest = Manifest.load(args.prompts)
    if manifest.kind != args.kind:
        raise ConfigError(f"{args.command} expects a {args.kind!r} dataset, found kind {manifest.kind!r}")
    config = parse_config(args.kind, manifest.config)
    _check_writable(args.report)  # before the first backend call, not after the whole eval
    report = args.run(config, read_records(args.prompts), args, forcing)
    _write_report(report, args.report)
    print(f"accuracy {report.accuracy:.4f} over {len(report.records)} prompts -> {args.report}")
    return EXIT_OK


def cmd_budget(args: argparse.Namespace) -> int:
    recipe = Recipe.from_json({"alpha": args.alpha, "a": args.a, "b": args.b})
    report = expected_tokens(recipe, args.n, args.c, args.k, args.t)
    print(json.dumps(report.to_json()))
    print()
    print(report.table())
    return EXIT_OK


def cmd_inspect(args: argparse.Namespace) -> int:
    manifest = Manifest.load(args.inp)
    config = parse_config(manifest.kind, manifest.config)  # a malformed config exits 2 here too
    place = item_place(config, max(1, len(manifest.outputs)), args.index)
    if place is None or place[1] >= len(manifest.outputs):
        raise FormatError(f"no item with index {args.index} in {args.inp}")
    position, s, line = place
    shard = os.path.join(dataset_paths(args.inp)[0], manifest.outputs[s]["path"])
    rec = read_line(shard, line)
    abstract = manifest.kind == KIND_ABSTRACT
    with _record(args.inp, position):
        found = rec["seq_id" if abstract else "prompt_id"]
        meta = rec["meta"]
        shape = f"n={meta['n']} m={meta['m']} c={meta['c']} k={meta['k']} r_cot={meta['r_cot']:.4f}"
        lines = [f"{'sequence' if abstract else 'prompt'} {args.index}  ({shape})"]
        if abstract:
            for pos, (tok, mask) in enumerate(zip(rec["tokens"], rec["loss_mask"])):
                lines.append(f"[{pos:5d}] {tok:6d}  {Vocabulary.token_name(tok)}{' *' if mask else ''}")
        else:
            lines += [row for msg in rec["messages"] for row in (f"--- {msg['role']} ---", msg["content"])]
        text = "\n".join(lines)  # built whole first, so a malformed record prints nothing
    if found != args.index:
        raise FormatError(f"{shard} line {line + 1}: holds item {found!r}, not item {args.index}")
    print(text)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    problems = verify_dataset(args.manifest, sample=args.sample, seed=args.seed or 0, workers=args.workers)
    if problems:
        for p in problems:
            print(f"MISMATCH: {p}", file=sys.stderr)
        return EXIT_VERIFY
    print("verified: all checked shards regenerate bit-exactly")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cotforge", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for kind, what, items in ((KIND_ABSTRACT, "an abstract-token", "sequences"), (KIND_LANGSYM, "a string-symbolic chat", "prompts")):
        p = sub.add_parser(f"gen-{kind}", help=f"generate {what} dataset")
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", required=True, help="output dataset directory")
        p.add_argument("--workers", type=_WORKERS, default=1)
        p.add_argument("--shards", type=int, default=1)
        p.add_argument("--seed", type=_SEED, help="override master_seed")
        p.add_argument("--t", type=int, help="override dataset size")
        p.set_defaults(func=cmd_gen, kind=kind, items=items)

    p = sub.add_parser("strip-cot", help="re-render K' thinking examples as plain ones")
    p.add_argument("--in", dest="inp", required=True, help="input dataset directory")
    p.add_argument("--k-prime", type=int, required=True)
    p.add_argument("--seed", type=_SEED, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=_WORKERS, default=1)
    p.set_defaults(func=cmd_strip_cot)

    p = sub.add_parser("eval", help="evaluate a token backend on abstract prompts")
    p.add_argument("--prompts", required=True, help="dataset directory (all-CoT rendering)")
    p.add_argument("--backend", choices=["oracle", "random", "stdio"], required=True)
    p.add_argument("--backend-cmd", help="command line for the stdio backend")
    p.add_argument("--strategy", choices=list(_STRATEGY_FLAGS), required=True)
    p.add_argument("--budget", type=int, help="max generated tokens (default C+6)")
    p.add_argument("--seed", type=_SEED, help="seed for the random backend")
    p.add_argument("--report", required=True, help="output report JSON path")
    p.set_defaults(func=cmd_eval, kind=KIND_ABSTRACT, run=_abstract_eval)

    p = sub.add_parser("eval-langsym", help="evaluate a text backend on chat prompts")
    p.add_argument("--prompts", required=True)
    p.add_argument("--backend", choices=["oracle", "stdio-text"], required=True)
    p.add_argument("--backend-cmd")
    p.add_argument("--strategy", choices=["think", "answer"], required=True)
    p.add_argument("--budget", type=int, default=1000, help="completion character cap")
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_eval, kind=KIND_LANGSYM, run=_langsym_eval)

    p = sub.add_parser("budget", help="expected example/token counts for a recipe")
    p.add_argument("--alpha", required=True, help='float or "inf"')
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--b", type=float, default=0.0)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.set_defaults(func=cmd_budget)

    p = sub.add_parser("inspect", help="pretty-print one dataset item")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--index", type=int, default=0)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("verify", help="regenerate from a manifest and compare hashes")
    p.add_argument("--manifest", required=True, help="dataset directory or manifest.json")
    p.add_argument("--sample", type=int, help="check only this many shards")
    p.add_argument("--seed", type=_SEED, help="shard sampling seed")
    p.add_argument("--workers", type=_WORKERS, default=1)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FormatError, FileNotFoundError, OSError, BackendError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
