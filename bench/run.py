"""cotforge benchmark: pipeline throughput of three workloads.

Run from the repository root:

    python3 bench/run.py --workload abstract-ref --seed 1 --seconds 40 --trace 0

Each workload runs its pipeline in rounds until --seconds have passed:

    abstract-ref  gen-abstract -> verify -> strip-cot
    langsym-ref   gen-langsym -> verify -> eval-langsym (force_think)
    eval-stdio    eval (force_think) -> eval (force_answer), stdio bot backend

Every stage is a fresh `python -m cotforge` process (the real CLI) with
nproc workers where the command takes them. verify runs at 1 worker
(per-core regeneration plus hashing); eval with the stdio bot runs pinned to
one CPU (see SubprocessCli). `items_per_s` is the median over rounds of the
round's items (eval-stdio: prompts, each evaluated under both strategies)
per second of wall time of its CLI commands. All stages of a workload share
one rate, so each rate sample spans the whole round: on a shared host the
speed of a CPU drifts over seconds, and a rate timed over a few seconds per
run drifts with it. The per-stage times are in the detail line. Before each
round the workload's first command runs on a one-item input; `setup_s` is
the median of those times. eval-stdio generates and verifies its input
dataset once, before timing.

The workload seed becomes the configs' master seed; cotforge only sees the
generated config files. Every CLI exit code, every dataset and report hash
(against round 0, and at the default seed against bench/golden.json),
every eval record and a one-shard sampled verify of the stripped dataset
are checked; each check is one operation in `attempted`, and each that
fails is one in `failed`.

With --trace 1 the same pipeline, at a quarter of the items, runs in this
process at 1 worker with the layer functions wrapped (bench/layers.py), and
the per-layer metrics (per round) are printed instead. Each round first runs
unwrapped, for the tracing overhead. Spans of the first traced round go to
.bench_work/<run>/spans.jsonl.

The last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}. The line before it holds provenance, the failed-operation share
with its base, per-round samples and any failed checks.

    python3 bench/run.py --pin       # rewrite bench/golden.json at the default seed
    python3 -m pytest bench -q       # the benchmark's own smoke tests
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from bot import canned  # noqa: E402
from layers import BACKENDS, LAYERS, Tracer  # noqa: E402

NPROC = len(os.sched_getaffinity(0))
DEFAULT_SEED = 0
GOLDEN = BENCH / "golden.json"
WORK = Path(".bench_work")
K_PRIME = 4
IMPORT_REPEATS = 3
TRACE_DIVISOR = 4
SMOKE_ITEMS = 6
CMD_TIMEOUT_S = 120
RUN_BUDGET_S = 150  # no new round starts after this, whatever --seconds says

# Delimiter ids, in cotforge.vocab.SPECIAL_ROLES order.
INP_START, INP_END = 3, 4

FLOOR = {"alpha": 2.0, "a": 0.5, "b": 0.5}  # r(j) in [0.5, 1]: every item mixes both renderings
ALL_COT = {"alpha": 0.0, "a": 1.0, "b": 0.0}  # r(j) = 1: every example thinks


@dataclass(frozen=True)
class Workload:
    kind: str  # "abstract" or "langsym"
    recipe: dict
    items: int  # dataset size (prompts, for eval) per round
    backend: str  # "oracle" or "stdio"
    stages: tuple[str, ...]  # timed each round; a stdio workload generates its input before timing


WORKLOADS = {
    "abstract-ref": Workload("abstract", FLOOR, items=800, backend="oracle", stages=("gen", "verify", "strip")),
    "langsym-ref": Workload("langsym", FLOOR, items=400, backend="oracle", stages=("gen", "verify", "eval-think")),
    "eval-stdio": Workload("abstract", ALL_COT, items=400, backend="stdio", stages=("eval-think", "eval-answer")),
}

E2E_UNITS = {
    "setup_s": "s",
    "items_per_s": "items/s",
    "bytes_per_item": "B/item",
    "peak_rss_mb": "MB",
}


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {"cli.import_s": "s"}
    for name in dict.fromkeys(name for name, _, _ in LAYERS):
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(
        {
            "storage.bytes_encoded": "B",
            "harness.backend_calls": "count",
            "harness.backend_calls_per_prompt": "calls/prompt",
            "harness.useful_call_share": "ratio",
            "harness.backend_errors": "count",
            "harness.backend_wait_s": "s",
            "bot.busy_s": "s",
            "harness.backend_ipc_s": "s",
            "trace.overhead_pct": "%",
        }
    )
    return units


# --- checks ------------------------------------------------------------------


class Gate:
    """Counts operations and failed checks; keeps the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{what}: {detail}" if detail else what)
        return ok


def dataset_digest(path: Path) -> tuple[str, int]:
    """sha256 and size of the dataset's shards concatenated in manifest order.

    Shards are contiguous blocks of the output order, so both are the same
    for any shard count.
    """
    digest, size = hashlib.sha256(), 0
    for out in json.loads((path / "manifest.json").read_text())["outputs"]:
        data = (path / out["path"]).read_bytes()
        digest.update(data)
        size += len(data)
    return digest.hexdigest(), size


def read_dataset(path: Path):
    for out in json.loads((path / "manifest.json").read_text())["outputs"]:
        with open(path / out["path"]) as fh:
            for line in fh:
                yield json.loads(line)


def bot_expectations(path: Path) -> dict[int, tuple[list[int], int]]:
    """seq_id -> (query input tokens, chain length) for an abstract dataset."""
    out = {}
    for rec in read_dataset(path):
        tokens = rec["tokens"]
        start = len(tokens) - tokens[::-1].index(INP_START)
        out[rec["seq_id"]] = (tokens[start : tokens.index(INP_END, start)], rec["meta"]["c"])
    return out


def check_report(gate: Gate, what: str, report: dict, pipe: "Pipeline", answer_first: bool) -> int:
    """Check every eval record; returns the backend calls the records account for.

    A text backend answers a prompt in one call; a token backend makes one
    call per generated token after the forced delimiter.
    """
    records = report["records"]
    gate.check(f"{what} record count", len(records) == pipe.items, f"{len(records)} records")
    useful = 0
    for rec in records:
        label = f"{what} prompt {rec['prompt_id']}"
        if rec["error"] is not None:
            gate.check(label, False, rec["error"])
            continue
        if pipe.wl.backend == "stdio":
            want = canned(*pipe.expect[rec["prompt_id"]], answer_first)
            gate.check(label, rec["generated"] == want, f"generated {rec['generated']} != {want}")
        else:
            gate.check(label, rec["indicator"] == 1, "oracle answered wrong")
        useful += 1 if pipe.wl.kind == "langsym" else len(rec["generated"]) - 1
    if pipe.wl.backend == "oracle":
        gate.check(f"{what} accuracy", report["accuracy"] == 1.0, f"oracle accuracy {report['accuracy']}")
    return useful


# --- running the CLI ---------------------------------------------------------


class SubprocessCli:
    """Each command is a fresh `python -m cotforge` process, timed to its exit."""

    def __init__(self, log: Path):
        self.log = log
        self.peak_rss_mb = 0.0
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))

    def __call__(self, argv: list[str]) -> tuple[int, float]:
        with open(self.log, "ab") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "cotforge", *argv],
                stdout=subprocess.DEVNULL,
                stderr=err,
                env=self.env,
                start_new_session=True,
            )
            if "--backend-cmd" in argv:
                # Eval with an external backend runs pinned to one CPU, its bot
                # too. The closed loop of two processes only ever runs one of
                # them at a time, and on one CPU it pays no cross-CPU wake-up,
                # whose latency follows the load of the host, not the code.
                with contextlib.suppress(ProcessLookupError):  # it may have failed already
                    os.sched_setaffinity(proc.pid, {min(os.sched_getaffinity(0))})
            timer = threading.Timer(CMD_TIMEOUT_S, _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: stop the command before leaving
                _kill_group(proc.pid)
                os.waitpid(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            elapsed = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            _kill_group(proc.pid)  # a failed command may leave pool workers or a bot behind
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024)
        return proc.returncode, elapsed


def _kill_group(pid: int) -> None:
    with contextlib.suppress(ProcessLookupError, PermissionError):
        os.killpg(pid, signal.SIGKILL)


class InProcessCli:
    """Commands run through cotforge.cli.main in this process."""

    def __init__(self, log: Path):
        self.log = log
        sys.path.insert(0, str(ROOT / "src"))
        import cotforge.cli

        self.main = cotforge.cli.main

    def __call__(self, argv: list[str]) -> tuple[int, float]:
        sink = io.StringIO()
        started = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                rc = self.main(argv)
            except Exception:  # a crash is a failed operation, not a crashed benchmark
                traceback.print_exc()
                rc = 1
        elapsed = time.perf_counter() - started
        with open(self.log, "a") as fh:
            fh.write(sink.getvalue())
        return rc, elapsed


# --- one workload run --------------------------------------------------------


def write_config(path: Path, kind: str, recipe: dict, t: int, seed: int) -> Path:
    cfg = {"n_choices": [4], "m_choices": [4], "c_choices": [4], "k": 40, "t": t, "recipe": recipe, "master_seed": seed}
    if kind == "abstract":
        cfg.update(vocab_size=1024, dim=10, cache_size=64)
    path.write_text(json.dumps(cfg))
    return path


class Pipeline:
    """The commands of one workload, with the paths they read and write."""

    def __init__(self, wl: Workload, items: int, seed: int, work: Path, workers: int):
        self.wl, self.items, self.seed, self.work, self.workers = wl, items, seed, work, workers
        self.config = write_config(work / "config.json", wl.kind, wl.recipe, items, seed)
        self.data = work / "data"
        self.stripped = work / "stripped"
        self.expect: dict | None = None  # stdio: seq_id -> (query inputs, chain length)
        self.dataset_bytes = 0  # size of the dataset at `data`

    def gen(self, out: Path, config: Path | None = None, t: int | None = None) -> list[str]:
        argv = [f"gen-{self.wl.kind}", "--config", str(config or self.config), "--out", str(out)]
        argv += ["--workers", str(self.workers), "--shards", "1" if t == 1 else str(2 * self.workers)]
        return argv + (["--t", str(t)] if t else [])

    def verify(self, path: Path, sample: bool = False) -> list[str]:
        return ["verify", "--manifest", str(path), "--workers", "1"] + (["--sample", "1"] if sample else [])

    def strip(self) -> list[str]:
        return ["strip-cot", "--in", str(self.data), "--k-prime", str(K_PRIME), "--seed", str(self.seed + 1),
                "--out", str(self.stripped), "--workers", str(self.workers)]

    def eval(self, prompts: Path, strategy: str, report: Path, bot_stats: Path) -> list[str]:
        if self.wl.kind == "langsym":
            return ["eval-langsym", "--prompts", str(prompts), "--backend", "oracle", "--strategy", strategy,
                    "--report", str(report)]
        argv = ["eval", "--prompts", str(prompts), "--backend", self.wl.backend, "--strategy", strategy,
                "--report", str(report)]
        if self.wl.backend == "stdio":
            argv += ["--backend-cmd", f"{sys.executable} bench/bot.py --stats {bot_stats}"]
        return argv


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    return path


@dataclass
class Round:
    seconds: dict = field(default_factory=dict)  # stage -> wall seconds
    hashes: dict = field(default_factory=dict)  # dataset or report -> sha256
    bot_busy_s: float = 0.0
    prompts: int = 0
    useful_calls: int = 0  # backend calls whose reply the eval records keep

    def total_s(self) -> float:
        return sum(self.seconds.values())


def run_round(pipe: Pipeline, cli, gate: Gate, r: int) -> Round:
    """One pass of the workload's stages, every output checked."""
    out = Round()

    def stage(name: str, argv: list[str]) -> bool:
        rc, out.seconds[name] = cli(argv)
        return gate.check(f"round {r} {name} exit", rc == 0, f"rc={rc}")

    stages = pipe.wl.stages
    if "gen" in stages and stage("gen", pipe.gen(fresh(pipe.data))):
        out.hashes["gen"], pipe.dataset_bytes = dataset_digest(pipe.data)
    if "verify" in stages:
        stage("verify", pipe.verify(pipe.data))
    if "strip" in stages:
        fresh(pipe.stripped)
        if stage("strip", pipe.strip()):
            out.hashes["strip"], _ = dataset_digest(pipe.stripped)
    for strategy in ("think", "answer"):
        name = f"eval-{strategy}"
        if name not in stages:
            continue
        report = pipe.work / f"report-{strategy}.json"
        stats = pipe.work / f"bot-{strategy}.json"
        report.unlink(missing_ok=True)
        stats.unlink(missing_ok=True)
        if not stage(name, pipe.eval(pipe.data, strategy, report, stats)):
            continue
        out.hashes[name] = hashlib.sha256(report.read_bytes()).hexdigest()
        useful = check_report(gate, f"round {r} {name}", json.loads(report.read_text()), pipe, strategy == "answer")
        out.prompts += pipe.items
        out.useful_calls += useful
        if pipe.wl.backend == "stdio" and gate.check(f"round {r} {name} bot stats", stats.exists(), "bot wrote no stats"):
            bot = json.loads(stats.read_text())
            out.bot_busy_s += bot["busy_s"]
            gate.check(f"round {r} {name} bot calls", bot["calls"] == useful, f"{bot['calls']} calls for {useful} tokens")
    return out


def prepare(pipe: Pipeline, cli, gate: Gate) -> dict:
    """Untimed input of a workload that does not generate in its rounds; returns its hashes."""
    hashes = {}
    if "gen" not in pipe.wl.stages:
        rc, _ = cli(pipe.gen(fresh(pipe.data)))
        if gate.check("prepare input exit", rc == 0, f"rc={rc}"):
            rc, _ = cli(pipe.verify(pipe.data))
            gate.check("prepare input verify exit", rc == 0, f"rc={rc}")
            hashes["gen"], pipe.dataset_bytes = dataset_digest(pipe.data)
            if pipe.wl.backend == "stdio":
                pipe.expect = bot_expectations(pipe.data)
    return hashes


def golden_key(workload: str, items: int) -> str:
    return f"{workload}/{items}"


def setup_command(pipe: Pipeline, cli, gate: Gate):
    """The workload's first command on a one-item input, and how to reset it."""
    one = pipe.work / "one-item"
    if "gen" in pipe.wl.stages:
        return pipe.gen(one, t=1), lambda: fresh(one)
    rc, _ = cli(pipe.gen(fresh(one), t=1))
    gate.check("setup input exit", rc == 0, f"rc={rc}")
    return pipe.eval(one, "think", pipe.work / "one-report.json", pipe.work / "one-bot.json"), lambda: None


def run_rounds(pipe: Pipeline, cli, gate: Gate, seconds: float, one_round) -> list[Round]:
    """Rounds, at least one, each checked against round 0.

    No round starts that would, at the length of the last one, end after
    `seconds`, so a run measures about `seconds` and no more.
    """
    rounds: list[Round] = []
    started = time.perf_counter()
    last = 0.0
    while not rounds or time.perf_counter() - started + last < min(seconds, RUN_BUDGET_S):
        r = len(rounds)
        begun = time.perf_counter()
        rnd = one_round(r)
        last = time.perf_counter() - begun
        if r == 0:
            if "strip" in pipe.wl.stages:
                rc, _ = cli(pipe.verify(pipe.stripped, sample=True))
                gate.check("sampled verify of stripped dataset exit", rc == 0, f"rc={rc}")
        else:
            gate.check(f"round {r} hashes equal round 0", rnd.hashes == rounds[0].hashes, f"{rnd.hashes} != {rounds[0].hashes}")
        rounds.append(rnd)
    return rounds


def run_untraced(name: str, wl: Workload, items: int, seed: int, seconds: float, work: Path, gate: Gate, golden: dict):
    cli = SubprocessCli(work / "cli.log")
    cli(["--version"])  # byte-compile once, so every timed command starts alike
    pipe = Pipeline(wl, items, seed, work, workers=NPROC)
    input_hashes = prepare(pipe, cli, gate)
    setup_argv, reset = setup_command(pipe, cli, gate)
    setup: list[float] = []

    def one_round(r: int) -> Round:
        # set-up samples are spread over the run like the rate samples
        reset()
        rc, elapsed = cli(setup_argv)
        if gate.check(f"round {r} setup exit", rc == 0, f"rc={rc}"):
            setup.append(elapsed)
        return run_round(pipe, cli, gate, r)

    rounds = run_rounds(pipe, cli, gate, seconds, one_round)
    hashes = {**input_hashes, **rounds[0].hashes}
    check_golden(gate, golden, golden_key(name, items), seed, hashes)
    # a round whose stage failed has no rate
    whole = [rnd for rnd in rounds if len(rnd.seconds) == len(wl.stages)]
    stage_s = {stage: [rnd.seconds[stage] for rnd in rounds if stage in rnd.seconds] for stage in wl.stages}
    metrics = {
        "setup_s": statistics.median(setup) if setup else 0.0,
        "items_per_s": statistics.median(items / rnd.total_s() for rnd in whole) if whole else 0.0,
        "bytes_per_item": pipe.dataset_bytes / items,
        "peak_rss_mb": cli.peak_rss_mb,
    }
    detail = {
        "rounds": len(rounds),
        "items": items,
        "setup_s": setup,
        "stage_s": stage_s,
        "stage_items_per_s": {stage: statistics.median(items / s for s in v) for stage, v in stage_s.items() if v},
        "hashes": hashes,
    }
    return metrics, detail


def check_golden(gate: Gate, golden: dict, key: str, seed: int, hashes: dict) -> None:
    if seed != golden.get("seed") or key not in golden.get("hashes", {}):
        return
    pinned = golden["hashes"][key]
    for what, value in pinned.items():
        gate.check(
            f"pinned sha256 {key} {what}",
            hashes.get(what) == value,
            f"{hashes.get(what)} != {value} (pinned with numpy {golden.get('numpy')}, running numpy {numpy_version()})",
        )


def import_seconds(gate: Gate) -> float:
    """Median wall time of `import cotforge.cli` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import cotforge.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH="src")
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        if gate.check("fresh import exit", proc.returncode == 0, proc.stderr[-200:]):
            times.append(float(proc.stdout))
    return statistics.median(times) if times else 0.0


def run_traced(name: str, wl: Workload, items: int, seed: int, seconds: float, work: Path, gate: Gate, golden: dict):
    metrics = {"cli.import_s": import_seconds(gate)}
    cli = InProcessCli(work / "cli.log")
    pipe = Pipeline(wl, items, seed, work, workers=1)
    input_hashes = prepare(pipe, cli, gate)
    tracer = Tracer()
    totals: dict[str, dict[str, float]] = {}
    plain: list[float] = []
    bytes_encoded = backend_errors = 0
    splits: dict = {}
    started = time.perf_counter()

    def one_round(r: int) -> Round:
        nonlocal bytes_encoded, backend_errors, splits
        plain.append(run_round(pipe, cli, gate, r).total_s())  # untraced, for the overhead
        tracer.reset()
        tracer.install()
        try:
            rnd = run_round(pipe, cli, gate, r)
        finally:
            tracer.uninstall()
        if r == 0:
            write_spans(tracer, work / "spans.jsonl", started)
            splits = {scope: tracer.split(scope) for scope in ("sequences.generate_sequence", "langsym.generate_langsym_prompt")}
        for layer, row in tracer.summary().items():
            acc = totals.setdefault(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += row[key]
        bytes_encoded += tracer.bytes_encoded
        backend_errors += sum(tracer.errors.get(b, 0) for b in BACKENDS)
        return rnd

    rounds = run_rounds(pipe, cli, gate, seconds, one_round)
    hashes = {**input_hashes, **rounds[0].hashes}
    check_golden(gate, golden, golden_key(name, items), seed, hashes)
    traced = [rnd.total_s() for rnd in rounds]

    n = len(rounds)

    def per_round(layer: str, key: str) -> float:
        return totals.get(layer, {}).get(key, 0.0) / n

    def rate(layer: str) -> float:
        busy = per_round(layer, "total_s")
        return per_round(layer, "calls") / busy if busy else 0.0

    for layer in dict.fromkeys(layer for layer, _, _ in LAYERS):
        metrics[f"{layer}.calls"] = per_round(layer, "calls")
        metrics[f"{layer}.self_s"] = per_round(layer, "self_s")
    calls = sum(per_round(b, "calls") for b in BACKENDS)
    prompts = sum(rnd.prompts for rnd in rounds) / n
    useful = sum(rnd.useful_calls for rnd in rounds) / n
    bot_busy = sum(rnd.bot_busy_s for rnd in rounds) / n
    metrics.update(
        {
            "storage.bytes_encoded": bytes_encoded / n,
            "harness.backend_calls": calls,
            "harness.backend_calls_per_prompt": calls / prompts if prompts else 0.0,
            "harness.useful_call_share": useful / calls if calls else 0.0,
            "harness.backend_errors": backend_errors / n,
            "harness.backend_wait_s": sum(per_round(b, "total_s") for b in BACKENDS),
            "bot.busy_s": bot_busy,
            "harness.backend_ipc_s": per_round("harness.StdioBackend.next_token", "total_s") - bot_busy,
            "trace.overhead_pct": 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0),
        }
    )
    detail = {
        "rounds": n,
        "items": items,
        "absent": tracer.absent,
        "hashes": hashes,
        "time_split": splits,
        "traced_rates_per_s": {
            "generate_sequence": rate("sequences.generate_sequence"),
            "generate_langsym_prompt": rate("langsym.generate_langsym_prompt"),
            "encode_record": rate("storage.encode_record"),
            "stdio_calls": rate("harness.StdioBackend.next_token"),
        },
        "round_s": {"untraced": plain, "traced": traced},
    }
    return metrics, detail


def write_spans(tracer: Tracer, path: Path, origin: float) -> None:
    with open(path, "w") as fh:
        for name, start, end, parent, item in tracer.spans:
            span = {"name": name, "start": round(start - origin, 7), "end": round(end - origin, 7),
                    "parent": parent, "item": item}
            fh.write(json.dumps(span, separators=(",", ":")) + "\n")


# --- provenance and entry point ------------------------------------------------


def numpy_version() -> str:
    from importlib.metadata import PackageNotFoundError, version

    try:
        return version("numpy")
    except PackageNotFoundError:
        return "absent"


def provenance(workload: str, seed: int, trace: int) -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = ""
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10).stdout.strip()
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": NPROC,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version(),
        "commit": commit or "unknown (not a git checkout)",
    }


def run(workload: str, seed: int, seconds: float, trace: int, smoke: bool, golden: dict) -> dict:
    """Run one workload; returns the result line plus its detail."""
    wl = WORKLOADS[workload]
    items = SMOKE_ITEMS if smoke else wl.items // (TRACE_DIVISOR if trace else 1)
    work = WORK / f"{workload}-seed{seed}-trace{trace}{'-smoke' if smoke else ''}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    gate = Gate()
    runner = run_traced if trace else run_untraced
    try:
        metrics, detail = runner(workload, wl, items, seed, seconds, work, gate, golden)
    finally:
        for sub in work.iterdir():
            if sub.is_dir():
                shutil.rmtree(sub)
    units = layer_metric_units() if trace else E2E_UNITS
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    detail.update(
        provenance=provenance(workload, seed, trace),
        failed_op_share={"value": gate.failed / gate.attempted, "failed": gate.failed, "attempted": gate.attempted},
        problems=gate.problems,
    )
    (work / "result.json").write_text(json.dumps({"result": result, "detail": detail}, indent=1))
    return {"result": result, "detail": detail}


def pin() -> None:
    """Record dataset and report hashes at the default seed for every size."""
    hashes = {}
    for name, wl in WORKLOADS.items():
        for items, trace in ((wl.items, 0), (wl.items // TRACE_DIVISOR, 1), (SMOKE_ITEMS, 0)):
            out = run(name, DEFAULT_SEED, 0, trace, items == SMOKE_ITEMS, {})
            if not out["result"]["correct"]:
                raise SystemExit(f"{name}/{items}: checks failed, not pinning: {out['detail']['problems']}")
            hashes[golden_key(name, items)] = out["detail"]["hashes"]
    GOLDEN.write_text(json.dumps({"seed": DEFAULT_SEED, "numpy": numpy_version(), "hashes": hashes}, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="cotforge benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help=f"{SMOKE_ITEMS} items per dataset, for the bench's tests")
    parser.add_argument("--pin", action="store_true", help="rewrite bench/golden.json at the default seed")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))  # unwind, stopping children
    os.chdir(ROOT)
    if not (ROOT / "src" / "cotforge" / "cli.py").is_file():
        print(f"no cotforge sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.pin:
        pin()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    out = run(args.workload, args.seed, args.seconds, args.trace, args.smoke, golden)
    print(json.dumps(out["detail"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
