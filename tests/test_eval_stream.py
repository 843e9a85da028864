"""`eval` and `eval-langsym` hold one prompt at a time and check their report path first.

Each record is read, turned into a prompt, evaluated and dropped, so a
backend sees prompt i only once exactly i+1 prompts are built, the peak
memory of an eval does not grow with the dataset, and a malformed record
stops the run at that record with its backend closed.
"""

import json
import os
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from cotforge import cli, harness, langsym
from cotforge.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")

ABSTRACT_CFG = {
    "vocab_size": 64, "dim": 4, "n_choices": [2], "m_choices": [2], "c_choices": [2],
    "k": 4, "t": 6, "recipe": {"alpha": 0.0, "a": 1, "b": 0}, "cache_size": 4, "master_seed": 5,
}
LANGSYM_CFG = {
    "n_choices": [3], "m_choices": [2], "c_choices": [2], "k": 4, "t": 6,
    "recipe": {"alpha": 0.0, "a": 1, "b": 0}, "master_seed": 7, "w": 4,
}
# the reference LangSym config of the benchmark (k=40, n=m=c=4), about 66 KB per prompt
LANGSYM_REF_CFG = {
    "n_choices": [4], "m_choices": [4], "c_choices": [4], "k": 40,
    "recipe": {"alpha": 2.0, "a": 0.5, "b": 0.5}, "master_seed": 1,
}

# Answers every request, noting in the file argv[1] its pid, the end of its
# input and a SIGTERM: a token request with eos, a text request with "".
_BOT = textwrap.dedent(
    """
    import json, os, signal, sys
    def note(what):
        with open(sys.argv[1], "a") as fh:
            fh.write(what + "\\n")
    def on_term(*_):
        note("sigterm")
        sys.exit(0)
    note(f"pid {os.getpid()}")
    signal.signal(signal.SIGTERM, on_term)
    for line in sys.stdin:
        print(json.dumps({"next": 2} if "tokens" in json.loads(line) else {"completion": ""}), flush=True)
    note("eof")
    """
)

# (command, backend, the method a backend call goes through)
BACKENDS = [
    ("eval", "oracle", (harness.OracleBackend, "next_token")),
    ("eval", "random", (harness.OracleBackend, "next_token")),
    ("eval", "stdio", (harness.StdioBackend, "next_token")),
    ("eval-langsym", "oracle", (langsym.TextOracleBackend, "complete")),
    ("eval-langsym", "stdio-text", (langsym.TextStdioBackend, "complete")),
]


def _dataset(tmp_path: Path, command: str) -> str:
    """A fresh all-CoT dataset of six prompts for `command`."""
    kind = "abstract" if command == "eval" else "langsym"
    cfg = tmp_path / f"{kind}.json"
    cfg.write_text(json.dumps(ABSTRACT_CFG if kind == "abstract" else LANGSYM_CFG))
    ds = str(tmp_path / f"{kind}-ds")
    assert main([f"gen-{kind}", "--config", str(cfg), "--out", ds]) == 0
    return ds


def _eval_argv(tmp_path: Path, command: str, backend: str, ds: str, report) -> list[str]:
    argv = [command, "--prompts", ds, "--backend", backend, "--strategy", "think", "--report", str(report)]
    if backend.startswith("stdio"):
        bot = tmp_path / "bot.py"
        bot.write_text(_BOT)
        argv += ["--backend-cmd", shlex.join([sys.executable, str(bot), str(tmp_path / "bot.log")])]
    return argv


def _record_events(monkeypatch, command: str, method) -> list[str]:
    """Log "build" for each prompt the CLI builds and "call" for each backend call."""
    events: list[str] = []
    name = "make_eval_prompt" if command == "eval" else "make_langsym_eval_prompt"
    build = getattr(cli, name)
    owner, attr = method
    call = getattr(owner, attr)

    def built(*args):
        events.append("build")
        return build(*args)

    def called(self, *args):
        events.append("call")
        return call(self, *args)

    monkeypatch.setattr(cli, name, built)
    monkeypatch.setattr(owner, attr, called)
    return events


@pytest.mark.parametrize("command, backend, method", BACKENDS)
def test_backend_call_i_follows_exactly_i_plus_one_built_prompts(tmp_path, capsys, monkeypatch, command, backend, method):
    ds = _dataset(tmp_path, command)
    events = _record_events(monkeypatch, command, method)
    code = main(_eval_argv(tmp_path, command, backend, ds, tmp_path / "rep.json"))
    assert code == 0, capsys.readouterr().err
    runs = [event for i, event in enumerate(events) if i == 0 or events[i - 1] != event]
    assert runs == ["build", "call"] * 6  # every call of prompt i comes after build i and before build i+1


@pytest.mark.parametrize("command, backend, method", BACKENDS)
def test_report_in_a_missing_directory_exits_3_before_any_backend_call(tmp_path, capsys, monkeypatch, command, backend, method):
    ds = _dataset(tmp_path, command)
    events = _record_events(monkeypatch, command, method)
    report = tmp_path / "no such dir" / "rep.json"
    capsys.readouterr()
    code = main(_eval_argv(tmp_path, command, backend, ds, report))
    assert code == 3
    assert str(report.parent) in capsys.readouterr().err
    assert events == [] and not report.parent.exists() and not (tmp_path / "bot.log").exists()


@pytest.mark.parametrize("command", ["eval", "eval-langsym"])
def test_report_path_that_is_a_directory_exits_3(tmp_path, capsys, command):
    ds = _dataset(tmp_path, command)
    capsys.readouterr()
    assert main(_eval_argv(tmp_path, command, "oracle", ds, tmp_path)) == 3
    assert "is a directory" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "eval-langsym"])
def test_report_path_check_leaves_no_file_behind(tmp_path, capsys, command):
    ds = _dataset(tmp_path, command)
    out = tmp_path / "out"
    out.mkdir()
    assert main(_eval_argv(tmp_path, command, "oracle", ds, out / "rep.json")) == 0, capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["rep.json"]


# Runs argv[1:] and prints its exit code and peak RSS in KB. A child's peak
# RSS counts the memory of the process it was spawned from (its pages until
# the exec), so the command is spawned from this small interpreter, not
# from the test process.
_MEASURE = textwrap.dedent(
    """
    import os, subprocess, sys
    proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
    """
)


def _peak_rss_mb(argv: list[str]) -> float:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _MEASURE, sys.executable, "-m", "cotforge", *argv],
                          env=env, capture_output=True, text=True, timeout=300)
    code, peak_kb = map(int, done.stdout.split())
    assert code == 0, done.stderr
    return peak_kb / 1024


def test_eval_langsym_peak_memory_does_not_grow_with_the_dataset(tmp_path):
    peaks = {}
    for t in (50, 800):
        cfg = tmp_path / f"ref-{t}.json"
        cfg.write_text(json.dumps(dict(LANGSYM_REF_CFG, t=t)))
        ds = str(tmp_path / f"ds-{t}")
        assert main(["gen-langsym", "--config", str(cfg), "--out", ds]) == 0
        peaks[t] = _peak_rss_mb(["eval-langsym", "--prompts", ds, "--backend", "oracle", "--strategy", "think",
                                 "--report", str(tmp_path / f"rep-{t}.json")])
    # holding every prompt adds about 66 KB each: some 45 MB more at t=800
    assert abs(peaks[800] - peaks[50]) < 5, peaks


@pytest.mark.parametrize("command, backend, key", [("eval", "stdio", "c"), ("eval-langsym", "stdio-text", "k")])
def test_malformed_record_after_a_good_one_closes_the_stdio_backend(tmp_path, command, backend, key):
    ds = _dataset(tmp_path, command)
    shard = Path(ds, "part-0000.jsonl")
    lines = shard.read_text().splitlines()
    rec = json.loads(lines[1])
    del rec["meta"][key]
    lines[1] = json.dumps(rec)
    shard.write_text("\n".join(lines) + "\n")
    report = tmp_path / "rep.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "cotforge",
                           *_eval_argv(tmp_path, command, backend, ds, report)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 3, done.stderr
    assert f"{ds}: record 1 is malformed (KeyError: '{key}')" in done.stderr
    assert "ResourceWarning" not in done.stderr and not report.exists()
    notes = (tmp_path / "bot.log").read_text().split("\n")
    assert notes[0].startswith("pid ") and ("eof" in notes or "sigterm" in notes), notes  # record 0 reached the bot
    with pytest.raises(ProcessLookupError):
        os.kill(int(notes[0].split()[1]), 0)  # closed and reaped before the command exited
