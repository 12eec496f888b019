"""The process entry, ``cli.run``: ``python -m labelsmith`` and the console
script run every command through it. With the cyclic collector off it
calls ``main``, flushes stdout and stderr, and ends the process without
the interpreter's teardown, unless a tracer or profiler is installed."""

import gc
import hashlib
import json
import os
import pstats
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from helpers import planted_confusion_votes

from labelsmith.cli import main
from labelsmith.data import ABSTAIN, save_votes, serialize_records
from labelsmith.synth import make_spam_corpus

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures"


def _console_script() -> list[str]:
    """What the console script pyproject.toml declares runs: its
    function, called as setuptools' generated script calls it."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    module, func = re.search(r'^labelsmith = "([\w.]+):(\w+)"$', text, re.M).groups()
    return [sys.executable, "-c", f"import sys; from {module} import {func}; sys.exit({func}())"]


ENTRIES = {"python-m": [sys.executable, "-m", "labelsmith"], "console-script": _console_script()}


def _env(buffered: bool = True) -> dict:
    """This checkout's ``src`` first on PYTHONPATH; stdout block-buffered
    on a pipe, as in a shell, unless ``buffered`` is False."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _corpus(path: Path, n: int) -> Path:
    records, _ = make_spam_corpus(n, seed=7)
    serialize_records(records, path)
    return path


def _walkthrough(corpus: Path, runs: Path) -> list[list[str]]:
    """The README walkthrough's seven commands, smaller."""
    return [
        ["generate", "--task", "sms", "--mock", str(FIXTURES / "mock" / "ok_program.json"), "--n", "4",
         "--out", f"{runs}/gen"],
        ["apply", "--programs", str(FIXTURES / "spam_programs"), "--task", "sms", "--data", str(corpus),
         "--out", f"{runs}/votes"],
        ["analyze", "--votes", f"{runs}/votes/votes.json", "--out", f"{runs}/analysis"],
        ["aggregate", "--votes", f"{runs}/votes/votes.json", "--model", "ds", "--out", f"{runs}/agg"],
        ["export", "--pseudolabels", f"{runs}/agg/pseudolabels.jsonl", "--task", "sms", "--data", str(corpus),
         "--out", f"{runs}/export"],
        ["train", "--train-file", f"{runs}/export/train.jsonl", "--task", "sms", "--epochs", "2",
         "--dims", "128", "--out", f"{runs}/train"],
        ["eval", "--model", f"{runs}/train/model.json", "--data", str(corpus), "--out", f"{runs}/eval"],
    ]


def _outputs(runs: Path) -> dict:
    return {str(p.relative_to(runs)): p.read_bytes() for p in sorted(runs.rglob("*"))
            if p.is_file() and p.name != "run_manifest.json"}


@pytest.fixture(scope="module")
def votes(tmp_path_factory) -> Path:
    matrix, _ = planted_confusion_votes(200, 4, 2, diag=0.85, seed=1)
    return save_votes(tmp_path_factory.mktemp("votes") / "votes.json", matrix)


@pytest.mark.parametrize("entry", ENTRIES)
def test_walkthrough_prints_and_writes_what_main_does(entry, tmp_path, monkeypatch, capsys):
    corpus = _corpus(tmp_path / "corpus.jsonl", 200)
    monkeypatch.chdir(tmp_path)
    for argv, in_process in zip(_walkthrough(corpus, Path("runs")), _walkthrough(corpus, Path("runs-main"))):
        done = subprocess.run([*ENTRIES[entry], *argv], capture_output=True, text=True, env=_env())
        code = main(in_process)
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert done.returncode == code, done.stderr
        assert done.stdout == captured.out.replace("runs-main/", "runs/")
        assert done.stderr == captured.err
    assert _outputs(tmp_path / "runs") == _outputs(tmp_path / "runs-main")


@pytest.mark.parametrize("entry", ENTRIES)
def test_exit_codes(entry, votes, tmp_path):
    def run(*argv):
        return subprocess.run([*ENTRIES[entry], *argv], capture_output=True, text=True, env=_env())

    done = run("analyze", "--votes", str(tmp_path / "missing.json"), "--out", str(tmp_path / "a"))
    assert done.returncode == 1
    assert re.fullmatch(r"error: [^\n]*missing\.json[^\n]*\n", done.stderr), done.stderr
    assert not (tmp_path / "a").exists()

    matrix, _ = planted_confusion_votes(200, 4, 2, diag=0.85, seed=1)
    low = matrix.votes.copy()
    low[1:, 3] = ABSTAIN  # p3 votes on 1 record in 200, below the 10% threshold
    flagged = save_votes(tmp_path / "flagged.json", replace(matrix, votes=low))
    done = run("analyze", "--votes", str(flagged), "--out", str(tmp_path / "b"))
    assert done.returncode == 2
    assert done.stderr == "flagged 1 program(s) below 10% coverage: p3\n"
    assert "p3" in done.stdout

    done = run("--help")
    assert done.returncode == 0
    assert done.stdout.startswith("usage: labelsmith")
    done = run("analyze")  # a usage error
    assert done.returncode == 2
    assert "the following arguments are required: --votes, --out" in done.stderr


@pytest.mark.parametrize("entry", ENTRIES)
def test_closed_stdout_descriptor(entry, votes, tmp_path):
    # with file descriptor 1 closed, sys.stdout is None: the report goes
    # nowhere and the run succeeds, as print does with no stdout
    out = tmp_path / "analysis"
    done = subprocess.run(
        [*ENTRIES[entry], "analyze", "--votes", str(votes), "--out", str(out)],
        stderr=subprocess.PIPE, text=True, env=_env(), preexec_fn=lambda: os.close(1),
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))["outputs"] == {
        "analysis.json": _sha256(out / "analysis.json")
    }


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("entry", ENTRIES)
def test_reader_gone_before_the_report(entry, buffered, votes, tmp_path):
    """A stdout pipe whose reader is gone fails the report's print
    (unbuffered) or the entry's flush (buffered): either way one error
    line, exit 1, and the outputs listed in the manifest."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    out = tmp_path / "analysis"
    try:
        done = subprocess.run(
            [*ENTRIES[entry], "analyze", "--votes", str(votes), "--out", str(out)],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=_env(buffered),
        )
    finally:
        os.close(write_end)
    assert done.returncode == 1, done.stderr
    assert re.fullmatch(r"error: \[Errno \d+\] [^\n]+\n", done.stderr), done.stderr
    assert json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))["outputs"] == {
        "analysis.json": _sha256(out / "analysis.json")
    }


def test_profiled_run_writes_its_profile(votes, tmp_path):
    profile = tmp_path / "p.out"
    done = subprocess.run(
        [sys.executable, "-m", "cProfile", "-o", str(profile), "-m", "labelsmith",
         "analyze", "--votes", str(votes), "--out", str(tmp_path / "analysis")],
        capture_output=True, text=True, env=_env(),
    )
    assert done.returncode == 0, done.stderr
    assert pstats.Stats(str(profile)).total_calls > 0


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_teardown_runs_only_under_a_tracer(traced):
    # an atexit handler runs in the interpreter's teardown, which
    # os._exit skips
    script = (
        "import atexit, gc, sys\n"
        "from labelsmith.cli import run\n"
        "atexit.register(lambda: print('teardown, collector', 'on' if gc.isenabled() else 'off'))\n"
        + ("sys.settrace(lambda *args: None)\n" if traced else "")
        + "run()\n"
    )
    done = subprocess.run([sys.executable, "-c", script, "--help"], capture_output=True, text=True, env=_env())
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: labelsmith")
    if traced:
        assert done.stdout.endswith("teardown, collector off\n")
    else:
        assert "teardown" not in done.stdout


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_main_leaves_the_collector_as_it_found_it(enabled, votes, tmp_path, capsys):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(["analyze", "--votes", str(votes), "--out", str(tmp_path / "analysis")]) == 0
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


# gc.collect() after a command finds the argument parser it built (310
# objects) and at most 165 more (generate); none hold input data
GARBAGE_BOUND = 600
GARBAGE_SLACK = 20


def _garbage_per_command(steps, capsys) -> list[int]:
    """Runs each command of ``steps`` with the collector off, as ``run``
    does; the unreachable objects ``gc.collect()`` finds after each."""
    found = []
    for argv in steps:
        gc.collect()
        gc.disable()
        try:
            code = main(argv)
            found.append(gc.collect())
        finally:
            gc.enable()
        assert code == 0, capsys.readouterr().err
    capsys.readouterr()
    return found


def test_cyclic_garbage_does_not_grow_with_the_input(tmp_path, capsys):
    """The guarantee that lets ``run`` turn the collector off: what a
    command leaves for it is bounded and the same at 4x the records."""

    def walkthrough(n):
        runs = tmp_path / f"n{n}"
        return _walkthrough(_corpus(tmp_path / f"corpus{n}.jsonl", n), runs)

    def aggregate(n, model):
        matrix, _ = planted_confusion_votes(n, 5, 3, diag=0.8, seed=2, abstain=0.3)
        votes = save_votes(tmp_path / f"votes{n}.json", matrix)
        return ["aggregate", "--votes", str(votes), "--model", model, "--out", str(tmp_path / f"agg{n}{model}")]

    # the first run of each command imports the modules it loads lazily
    _garbage_per_command(walkthrough(50) + [aggregate(200, "snorkel-lite")], capsys)
    small = walkthrough(300) + [aggregate(2000, "ds"), aggregate(2000, "snorkel-lite")]
    large = walkthrough(1200) + [aggregate(8000, "ds"), aggregate(8000, "snorkel-lite")]
    found = zip(_garbage_per_command(small, capsys), _garbage_per_command(large, capsys))
    for argv, (at_n, at_4n) in zip(small, found, strict=True):
        assert at_n <= GARBAGE_BOUND and at_4n <= GARBAGE_BOUND, (argv[:2], at_n, at_4n)
        assert at_4n <= at_n + GARBAGE_SLACK, (argv[:2], at_n, at_4n)
