"""labelsmith benchmark: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload sms-walkthrough --seed 1 --seconds 40 --trace 0

Run from anywhere inside a checkout; the package is imported from its
``src/`` directory, nothing needs installing. The run generates its inputs
from the seed under ``perfbench/.work/<workload>/``, then repeats the
workload's command chain until ``--seconds`` would be exceeded (at least
once) and checks every pipeline's outputs against independent references.
Metric names and units come from BENCHMARK.json.

--trace 0  each command runs as its own ``python -m labelsmith`` process,
           timed and sized from that child's rusage; before each command
           the inputs are generated again for setup_s. Prints the
           end-to-end metrics.
--trace 1  prints the per-layer metrics: fresh-process import time, one
           untraced per-process chain for per-command time and peak RSS,
           one warm-up chain in this process through ``labelsmith.cli.main``,
           then untraced and traced in-process chains in turn, the traced
           ones with spans around each module's public functions (see
           tracing.py). Spans go to spans.json.

The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; ``attempted`` counts
commands run and ``failed`` those that exited with an unexpected code or
whose outputs failed a check. Problems are listed on standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
# Before each measured command the inputs are generated again for at least
# this long. The machine's speed swings between a fast and a slow phase
# every few seconds, so a pipeline's setup sample averages the generations
# made across it, as its wall time does, and setup_s is their median.
SETUP_SLICE_S = 0.1
STARTUP_REPEATS = 5
# OpenBLAS starts a thread per core by default; on a small shared machine
# those threads make train's time swing between runs.
PINNED = {"OPENBLAS_NUM_THREADS": "1"}


def listed_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, in the order BENCHMARK.json lists them."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def child_env() -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Launcher:
    """Runs child processes through launcher.py, which says why."""

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait()

    def run(self, argv: list[str], log: Path) -> dict:
        """Exit code, wall and CPU seconds and peak RSS (MiB) of one child."""
        self.proc.stdin.write(json.dumps({"argv": argv, "log": str(log), "env": child_env()}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"launcher exited with code {self.proc.wait()}")
        return json.loads(line)


def run_chain_processes(launcher: Launcher, steps, logs: Path, between=None) -> dict:
    """The chain with each command in its own process; stops at the first
    unexpected exit code. ``between()`` runs before each command, outside
    the chain's wall time."""
    result = {"steps": {}, "codes": [], "wall_s": 0.0}
    for step in steps:
        if between:
            between()
        start = perf_counter()
        usage = launcher.run([sys.executable, "-m", "labelsmith", *step.argv], logs / f"{step.name}.log")
        result["wall_s"] += perf_counter() - start
        result["steps"][step.name] = usage
        result["codes"].append(usage["code"])
        if usage["code"] != step.expect:
            break
    return result


def run_chain_in_process(steps, logs: Path, tracer=None) -> dict:
    """The chain through ``labelsmith.cli.main`` in this process."""
    from labelsmith.cli import main

    result = {"codes": []}
    with (logs / "in_process.log").open("w", encoding="utf-8") as log:
        start = perf_counter()
        for step in steps:
            call = tracer.wrap(f"cli.{step.name}", main) if tracer else main
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                try:
                    code = call(list(step.argv))
                except SystemExit as exc:  # argparse rejects the command line
                    code = exc.code
            result["codes"].append(code)
            if code != step.expect:
                break
        result["wall_s"] = perf_counter() - start
    if tracer:
        result["timed_out"] = list(tracer.timed_out)
    return result


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def tree_digest(path: Path) -> str:
    digest = hashlib.sha256()
    for p in sorted(path.rglob("*")):
        if p.is_file():
            digest.update(str(p.relative_to(path)).encode() + b"\0" + p.read_bytes())
    return digest.hexdigest()


def setup(workload, seed: int, work: Path):
    """Generates the inputs into ``work/inputs-0``; returns the directory,
    the seconds it took and the generator's info."""
    inp = fresh_dir(work / "inputs-0")
    start = perf_counter()
    info = workload.make_inputs(inp, seed, workload.size)
    return inp, perf_counter() - start, info


def regenerate(workload, seed: int, work: Path, seconds: float) -> tuple[list, list]:
    """Generates the inputs again, into a scratch directory, until the
    generator has run for ``seconds`` (at least once); returns the times and
    a problem if a copy differs from inputs-0."""
    want = tree_digest(work / "inputs-0")
    times, differ = [], 0
    while not times or sum(times) < seconds:
        target = fresh_dir(work / "inputs-again")
        start = perf_counter()
        workload.make_inputs(target, seed, workload.size)
        times.append(perf_counter() - start)
        differ += tree_digest(target) != want
    shutil.rmtree(target)
    return times, [f"{differ} regenerated input set(s) differ from inputs-0 for the same seed"] if differ else []


def measure(seconds: float, once, first=()) -> list:
    """Calls ``once`` until another call would pass ``seconds`` (counted
    from now, including ``first``'s calls), at least once."""
    start = perf_counter()
    for call in first:
        call()
    results, walls = [], []
    while True:
        t = perf_counter()
        results.append(once())
        walls.append(perf_counter() - t)
        if perf_counter() - start + statistics.median(walls) > seconds:
            return results


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        **PINNED,
    }


class Run:
    """Counts commands and collects problems across a run's pipelines."""

    def __init__(self, expected, work: Path, launcher: Launcher):
        self.expected = expected
        self.work = work
        self.launcher = launcher
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.n = 0

    def processes(self, steps, logs: Path, between=None) -> dict:
        return run_chain_processes(self.launcher, steps, logs, between)

    def pipeline(self, execute) -> tuple[dict, dict]:
        """Runs one chain into a fresh output directory and checks it."""
        import workloads

        self.n += 1
        out = fresh_dir(self.work / "runs")
        logs = fresh_dir(self.work / "logs" / str(self.n))
        steps = self.expected.workload.chain(self.work / "inputs-0", out)
        result = execute(steps, logs)
        log = "".join(p.read_text(encoding="utf-8") for p in sorted(logs.iterdir()))
        # a per-process or untraced chain logs its timeouts; a traced one
        # hands them over from the tracer
        timed_out = set(workloads.TIMEOUT_LINE.findall(log)) | set(result.get("timed_out", ()))
        result["timed_out"] = sorted(timed_out)
        try:
            quality, problems = workloads.check(self.expected, out, steps, result["codes"], timed_out)
        except (OSError, ValueError, LookupError, TypeError) as exc:  # a missing or malformed artifact
            quality, problems = {}, {"outputs": [f"cannot check: {exc!r}"]}
        self.attempted += len(result["codes"])
        self.failed += len(problems)
        self.problems += [f"pipeline {self.n} {step}: {p}" for step, found in problems.items() for p in found]
        return result, quality


def plain(run: Run, seconds: float, again) -> tuple[dict, dict]:
    """End-to-end metrics; ``again()`` regenerates the inputs and returns
    the times and the problems found."""
    setup_samples = []

    def once():
        times = []

        def between():
            more, problems = again()
            times.extend(more)
            if problems:
                run.problems += problems
                run.failed += 1

        pipeline = run.pipeline(lambda steps, logs: run.processes(steps, logs, between))
        setup_samples.append(statistics.fmean(times))
        return pipeline

    pipelines = measure(seconds, once)
    walls = [r["wall_s"] for r, _ in pipelines]
    metrics = {
        "pipeline_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(max(s["peak_rss_mb"] for s in r["steps"].values()) for r, _ in pipelines),
        "setup_s": statistics.median(setup_samples),
    }
    for name in ("vote_agreement", "pseudolabel_accuracy", "eval_accuracy", "worst_group_accuracy"):
        values = [q[name] for _, q in pipelines if name in q]
        metrics[name] = statistics.median(values) if values else 0.0
    details = {"setup_samples": setup_samples, "pipelines": [r for r, _ in pipelines], "quality": [q for _, q in pipelines]}
    return metrics, details


def traced(run: Run, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics; prints the per-layer self time report."""
    import inputs
    import report
    import tracing
    import workloads

    program_ids = sorted(p.stem for p in inputs.PROGRAMS.glob("*/*.lf"))
    starts = []

    def startup():
        usage = run.launcher.run([sys.executable, "-c", "import labelsmith.cli"], run.work / "startup.log")
        if usage["code"] != 0:
            run.problems.append(f"import labelsmith.cli exited {usage['code']}")
        starts.append(usage["wall_s"])

    startup()  # fills the bytecode cache
    starts.clear()
    per_process = {}
    first = [startup] * STARTUP_REPEATS + [
        lambda: per_process.update(run.pipeline(run.processes)[0]),
        # warms this process (lazy imports, compiled patterns) for both
        # the untraced and the traced pipelines that follow
        lambda: run.pipeline(run_chain_in_process),
    ]
    tracers = []

    def pair():
        untraced, _ = run.pipeline(run_chain_in_process)
        tracer = tracing.Tracer()
        with tracing.instrument(tracer):
            result, _ = run.pipeline(lambda steps, logs: run_chain_in_process(steps, logs, tracer))
        tracers.append(tracer)
        return untraced, result

    pairs = measure(seconds, pair, first)
    per_pipeline = [
        tracing.layer_metrics(t.spans, t.timed_out, workloads.STEPS, program_ids) for t in tracers
    ]
    # median_low: an observed value, so counts stay whole
    metrics = {name: statistics.median_low(m[name] for m in per_pipeline) for name in per_pipeline[0]}
    metrics["cli.startup_s"] = statistics.median(starts)
    for step in workloads.STEPS:
        s = per_process.get("steps", {}).get(step, {})
        metrics[f"cli.step_s.{step}"] = s.get("wall_s", 0.0)
        metrics[f"cli.peak_rss_mb.{step}"] = s.get("peak_rss_mb", 0.0)
    untraced_s = [u["wall_s"] for u, _ in pairs]
    traced_s = [t["wall_s"] for _, t in pairs]
    metrics["trace_overhead_s"] = statistics.median(traced_s) - statistics.median(untraced_s)
    spans = [t.spans for t in tracers]
    tracing.write_spans(run.work / "spans.json", spans)
    print(report.render(run.expected.workload.name, spans))
    details = {"per_process": per_process, "in_process_untraced_s": untraced_s, "traced_s": traced_s}
    return metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "labelsmith" / "__init__.py").is_file():
        print(f"error: no labelsmith package under {SRC}", file=sys.stderr)
        return 2
    with Launcher() as launcher:
        return bench(args, launcher)


def bench(args, launcher: Launcher) -> int:
    os.environ.update(PINNED)  # before numpy is first imported
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    work = fresh_dir(WORK / workload.name)
    inp, setup_s, info = setup(workload, args.seed, work)
    run = Run(workloads.Expected(workload, inp, info), work, launcher)
    if args.trace:
        metrics, details = traced(run, args.seconds)
    else:
        again = functools.partial(regenerate, workload, args.seed, work, SETUP_SLICE_S)
        metrics, details = plain(run, args.seconds, again)
    listed = listed_metrics(args.trace)
    if set(metrics) != set(listed):
        run.problems.append(
            f"metrics differ from BENCHMARK.json: missing {sorted(set(listed) - set(metrics))}, "
            f"unlisted {sorted(set(metrics) - set(listed))}"
        )
        run.failed += 1
    metrics = {name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in listed.items()}
    env = environment()
    (work / "results.json").write_text(
        json.dumps(
            {"workload": workload.name, "seed": args.seed, "trace": args.trace, "env": env,
             "first_setup_s": setup_s, "problems": run.problems, "metrics": metrics, **details},
            indent=1,
        ),
        encoding="utf-8",
    )
    for problem in run.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
