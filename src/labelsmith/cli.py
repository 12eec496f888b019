"""Command-line pipeline: generate -> apply -> analyze -> aggregate ->
export -> train -> eval.

``main`` runs every subcommand in five steps. It checks the flags
against the command's ``RULES`` and refuses a pair of its ``EXCLUSIVE``
flags given together; it refuses a non-empty --out without
--force, before any input is read; it calls ``cmd_<name>(args, out)``,
which reads its inputs, creates ``out`` just before its first write
(``_make_out``) and returns ``(exit code, params, inputs, report)``; it
writes run_manifest.json with the params and the content hashes of the
inputs and outputs; and it prints the report to stdout, last, so a
reader that closed stdout early leaves no output unlisted. So a run
refused for a flag, --out or an input creates nothing. Given identical
inputs, outputs are byte-identical (the manifest's timestamp is the
only exception); ``train`` alone takes a --seed, for its weight
initialization, shuffling and validation split. Exit codes: 0 ok, 1 error (a malformed input file is reported
as ``error: <path>[:<line>]: <what>``), 2 when diagnostics flagged a
program.

``run`` is the process entry of ``python -m labelsmith`` and of the
console script. Once this module and numpy are imported it turns the
cyclic collector off, calls ``main``, flushes stdout and stderr, and
ends the process with ``os._exit``, which skips the interpreter's
teardown; under a tracer or profiler it exits the normal way, so that
they write their results. A stdout of None (file descriptor 1 closed)
is skipped; a flush that fails, as on a pipe whose reader is gone,
exits 1 with one ``error:`` line. ``main`` itself leaves the collector
as it found it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import math
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import NoReturn

import numpy as np

from .data import (
    MAX_RATE_PER_1K,
    ClassSpace,
    LabelsmithError,
    json_field,
    load_pseudolabels,
    load_votes,
    read_json,
    read_jsonl,
    read_text,
    save_pseudolabels,
    save_votes,
    write_json,
)
from .packs import available_packs, load_pack

# Functions a tracer or test patches here: each loads its module on first
# access (``__getattr__``), not at CLI start, and stays an attribute here;
# the commands call them as ``_cli.<name>``, so a patch reaches them.
_LAZY = {"format_program": "dsl", "parse_program": "dsl"}
_LAZY.update(dict.fromkeys(("load_dataset", "assemble_votes"), "records"))
_LAZY.update(dict.fromkeys(("build_prompt", "estimate_cost", "generate_programs"), "prompting"))
_cli = sys.modules[__name__]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_LAZY[name]}", __package__), name)
    return value


# the keys of models.FITTERS, named here so that building the parser
# does not import the label models; a test keeps the two equal
FITTERS = ("ds", "mv", "snorkel-lite", "triplet", "wmv")

DEFAULT_ENDPOINT = "https://api.openai.com/v1/chat/completions"
DEFAULT_MODEL = "gpt-3.5-turbo"
# hashed feature width of a text training set when --dims is not given
DEFAULT_DIMS = 4096

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FLAGGED = 2

# each command's flag checks, made before anything is read: flag ->
# (predicate, wanted); a flag left at its None default is not checked
_AT_LEAST_1 = (lambda v: v >= 1, "at least 1")
_RATE = (lambda v: 0 <= v <= MAX_RATE_PER_1K, f"in [0, {MAX_RATE_PER_1K}]")
_THRESHOLD = {"--threshold": (lambda v: 0 <= v <= 1, "in [0, 1]")}
RULES = {
    "generate": {
        "--n": _AT_LEAST_1,
        "--temperature": (lambda v: 0 <= v <= 2, "in [0, 2]"),
        "--max-tokens": _AT_LEAST_1,
        "--price-in": _RATE,
        "--price-out": _RATE,
    },
    "analyze": _THRESHOLD,
    "aggregate": _THRESHOLD,
    "train": {
        "--epochs": _AT_LEAST_1,
        "--batch": _AT_LEAST_1,
        "--seed": (lambda v: v >= 0, "at least 0"),
        "--lr": (lambda v: 0 < v < math.inf, "a finite number above 0"),
        "--val-fraction": (lambda v: 0 <= v < 1, "in [0, 1)"),
        "--dims": (lambda v: v >= 2, "at least 2"),
    },
}
# each command's pair of flags that exclude each other, since given
# together one of them would do nothing
_TASK_OR_CLASSES = ("--task", "--classes")
EXCLUSIVE = {
    "generate": ("--mock", "--endpoint"),
    "apply": _TASK_OR_CLASSES,
    "aggregate": ("--model", "--params"),
    "export": _TASK_OR_CLASSES,
    "train": _TASK_OR_CLASSES,
}


class CliError(LabelsmithError):
    """Bad invocation or refused operation."""


def _sha256(path: Path) -> str:
    # imported here, once the command's outputs exist: hashlib maps
    # OpenSSL's library (about 3.5 MiB resident) on top of what the
    # command still holds. On a 40 000-row votes file that sets the peak
    # RSS of analyze and aggregate, 1.0-1.5 MiB above the peak of loading
    # the matrix and fitting
    import hashlib

    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _make_out(out: Path, inputs: list[Path]) -> None:
    """Create ``out`` for a command's first write. A manifest there is a
    --force rerun's: the files it lists as outputs, but for this run's
    ``inputs``, are deleted first, so none is left over and listed again
    as this run's."""
    manifest = out / "run_manifest.json"
    if manifest.is_file():
        names = read_json(manifest, lambda doc: json_field(doc, "outputs", dict))
        for name in names:
            if out.resolve() not in (out / name).resolve().parents:
                raise CliError(f"{manifest}: output {name!r} lies outside {out}")
        manifest.unlink()
        kept = {path.resolve() for path in inputs}
        for name in names:
            if (out / name).resolve() not in kept:
                (out / name).unlink(missing_ok=True)
    out.mkdir(parents=True, exist_ok=True)


def _write_manifest(out: Path, command: str, params: dict, inputs: list[Path]) -> None:
    outputs = {}
    for p in sorted(out.rglob("*")):
        if p.is_file() and p.name != "run_manifest.json":
            outputs[str(p.relative_to(out))] = _sha256(p)
    doc = {
        "command": command,
        "params": params,
        "inputs": {str(p): _sha256(Path(p)) for p in inputs if Path(p).is_file()},
        "outputs": outputs,
        "created_at": datetime.now(timezone.utc).isoformat(),
    }
    write_json(out / "run_manifest.json", doc)


def _file_text(flag: str, path: str) -> str:
    """The text of the file that ``flag`` names; one that holds only
    whitespace is refused."""
    text = read_text(path)
    if not text.strip():
        raise CliError(f"{flag}: {path} holds no text")
    return text


def _classes_arg(args) -> ClassSpace:
    if args.task:
        return load_pack(args.task).class_space()
    if args.classes:
        try:
            return ClassSpace(tuple(c.strip() for c in args.classes.split(",")))
        except ValueError as exc:
            raise CliError(f"--classes: {exc}") from exc
    raise CliError("pass --task <pack> or --classes <a,b,...>")


def _exemplar(doc) -> tuple[str, str]:
    return json_field(doc, "text", str), json_field(doc, "class", str)


def _load_program(path: Path, cs: ClassSpace):
    from .dsl import DslError
    try:
        return _cli.parse_program(read_text(path), cs, program_id=path.stem)
    except DslError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _public_url(url: str) -> str:
    """``url`` without its query and fragment, which can carry credentials:
    the form a manifest records. A userinfo part is refused: the request
    would hand it to the name lookup and the Host header as part of the
    host."""
    from urllib.parse import urlsplit, urlunsplit

    from .prompting import API_KEY_ENV
    try:
        parts = urlsplit(url)
    except ValueError as exc:  # an unclosed IPv6 bracket
        raise CliError(f"--endpoint: {exc}") from None
    if "@" in parts.netloc:
        raise CliError(
            f"--endpoint must name no user:password@ before its host; the API key comes from {API_KEY_ENV}"
        )
    return urlunsplit((parts.scheme, parts.netloc, parts.path, "", ""))


def cmd_generate(args, out: Path):
    from .prompting import GenerationJob, HttpTransport, MockTransport, Pricing
    url = DEFAULT_ENDPOINT if args.endpoint is None else args.endpoint
    endpoint = None if args.mock else _public_url(url)
    pack = load_pack(args.task)
    description = args.dataset_description
    if description and description.startswith("@"):
        description = _file_text("--dataset-description", description[1:]).strip()
    exemplars = ()
    if args.exemplars:
        exemplars = [row for _, row in read_jsonl(args.exemplars, _exemplar)]
        if not exemplars:
            raise CliError(f"{args.exemplars}: the file holds no exemplars")
    rules = args.rules_file and _file_text("--rules-file", args.rules_file)
    job = GenerationJob(
        prompt=_cli.build_prompt(
            pack, description=description, exemplars=exemplars, keywords=args.keywords, rules=rules
        ),
        model=args.model_name,
        n_programs=args.n,
        temperature=args.temperature,
        max_tokens=args.max_tokens,
    )
    pricing = Pricing(args.price_in, args.price_out)
    transport = MockTransport.from_file(args.mock) if args.mock else HttpTransport(url)
    cs = pack.class_space()
    inputs = [Path(args.mock)] if args.mock else []
    _make_out(out, inputs)
    # looked up at call time, so a patched time.sleep reaches the retry loop
    results = _cli.generate_programs(job, cs, transport, out_dir=out, sleep=time.sleep)
    prog_dir = out / "programs"
    prog_dir.mkdir(exist_ok=True)
    n_ok = 0
    for res in results:
        if res.program is not None:
            (prog_dir / f"slot_{res.slot:02d}.lf").write_text(
                _cli.format_program(res.program, cs), encoding="utf-8"
            )
            n_ok += 1
    cost = _cli.estimate_cost(
        [job.prompt] * len(results), [res.response_text or "" for res in results], pricing
    )
    write_json(out / "cost.json", cost.to_dict())
    failures = [res for res in results if not res.ok]
    for res in failures:
        print(f"slot {res.slot}: {res.error}", file=sys.stderr)
    report = (
        f"extracted {n_ok}/{len(results)} programs -> {prog_dir}\n"
        f"estimated cost: ${cost.dollars:.6f} ({cost.input_tokens} in, {cost.output_tokens} out)"
    )
    params = {"task": args.task, "n": args.n, "model": args.model_name, "temperature": args.temperature}
    return EXIT_OK, {**params, "mock": bool(args.mock), "endpoint": endpoint}, inputs, report


def cmd_apply(args, out: Path):
    cs = _classes_arg(args)
    task = args.task or "adhoc"
    dataset = _cli.load_dataset(args.data, cs)
    prog_paths = sorted(Path(args.programs).glob("*.lf"))
    if not prog_paths:
        raise CliError(f"no .lf programs found in {args.programs}")
    programs = [_load_program(p, cs) for p in prog_paths]
    matrix = _cli.assemble_votes(dataset, programs, cs, task=task)
    inputs = [Path(args.data), *prog_paths]
    _make_out(out, inputs)
    save_votes(out / "votes.json", matrix)
    coverage = float((matrix.record_votes > 0).mean())
    report = f"applied {matrix.m} programs to {matrix.n} records (union coverage {coverage:.3f})"
    return EXIT_OK, {"task": task, "programs": len(programs)}, inputs, report


def cmd_analyze(args, out: Path):
    from . import diagnostics
    threshold = diagnostics.DEFAULT_COVERAGE_THRESHOLD if args.threshold is None else args.threshold
    matrix = load_votes(args.votes)
    stats = diagnostics.analyze(matrix, coverage_threshold=threshold)
    _make_out(out, [Path(args.votes)])
    diagnostics.save_stats(out / "analysis.json", stats, threshold)
    flagged = [s.program_id for s in stats if s.flagged_low_coverage]
    if flagged:
        print(
            f"flagged {len(flagged)} program(s) below {threshold:.0%} coverage: "
            + ", ".join(flagged),
            file=sys.stderr,
        )
    table = diagnostics.render_stats_table(stats)
    return EXIT_FLAGGED if flagged else EXIT_OK, {"threshold": threshold}, [Path(args.votes)], table


def cmd_aggregate(args, out: Path):
    from . import diagnostics, models
    threshold = diagnostics.DEFAULT_COVERAGE_THRESHOLD if args.threshold is None else args.threshold
    # null when params are reused: the params file is among the inputs
    model = None if args.params else args.model or "ds"
    matrix = load_votes(args.votes)
    low = diagnostics.low_coverage(matrix, threshold)
    flagged = [pid for pid, flag in zip(matrix.program_ids, low) if flag]
    if flagged and not args.keep_flagged:
        raise CliError(
            f"{args.votes}: program(s) below {threshold:.0%} coverage: {', '.join(flagged)}; "
            "remove them from the votes file or pass --keep-flagged"
        )
    if args.params:
        params, report = models.load_params(args.params), None
    else:
        params, report = models.FITTERS[model](matrix)
    try:
        labels = models.predict(params, matrix)
    except models.ModelError as exc:
        # a fit's params always match its matrix; loaded ones may not
        raise CliError(f"{args.params} does not match {args.votes}: {exc}") from exc
    inputs = [Path(args.votes)] + ([Path(args.params)] if args.params else [])
    _make_out(out, inputs)
    # saved again when reused, which writes an older file in today's form
    models.save_params(out / "params.json", params)
    save_pseudolabels(out / "pseudolabels.jsonl", labels)
    if report is not None:
        models.save_report(out / "fit_report.json", report, params.program_ids)
    coverage = diagnostics.coverage_of_label_model(labels)
    line = f"{params.kind}: labeled {labels.n} records (coverage {coverage:.3f})"
    if matrix.gold is not None and None not in matrix.gold and labels.covered.any():
        hits = (labels.hard == np.array(matrix.gold))[labels.covered]
        line += f", accuracy vs gold on covered records {hits.mean():.4f}"
    return EXIT_OK, {"model": model, "threshold": threshold}, inputs, line


def cmd_export(args, out: Path):
    from . import distill
    cs = _classes_arg(args)
    dataset = _cli.load_dataset(args.data, cs)
    labels = load_pseudolabels(args.pseudolabels, K=cs.K)
    try:
        labels = distill.join_pseudolabels(dataset, labels)
    except distill.DistillError as exc:
        raise CliError(f"{args.pseudolabels} does not match {args.data}: {exc}") from exc
    inputs = [Path(args.data), Path(args.pseudolabels)]
    _make_out(out, inputs)
    written = distill.export_training_set(dataset, labels, out / "train.jsonl", use_probabilistic=args.probabilistic)
    report = f"wrote {written.n_written} rows ({written.n_dropped_uncovered} uncovered dropped)"
    return EXIT_OK, {"probabilistic": args.probabilistic}, inputs, report


def cmd_train(args, out: Path):
    from . import distill
    cs = _classes_arg(args)
    dataset, targets = distill.load_training_set(args.train_file, cs.K)
    # score records train on their concepts, text records on hashed words
    concepts = None if dataset.concepts is None else sorted(dataset.concepts)
    if concepts is not None and len(concepts) < 2:
        raise CliError(f"{args.train_file}: score records need at least 2 concepts, got {len(concepts)}")
    if concepts is None:
        dims = DEFAULT_DIMS if args.dims is None else args.dims
    elif args.dims is not None:
        raise CliError(
            f"--dims must be left out for score records; {args.train_file} "
            f"sets the width to its {len(concepts)} concepts"
        )
    else:
        dims = len(concepts)
    # split the rows, not their features, so the full feature set and
    # its parts are never held at once
    X_val = y_val = None
    n_val = int(len(dataset) * args.val_fraction)
    if n_val > 0:
        order = np.random.default_rng(args.seed).permutation(len(dataset))
        val_idx, train_idx = order[:n_val], order[n_val:]
        hard = np.argmax(targets, axis=1) if targets.ndim == 2 else targets
        X_val = distill.featurize(dataset.take(val_idx), dims, concepts)
        y_val = hard[val_idx]
        dataset, targets = dataset.take(train_idx), targets[train_idx]
    X = distill.featurize(dataset, dims, concepts)
    del dataset
    hyper = distill.Hyper(epochs=args.epochs, lr=args.lr, batch=args.batch, seed=args.seed)
    model, metrics = distill.train_mlp(X, targets, cs, hyper, X_val, y_val)
    _make_out(out, [Path(args.train_file)])
    distill.save_model(out / "model.json", model)
    metrics.save_csv(out / "metrics.csv")
    line = f"trained {model.sizes} for {args.epochs} epochs; train acc {metrics.train_accuracy[-1]:.4f}"
    if metrics.val_accuracy:
        line += f", val acc {metrics.val_accuracy[-1]:.4f}"
    params = {key: getattr(args, key) for key in ("epochs", "lr", "batch", "seed", "val_fraction")}
    return EXIT_OK, {**params, "dims": dims}, [Path(args.train_file)], line


def cmd_eval(args, out: Path):
    from . import diagnostics, distill
    model = distill.load_model(args.model)
    dataset = _cli.load_dataset(args.data, model.classes, model.concepts)
    if model.concepts is None and dataset.texts is None:
        raise CliError(f"{args.data}: the model {args.model} takes text records, got scores")
    if dataset.gold is None or None in dataset.gold:
        missing = dataset.ids[0 if dataset.gold is None else dataset.gold.index(None)]
        raise CliError(f"{args.data}: eval data needs gold labels; record {missing!r} has none")
    X = distill.featurize(dataset, model.sizes[0], model.concepts)
    preds = model.predict(X)
    gold = np.array(dataset.gold)
    accuracy = float((preds == gold).mean())
    doc: dict = {"n": len(dataset), "accuracy": accuracy}
    if dataset.groups is not None and None not in dataset.groups:
        report = diagnostics.group_metrics(list(preds), list(gold), dataset.groups)
        doc["average_accuracy"] = report.average_accuracy
        doc["worst_group_accuracy"] = report.worst_group_accuracy
        doc["gap"] = report.gap
        doc["per_group"] = dict(report.per_group)
    inputs = [Path(args.model), distill.weights_path(args.model), Path(args.data)]
    _make_out(out, inputs)
    write_json(out / "eval.json", doc)
    report = f"accuracy {accuracy:.4f} on {len(dataset)} records"
    if "worst_group_accuracy" in doc:
        report += (
            f"\nworst group {doc['worst_group_accuracy']:.4f} "
            f"(gap {doc['gap']:.4f}; groups: "
            + ", ".join(f"{g}={a:.4f}" for g, a in sorted(doc["per_group"].items()))
            + ")"
        )
    return EXIT_OK, {}, inputs, report


def _add_common(sp, *, data=False, task_classes=False):
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--force", action="store_true", help="overwrite a non-empty output directory")
    if data:
        sp.add_argument("--data", required=True, help="dataset file (JSONL)")
    if task_classes:
        sp.add_argument("--task", help=f"shipped task pack ({', '.join(available_packs())})")
        sp.add_argument("--classes", help="comma-separated class names (excludes --task)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="labelsmith",
        description="Turn labeling rules into pseudolabeled training data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("generate", help="request labeling programs from a model")
    sp.add_argument("--task", required=True, help=f"task pack: {', '.join(available_packs())}")
    sp.add_argument("--n", type=int, default=10, help="number of programs to request")
    sp.add_argument("--mock", help="fixture JSON file served instead of HTTP (excludes --endpoint)")
    sp.add_argument("--endpoint", help=f"chat-completions URL (default {DEFAULT_ENDPOINT}; excludes --mock)")
    sp.add_argument("--model-name", default=DEFAULT_MODEL)
    sp.add_argument("--temperature", type=float, default=0.5)
    sp.add_argument("--max-tokens", type=int, default=None)
    sp.add_argument("--price-in", type=float, default=0.0005, help=f"$ per 1k input tokens, at most {MAX_RATE_PER_1K}")
    sp.add_argument("--price-out", type=float, default=0.0015, help=f"$ per 1k output tokens, at most {MAX_RATE_PER_1K}")
    sp.add_argument("--dataset-description", help="text, or @file to read one")
    sp.add_argument("--exemplars", help="JSONL of {text, class} examples")
    sp.add_argument("--keywords", help="comma-separated keyword hints")
    sp.add_argument("--rules-file", help="file of prior labeling rules to include")
    _add_common(sp)
    sp.set_defaults(func=cmd_generate)

    sp = sub.add_parser("apply", help="run programs over a dataset into a vote matrix")
    sp.add_argument("--programs", required=True, help="directory of .lf programs")
    _add_common(sp, data=True, task_classes=True)
    sp.set_defaults(func=cmd_apply)

    sp = sub.add_parser("analyze", help="coverage/polarity/overlap/conflict diagnostics")
    sp.add_argument("--votes", required=True, help="votes.json from apply")
    # None stands for diagnostics.DEFAULT_COVERAGE_THRESHOLD
    sp.add_argument("--threshold", type=float)
    _add_common(sp)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("aggregate", help="fit a label model and write pseudolabels")
    sp.add_argument("--votes", required=True)
    sp.add_argument("--model", choices=FITTERS, help="label model to fit (default ds)")
    sp.add_argument("--params", help="reuse fitted params instead of fitting (excludes --model)")
    sp.add_argument("--keep-flagged", action="store_true", help="aggregate despite low-coverage programs")
    # None stands for diagnostics.DEFAULT_COVERAGE_THRESHOLD
    sp.add_argument("--threshold", type=float)
    _add_common(sp)
    sp.set_defaults(func=cmd_aggregate)

    sp = sub.add_parser("export", help="join records with pseudolabels into a training set")
    sp.add_argument("--pseudolabels", required=True)
    sp.add_argument("--probabilistic", action="store_true", help="write posteriors, not hard labels")
    _add_common(sp, data=True, task_classes=True)
    sp.set_defaults(func=cmd_export)

    sp = sub.add_parser("train", help="train the distilled MLP on an exported set")
    sp.add_argument("--train-file", required=True)
    sp.add_argument("--epochs", type=int, default=100)
    sp.add_argument("--lr", type=float, default=1e-3)
    sp.add_argument("--batch", type=int, default=32)
    sp.add_argument(
        "--dims", type=int, help=f"hashed feature dimension of a text training set (default {DEFAULT_DIMS})"
    )
    sp.add_argument("--val-fraction", type=float, default=0.1)
    sp.add_argument(
        "--seed", type=int, default=0, help="seed for initialization, shuffling and the validation split"
    )
    _add_common(sp, task_classes=True)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("eval", help="evaluate a trained model on gold-labeled data")
    sp.add_argument("--model", required=True, help="model.json from train (model.bin must sit beside it)")
    _add_common(sp, data=True)
    sp.set_defaults(func=cmd_eval)

    return parser


def _check_argv(argv) -> None:
    # argument bytes that are not UTF-8 reach Python as lone surrogates,
    # which no output file could hold
    for arg in argv:
        try:
            arg.encode("utf-8")
        except UnicodeEncodeError as exc:
            surrogate = f"\\u{ord(arg[exc.start]):04x}"
            raise CliError(f"argument {arg!r} holds the lone surrogate {surrogate}, which UTF-8 cannot encode") from None


def _flag(args, flag: str):
    return getattr(args, flag[2:].replace("-", "_"))


def main(argv=None) -> int:
    parser = build_parser()
    # argparse's add_argument leaves a help formatter in a cycle for each
    # argument (196 objects); freed here, since run turns the collector off
    gc.collect(0)
    try:
        _check_argv(sys.argv[1:] if argv is None else argv)
        args = parser.parse_args(argv)
        for flag, (ok, wanted) in RULES.get(args.command, {}).items():
            value = _flag(args, flag)
            if value is not None and not ok(value):
                raise CliError(f"{flag} must be {wanted}, got {value}")
        pair = EXCLUSIVE.get(args.command, ())
        if pair and all(_flag(args, flag) is not None for flag in pair):
            raise CliError(f"{pair[0]} and {pair[1]} exclude each other")
        out = Path(args.out)
        if out.exists() and any(out.iterdir()) and not args.force:
            raise CliError(f"output directory {out} is not empty; pass --force to overwrite")
        code, params, inputs, report = args.func(args, out)
        _write_manifest(out, args.command, params, inputs)
        # printed once the manifest lists the outputs: a reader that
        # closed stdout makes this print fail, and no output may then be
        # left unlisted for a --force rerun
        print(report)
        return code
    except (LabelsmithError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def _flush_streams(code: int) -> int:
    """Flush stdout and stderr and return the exit code. A stream that
    cannot take the rest of its output, such as a pipe its reader closed,
    is pointed at os.devnull (Python's "Note on SIGPIPE"), so no later
    flush fails again, and the run exits 1 with one ``error:`` line: a new
    one, unless ``main`` has reported its own error already."""
    for stream in (sys.stdout, sys.stderr):
        if stream is None:  # its file descriptor was closed at the start
            continue
        try:
            stream.flush()
        except OSError as exc:
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
            if code != EXIT_ERROR:
                code = EXIT_ERROR
                with contextlib.suppress(OSError):  # stderr's reader is gone too
                    print(f"error: {exc}", file=sys.stderr)
    return code


def _traced() -> bool:
    """Whether a tracer or profiler is installed, or a sys.monitoring tool
    (Python 3.12+, where cProfile is one): each writes its results at the
    interpreter's normal exit."""
    monitoring = getattr(sys, "monitoring", None)
    tools = monitoring is not None and any(monitoring.get_tool(i) is not None for i in range(6))  # ids 0-5
    return tools or sys.gettrace() is not None or sys.getprofile() is not None


def run() -> NoReturn:
    """The process entry of ``python -m labelsmith`` and of the console
    script, in the order the module docstring gives."""
    # Off only now: the imports of cli and numpy leave cycles to free. A
    # command leaves a bounded number, the same at any input size
    # (tests/test_entry.py), so passes over its data would find nothing.
    gc.disable()
    try:
        code = main()
    except SystemExit as exc:  # argparse: 0 after --help, 2 for a usage error
        code = exc.code
    code = _flush_streams(code)
    if _traced():
        sys.exit(code)
    # every output file is closed and the streams are flushed, so the
    # interpreter's teardown would only free memory the exit frees
    os._exit(code)


if __name__ == "__main__":
    run()
