"""Command-line pipeline: generate -> apply -> analyze -> aggregate ->
export -> train -> eval.

Each subcommand reads files, writes one output directory, and drops a
run_manifest.json with content hashes of its inputs and outputs. Given
identical inputs, outputs are byte-identical (the manifest's timestamp
is the only exception); ``train`` alone takes a --seed, for its weight
initialization, shuffling and validation split. Exit codes: 0 ok, 1
error (a malformed input file is reported as ``error: <path>[:<line>]:
<what>``), 2 when diagnostics flagged a program.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import math
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import diagnostics, models
from .data import (
    ClassSpace,
    LabelsmithError,
    json_field,
    load_pseudolabels,
    load_votes,
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


DEFAULT_ENDPOINT = "https://api.openai.com/v1/chat/completions"
DEFAULT_MODEL = "gpt-3.5-turbo"
# hashed feature width of a text training set when --dims is not given
DEFAULT_DIMS = 4096

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FLAGGED = 2


class CliError(LabelsmithError):
    """Bad invocation or refused operation."""


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _prepare_out(path: str, force: bool) -> Path:
    out = Path(path)
    if out.exists() and any(out.iterdir()) and not force:
        raise CliError(f"output directory {out} is not empty; pass --force to overwrite")
    out.mkdir(parents=True, exist_ok=True)
    return out


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


def _text_or_file(value: str) -> str:
    if value.startswith("@"):
        return read_text(value[1:]).strip()
    return value


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


def cmd_generate(args) -> int:
    from .prompting import GenerationJob, HttpTransport, MockTransport, Pricing, SupplementBlock
    pack = load_pack(args.task)
    out = _prepare_out(args.out, args.force)
    supplements = []
    if args.dataset_description:
        supplements.append(
            SupplementBlock(kind="DatasetDescription", body=_text_or_file(args.dataset_description))
        )
    if args.exemplars:
        rows = tuple(row for _, row in read_jsonl(args.exemplars, _exemplar))
        if not rows:
            raise CliError(f"{args.exemplars}: the file holds no exemplars")
        supplements.append(SupplementBlock(kind="DataExemplars", exemplars=rows))
    if args.keywords:
        supplements.append(SupplementBlock(kind="Keywords", body=args.keywords))
    if args.rules_file:
        supplements.append(
            SupplementBlock(kind="LabelingRules", body=read_text(args.rules_file))
        )
    spec = pack.prompt_spec(supplements)
    job = GenerationJob(
        prompt=spec,
        model=args.model_name,
        n_programs=args.n,
        temperature=args.temperature,
        max_tokens=args.max_tokens,
    )
    if args.mock:
        transport = MockTransport.from_file(args.mock)
    else:
        transport = HttpTransport(args.endpoint)
    cs = pack.class_space()
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
    prompt = _cli.build_prompt(spec)
    cost = _cli.estimate_cost(
        [prompt] * len(results),
        [res.response_text or "" for res in results],
        Pricing(args.price_in, args.price_out),
    )
    write_json(out / "cost.json", cost.to_dict())
    failures = [res for res in results if not res.ok]
    for res in failures:
        print(f"slot {res.slot}: {res.error}", file=sys.stderr)
    _write_manifest(
        out,
        "generate",
        {
            "task": args.task,
            "n": args.n,
            "model": args.model_name,
            "temperature": args.temperature,
            "mock": bool(args.mock),
        },
        [Path(args.mock)] if args.mock else [],
    )
    print(f"extracted {n_ok}/{len(results)} programs -> {prog_dir}")
    print(f"estimated cost: ${cost.dollars:.6f} ({cost.input_tokens} in, {cost.output_tokens} out)")
    return EXIT_OK


def cmd_apply(args) -> int:
    cs = _classes_arg(args)
    task = args.task or "adhoc"
    dataset = _cli.load_dataset(args.data, cs)
    prog_paths = sorted(Path(args.programs).glob("*.lf"))
    if not prog_paths:
        raise CliError(f"no .lf programs found in {args.programs}")
    programs = [_load_program(p, cs) for p in prog_paths]
    out = _prepare_out(args.out, args.force)
    matrix = _cli.assemble_votes(dataset, programs, cs, task=task)
    save_votes(out / "votes.json", matrix)
    _write_manifest(
        out,
        "apply",
        {"task": task, "programs": len(programs)},
        [Path(args.data), *prog_paths],
    )
    coverage = float((matrix.record_votes > 0).mean())
    print(f"applied {matrix.m} programs to {matrix.n} records (union coverage {coverage:.3f})")
    return EXIT_OK


def cmd_analyze(args) -> int:
    matrix = load_votes(args.votes)
    stats = diagnostics.analyze(matrix, coverage_threshold=args.threshold)
    out = _prepare_out(args.out, args.force)
    diagnostics.save_stats(out / "analysis.json", stats, args.threshold)
    _write_manifest(
        out, "analyze", {"threshold": args.threshold}, [Path(args.votes)]
    )
    print(diagnostics.render_stats_table(stats))
    flagged = [s.program_id for s in stats if s.flagged_low_coverage]
    if flagged:
        print(
            f"flagged {len(flagged)} program(s) below {args.threshold:.0%} coverage: "
            + ", ".join(flagged),
            file=sys.stderr,
        )
        return EXIT_FLAGGED
    return EXIT_OK


def cmd_aggregate(args) -> int:
    if args.model is not None and args.params:
        raise CliError("--model and --params exclude each other")
    # null when params are reused: the params file is among the inputs
    model = None if args.params else args.model or "ds"
    matrix = load_votes(args.votes)
    low = diagnostics.low_coverage(matrix, args.threshold)
    flagged = [pid for pid, flag in zip(matrix.program_ids, low) if flag]
    if flagged and not args.keep_flagged:
        raise CliError(
            f"{args.votes}: program(s) below {args.threshold:.0%} coverage: {', '.join(flagged)}; "
            "remove them from the votes file or pass --keep-flagged"
        )
    out = _prepare_out(args.out, args.force)
    if args.params:
        params = models.load_params(args.params)
        report_doc = {"kind": params.kind, "loaded_from": str(args.params)}
    else:
        params, report = models.FITTERS[model](matrix)
        report_doc = {
            "kind": report.kind,
            "iterations": report.iterations,
            "converged": report.converged,
            "log_likelihood": report.log_likelihood,
            "objective": list(report.objective),
            "accuracy_by_program": dict(zip(matrix.program_ids, report.accuracy_by_program)),
            "notes": list(report.notes),
        }
    try:
        labels = models.predict(params, matrix)
    except models.ModelError as exc:
        # a fit's params always match its matrix; loaded ones may not
        raise CliError(f"{args.params} does not match {args.votes}: {exc}") from exc
    models.save_params(out / "params.json", params)
    save_pseudolabels(out / "pseudolabels.jsonl", labels)
    write_json(out / "fit_report.json", report_doc)
    _write_manifest(
        out,
        "aggregate",
        {"model": model, "threshold": args.threshold},
        [Path(args.votes)] + ([Path(args.params)] if args.params else []),
    )
    coverage = diagnostics.coverage_of_label_model(labels)
    line = f"{params.kind}: labeled {labels.n} records (coverage {coverage:.3f})"
    if matrix.gold is not None and None not in matrix.gold:
        acc = float((labels.hard == np.array(matrix.gold)).mean())
        line += f", accuracy vs gold {acc:.4f}"
    print(line)
    return EXIT_OK


def cmd_export(args) -> int:
    from . import distill
    cs = _classes_arg(args)
    dataset = _cli.load_dataset(args.data, cs)
    labels = load_pseudolabels(args.pseudolabels, K=cs.K)
    out = _prepare_out(args.out, args.force)
    try:
        report = distill.export_training_set(
            dataset,
            labels,
            out / "train.jsonl",
            use_probabilistic=args.probabilistic,
            drop_uncovered=not args.keep_uncovered,
        )
    except distill.DistillError as exc:
        raise CliError(f"{args.pseudolabels} does not match {args.data}: {exc}") from exc
    _write_manifest(
        out,
        "export",
        {
            "probabilistic": args.probabilistic,
            "keep_uncovered": args.keep_uncovered,
        },
        [Path(args.data), Path(args.pseudolabels)],
    )
    print(f"wrote {report.n_written} rows ({report.n_dropped_uncovered} uncovered dropped)")
    return EXIT_OK


def cmd_train(args) -> int:
    from . import distill
    for flag, value, ok, wanted in (
        ("--epochs", args.epochs, args.epochs >= 1, "at least 1"),
        ("--batch", args.batch, args.batch >= 1, "at least 1"),
        ("--seed", args.seed, args.seed >= 0, "at least 0"),
        ("--lr", args.lr, math.isfinite(args.lr) and args.lr > 0, "a finite number above 0"),
        ("--val-fraction", args.val_fraction, 0 <= args.val_fraction < 1, "in [0, 1)"),
        ("--dims", args.dims, args.dims is None or args.dims >= 2, "at least 2"),
    ):
        if not ok:
            raise CliError(f"{flag} must be {wanted}, got {value}")
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
    out = _prepare_out(args.out, args.force)
    hyper = distill.Hyper(epochs=args.epochs, lr=args.lr, batch=args.batch, seed=args.seed)
    model, metrics = distill.train_mlp(X, targets, cs, hyper, X_val, y_val)
    distill.save_model(out / "model.json", model)
    metrics.save_csv(out / "metrics.csv")
    _write_manifest(
        out,
        "train",
        {
            "epochs": args.epochs,
            "lr": args.lr,
            "batch": args.batch,
            "seed": args.seed,
            "dims": dims,
            "val_fraction": args.val_fraction,
        },
        [Path(args.train_file)],
    )
    line = f"trained {model.sizes} for {args.epochs} epochs; train acc {metrics.train_accuracy[-1]:.4f}"
    if metrics.val_accuracy:
        line += f", val acc {metrics.val_accuracy[-1]:.4f}"
    print(line)
    return EXIT_OK


def cmd_eval(args) -> int:
    from . import distill
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
    out = _prepare_out(args.out, args.force)
    write_json(out / "eval.json", doc)
    _write_manifest(out, "eval", {}, [Path(args.model), distill.weights_path(args.model), Path(args.data)])
    print(f"accuracy {accuracy:.4f} on {len(dataset)} records")
    if "worst_group_accuracy" in doc:
        print(
            f"worst group {doc['worst_group_accuracy']:.4f} "
            f"(gap {doc['gap']:.4f}; groups: "
            + ", ".join(f"{g}={a:.4f}" for g, a in sorted(doc["per_group"].items()))
            + ")"
        )
    return EXIT_OK


def _add_common(sp, *, data=False, task_classes=False):
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--force", action="store_true", help="overwrite a non-empty output directory")
    if data:
        sp.add_argument("--data", required=True, help="dataset file (JSONL)")
    if task_classes:
        sp.add_argument("--task", help=f"shipped task pack ({', '.join(available_packs())})")
        sp.add_argument("--classes", help="comma-separated class names (alternative to --task)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="labelsmith",
        description="Turn labeling rules into pseudolabeled training data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("generate", help="request labeling programs from a model")
    sp.add_argument("--task", required=True, help=f"task pack: {', '.join(available_packs())}")
    sp.add_argument("--n", type=int, default=10, help="number of programs to request")
    sp.add_argument("--mock", help="fixture JSON file served instead of HTTP")
    sp.add_argument("--endpoint", default=DEFAULT_ENDPOINT)
    sp.add_argument("--model-name", default=DEFAULT_MODEL)
    sp.add_argument("--temperature", type=float, default=0.5)
    sp.add_argument("--max-tokens", type=int, default=None)
    sp.add_argument("--price-in", type=float, default=0.0005, help="$ per 1k input tokens")
    sp.add_argument("--price-out", type=float, default=0.0015, help="$ per 1k output tokens")
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
    sp.add_argument("--threshold", type=float, default=diagnostics.DEFAULT_COVERAGE_THRESHOLD)
    _add_common(sp)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("aggregate", help="fit a label model and write pseudolabels")
    sp.add_argument("--votes", required=True)
    sp.add_argument("--model", choices=sorted(models.FITTERS), help="label model to fit (default ds)")
    sp.add_argument("--params", help="reuse fitted params instead of fitting (excludes --model)")
    sp.add_argument("--keep-flagged", action="store_true", help="aggregate despite low-coverage programs")
    sp.add_argument("--threshold", type=float, default=diagnostics.DEFAULT_COVERAGE_THRESHOLD)
    _add_common(sp)
    sp.set_defaults(func=cmd_aggregate)

    sp = sub.add_parser("export", help="join records with pseudolabels into a training set")
    sp.add_argument("--pseudolabels", required=True)
    sp.add_argument("--probabilistic", action="store_true", help="write posteriors, not hard labels")
    sp.add_argument("--keep-uncovered", action="store_true")
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (LabelsmithError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
