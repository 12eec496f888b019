"""Command-line pipeline: generate -> apply -> analyze -> aggregate ->
export -> train -> eval.

Each subcommand reads files, writes one output directory, and drops a
run_manifest.json with content hashes of its inputs and outputs. Given
identical inputs and --seed, outputs are byte-identical (the manifest's
timestamp is the only exception). Exit codes: 0 ok, 1 error, 2 when
diagnostics flagged a program.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import diagnostics, distill, models
from .data import (
    ClassSpace,
    LabelsmithError,
    PseudoLabel,
    Record,
    TaskManifest,
    load_dataset,
    load_pseudolabels,
    load_votes,
    assemble_votes,
    save_pseudolabels,
    save_votes,
)
from .dsl import format_program, parse_program
from .packs import available_packs, load_pack
from .prompting import (
    GenerationJob,
    HttpTransport,
    MockTransport,
    Pricing,
    SupplementBlock,
    build_prompt,
    estimate_cost,
    generate_programs,
)

DEFAULT_ENDPOINT = "https://api.openai.com/v1/chat/completions"
DEFAULT_MODEL = "gpt-3.5-turbo"

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
    (out / "run_manifest.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True), encoding="utf-8"
    )


def _text_or_file(value: str) -> str:
    if value.startswith("@"):
        return Path(value[1:]).read_text(encoding="utf-8").strip()
    return value


def _classes_arg(args) -> ClassSpace:
    if getattr(args, "task", None):
        return load_pack(args.task).class_space()
    if getattr(args, "classes", None):
        return ClassSpace(tuple(c.strip() for c in args.classes.split(",")))
    raise CliError("pass --task <pack> or --classes <a,b,...>")


def _data_manifest(args, modality: str, cs: ClassSpace, concepts=None) -> TaskManifest:
    return TaskManifest(
        name=getattr(args, "task", None) or "adhoc",
        class_space=cs,
        modality=modality,
        dataset=Path(args.data),
        concepts=concepts,
    )


def cmd_generate(args) -> int:
    pack = load_pack(args.task)
    out = _prepare_out(args.out, args.force)
    supplements = []
    if args.dataset_description:
        supplements.append(
            SupplementBlock(kind="DatasetDescription", body=_text_or_file(args.dataset_description))
        )
    if args.exemplars:
        rows = []
        with Path(args.exemplars).open(encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    row = json.loads(line)
                    rows.append((row["text"], row["class"]))
        supplements.append(SupplementBlock(kind="DataExemplars", exemplars=tuple(rows)))
    if args.keywords:
        supplements.append(SupplementBlock(kind="Keywords", body=args.keywords))
    if args.rules_file:
        supplements.append(
            SupplementBlock(kind="LabelingRules", body=Path(args.rules_file).read_text(encoding="utf-8"))
        )
    spec = pack.prompt_spec(supplements)
    job = GenerationJob(
        prompt=spec,
        model=args.model_name,
        endpoint=args.endpoint,
        n_programs=args.n,
        temperature=args.temperature,
        max_tokens=args.max_tokens,
    )
    if args.mock:
        transport = MockTransport.from_file(args.mock)
    else:
        transport = HttpTransport(args.endpoint)
    cs = pack.class_space()
    results = generate_programs(job, cs, transport, out_dir=out)
    prog_dir = out / "programs"
    prog_dir.mkdir(exist_ok=True)
    n_ok = 0
    for res in results:
        if res.program is not None:
            (prog_dir / f"slot_{res.slot:02d}.lf").write_text(
                format_program(res.program, cs), encoding="utf-8"
            )
            n_ok += 1
    prompt = build_prompt(spec)
    cost = estimate_cost(
        [prompt] * len(results),
        [res.response_text or "" for res in results],
        Pricing(args.price_in, args.price_out),
    )
    (out / "cost.json").write_text(
        json.dumps(cost.to_dict(), indent=2, sort_keys=True), encoding="utf-8"
    )
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
            "seed": args.seed,
        },
        [Path(args.mock)] if args.mock else [],
    )
    print(f"extracted {n_ok}/{len(results)} programs -> {prog_dir}")
    print(f"estimated cost: ${cost.dollars:.6f} ({cost.input_tokens} in, {cost.output_tokens} out)")
    return EXIT_OK


def cmd_apply(args) -> int:
    cs = _classes_arg(args)
    modality = load_pack(args.task).modality if args.task else args.modality
    manifest = _data_manifest(args, modality, cs)
    records = load_dataset(args.data, manifest)
    prog_paths = sorted(Path(args.programs).glob("*.lf"))
    if not prog_paths:
        raise CliError(f"no .lf programs found in {args.programs}")
    programs = [
        parse_program(p.read_text(encoding="utf-8"), cs, program_id=p.stem) for p in prog_paths
    ]
    out = _prepare_out(args.out, args.force)
    matrix = assemble_votes(records, programs)
    gold = [r.gold for r in records]
    groups = [r.group for r in records]
    save_votes(
        out / "votes.json",
        matrix,
        cs.names,
        task=manifest.name,
        gold=gold if any(g is not None for g in gold) else None,
        groups=groups if any(g is not None for g in groups) else None,
    )
    _write_manifest(
        out,
        "apply",
        {"task": manifest.name, "programs": len(programs), "seed": args.seed},
        [Path(args.data), *prog_paths],
    )
    coverage = float((matrix.votes != -1).any(axis=1).mean())
    print(f"applied {matrix.m} programs to {matrix.n} records (union coverage {coverage:.3f})")
    return EXIT_OK


def cmd_analyze(args) -> int:
    matrix, meta = load_votes(args.votes)
    stats = diagnostics.analyze(matrix, gold=meta.get("gold"), coverage_threshold=args.threshold)
    out = _prepare_out(args.out, args.force)
    diagnostics.save_stats(out / "analysis.json", stats, args.threshold)
    _write_manifest(
        out, "analyze", {"threshold": args.threshold, "seed": args.seed}, [Path(args.votes)]
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
    matrix, meta = load_votes(args.votes)
    K = len(meta["classes"])
    stats = diagnostics.analyze(matrix, coverage_threshold=args.threshold)
    flagged = [s.program_id for s in stats if s.flagged_low_coverage]
    if flagged and not args.keep_flagged:
        raise CliError(
            f"program(s) below {args.threshold:.0%} coverage: {', '.join(flagged)}; "
            "remove them from the votes file or pass --keep-flagged"
        )
    out = _prepare_out(args.out, args.force)
    if args.params:
        params = models.load_params(args.params)
        if params.m != matrix.m:
            raise CliError(
                f"params file was fitted for {params.m} programs but the vote "
                f"matrix has {matrix.m}"
            )
        if params.K != K:
            raise CliError(
                f"params file was fitted for {params.K} classes but the votes "
                f"file has {K}"
            )
        report_doc = {"kind": params.kind, "loaded_from": str(args.params)}
    else:
        fitter = models.FITTERS[args.model]
        kwargs = {"class_names": meta["classes"]}
        if args.model == "wmv":
            kwargs["gold"] = meta.get("gold")
        params, report = fitter(matrix, K, **kwargs)
        report_doc = {
            "kind": report.kind,
            "iterations": report.iterations,
            "converged": report.converged,
            "log_likelihood": report.log_likelihood,
            "objective": list(report.objective),
            "accuracy_by_program": dict(zip(matrix.program_ids, report.accuracy_by_program)),
            "notes": list(report.notes),
        }
    labels = models.predict(params, matrix)
    models.save_params(out / "params.json", params)
    save_pseudolabels(out / "pseudolabels.jsonl", labels)
    (out / "fit_report.json").write_text(
        json.dumps(report_doc, indent=2, sort_keys=True), encoding="utf-8"
    )
    _write_manifest(
        out,
        "aggregate",
        {"model": args.model, "threshold": args.threshold, "seed": args.seed},
        [Path(args.votes)] + ([Path(args.params)] if args.params else []),
    )
    coverage = diagnostics.coverage_of_label_model(labels)
    line = f"{params.kind}: labeled {len(labels)} records (coverage {coverage:.3f})"
    gold = meta.get("gold")
    if gold is not None and all(g is not None for g in gold):
        acc = float(np.mean([lab.hard == g for lab, g in zip(labels, gold)]))
        line += f", accuracy vs gold {acc:.4f}"
    print(line)
    return EXIT_OK


def cmd_export(args) -> int:
    cs = _classes_arg(args)
    modality = load_pack(args.task).modality if args.task else args.modality
    manifest = _data_manifest(args, modality, cs)
    records = load_dataset(args.data, manifest)
    labels = load_pseudolabels(args.pseudolabels)
    out = _prepare_out(args.out, args.force)
    report = distill.export_training_set(
        records,
        labels,
        out / "train.jsonl",
        use_probabilistic=args.probabilistic,
        drop_uncovered=not args.keep_uncovered,
    )
    _write_manifest(
        out,
        "export",
        {
            "probabilistic": args.probabilistic,
            "keep_uncovered": args.keep_uncovered,
            "seed": args.seed,
        },
        [Path(args.data), Path(args.pseudolabels)],
    )
    print(f"wrote {report.n_written} rows ({report.n_dropped_uncovered} uncovered dropped)")
    return EXIT_OK


def cmd_train(args) -> int:
    records, targets = distill.load_training_set(args.train_file)
    soft = targets.ndim == 2
    class_names = None
    if getattr(args, "task", None) or getattr(args, "classes", None):
        class_names = list(_classes_arg(args).names)
    if class_names is not None:
        K = len(class_names)
    elif soft:
        K = targets.shape[1]
    else:
        K = int(targets.max()) + 1
    mode = args.mode
    if mode == "auto":
        mode = "hashed" if records[0].text is not None else "scores"
    concepts = None
    if mode == "scores":
        concepts = sorted(records[0].scores)
        spec = distill.FeatureSpec(mode="scores", dims=len(concepts), seed=args.feature_seed)
    else:
        spec = distill.FeatureSpec(mode="hashed", dims=args.dims, seed=args.feature_seed)
    X = distill.featurize(records, spec, concepts=concepts)
    X_val = y_val = None
    if args.val_fraction > 0:
        split_rng = np.random.default_rng(args.seed)
        order = split_rng.permutation(len(X))
        n_val = int(len(X) * args.val_fraction)
        if n_val > 0:
            val_idx, train_idx = order[:n_val], order[n_val:]
            hard = np.argmax(targets, axis=1) if soft else targets
            X_val, y_val = X[val_idx], hard[val_idx]
            X, targets = X[train_idx], targets[train_idx]
    out = _prepare_out(args.out, args.force)
    hyper = distill.Hyper(epochs=args.epochs, lr=args.lr, batch=args.batch, seed=args.seed)
    model, metrics = distill.train_mlp(X, targets, K, hyper, X_val, y_val)
    distill.save_model(out / "model.json", model, spec, class_names, concepts)
    metrics.save_csv(out / "metrics.csv")
    _write_manifest(
        out,
        "train",
        {
            "epochs": args.epochs,
            "lr": args.lr,
            "batch": args.batch,
            "seed": args.seed,
            "mode": mode,
            "dims": spec.dims,
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
    model, spec, meta = distill.load_model(args.model)
    if spec is None:
        raise CliError(f"model file {args.model} has no feature spec; cannot featurize")
    class_names = meta.get("classes")
    if class_names is None and (getattr(args, "task", None) or getattr(args, "classes", None)):
        class_names = list(_classes_arg(args).names)
    if class_names is None:
        raise CliError("model file has no class names; pass --task or --classes")
    cs = ClassSpace(tuple(class_names))
    modality = "text" if spec.mode == "hashed" else "scores"
    concepts = meta.get("concepts")
    manifest = _data_manifest(args, modality, cs, concepts=concepts)
    records = load_dataset(args.data, manifest)
    missing = next((r.id for r in records if r.gold is None), None)
    if missing is not None:
        raise CliError(f"eval data needs gold labels; record {missing!r} has none")
    X = distill.featurize(records, spec, concepts=concepts)
    preds = model.predict(X)
    gold = np.array([r.gold for r in records])
    accuracy = float((preds == gold).mean())
    doc: dict = {"n": len(records), "accuracy": accuracy}
    groups = [r.group for r in records]
    if all(g is not None for g in groups):
        report = diagnostics.group_metrics(list(preds), list(gold), groups)
        doc["average_accuracy"] = report.average_accuracy
        doc["worst_group_accuracy"] = report.worst_group_accuracy
        doc["gap"] = report.gap
        doc["per_group"] = dict(report.per_group)
    out = _prepare_out(args.out, args.force)
    (out / "eval.json").write_text(json.dumps(doc, indent=2, sort_keys=True), encoding="utf-8")
    _write_manifest(out, "eval", {"seed": args.seed}, [Path(args.model), Path(args.data)])
    print(f"accuracy {accuracy:.4f} on {len(records)} records")
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
    sp.add_argument("--seed", type=int, default=0, help="seed for any randomized step")
    if data:
        sp.add_argument("--data", required=True, help="dataset file (JSONL or CSV)")
    if task_classes:
        sp.add_argument("--task", help=f"shipped task pack ({', '.join(available_packs())})")
        sp.add_argument("--classes", help="comma-separated class names (alternative to --task)")
        sp.add_argument("--modality", choices=("text", "scores"), default="text")


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
    sp.add_argument("--model", choices=sorted(models.FITTERS), default="ds")
    sp.add_argument("--params", help="reuse fitted params instead of fitting")
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
    sp.add_argument("--mode", choices=("auto", "hashed", "scores"), default="auto")
    sp.add_argument("--dims", type=int, default=4096, help="hashed feature dimension")
    sp.add_argument("--feature-seed", type=int, default=0, help="hashing seed (part of the model)")
    sp.add_argument("--val-fraction", type=float, default=0.1)
    sp.add_argument("--task", help="task pack naming the classes")
    sp.add_argument("--classes", help="comma-separated class names")
    _add_common(sp)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("eval", help="evaluate a trained model on gold-labeled data")
    sp.add_argument("--model", required=True, help="model.json from train")
    _add_common(sp, data=True, task_classes=True)
    sp.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LabelsmithError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
