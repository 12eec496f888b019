"""Spans around labelsmith's layer boundaries, recorded from outside.

``instrument`` swaps the public functions of each module for wrappers
while a traced pipeline runs in this process, and puts the originals back
afterwards; no file of the package changes. A span is
``[name, start, end, parent, info]``: ``parent`` indexes the span that
was open when this one started (-1 for none) and ``info`` holds the one
count the metrics need from that call, such as a program id or a byte
size. Spans stay in memory and are written once, at the end of a run.
"""

from __future__ import annotations

import json
import logging
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

MB = 1024 * 1024
LAYERS = ("cli", "data", "dsl", "diagnostics", "models", "distill", "prompting")
MODELS = ("ds", "snorkel-lite")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.timed_out: list[tuple[str, str]] = []

    def wrap(self, name, fn, info=None):
        """``fn`` recording a span per call; ``info(args, result)`` fills
        the span's info slot."""
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if info is not None:
                span[4] = info(args, result)
            return result

        return traced

    def open_span(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None


class _BudgetCounter(logging.Handler):
    """Records the warnings the dsl logger emits inside ``dsl.evaluate``:
    the evaluator logs one per record whose time budget ran out, with the
    program id and record id as its first two arguments."""

    def __init__(self, tracer: Tracer):
        super().__init__(logging.WARNING)
        self.tracer = tracer

    def emit(self, record):
        if self.tracer.open_span() == "dsl.evaluate":
            self.tracer.timed_out.append(tuple(record.args[:2]))


def _file_size(args, result):
    return Path(args[0]).stat().st_size


@contextmanager
def instrument(tracer: Tracer):
    import labelsmith.cli as cli
    import labelsmith.diagnostics as diagnostics
    import labelsmith.distill as distill
    import labelsmith.dsl as dsl
    import labelsmith.dsl.rex as rex
    import labelsmith.models as models

    undo = []

    def patch(owner, attr, name, info=None):
        original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        wrapped = tracer.wrap(name, original, info)
        if isinstance(owner, dict):
            owner[attr] = wrapped
            undo.append(lambda: owner.__setitem__(attr, original))
        else:
            setattr(owner, attr, wrapped)
            undo.append(lambda: setattr(owner, attr, original))

    for attr in ("load_dataset", "assemble_votes", "save_pseudolabels", "load_pseudolabels"):
        patch(cli, attr, f"data.{attr}")
    patch(cli, "save_votes", "data.save_votes", _file_size)
    patch(cli, "load_votes", "data.load_votes", _file_size)
    patch(cli, "parse_program", "dsl.parse_program")
    patch(cli, "format_program", "dsl.format_program")
    patch(dsl, "evaluate", "dsl.evaluate", lambda args, result: args[0].id)
    patch(rex.Rex, "search", "dsl.rex_search", lambda args, result: len(args[1]))
    patch(
        cli,
        "generate_programs",
        "prompting.generate_programs",
        lambda args, result: (sum(r.program is not None for r in result), len(result)),
    )
    for attr in ("build_prompt", "estimate_cost"):
        patch(cli, attr, f"prompting.{attr}")
    for attr in ("analyze", "save_stats", "render_stats_table", "group_metrics", "coverage_of_label_model"):
        patch(diagnostics, attr, f"diagnostics.{attr}")
    for key in list(models.FITTERS):
        patch(models.FITTERS, key, f"models.fit.{key}", lambda args, result: result[1].iterations)
    for attr in ("predict", "save_params", "load_params"):
        patch(models, attr, f"models.{attr}")
    patch(distill, "featurize", "distill.featurize", lambda args, result: result.nbytes)
    patch(distill, "train_mlp", "distill.train_mlp", lambda args, result: args[3].epochs)
    for attr in ("export_training_set", "load_training_set", "save_model", "load_model"):
        patch(distill, attr, f"distill.{attr}")
    patch(distill.MLPModel, "predict", "distill.mlp_predict")

    dsl_logger = logging.getLogger("labelsmith.dsl")
    handler = _BudgetCounter(tracer)
    propagate = dsl_logger.propagate
    dsl_logger.addHandler(handler)
    dsl_logger.propagate = False  # one line per record would flood the output
    try:
        yield tracer
    finally:
        dsl_logger.propagate = propagate
        dsl_logger.removeHandler(handler)
        for restore in reversed(undo):
            restore()


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_self_times(spans) -> dict[str, float]:
    out = dict.fromkeys(LAYERS, 0.0)
    for span, own in zip(spans, self_times(spans)):
        layer = span[0].split(".")[0]
        out[layer] = out.get(layer, 0.0) + own
    return out


def layer_metrics(spans, timed_out, steps, program_ids) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline; every name is present,
    zero where the layer did no work."""
    total = defaultdict(float)
    calls = defaultdict(int)
    info = defaultdict(list)
    for name, start, end, _, extra in spans:
        total[name] += end - start
        calls[name] += 1
        if extra is not None:
            info[name].append(extra)

    def per(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    m = {}
    for attr in ("load_dataset", "assemble_votes", "save_votes", "load_votes", "save_pseudolabels", "load_pseudolabels"):
        m[f"data.{attr}_s"] = total[f"data.{attr}"]
    m["data.votes_mb"] = max(info["data.save_votes"] + info["data.load_votes"], default=0) / MB

    m["dsl.parse_program_s"] = total["dsl.parse_program"]
    m["dsl.evaluate_calls"] = calls["dsl.evaluate"]
    m["dsl.evaluate_us_per_call"] = per(total["dsl.evaluate"] * 1e6, calls["dsl.evaluate"])
    by_program = dict.fromkeys(program_ids, 0.0)
    for name, start, end, _, extra in spans:
        if name == "dsl.evaluate":
            by_program[extra] = by_program.get(extra, 0.0) + end - start
    for pid, seconds in by_program.items():
        m[f"dsl.evaluate_s.{pid}"] = seconds
    m["dsl.budget_exhausted"] = len(timed_out)
    m["dsl.rex_search_calls"] = calls["dsl.rex_search"]
    chars = sum(info["dsl.rex_search"])
    m["dsl.rex_chars_scanned"] = chars
    m["dsl.rex_ns_per_char"] = per(total["dsl.rex_search"] * 1e9, chars)

    m["diagnostics.analyze_s"] = total["diagnostics.analyze"]

    for model in MODELS:
        fit = total[f"models.fit.{model}"]
        iterations = sum(info[f"models.fit.{model}"])
        m[f"models.fit_s.{model}"] = fit
        m[f"models.em_iterations.{model}"] = iterations
        m[f"models.s_per_em_iteration.{model}"] = per(fit, iterations)
    m["models.predict_s"] = total["models.predict"]

    m["distill.export_training_set_s"] = total["distill.export_training_set"]
    m["distill.load_training_set_s"] = total["distill.load_training_set"]
    m["distill.featurize_s"] = total["distill.featurize"]
    m["distill.feature_matrix_mb"] = max(info["distill.featurize"], default=0) / MB
    m["distill.train_mlp_s"] = total["distill.train_mlp"]
    m["distill.train_s_per_epoch"] = per(total["distill.train_mlp"], sum(info["distill.train_mlp"]))
    # eval's predictions only; train_mlp also predicts once per epoch
    m["distill.mlp_predict_s"] = sum(
        (end - start
         for name, start, end, parent, _ in spans
         if name == "distill.mlp_predict" and parent >= 0 and spans[parent][0].startswith("cli.")),
        0.0,
    )

    m["prompting.generate_programs_s"] = total["prompting.generate_programs"]
    extracted = info["prompting.generate_programs"]
    m["prompting.extracted_per_request"] = per(sum(e for e, _ in extracted), sum(r for _, r in extracted))

    own = self_times(spans)
    for step in steps:
        m[f"cli.self_s.{step}"] = sum((s for span, s in zip(spans, own) if span[0] == f"cli.{step}"), 0.0)
    for layer, seconds in layer_self_times(spans).items():
        m[f"self_s.{layer}"] = seconds
    return m


def write_spans(path: Path, runs: list[list]) -> None:
    """All traced pipelines of a run, one list of spans each."""
    path.write_text(
        json.dumps({"fields": ["name", "start", "end", "parent", "info"], "pipelines": runs}),
        encoding="utf-8",
    )
