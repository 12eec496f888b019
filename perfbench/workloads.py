"""The benchmark's workloads: inputs, command chain and output checks.

sms-walkthrough  the README's seven commands with its flags on a seeded
                 make_spam_corpus: many short records, so per-record
                 overhead, program 07's regex and MLP training dominate.
review-long      review-length texts under the imdb pack with a fixed
                 program set that leans on regexes: per-character dsl/rex
                 cost dominates and the 50 ms evaluation budget fires.
vote-matrix      a seeded Dawid-Skene vote sample: no dsl or distill work;
                 EM fitting, predict-only reuse and votes.json IO dominate.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
import reference as ref


@dataclass(frozen=True)
class Step:
    name: str
    argv: tuple[str, ...]
    expect: int = 0

    @property
    def out(self) -> str:
        """The step's output directory, the value after --out."""
        return self.argv[self.argv.index("--out") + 1]


@dataclass(frozen=True)
class Workload:
    name: str
    size: int
    make_inputs: Callable[[Path, int, int], dict]
    chain: Callable[[Path, Path], list[Step]]
    task: str | None = None


def _sms_chain(inp: Path, out: Path) -> list[Step]:
    corpus, votes = str(inp / "corpus.jsonl"), str(out / "votes" / "votes.json")
    return [
        Step("generate", ("generate", "--task", "sms", "--mock", str(inp / "mock.json"), "--n", "4", "--out", str(out / "gen"))),
        Step("apply", ("apply", "--programs", str(inp / "programs"), "--task", "sms", "--data", corpus, "--out", str(out / "votes"))),
        Step("analyze", ("analyze", "--votes", votes, "--out", str(out / "analysis"))),
        Step("aggregate", ("aggregate", "--votes", votes, "--model", "ds", "--out", str(out / "agg"))),
        Step("export", ("export", "--pseudolabels", str(out / "agg" / "pseudolabels.jsonl"), "--task", "sms", "--data", corpus, "--out", str(out / "export"))),
        Step("train", ("train", "--train-file", str(out / "export" / "train.jsonl"), "--task", "sms", "--epochs", "20", "--dims", "1024", "--out", str(out / "train"))),
        Step("eval", ("eval", "--model", str(out / "train" / "model.json"), "--data", corpus, "--out", str(out / "eval"))),
    ]


def _review_chain(inp: Path, out: Path) -> list[Step]:
    corpus, votes = str(inp / "corpus.jsonl"), str(out / "votes" / "votes.json")
    return [
        Step("apply", ("apply", "--programs", str(inp / "programs"), "--task", "imdb", "--data", corpus, "--out", str(out / "votes"))),
        # budget timeouts lower coverage by an amount that depends on load
        Step("aggregate", ("aggregate", "--votes", votes, "--model", "ds", "--keep-flagged", "--out", str(out / "agg"))),
        Step("export", ("export", "--pseudolabels", str(out / "agg" / "pseudolabels.jsonl"), "--task", "imdb", "--data", corpus, "--out", str(out / "export"))),
        Step("train", ("train", "--train-file", str(out / "export" / "train.jsonl"), "--task", "imdb", "--out", str(out / "train"))),
        Step("eval", ("eval", "--model", str(out / "train" / "model.json"), "--data", corpus, "--out", str(out / "eval"))),
    ]


def _vote_chain(inp: Path, out: Path) -> list[Step]:
    votes = str(inp / "votes.json")
    return [
        Step("analyze", ("analyze", "--votes", votes, "--out", str(out / "analysis"))),
        Step("aggregate", ("aggregate", "--votes", votes, "--model", "ds", "--out", str(out / "agg"))),
        Step("aggregate-snorkel-lite", ("aggregate", "--votes", votes, "--model", "snorkel-lite", "--out", str(out / "agg-snorkel-lite"))),
        Step("aggregate-reuse", ("aggregate", "--votes", votes, "--params", str(out / "agg" / "params.json"), "--out", str(out / "agg-reuse"))),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sms-walkthrough", 3000, inputs.make_sms, _sms_chain, task="sms"),
        Workload("review-long", 120, inputs.make_review, _review_chain, task="imdb"),
        Workload("vote-matrix", 40000, inputs.make_votes, _vote_chain),
    )
}
STEPS = ("generate", "apply", "analyze", "aggregate", "aggregate-snorkel-lite", "aggregate-reuse", "export", "train", "eval")

# Floors well below what the seed reaches on every seed tried; a drop
# under one means the pipeline broke, not that it got noisier.
FLOORS = {
    "sms-walkthrough": {"pseudolabel_accuracy": 0.9, "eval_accuracy": 0.95},
    "review-long": {"pseudolabel_accuracy": 0.75, "eval_accuracy": 0.7},
    "vote-matrix": {"pseudolabel_accuracy": 0.9, "eval_accuracy": 0.9},
}
# DS-recovered P(vote correct | vote) against the generating value: a
# fixed slack plus three binomial standard errors of the program's votes.
RECOVERY_SLACK = 0.02
MOCK_PROGRAMS = 4  # every --mock response holds one program that parses


class Expected:
    """What the checks compare against, computed once per input set."""

    def __init__(self, workload: Workload, inp: Path, info: dict):
        self.workload = workload
        self.info = info
        if workload.task is not None:
            from labelsmith.dsl import parse_program
            from labelsmith.packs import load_pack

            cs = load_pack(workload.task).class_space()
            paths = sorted((inp / "programs").glob("*.lf"))
            programs = [parse_program(p.read_text(encoding="utf-8"), cs, program_id=p.stem) for p in paths]
            rows = ref.read_jsonl(inp / "corpus.jsonl")
            self.program_ids = [p.id for p in programs]
            self.record_ids = [r["id"] for r in rows]
            self.gold = np.array([r["gold"] for r in rows])
            self.votes = ref.reference_votes(programs, [r["text"] for r in rows])
        else:
            doc = json.loads((inp / "votes.json").read_text(encoding="utf-8"))
            self.program_ids = doc["program_ids"]
            self.record_ids = doc["record_ids"]
            self.gold = np.array(doc["gold"])
            self.groups = doc["group"]
            self.votes = np.asarray(doc["votes"], dtype=np.int64)


# the evaluator's warning when a program runs out of budget on a record
TIMEOUT_LINE = re.compile(r"program (\S+) timed out on record (\S+) ")


def check(expected: Expected, out: Path, steps: list[Step], codes: list[int], timed_out=()) -> tuple[dict, dict]:
    """Checks one pipeline's outputs; ``timed_out`` holds the (program id,
    record id) pairs whose evaluation ran out of budget. Returns the
    quality metrics and the problems found, keyed by the step whose
    output failed."""
    w = expected.workload
    problems: dict[str, list[str]] = {}
    for step, code in zip(steps, codes):
        if code != step.expect:
            problems.setdefault(step.name, []).append(f"exit code {code}, expected {step.expect}")
    if problems:
        return {}, problems
    for step in steps:
        found = ref.check_manifest(Path(step.out))
        if found:
            problems.setdefault(step.name, []).extend(found)

    q = {}
    if w.task is not None:
        doc = json.loads((out / "votes" / "votes.json").read_text(encoding="utf-8"))
        q["vote_agreement"], found = ref.compare_votes(
            doc, expected.votes, expected.program_ids, expected.record_ids, timed_out
        )
        votes = np.asarray(doc["votes"], dtype=np.int64)
        if found:
            problems.setdefault("apply", []).extend(found)
    else:
        q["vote_agreement"] = 1.0  # the votes are the input; no rule runs
        votes = expected.votes
        analysis = json.loads((out / "analysis" / "analysis.json").read_text(encoding="utf-8"))
        coverage = [p["coverage"] for p in analysis["programs"]]
        if not np.allclose(coverage, (votes != ref.ABSTAIN).mean(axis=0), rtol=0, atol=1e-12):
            problems.setdefault("analyze", []).append("program coverage differs from the vote matrix")

    labels = {}
    for step in steps:
        if not step.name.startswith("aggregate"):
            continue
        agg = Path(step.out)
        params = json.loads((agg / "params.json").read_text(encoding="utf-8"))
        rows = ref.read_jsonl(agg / "pseudolabels.jsonl")
        found = ref.compare_pseudolabels(rows, ref.reference_posteriors(params, votes), votes, expected.record_ids)
        if found:
            problems.setdefault(step.name, []).extend(found)
        labels[step.name] = [r["hard"] for r in rows]
    q["pseudolabel_accuracy"] = ref.accuracy(labels["aggregate"], expected.gold)

    if w.task is not None:
        ev = json.loads((out / "eval" / "eval.json").read_text(encoding="utf-8"))
        q["eval_accuracy"] = ev["accuracy"]
        q["worst_group_accuracy"] = ev["worst_group_accuracy"]
        if any(s.name == "generate" for s in steps):
            n_programs = len(list((out / "gen" / "programs").glob("*.lf")))
            if n_programs != MOCK_PROGRAMS:
                problems.setdefault("generate", []).append(f"extracted {n_programs} programs, expected {MOCK_PROGRAMS}")
    else:
        # the chain's last artifact: predictions of the reused DS params
        reuse = labels["aggregate-reuse"]
        q["eval_accuracy"] = ref.accuracy(reuse, expected.gold)
        q["worst_group_accuracy"] = ref.worst_group_accuracy(reuse, expected.gold, expected.groups)
        if reuse != labels["aggregate"]:
            problems.setdefault("aggregate-reuse", []).append("reused params predict differently from the fit")
        report = json.loads((out / "agg" / "fit_report.json").read_text(encoding="utf-8"))
        recovered = np.array([report["accuracy_by_program"][p] for p in expected.program_ids])
        generating = np.array(expected.info["accuracy"])
        n_votes = (votes != ref.ABSTAIN).sum(axis=0)
        tol = RECOVERY_SLACK + 3 * np.sqrt(generating * (1 - generating) / n_votes)
        off = np.abs(recovered - generating) > tol
        if off.any():
            j = int(np.argmax(off))
            problems.setdefault("aggregate", []).append(
                f"DS accuracy of {expected.program_ids[j]} is {recovered[j]:.4f}, "
                f"generated {generating[j]:.4f} (tolerance {tol[j]:.4f})"
            )

    for name, floor in FLOORS[w.name].items():
        if q[name] < floor:
            step = "eval" if name == "eval_accuracy" and w.task else "aggregate"
            problems.setdefault(step, []).append(f"{name} {q[name]:.4f} is below the floor {floor}")
    return q, problems
