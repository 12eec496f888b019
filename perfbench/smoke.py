"""The benchmark's own smoke test, at tiny input sizes.

    python3 perfbench/smoke.py

1. Every workload's chain runs, per process and traced in process, and
   every output check passes.
2. The reference evaluator agrees with ``labelsmith.dsl.evaluate`` on
   short texts, where the evaluation budget cannot fire.
3. A corrupted vote (another class, or ABSTAIN without a logged timeout)
   or pseudolabel makes the checks fail, both with the manifest hash left
   stale and with it updated to match.

Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from pathlib import Path

import run

TINY = {"sms-walkthrough": 1500, "review-long": 40, "vote-matrix": 3000}
SEED = 11


def check(label: str, ok: bool, detail: str = "") -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {label}{': ' + detail if detail and not ok else ''}")
    return ok


def corrupt_and_check(expected, out: Path, timed_out, label, path: Path, mutate, step) -> list[bool]:
    """Mutates one value of ``path`` in the pipeline left in ``out``, whose
    evaluations in ``timed_out`` ran out of budget; the checks must fail,
    first through the stale manifest hash, then, with the hash updated,
    through the reference."""
    import reference as ref
    import workloads

    steps = expected.workload.chain(out.parent / "inputs-0", out)
    codes = [0] * len(steps)
    results = []
    original = path.read_text(encoding="utf-8")
    manifest = path.parent / "run_manifest.json"
    manifest_text = manifest.read_text(encoding="utf-8")
    try:
        path.write_text(mutate(original), encoding="utf-8")
        _, problems = workloads.check(expected, out, steps, codes, timed_out)
        results.append(check(f"{label}: stale manifest hash is caught", step in problems, str(problems)))
        doc = json.loads(manifest_text)
        doc["outputs"][path.name] = ref.sha256(path)
        manifest.write_text(json.dumps(doc), encoding="utf-8")
        _, problems = workloads.check(expected, out, steps, codes, timed_out)
        found = problems.get(step, [])
        results.append(check(f"{label}: the reference catches it", bool(found) and not any("sha256" in p for p in found), str(problems)))
    finally:
        path.write_text(original, encoding="utf-8")
        manifest.write_text(manifest_text, encoding="utf-8")
    return results


def _first_vote(doc: dict) -> tuple[list, int]:
    row = next(row for row in doc["votes"] if any(v != -1 for v in row))
    return row, next(j for j, v in enumerate(row) if v != -1)


def flip_vote(text: str) -> str:
    doc = json.loads(text)
    row, j = _first_vote(doc)
    row[j] = (row[j] + 1) % len(doc["classes"])
    return json.dumps(doc)


def drop_vote(text: str) -> str:
    """A class vote turned into ABSTAIN, as a missed match would give."""
    doc = json.loads(text)
    row, j = _first_vote(doc)
    row[j] = -1
    return json.dumps(doc)


def flip_pseudolabel(text: str) -> str:
    lines = text.splitlines(keepends=True)
    row = json.loads(lines[0])
    row["hard"] = (row["hard"] + 1) % len(row["posterior"])
    lines[0] = json.dumps(row) + "\n"
    return "".join(lines)


def smoke_workloads(launcher) -> list[bool]:
    import tracing
    import workloads

    results = []
    for name, size in TINY.items():
        w = dataclasses.replace(workloads.WORKLOADS[name], size=size)
        work = run.fresh_dir(run.WORK / f"smoke-{name}")
        inp, _, info = run.setup(w, SEED, work)
        _, problems = run.regenerate(w, SEED, work, 0.0)
        results.append(check(f"{name}: inputs repeat for a seed", not problems, str(problems)))
        r = run.Run(workloads.Expected(w, inp, info), work, launcher)
        r.pipeline(r.processes)
        tracer = tracing.Tracer()
        with tracing.instrument(tracer):
            result, _ = r.pipeline(lambda steps, logs: run.run_chain_in_process(steps, logs, tracer))
        timed_out = result["timed_out"]
        results.append(check(f"{name}: per-process and traced chains pass every check", not r.problems, "; ".join(r.problems)))
        results.append(check(f"{name}: the traced chain left spans", bool(tracer.spans)))
        out = work / "runs"
        if w.task is not None:
            votes = out / "votes" / "votes.json"
            results += corrupt_and_check(r.expected, out, timed_out, f"{name} votes.json, another class", votes, flip_vote, "apply")
            results += corrupt_and_check(r.expected, out, timed_out, f"{name} votes.json, ABSTAIN", votes, drop_vote, "apply")
        results += corrupt_and_check(
            r.expected, out, timed_out, f"{name} pseudolabels.jsonl", out / "agg" / "pseudolabels.jsonl", flip_pseudolabel, "aggregate"
        )
    return results


def reference_agrees() -> bool:
    import numpy as np

    import inputs
    import reference as ref
    from labelsmith.data import Record
    from labelsmith.dsl import evaluate, parse_program
    from labelsmith.packs import load_pack

    rng = np.random.default_rng(SEED)
    ok = True
    for pack, folder in (("sms", "sms"), ("imdb", "review")):
        cs = load_pack(pack).class_space()
        programs = [
            parse_program(p.read_text(encoding="utf-8"), cs, program_id=p.stem)
            for p in sorted((inputs.PROGRAMS / folder).glob("*.lf"))
        ]
        if pack == "sms":
            from labelsmith.synth import make_spam_corpus

            texts = [r.text for r in make_spam_corpus(400, seed=SEED)[0]]
        else:
            texts = [inputs._review_text(rng, int(rng.integers(2)), int(rng.integers(50, 300)))[:400] for _ in range(400)]
        expected = ref.reference_votes(programs, texts)
        got = np.array([[evaluate(p, Record(id=str(i), text=t)) for p in programs] for i, t in enumerate(texts)])
        ok &= check(f"reference evaluator agrees with labelsmith on {len(texts)} short {folder} texts",
                    bool((got == expected).all()), f"{int((got != expected).sum())} votes differ")
    return ok


def main() -> int:
    if not (run.SRC / "labelsmith" / "__init__.py").is_file():
        print(f"error: no labelsmith package under {run.SRC}", file=sys.stderr)
        return 2
    with run.Launcher() as launcher:
        os.environ.update(run.PINNED)
        sys.path.insert(0, str(run.SRC))
        results = [reference_agrees()] + smoke_workloads(launcher)
    print(f"{sum(results)}/{len(results)} checks passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
