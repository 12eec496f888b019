"""Per-layer self time of traced pipelines.

    python3 perfbench/report.py perfbench/.work/*/spans.json

A ``--trace 1`` run prints this report itself; this entry point reprints
it from the spans.json a run left behind.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import tracing


def render(title: str, pipelines: list) -> str:
    """The table for a list of traced pipelines, each a list of spans."""
    per_layer = [tracing.layer_self_times(spans) for spans in pipelines]
    median = {layer: statistics.median(p.get(layer, 0.0) for p in per_layer) for layer in per_layer[0]}
    total = sum(median.values())
    lines = [
        f"per-layer self time, {title} (median of {len(pipelines)} traced pipeline(s))",
        f"{'layer':<12} {'self_s':>9} {'share':>7}",
    ]
    for layer, seconds in sorted(median.items(), key=lambda kv: -kv[1]):
        share = seconds / total if total else 0.0
        lines.append(f"{layer:<12} {seconds:>9.4f} {share:>7.1%}")
    lines.append(f"{'total':<12} {total:>9.4f}")
    return "\n".join(lines)


def main(paths) -> int:
    for path in paths:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        print(render(Path(path).parent.name, doc["pipelines"]))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
