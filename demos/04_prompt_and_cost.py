"""Prompt assembly, offline generation through the mock transport, and
the cost model behind the whole approach.

The point of generating programs instead of per-record labels: you pay
for a handful of program requests, not one request per data point. The
cost estimator below makes that concrete with the byte-based token
heuristic (1 token per 4 UTF-8 bytes, rounded up).
"""

import tempfile
from pathlib import Path

from labelsmith.packs import load_pack
from labelsmith.prompting import (
    GenerationJob,
    MockTransport,
    Pricing,
    build_prompt,
    estimate_cost,
    generate_programs,
)

pack = load_pack("sms")
prompt = build_prompt(
    pack,
    description="short SMS messages, UK slang",
    exemplars=[("WIN a free cruise, txt YES", "spam"), ("see you at 8", "ham")],
)
print("assembled prompt:")
print(prompt)

# the mock transport replays canned responses, cycling when it runs out,
# so the whole generation path runs without a network or an API key
fixture = Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "mock" / "ok_program.json"
# every raw reply is recorded under <out_dir>/raw/, here a throwaway directory
job = GenerationJob(
    prompt=prompt,
    model="gpt-3.5-turbo",
    n_programs=4,
)
with tempfile.TemporaryDirectory() as out_dir:
    results = generate_programs(job, pack.class_space(), MockTransport.from_file(fixture), out_dir)
    print("raw replies:", sorted(p.name for p in (Path(out_dir) / "raw").iterdir()))
for res in results:
    status = f"program with {len(res.program.rules)} rules" if res.program else f"failed: {res.error}"
    print(f"slot {res.slot}: {status} (attempts {res.attempts})")

# cost comparison: annotate every record directly vs generate 10 programs
pricing = Pricing(0.0005, 0.0015)  # dollars per 1k tokens, in/out
template = build_prompt(pack)
for n in (100, 1000, 10000):
    per_record_prompts = [f"{template}\nText: message number {i}" for i in range(n)]
    annotate = estimate_cost(per_record_prompts, ["spam"] * n, pricing)
    generate = estimate_cost([template] * 10, ['rule: contains("free") -> spam;'] * 10, pricing)
    print(
        f"n={n:6d}: per-record annotation ${annotate.dollars:9.4f}"
        f"   10-program generation ${generate.dollars:.4f}"
        f"   ratio {annotate.dollars / generate.dollars:7.0f}x"
    )
print("annotation scales with n, generation does not")
