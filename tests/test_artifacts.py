"""Property: no malformed artifact makes the CLI raise.

A small walkthrough writes every artifact a command reads back. Each
example mutates one of them, or one of the walkthrough's inputs, and runs
every command that reads it: the command may succeed (0), flag programs
(2) or fail (1), but a failure must print ``error:`` and name the file.
A program file is not JSON, so it only gets the text-level mutations.
The model is a pair of files: a mutated ``model.json`` is read with the
``model.bin`` train wrote, and a mutated ``model.bin`` (cut short, one
double longer, a weight made NaN or infinite, or missing) with the
``model.json``. The outputs no command reads (analysis.json,
fit_report.json, cost.json, raw/*.json, metrics.csv, eval.json,
run_manifest.json) are not mutated.

Beyond the property, an artifact one of whose columns breaks a column
rule (a repeated id, a hard label that is not its posterior's argmax, a
label of K) must make every command that reads it exit 1 naming the
line, or for a JSON document the field and entry, at fault.
"""

import contextlib
import io
import json
import math
import shutil
import struct
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from labelsmith.cli import main
from labelsmith.data import serialize_records
from labelsmith.synth import make_spam_corpus

FIXTURES = Path(__file__).parent / "fixtures"
SPAM_PROGRAMS = str(FIXTURES / "spam_programs")

# values of every JSON type; a swap puts in one whose type differs
SWAPS = (0, "x", [0], {}, None, True, math.nan)
TEXT_MUTATIONS = ("truncate", "garble-line")
# a lone surrogate escape parses to a string that UTF-8 cannot encode
LONE_SURROGATE = "\ud800"
MUTATIONS = ("drop", "swap", "lone-surrogate", *TEXT_MUTATIONS)


def run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def walkthrough(tmp_path_factory):
    root = tmp_path_factory.mktemp("walkthrough")
    records, _ = make_spam_corpus(60, seed=7)
    serialize_records(records, root / "corpus.jsonl")
    shutil.copy(FIXTURES / "mock" / "ok_program.json", root / "mock.json")
    shutil.copytree(SPAM_PROGRAMS, root / "programs")
    (root / "exemplars.jsonl").write_text(
        "".join(json.dumps({"text": r.text, "class": "spam" if r.gold == 0 else "ham"}) + "\n"
                for r in records[:3]),
        encoding="utf-8",
    )
    steps = [
        ["apply", "--programs", SPAM_PROGRAMS, "--task", "sms", "--data", "ROOT/corpus.jsonl", "--out", "ROOT/votes"],
        ["aggregate", "--votes", "ROOT/votes/votes.json", "--keep-flagged", "--out", "ROOT/agg"],
        ["export", "--pseudolabels", "ROOT/agg/pseudolabels.jsonl", "--task", "sms",
         "--data", "ROOT/corpus.jsonl", "--out", "ROOT/export"],
        ["train", "--train-file", "ROOT/export/train.jsonl", "--task", "sms", "--epochs", "1", "--dims", "32",
         "--out", "ROOT/train"],
    ]
    for argv in steps:
        code, err = run(resolve(argv, root))
        assert code == 0, err
    return root


def resolve(argv, root: Path, artifact: Path | None = None) -> list[str]:
    """``ROOT/`` names a file of the walkthrough, ``ARTIFACT`` the mutated
    copy and ``ARTIFACT_DIR`` the directory that holds that copy and, for
    a file of a pair, the other file of the pair."""

    def one(arg: str) -> str:
        if arg == "ARTIFACT":
            return str(artifact)
        if arg.startswith("ARTIFACT_DIR"):
            return str(artifact.parent) + arg[len("ARTIFACT_DIR") :]
        return arg.replace("ROOT", str(root), 1)

    return [one(a) for a in argv]


# artifact -> every command of the walkthrough that reads it; ARTIFACT
# stands for the mutated copy
CONSUMERS = {
    "corpus.jsonl": [
        ["apply", "--programs", SPAM_PROGRAMS, "--task", "sms", "--data", "ARTIFACT"],
        ["export", "--pseudolabels", "ROOT/agg/pseudolabels.jsonl", "--task", "sms", "--data", "ARTIFACT"],
        ["eval", "--model", "ROOT/train/model.json", "--data", "ARTIFACT"],
    ],
    "votes/votes.json": [
        ["analyze", "--votes", "ARTIFACT"],
        ["aggregate", "--votes", "ARTIFACT"],
    ],
    "agg/params.json": [
        ["aggregate", "--votes", "ROOT/votes/votes.json", "--keep-flagged", "--params", "ARTIFACT"],
    ],
    "agg/pseudolabels.jsonl": [
        ["export", "--pseudolabels", "ARTIFACT", "--task", "sms", "--data", "ROOT/corpus.jsonl"],
    ],
    "export/train.jsonl": [
        ["train", "--train-file", "ARTIFACT", "--task", "sms", "--epochs", "1", "--dims", "32"],
    ],
    "train/model.json": [
        ["eval", "--model", "ARTIFACT", "--data", "ROOT/corpus.jsonl"],
    ],
    "train/model.bin": [
        ["eval", "--model", "ARTIFACT_DIR/model.json", "--data", "ROOT/corpus.jsonl"],
    ],
    "mock.json": [
        ["generate", "--task", "sms", "--mock", "ARTIFACT", "--n", "2"],
    ],
    "exemplars.jsonl": [
        ["generate", "--task", "sms", "--mock", "ROOT/mock.json", "--n", "1", "--exemplars", "ARTIFACT"],
    ],
    "programs/07_spaced_letters.lf": [
        ["apply", "--programs", "ARTIFACT_DIR", "--task", "sms", "--data", "ROOT/corpus.jsonl"],
    ],
}
# the other file of a pair, copied unchanged beside the mutated one
PARTNER = {"train/model.json": "train/model.bin", "train/model.bin": "train/model.json"}
BIN_MUTATIONS = ("truncate", "extra-double", "non-finite", "missing")


def _paths(node, prefix=()):
    """Every position in a parsed JSON tree, root first."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


def _node(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def _mutate_node(doc, path, kind, data):
    if not path:
        choices = [v for v in SWAPS if type(v) is not type(doc)]
        return data.draw(st.sampled_from(choices))
    parent, last = _node(doc, path[:-1]), path[-1]
    if kind == "drop":
        del parent[last]
    elif kind == "lone-surrogate":
        parent[last] += LONE_SURROGATE
    else:
        choices = [v for v in SWAPS if type(v) is not type(parent[last])]
        parent[last] = data.draw(st.sampled_from(choices))
    return doc


def mutated_text(text: str, jsonl: bool, data, kinds=MUTATIONS) -> str:
    kind = data.draw(st.sampled_from(kinds), label="mutation")
    if kind == "truncate":
        return text[: data.draw(st.integers(0, len(text) - 1), label="cut")]
    lines = text.splitlines()
    if kind == "garble-line":
        i = data.draw(st.integers(0, len(lines) - 1), label="line")
        return "\n".join(lines[:i] + ["{not json"] + lines[i + 1 :]) + "\n"
    doc = [json.loads(line) for line in lines if line.strip()] if jsonl else json.loads(text)
    paths = list(_paths(doc))
    if kind == "drop":
        paths = paths[1:]  # the root cannot be dropped
    elif kind == "lone-surrogate":
        paths = [path for path in paths if type(_node(doc, path)) is str]
    path = paths[data.draw(st.integers(0, len(paths) - 1), label="node")]
    doc = _mutate_node(doc, path, kind, data)
    if jsonl and isinstance(doc, list):
        return "".join(json.dumps(row) + "\n" for row in doc)
    return json.dumps(doc)


def mutated_bin(data: bytes, draw) -> bytes | None:
    """``data``, a file of doubles, mutated; None for a missing file."""
    kind = draw(st.sampled_from(BIN_MUTATIONS), label="mutation")
    if kind == "truncate":
        return data[: draw(st.integers(0, len(data) - 1), label="cut")]
    if kind == "extra-double":
        return data + struct.pack("<d", draw(st.floats(allow_nan=False, allow_infinity=False), label="value"))
    if kind == "non-finite":
        i = 8 * draw(st.integers(0, len(data) // 8 - 1), label="value index")
        return data[:i] + struct.pack("<d", draw(st.sampled_from([math.nan, math.inf, -math.inf]))) + data[i + 8 :]
    return None


@pytest.mark.parametrize("artifact", sorted(CONSUMERS))
@settings(
    max_examples=40,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(data=st.data())
def test_malformed_artifact_never_raises(walkthrough, artifact, tmp_path, data):
    source = walkthrough / artifact
    bad = tmp_path / "mutated" / source.name
    bad.parent.mkdir(exist_ok=True)
    if artifact in PARTNER:
        shutil.copy(walkthrough / PARTNER[artifact], bad.parent)
    if artifact.endswith(".bin"):
        content = mutated_bin(source.read_bytes(), data.draw)
        bad.unlink(missing_ok=True)  # tmp_path outlives one example
        if content is not None:
            bad.write_bytes(content)
    else:
        kinds = TEXT_MUTATIONS if artifact.endswith(".lf") else MUTATIONS
        content = mutated_text(source.read_text(encoding="utf-8"), artifact.endswith(".jsonl"), data, kinds)
        bad.write_text(content, encoding="utf-8")
    for command in CONSUMERS[artifact]:
        code, err = run([*resolve(command, walkthrough, bad), "--out", str(tmp_path / "out"), "--force"])
        # every mutation of the arrays breaks the pair
        assert code in ((1,) if artifact.endswith(".bin") else (0, 1, 2)), (command, code, err)
        if code == 1:
            assert err.startswith("error:") and str(bad) in err, (command, content and content[:300], err)


def _repeat_record_id(doc):
    doc["record_ids"][1] = doc["record_ids"][0]
    return doc


def _repeat_line_1(rows):
    rows[2]["record_id"] = rows[0]["record_id"]
    return rows


def _hard_not_argmax(rows):
    rows[3]["hard"] = 1 - rows[3]["hard"]
    return rows


def _label_K(rows):
    rows[4]["label"] = 2  # the sms task has K = 2 classes
    return rows


# case -> (artifact, edit of its parsed JSON or JSONL rows, what the error
# line must say after ``error: <path>``); every command that reads the
# artifact must exit 1 with that line
BROKEN_COLUMNS = {
    "votes-repeated-record-id": (
        "votes/votes.json", _repeat_record_id, ": record_ids must be unique strings, but entry 1 repeats 's00000'"
    ),
    "pseudolabels-repeated-id-on-line-3": (
        "agg/pseudolabels.jsonl", _repeat_line_1, ":3: record_ids must be unique strings, but entry 2 repeats 's00000'"
    ),
    "pseudolabels-hard-not-argmax": ("agg/pseudolabels.jsonl", _hard_not_argmax, ":4: hard entry 3 is "),
    "train-label-K": ("export/train.jsonl", _label_K, ":5: label entry 4 is 2, expected a class index in 0..1"),
}


@pytest.mark.parametrize("case", sorted(BROKEN_COLUMNS))
def test_broken_column_names_its_line_or_entry(walkthrough, tmp_path, case):
    artifact, edit, message = BROKEN_COLUMNS[case]
    source = walkthrough / artifact
    bad = tmp_path / source.name
    text = source.read_text(encoding="utf-8")
    if artifact.endswith(".jsonl"):
        bad.write_text("".join(json.dumps(row) + "\n" for row in edit([json.loads(line) for line in text.splitlines()])))
    else:
        bad.write_text(json.dumps(edit(json.loads(text))))
    for command in CONSUMERS[artifact]:
        code, err = run([*resolve(command, walkthrough, bad), "--out", str(tmp_path / "out"), "--force"])
        assert code == 1, (command, err)
        assert err.startswith(f"error: {bad}{message}"), (command, err)
