#!/usr/bin/env bash
# Runs the README's offline walkthrough, the first bash block under
# "Five-minute offline walkthrough", verbatim, so a flag the README uses
# cannot disappear unnoticed. It then runs the block again into
# runs-again/ and checks that every output but the run manifests repeats
# byte for byte, as the README promises.
#
#   scripts/readme-walkthrough.sh [WORKDIR]
#
# The commands run in WORKDIR (default: a new temporary directory), which
# must be empty or absent; `tests` there links to this checkout's tests/,
# which the block reads fixtures from. Without an installed `labelsmith`
# console script, the block runs this checkout's src/ through python -m.
set -euo pipefail

repo=$(cd "$(dirname "$0")/.." && pwd)
work=${1:-$(mktemp -d)}
mkdir -p "$work"
if [ -n "$(ls -A "$work")" ]; then
    echo "error: $work is not empty" >&2
    exit 1
fi
work=$(cd "$work" && pwd)

awk '/^## Five-minute offline walkthrough/ {s = 1}
     s && /^```bash/ {b = 1; next}
     b && /^```/ {exit}
     b' "$repo/README.md" > "$work/walkthrough.sh"
if [ ! -s "$work/walkthrough.sh" ]; then
    echo "error: README.md has no bash block under '## Five-minute offline walkthrough'" >&2
    exit 1
fi
sed 's#runs/#runs-again/#g' "$work/walkthrough.sh" > "$work/walkthrough-again.sh"
ln -s "$repo/tests" "$work/tests"

export PYTHONPATH="$repo/src${PYTHONPATH:+:$PYTHONPATH}"
if ! command -v labelsmith > /dev/null; then
    labelsmith() { python -m labelsmith "$@"; }
    export -f labelsmith
fi

cd "$work"
bash -e walkthrough.sh
bash -e walkthrough-again.sh
diff -r -x run_manifest.json runs runs-again
echo "walkthrough repeated byte for byte in $work"
