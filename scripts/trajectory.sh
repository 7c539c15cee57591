#!/usr/bin/env bash
# scripts/trajectory.sh BENCH.json TRAJECTORY.jsonl [label [PARENT.json]]
# — validate an mkss-bench/v1 document and append a one-line summary
# record to the perf trajectory log (results/bench_trajectory.jsonl in
# CI), so the sweep wall clock is queryable across PRs with nothing
# fancier than grep/jq. Records are comparable only at one frozen config,
# so any document not made by `mkbench -fig 6a -sets 4 -candidates 1200`
# (no-fault) is refused. The record's commit names the measured tree:
# HEAD's short hash, suffixed "+dirty" when tracked files differ from
# HEAD (the usual case when a change is measured before it is committed).
#
# An absolute wall clock moves with the host as much as with the code,
# so a change should also pass PARENT.json: the parent commit's document,
# measured in the same session under the same frozen config. Its wall
# clock lands in the record as parent_wall_clock_ms, and the pair, not
# the absolute number, says what the change did.
set -euo pipefail

doc=$1
out=$2
label=${3:-}
parent=${4:-}

python3 - "$doc" "$out" "$label" "$parent" <<'EOF'
import json
import subprocess
import sys


def load(path):
    """Load an mkss-bench/v1 document taken at the frozen config."""
    doc = json.load(open(path))
    if doc.get("schema") != "mkss-bench/v1":
        sys.exit(f"trajectory: {path} schema {doc.get('schema')!r}, want mkss-bench/v1")
    if not doc.get("rows"):
        sys.exit(f"trajectory: {path} has no rows — refusing to log an empty sweep")
    frozen = {"figure": "6a", "scenario": "no-fault", "sets_per_interval": 4, "max_candidates": 1200}
    for field, want in frozen.items():
        if doc.get(field) != want:
            sys.exit(f"trajectory: {path} has {field} {doc.get(field)!r}, want {want!r} — "
                     "only `mkbench -fig 6a -sets 4 -candidates 1200` records are comparable")
    return doc


doc = load(sys.argv[1])
parent = load(sys.argv[4]) if sys.argv[4] else None

try:
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    # Exit status 1 means staged or unstaged changes to tracked files.
    if subprocess.run(["git", "diff", "--quiet", "HEAD", "--"]).returncode != 0:
        commit += "+dirty"
except Exception:
    commit = "unknown"

rec = {
    "schema": "mkss-bench-trajectory/v1",
    "commit": commit,
    "figure": doc.get("figure"),
    "scenario": doc.get("scenario"),
    "sets_per_interval": doc.get("sets_per_interval"),
    "max_candidates": doc.get("max_candidates"),
    "wall_clock_ms": round(doc.get("wall_clock_ms", 0.0), 3),
}
if parent is not None:
    rec["parent_wall_clock_ms"] = round(parent.get("wall_clock_ms", 0.0), 3)
if sys.argv[3]:
    rec["label"] = sys.argv[3]

with open(sys.argv[2], "a") as f:
    f.write(json.dumps(rec, separators=(",", ":")) + "\n")
print("trajectory: appended", json.dumps(rec, separators=(",", ":")))
EOF
