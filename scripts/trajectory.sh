#!/usr/bin/env bash
# scripts/trajectory.sh BENCH.json TRAJECTORY.jsonl [label] — validate an
# mkss-bench/v1 document and append a one-line summary record to the perf
# trajectory log (results/bench_trajectory.jsonl in CI), so the sweep
# wall clock is queryable across PRs with nothing fancier than grep/jq.
# Records are comparable only at one frozen config, so any document not
# made by `mkbench -fig 6a -sets 4 -candidates 1200` (no-fault) is
# refused.
set -euo pipefail

doc=$1
out=$2
label=${3:-}

python3 - "$doc" "$out" "$label" <<'EOF'
import json
import subprocess
import sys

doc = json.load(open(sys.argv[1]))
if doc.get("schema") != "mkss-bench/v1":
    sys.exit(f"trajectory: {sys.argv[1]} schema {doc.get('schema')!r}, want mkss-bench/v1")
if not doc.get("rows"):
    sys.exit(f"trajectory: {sys.argv[1]} has no rows — refusing to log an empty sweep")
frozen = {"figure": "6a", "scenario": "no-fault", "sets_per_interval": 4, "max_candidates": 1200}
for field, want in frozen.items():
    if doc.get(field) != want:
        sys.exit(f"trajectory: {sys.argv[1]} has {field} {doc.get(field)!r}, want {want!r} — "
                 "only `mkbench -fig 6a -sets 4 -candidates 1200` records are comparable")

try:
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
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
if sys.argv[3]:
    rec["label"] = sys.argv[3]

with open(sys.argv[2], "a") as f:
    f.write(json.dumps(rec, separators=(",", ":")) + "\n")
print("trajectory: appended", json.dumps(rec, separators=(",", ":")))
EOF
