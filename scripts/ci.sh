#!/usr/bin/env bash
# scripts/ci.sh — the one definition of what CI checks. Each job below is
# the job of the same name in .github/workflows/ci.yml, which runs
# `scripts/ci.sh JOB` on a fresh checkout and uploads what the job leaves
# in ci-out/JOB/.
#
#   scripts/ci.sh             # every job, in the order of all_jobs
#   scripts/ci.sh JOB...      # the named jobs; the quick set is
#   scripts/ci.sh test lint bench-module golden-figures policy-smoke
#
# A job starts from an empty ci-out/JOB/ and writes there alone: nothing
# under results/ changes. ci-out/ is gitignored and kept after the run,
# so a failed check's documents and logs stay readable.
set -euo pipefail
cd "$(dirname "$0")/.."

all_jobs=(test lint race golden-figures fuzz bench-module policy-smoke bench-smoke
  serve-smoke estimate-smoke fleet-smoke store-smoke autoscale-smoke perf)

# The paper's §III task set: the worked examples' two tasks.
pset='{"tasks":[{"period_ms":5,"deadline_ms":4,"wcet_ms":3,"m":2,"k":4},{"period_ms":10,"deadline_ms":10,"wcet_ms":3,"m":1,"k":2}]}'
runreq="{\"set\":$pset,\"approach\":\"selective\",\"horizon_ms\":20}"

# A failed check leaves no server behind, and no fuzz directory in memory.
trap 's=$?; pids=$(jobs -p); [ -z "$pids" ] || kill $pids 2>/dev/null; [ -z "${shm:-}" ] || rm -rf "$shm"; exit $s' EXIT

step() { printf '\n== %s ==\n' "$1"; }

# build CMD... builds each ./cmd/CMD into $out.
build() { for c in "$@"; do go build -o "$out/$c" "./cmd/$c"; done; }

# same WANT GOT [NAME] fails, with a diff, unless GOT equals WANT: the
# committed file NAME (default WANT) or a copy of it.
same() {
  diff -u "$1" "$2" && return
  echo "$2 differs from ${3:-$1} (regenerate ${3:-$1} only if the change is intended)" >&2
  return 1
}

# check FILE EXPR... fails unless each Python expression EXPR holds for
# the JSON document d in FILE.
check() {
  python3 - "$@" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
for e in sys.argv[2:]:
    if not eval(e, {"d": d}):
        sys.exit(f"{sys.argv[1]}: want {e}, in\n{json.dumps(d, indent=2)}")
EOF
}

# rows A B fails unless the JSONL streams A and B carry the same rows; a
# sweep's "done" line carries wall-clock timing, its rows are the contract.
rows() {
  grep '"type":"row"' "$1" > "$1.rows"
  grep '"type":"row"' "$2" > "$2.rows"
  cmp "$1.rows" "$2.rows"
}

# post URL BODY posts a JSON body and prints the response.
post() { curl -sf -X POST "$1" -H 'Content-Type: application/json' -d "$2"; }

# await FILE waits up to 10 s for a server to write its address to FILE
# and prints the address.
await() {
  for _ in $(seq 1 100); do [ -s "$1" ] && break; sleep 0.1; done
  cat "$1"
}

# serve NAME ARG... starts $out/mkservd ARG... on an ephemeral port,
# logging to $out/NAME.log, and sets pid and addr once it listens.
serve() {
  local name=$1
  shift
  "$out/mkservd" -addr 127.0.0.1:0 -addrfile "$out/$name.addr" "$@" > "$out/$name.log" 2>&1 &
  pid=$!
  addr=$(await "$out/$name.addr")
}

# Format, vet, build and test (the workflow runs this job on every
# supported Go version).
job_test() {
  step gofmt
  local unformatted
  unformatted=$(gofmt -s -l .)
  if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    return 1
  fi
  step "go vet"
  go vet ./...
  step "go build"
  go build ./...
  step "go test"
  go test ./...
}

# cmd/mklint (stdlib go/ast + go/types, no external analyzers) enforces
# the reproduction's invariants: determinism of the simulator,
# tolerance-safe float comparisons, context plumbing, hot-path allocation
# hygiene (propagated through the whole-program call graph), goroutine
# termination, lock discipline, error handling, stray printing and the
# package DAG. Any finding fails; an intended exception is an inline
# //mklint:allow <rule> — <reason> at its site.
job_lint() {
  step "go vet"
  go vet ./...
  step "mklint"
  # Built, not `go run`, so its exit contract survives: 1 means findings,
  # 2 means the linter itself broke. The JSON report is written even when
  # the run fails, so findings are inspectable without rerunning. The run
  # doubles as the policy layering gate: depdag's deny edge
  # (internal/lint/depdag.go: the engine imports no concrete policy)
  # reports any such import.
  build mklint
  local status=0
  "$out/mklint" -json "$out/mklint.json" ./... || status=$?
  step "the workflow runs each job of this script, and nothing else"
  # A check written into the workflow instead would not run here. The
  # benchstat install stays there: it needs the network and the gate
  # never does.
  python3 - .github/workflows/ci.yml "${all_jobs[@]}" <<'EOF' || status=1
import re, sys
path, jobs = sys.argv[1], sys.argv[2:]
actions = ("actions/checkout@", "actions/setup-go@", "actions/upload-artifact@")
benchstat = "go install golang.org/x/perf/cmd/benchstat@latest || true"
errs, ran, section, job = [], {}, None, None
for n, line in enumerate(open(path), 1):
    if re.match(r"[^\s#]", line):
        section = line.split(":")[0]
    elif section == "jobs" and (m := re.match(r"  ([\w-]+):\s*$", line)):
        job = m[1]
        if job not in jobs:
            errs.append(f"{path}:{n}: job {job} is no job of scripts/ci.sh")
    elif section == "jobs" and (m := re.match(r"\s*(?:- )?(run|uses):\s*(.*?)\s*$", line)):
        val = m[2].strip("'\"")
        if m[1] == "uses" and not val.startswith(actions):
            errs.append(f"{path}:{n}: uses {val}, want checkout, setup-go or upload-artifact")
        elif m[1] == "run" and val == f"scripts/ci.sh {job}":
            ran[job] = ran.get(job, 0) + 1
        elif m[1] == "run" and val != benchstat:
            errs.append(f"{path}:{n}: job {job} runs {val!r}, want 'scripts/ci.sh {job}'")
for j in jobs:
    if ran.get(j, 0) != 1:
        errs.append(f"{path}: scripts/ci.sh {j} runs {ran.get(j, 0)} times, want once")
sys.exit("\n".join(errs) or None)
EOF
  return "$status"
}

# The experiment harness fans simulations out over sync.WaitGroup/Mutex
# workers; every change is gated under the race detector.
job_race() {
  go test -race ./...
}

# The paper's worked examples (Figures 1-5) must reproduce bit-exactly,
# and the full-fidelity Figure-6 sweep byte for byte, so a change to the
# R-pattern candidate filter that shifts the accepted sets fails here.
job_golden_figures() {
  local status=0 fig mode
  step "Figures 1-5 vs results/golden/"
  for fig in 1 2 3 4 5; do
    go run ./cmd/mktrace -fig "$fig" > "$out/fig$fig.txt"
    same "results/golden/fig$fig.txt" "$out/fig$fig.txt" || status=1
  done
  step "Figure-6 CSVs vs results/fig6{a,b,c}.csv"
  # Once through the session's interval memo and analysis cache, where 6b
  # resumes every run from 6a's fork at its fault instant and 6c takes
  # from 6b every run it proves identical, and once with both off
  # (-nocache): the memoized and the regenerating path must each
  # reproduce the committed series. 6b or 6c alone has nothing to take
  # and runs every run from 0.
  go run ./cmd/mkbench -fig all -q -csv "$out/cached"
  go run ./cmd/mkbench -fig all -nocache -q -csv "$out/nocache"
  go run ./cmd/mkbench -fig 6b -q -csv "$out/alone"
  go run ./cmd/mkbench -fig 6c -q -csv "$out/alone"
  for mode in cached nocache; do
    for fig in 6a 6b 6c; do
      same "results/fig$fig.csv" "$out/$mode/fig$fig.csv" || status=1
    done
  done
  same results/fig6b.csv "$out/alone/fig6b.csv" || status=1
  same results/fig6c.csv "$out/alone/fig6c.csv" || status=1
  return "$status"
}

# fuzz TARGET TIME PKG fuzzes one target for TIME on top of its seed
# corpus in PKG's testdata/fuzz/, where a failing input lands too.
fuzz() {
  step "$1 ($2)"
  go test -run '^$' -fuzz "^$1\$" -fuzztime "$2" "$3"
}

job_fuzz() {
  # SchedulableRPattern decides synchronous R-pattern sets by a first-job
  # fixed point; the walk it replaced is the reference.
  fuzz FuzzCriticalInstantMatchesWalk 15s ./internal/rta
  # /v1/sweep's normalizer never panics, and what it accepts is bounded
  # work under canonical names.
  fuzz FuzzNormalizeSweep 10s ./internal/serve
  # A run request (the /v1/estimate query, the one path that carries NaN
  # and Inf to parseRun) never panics, and what parseRun accepts holds a
  # horizon timeu.FromMillis represents, a finite transient_rate of at
  # least 0 and canonical names.
  fuzz FuzzParseRun 10s ./internal/serve
  # LoadSet never panics, and an accepted set holds only times in
  # [1 µs, timeu.Infinity).
  fuzz FuzzLoadSet 10s .
  # Every engine stop equals the reference linear scan's, on a fresh and
  # on a warm scratch, and the two traces agree.
  fuzz FuzzStopsMatchLinearScan 10s ./internal/sim
  # A run resumed from a fault-free run's fork at its fault instant
  # equals the run from 0, on a fresh and on a warm scratch.
  fuzz FuzzResumeMatchesFullRun 10s ./internal/experiment
  # The candidate draw keeps the sets, errors, candidate counts and
  # stream position of the math.Pow reference draw under any bounded
  # generator config.
  fuzz FuzzDrawMatchesReference 10s ./internal/workload
  # LCM, LCMAll and CeilDiv equal their math/big values, LCM and LCMAll
  # saturated at the cap.
  fuzz FuzzLCMMatchesBig 10s ./internal/timeu
  # dbp.Exact reads its verdict off one engine run; the whole verdict
  # equals the reference walk's (walk_test.go).
  fuzz FuzzExactMatchesWalk 10s ./internal/sim/policy/dbp
  # A damaged segment (torn tail, flipped bytes, a rewritten length
  # prefix, appended garbage, with or without its .idx sidecar) reopens
  # without a panic, serves exactly the bytes put or a miss, and recovers
  # nothing on a second open. Every input opens a store, which fsyncs its
  # segment header and .idx sidecars, so on a disk the 10 s test only
  # hundreds to a few thousand inputs: the target runs in a fresh
  # directory in /dev/shm when that is writable, where the same syncs
  # are cheap.
  if [ -d /dev/shm ] && [ -w /dev/shm ]; then shm=$(mktemp -d /dev/shm/mkss-fuzz.XXXXXX); fi
  TMPDIR=${shm:-${TMPDIR:-/tmp}} fuzz FuzzStoreRecovery 10s ./internal/store
  # A store hit reads its value without a JSON parser; whatever that
  # decode accepts, json.Unmarshal reads as a put of the same key and
  # value, and every put record encodeFrame writes reads back. No disk.
  fuzz FuzzGetMatchesJSON 10s ./internal/store
}

# The benchmark module (_perfbench/, its own go.mod) compiles against the
# repo's internal packages, but ./... skips directories starting with
# "_": a refactor that breaks the benchmark fails here rather than when
# the benchmark next runs.
job_bench_module() {
  (cd _perfbench && go vet ./... && go test ./...)
}

# The pluggable-policy subsystem's end-to-end gate (its layering gate is
# the lint job's mklint run).
job_policy_smoke() {
  local status=0 table abl="-sets 12 -candidates 3000 -lo 0.2 -hi 0.8 -q"
  step "DBP k-sweep vs results/golden/fig7_ksweep.csv"
  # The full-size DBP k-sequence sweep (the Fig. 7 family; cheap, as the
  # exact test runs a few hyperperiods per set): drift in the DBP distance
  # rule, the exact test or the workload generator fails visibly.
  go run ./cmd/mkablate -ksweep -sets 25 -candidates 5000 -lo 0.2 -hi 1.0 -q > "$out/fig7_ksweep.csv"
  same results/golden/fig7_ksweep.csv "$out/fig7_ksweep.csv" || status=1
  step "ablation tables vs results/ablation*.txt"
  build mkablate
  "$out/mkablate" $abl > "$out/ablation.txt"
  "$out/mkablate" $abl -harmonic > "$out/ablation_harmonic.txt"
  "$out/mkablate" $abl -harmonic -scenario permanent > "$out/ablation_harmonic_permanent.txt"
  for table in ablation ablation_harmonic ablation_harmonic_permanent; do
    # Each line ends in its variant's wall-clock time, "(53ms)": the only
    # column that may differ.
    sed -E 's/[[:space:]]+\([^)]*\)$//' "results/$table.txt" > "$out/$table.want"
    sed -E 's/[[:space:]]+\([^)]*\)$//' "$out/$table.txt" > "$out/$table.got"
    same "$out/$table.want" "$out/$table.got" "results/$table.txt" || status=1
  done
  return "$status"
}

# One iteration of every benchmark catches bench rot; -run '^$' skips
# the unit tests, which the test and race jobs run. The reduced
# Figure-6a sweep's document is uploaded for the cross-PR trajectory.
job_bench_smoke() {
  go test -run '^$' -bench . -benchtime 1x ./...
  go run ./cmd/mkbench -fig 6a -sets 3 -candidates 800 -q -json -jsonout "$out/BENCH_ci.json"
  check "$out/BENCH_ci.json" 'd["schema"] == "mkss-bench/v1"' 'd["rows"]'
}

# mkservd on an ephemeral port: every endpoint answers, mksim -json
# prints the document /v1/simulate serves for the same run, a short
# mkload burst runs without an error, and the SIGTERM drain exits 0 with
# no in-flight request aborted.
job_serve_smoke() {
  build mkservd mkload mksim
  serve mkservd -drain 10s
  curl -sf "http://$addr/healthz" | grep -q '"ok"'
  post "http://$addr/v1/simulate" "$runreq" > "$out/served_run.json"
  grep -q '"active_energy":12' "$out/served_run.json"
  # Only the layout differs.
  "$out/mksim" -demo -json -seed 0 -horizon 20 | tr -d ' \n' > "$out/mksim_run.min"
  tr -d ' \n' < "$out/served_run.json" > "$out/served_run.min"
  cmp "$out/mksim_run.min" "$out/served_run.min"
  "$out/mkload" -addr "$addr" -duration 2s -c 8 \
    -mix simulate=0.9,analyze=0.08,sweep=0.02 -out "$out/BENCH_serve.json" -q
  curl -sf "http://$addr/metrics" | grep -q '^mkservd_requests_total '
  kill -TERM "$pid"
  wait "$pid"
  grep -q '0 in-flight aborted' "$out/mkservd.log"
  # mkload exits non-zero only when no request succeeds.
  check "$out/BENCH_serve.json" 'd["schema"] == "mkss-bench/v1"' 'd["bench"] == "serve"' \
    'd["requests"] > 0' 'd["errors"] == 0'
}

# The analytical twin's two-tier serving: GET /v1/estimate answers in
# closed form (backend "twin", no execution slot) with the document
# mksim -estimate -json prints, and stays fast under a pure-estimate
# burst, and refine=true falls through to the /v1/simulate path
# byte-identically.
job_estimate_smoke() {
  build mkservd mkload mksim
  serve est -q
  curl -sf --get "http://$addr/v1/estimate" --data-urlencode "set=$pset" \
    --data-urlencode approach=dp --data-urlencode horizon_ms=20 > "$out/served_estimate.json"
  grep -q '"backend":"twin"' "$out/served_estimate.json"
  # Only the layout and the server's elapsed_us differ (mksim prints 0).
  "$out/mksim" -demo -estimate -json -approach dp -horizon 20 -seed 0 | tr -d ' \n' > "$out/mksim_estimate.min"
  tr -d ' \n' < "$out/served_estimate.json" | sed -E 's/"elapsed_us":[0-9]+/"elapsed_us":0/' > "$out/served_estimate.min"
  cmp "$out/mksim_estimate.min" "$out/served_estimate.min"
  curl -sf --get "http://$addr/v1/estimate" --data-urlencode "set=$pset" \
    --data-urlencode approach=selective --data-urlencode horizon_ms=20 \
    --data-urlencode refine=true > "$out/refined.json"
  post "http://$addr/v1/simulate" "$runreq" > "$out/simulated.json"
  cmp "$out/refined.json" "$out/simulated.json"
  grep -q '"active_energy":12' "$out/refined.json"
  "$out/mkload" -addr "$addr" -duration 2s -c 8 -mix estimate=1 -out "$out/BENCH_estimate.json" -q
  kill -TERM "$pid"
  wait "$pid"
  # A pure-estimate burst's top-level latency is the estimate endpoint's.
  # 25 ms is generous for shared runners; the unit tests pin the real
  # sub-millisecond budget.
  check "$out/BENCH_estimate.json" 'd["schema"] == "mkss-bench/v1"' 'd["mix"] == {"estimate": 1}' \
    'd["requests"] > 0' 'd["errors"] == 0' 'd["latency"]["p99_ms"] < 25'
}

# A distributed mkfleet sweep into a result store over two workers must
# merge to the in-process reference run's rows; re-run against the same
# store with both workers dead, it must come from the store alone.
job_fleet_smoke() {
  build mkservd mkfleet
  local sweep=(-scenario both -seed 2020 -sets 3 -candidates 4000) w1 workers
  serve w1 -q
  w1=$pid workers=$addr
  serve w2 -q
  workers+=",$addr"
  # Worker 2 dies before the sweep starts but stays in -workers: its
  # units meet a refused connection, so the fleet must mark it down and
  # retry them on worker 1. (The 9-unit sweep can finish before a kill
  # timed on its first row.)
  kill -9 "$pid"
  wait "$pid" 2>/dev/null || true
  "$out/mkfleet" -workers "$workers" "${sweep[@]}" -store "$out/fleet.store" \
    -out "$out/fleet.jsonl" -bench "$out/BENCH_fleet.json" 2> "$out/fleet.log"
  cat "$out/fleet.log"
  grep -q 'sweep complete' "$out/fleet.log"
  "$out/mkfleet" -local "${sweep[@]}" -out "$out/local.jsonl" -q
  rows "$out/fleet.jsonl" "$out/local.jsonl"
  kill "$w1"
  wait "$w1" 2>/dev/null || true
  "$out/mkfleet" -workers "$workers" "${sweep[@]}" -store "$out/fleet.store" \
    -out "$out/warm.jsonl" -bench "$out/warm.json" 2> "$out/warm.log"
  cat "$out/warm.log"
  rows "$out/warm.jsonl" "$out/local.jsonl"
  check "$out/BENCH_fleet.json" 'd["schema"] == "mkss-bench/v1"' 'd["bench"] == "fleet"' \
    'd["summary"]["units"] == 9' 'd["summary"]["retried"] >= 1' \
    'sum(w["markdowns"] for w in d["summary"]["workers"]) >= 1'
  check "$out/warm.json" 'd["summary"]["from_store"] == 9' 'd["summary"]["dispatched"] == 0'
}

# A cold mkservd run fills the persistent result store with one simulate
# and a 3-interval sweep; a restarted server must answer the same
# requests from disk alone: byte-identical bodies, 4 keys, 4 hits (1
# simulate + 3 sweep units) and no miss.
job_store_smoke() {
  build mkservd
  local run sim="{\"set\":$pset,\"approach\":\"selective\",\"scenario\":\"permanent\",\"seed\":42,\"horizon_ms\":20}"
  local sweep='{"scenario":"both","seed":7,"sets_per_interval":2,"max_candidates":40,"lo":0.3,"hi":0.6,"approaches":["st"]}'
  for run in cold warm; do
    serve "$run" -store "$out/store" -q
    post "http://$addr/v1/simulate" "$sim" > "$out/${run}_sim.json"
    post "http://$addr/v1/sweep" "$sweep" > "$out/${run}_sweep.jsonl"
    if [ "$run" = warm ]; then curl -sf "http://$addr/healthz" > "$out/STORE_stats.json"; fi
    kill -TERM "$pid"
    wait "$pid"
  done
  cmp "$out/cold_sim.json" "$out/warm_sim.json"
  rows "$out/cold_sweep.jsonl" "$out/warm_sweep.jsonl"
  check "$out/STORE_stats.json" 'd["store"]["keys"] == 4' 'd["store"]["hits"] == 4' 'd["store"]["misses"] == 0'
}

# size prints the elastic pool's current size from its status file.
size() { sed -nE 's/.*"size":([0-9]+).*/\1/p' "$out/pool.json" 2>/dev/null || true; }

# A standalone elastic pool with a single-slot baseline worker must hold
# its size through one slow run, which queues nothing, then grow above
# min under a burst and drain back to min once the burst ends.
job_autoscale_smoke() {
  build mkfleet mkload
  local pool load slow addr s grew=0 drained=0
  "$out/mkfleet" -pool -min 1 -max 3 -worker-inflight 1 \
    -scale-interval 200ms -scale-cooldown 500ms \
    -pool-addrfile "$out/pool.addr" -pool-status "$out/pool.json" 2> "$out/pool.log" &
  pool=$!
  addr=$(await "$out/pool.addr")
  # mkfleet writes the status file after the address file; every size
  # check below reads it.
  await "$out/pool.json" > /dev/null
  # horizon_ms 50,000,000 runs for about two seconds on one core. Every
  # size sample must read 1 while it runs and for 2 s after: a load
  # signal that outlives the run (a latency percentile over past
  # requests, here that one run alone) would grow the pool.
  post "http://$addr/v1/simulate" "{\"set\":$pset,\"horizon_ms\":50000000}" > "$out/slow.json" &
  slow=$!
  while kill -0 "$slow" 2>/dev/null; do
    s=$(size)
    [ "$s" = 1 ] || { echo "pool size $s during one slow run (want 1)" >&2; cat "$out/pool.log" >&2; return 1; }
    sleep 0.1
  done
  wait "$slow"
  for _ in $(seq 1 20); do
    s=$(size)
    [ "$s" = 1 ] || { echo "pool size $s after one slow run (want 1)" >&2; cat "$out/pool.log" >&2; return 1; }
    sleep 0.1
  done
  # -distinct defeats coalescing and the store, and the long horizon makes
  # each run tens of milliseconds, so the burst saturates the single-slot
  # baseline worker and builds real queue depth.
  "$out/mkload" -addr "$addr" -duration 3s -c 12 -mix simulate=1 -distinct \
    -horizon 200000 -out "$out/BENCH_pool.json" -q &
  load=$!
  for _ in $(seq 1 100); do
    s=$(size)
    if [ -n "$s" ] && [ "$s" -gt 1 ]; then grew=1; break; fi
    sleep 0.1
  done
  wait "$load"
  for _ in $(seq 1 200); do
    if [ "$(size)" = 1 ]; then drained=1; break; fi
    sleep 0.1
  done
  if [ "$grew" = 0 ] || [ "$drained" = 0 ]; then
    echo "pool under a burst: grew above min $grew, drained back to min $drained (want 1 and 1)" >&2
    cat "$out/pool.log" >&2
    return 1
  fi
  grep -q 'pool scaling up' "$out/pool.log"
  grep -q 'pool scaling down' "$out/pool.log"
  kill -TERM "$pool"
  wait "$pool"
}

# The Simulate benchmarks at count 6 against the committed
# results/bench_baseline.txt (scripts/benchgate.sh): allocs/op of every
# BenchmarkSimulate* within 15 % (nearly machine-independent) and ns/op of
# the BenchmarkSimulateSweep* wall-clock benches within 40 % (shared-runner
# noise; catches the order-of-magnitude engine regressions allocs/op
# cannot see). benchstat, where installed, adds the full comparison but is
# never required. Then a reduced Figure-6a sweep's record is appended to a
# copy of results/bench_trajectory.jsonl, whose committed lines keep the
# perf history queryable across changes.
job_perf() {
  go test -run '^$' -bench 'BenchmarkSimulate' -benchmem -count 6 . | tee "$out/bench_new.txt"
  PATH="$PATH:$(go env GOPATH)/bin" scripts/benchgate.sh results/bench_baseline.txt "$out/bench_new.txt"
  go run ./cmd/mkbench -fig 6a -sets 4 -candidates 1200 -q -json -jsonout "$out/BENCH_pr6.json"
  cp results/bench_trajectory.jsonl "$out/bench_trajectory.jsonl"
  scripts/trajectory.sh "$out/BENCH_pr6.json" "$out/bench_trajectory.jsonl" ci
  tail -2 "$out/bench_trajectory.jsonl"
}

[ $# -gt 0 ] || set -- "${all_jobs[@]}"
for job in "$@"; do
  case " ${all_jobs[*]} " in
  *" $job "*) ;;
  *) echo "scripts/ci.sh: no job $job (want one of: ${all_jobs[*]})" >&2; exit 2 ;;
  esac
done
for job in "$@"; do
  printf '\n==== %s ====\n' "$job"
  out=ci-out/$job
  rm -rf "$out"
  mkdir -p "$out"
  "job_${job//-/_}"
done
printf '\nall checks passed: %s\n' "$*"
