#!/usr/bin/env bash
# scripts/ci.sh — run the exact checks .github/workflows/ci.yml runs, so a
# green local run means a green CI run.
#
#   scripts/ci.sh            # everything
#   scripts/ci.sh -fast      # skip the race detector, fuzzing and bench smoke
#
# Steps: gofmt -s, go vet, go build, mklint (the project's own static
# analysis, see cmd/mklint; its ratcheted depdag findings double as the
# policy-layering gate), go test, the benchmark module (go vet + go test
# in _perfbench/, which ./... skips), go test -race, golden-figure diff
# (Figures 1-5 vs results/golden/, the full Figure-6 sweep vs
# results/fig6{a,b,c}.csv), policy smoke (the full-size DBP
# k-sequence sweep diffed byte-for-byte against
# results/golden/fig7_ksweep.csv), a 15 s fuzz of the first-job
# schedulability test against the hyperperiod walk, bench smoke (one
# iteration of every benchmark + a reduced mkbench sweep emitting
# BENCH_ci.json), the perf
# gate (BenchmarkSimulate* allocs/op, >15% fails, plus the
# BenchmarkSimulateSweep* wall clock, >40% fails, both vs the committed
# results/bench_baseline.txt at count=6, then a reduced mkbench sweep
# whose mkss-bench/v1 document feeds the cross-PR trajectory log via
# scripts/trajectory.sh), the serve smoke
# (mkservd on an ephemeral port driven by an mkload burst, with a
# graceful-drain shutdown check), the estimate smoke (the analytical
# twin's GET /v1/estimate fast path under load, p99 asserted
# sub-25ms, and refine=true checked byte-identical to /v1/simulate), the
# fleet smoke (a distributed mkfleet sweep over two workers, one
# killed mid-run, checked byte-identical against the in-process
# reference), the store smoke (a cold mkservd run fills the persistent
# result store, a restarted server re-answers the same requests purely
# from disk — byte-identical, zero misses), and the autoscale smoke (a
# standalone elastic pool grows above its baseline under an mkload
# -distinct burst and drains back to min afterwards). mklint runs even
# in -fast mode: the lint pass is cheap.
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
[ "${1:-}" = "-fast" ] && fast=1

step() { printf '\n== %s ==\n' "$1"; }

step gofmt
unformatted=$(gofmt -s -l .)
if [ -n "$unformatted" ]; then
  echo "gofmt needed on:" >&2
  echo "$unformatted" >&2
  exit 1
fi

step "go vet"
go vet ./...

step "go build"
go build ./...

step "mklint (ratcheted against results/lint_baseline.json)"
go run ./cmd/mklint -baseline results/lint_baseline.json ./...

step "go test"
go test ./...

step "benchmark module (go vet + go test in _perfbench/)"
(cd _perfbench && go vet ./... && go test ./...)

if [ "$fast" = 0 ]; then
  step "go test -race"
  go test -race ./...
fi

step "golden figures (1-5)"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
status=0
for fig in 1 2 3 4 5; do
  go run ./cmd/mktrace -fig "$fig" > "$tmp/fig$fig.txt"
  if ! diff -u "results/golden/fig$fig.txt" "$tmp/fig$fig.txt"; then
    echo "figure $fig regressed (regenerate goldens only if the change is intended)" >&2
    status=1
  fi
done
[ "$status" = 0 ]

step "golden Figure-6 CSVs (full sweep vs results/fig6{a,b,c}.csv)"
go run ./cmd/mkbench -fig all -q -csv "$tmp"
for fig in 6a 6b 6c; do
  if ! diff -u "results/fig$fig.csv" "$tmp/fig$fig.csv"; then
    echo "figure $fig CSV regressed (regenerate only if the change is intended)" >&2
    status=1
  fi
done
[ "$status" = 0 ]

step "policy smoke (DBP ksweep vs results/golden/fig7_ksweep.csv)"
go run ./cmd/mkablate -ksweep -sets 25 -candidates 5000 -lo 0.2 -hi 1.0 -q \
  > "$tmp/fig7_ksweep.csv"
if ! diff -u results/golden/fig7_ksweep.csv "$tmp/fig7_ksweep.csv"; then
  echo "fig7 ksweep regressed (regenerate the golden only if the change is intended)" >&2
  exit 1
fi

if [ "$fast" = 0 ]; then
  step "fuzz (first-job test vs the walk, 15 s)"
  go test -run '^$' -fuzz '^FuzzCriticalInstantMatchesWalk$' -fuzztime 15s ./internal/rta

  step "bench smoke"
  go test -bench . -benchtime 1x ./...
  go run ./cmd/mkbench -fig 6a -sets 3 -candidates 800 -q -json -jsonout "$tmp/BENCH_ci.json"
  echo "BENCH_ci.json written to $tmp (CI uploads this as an artifact)"

  step "perf gate (allocs/op + sweep wall clock vs results/bench_baseline.txt, count=6)"
  go test -run '^$' -bench 'BenchmarkSimulate' -benchmem -count 6 . > "$tmp/bench_new.txt"
  scripts/benchgate.sh results/bench_baseline.txt "$tmp/bench_new.txt"
  go run ./cmd/mkbench -fig 6a -sets 4 -candidates 1200 -q -json -jsonout "$tmp/BENCH_pr6.json"
  scripts/trajectory.sh "$tmp/BENCH_pr6.json" "$tmp/bench_trajectory.jsonl"
  echo "BENCH_pr6.json written to $tmp (CI uploads it and the trajectory line as artifacts)"

  step "serve smoke (mkservd + mkload)"
  go build -o "$tmp/mkservd" ./cmd/mkservd
  go build -o "$tmp/mkload" ./cmd/mkload
  "$tmp/mkservd" -addr 127.0.0.1:0 -addrfile "$tmp/mkservd.addr" -drain 10s \
    > "$tmp/mkservd.log" 2>&1 &
  servd=$!
  for _ in $(seq 1 100); do [ -s "$tmp/mkservd.addr" ] && break; sleep 0.1; done
  addr=$(cat "$tmp/mkservd.addr")
  curl -sf "http://$addr/healthz" | grep -q '"ok"'
  curl -sf -X POST "http://$addr/v1/simulate" -H 'Content-Type: application/json' \
    -d '{"set":{"tasks":[{"period_ms":5,"deadline_ms":4,"wcet_ms":3,"m":2,"k":4},{"period_ms":10,"deadline_ms":10,"wcet_ms":3,"m":1,"k":2}]},"approach":"selective","horizon_ms":20}' \
    | grep -q '"active_energy":12'
  "$tmp/mkload" -addr "$addr" -duration 2s -c 8 \
    -mix simulate=0.9,analyze=0.08,sweep=0.02 -out "$tmp/BENCH_serve.json" -q
  curl -sf "http://$addr/metrics" | grep -q '^mkservd_requests_total '
  kill -TERM "$servd"
  wait "$servd"   # graceful drain must exit 0
  grep -q '0 in-flight aborted' "$tmp/mkservd.log"
  echo "BENCH_serve.json written to $tmp (CI uploads this as an artifact)"

  step "estimate smoke (twin fast path + refine fallthrough)"
  "$tmp/mkservd" -addr 127.0.0.1:0 -addrfile "$tmp/est.addr" -q > "$tmp/est.log" 2>&1 &
  estd=$!
  for _ in $(seq 1 100); do [ -s "$tmp/est.addr" ] && break; sleep 0.1; done
  eaddr=$(cat "$tmp/est.addr")
  pset='{"tasks":[{"period_ms":5,"deadline_ms":4,"wcet_ms":3,"m":2,"k":4},{"period_ms":10,"deadline_ms":10,"wcet_ms":3,"m":1,"k":2}]}'
  # Closed-form twin answer: no simulation, no execution slot.
  curl -sf --get "http://$eaddr/v1/estimate" --data-urlencode "set=$pset" \
    --data-urlencode approach=dp --data-urlencode horizon_ms=20 \
    | grep -q '"backend":"twin"'
  # refine=true must fall through to the /v1/simulate path byte-identically.
  curl -sf --get "http://$eaddr/v1/estimate" --data-urlencode "set=$pset" \
    --data-urlencode approach=selective --data-urlencode horizon_ms=20 \
    --data-urlencode refine=true > "$tmp/refined.json"
  curl -sf -X POST "http://$eaddr/v1/simulate" -H 'Content-Type: application/json' \
    -d "{\"set\":$pset,\"approach\":\"selective\",\"horizon_ms\":20}" > "$tmp/simulated.json"
  cmp "$tmp/refined.json" "$tmp/simulated.json"
  grep -q '"active_energy":12' "$tmp/refined.json"
  # A pure-estimate burst: the top-level latency summary is then the
  # estimate endpoint's, so the closed-form p99 is assertable directly.
  "$tmp/mkload" -addr "$eaddr" -duration 2s -c 8 \
    -mix estimate=1 -out "$tmp/BENCH_estimate.json" -q
  p99=$(grep -m1 '"p99_ms"' "$tmp/BENCH_estimate.json" | sed -E 's/.*: *([0-9.]+).*/\1/')
  awk -v p="$p99" 'BEGIN { exit !(p < 25) }' || {
    echo "estimate p99 ${p99}ms >= 25ms — the closed-form fast path regressed" >&2
    exit 1
  }
  kill -TERM "$estd"
  wait "$estd"
  echo "BENCH_estimate.json written to $tmp (estimate p99 ${p99}ms)"

  step "fleet smoke (mkfleet over 2 workers, one killed mid-run)"
  go build -o "$tmp/mkfleet" ./cmd/mkfleet
  "$tmp/mkservd" -addr 127.0.0.1:0 -addrfile "$tmp/w1.addr" -q > "$tmp/w1.log" 2>&1 &
  w1=$!
  "$tmp/mkservd" -addr 127.0.0.1:0 -addrfile "$tmp/w2.addr" -q > "$tmp/w2.log" 2>&1 &
  w2=$!
  for _ in $(seq 1 100); do [ -s "$tmp/w1.addr" ] && [ -s "$tmp/w2.addr" ] && break; sleep 0.1; done
  workers="$(cat "$tmp/w1.addr"),$(cat "$tmp/w2.addr")"
  # Kill worker 2 the moment the first row is merged: still mid-run, so
  # the fleet must mark it down and retry its units on the survivor.
  ( for _ in $(seq 1 600); do
      grep -q '"type":"row"' "$tmp/fleet.jsonl" 2>/dev/null && break
      sleep 0.05
    done
    kill -9 "$w2" ) &
  "$tmp/mkfleet" -workers "$workers" -scenario both -seed 2020 -sets 3 \
    -candidates 4000 -checkpoint "$tmp/fleet.ckpt" -out "$tmp/fleet.jsonl" \
    -bench "$tmp/BENCH_fleet.json" 2> "$tmp/fleet.log"
  grep -q 'sweep complete' "$tmp/fleet.log"
  "$tmp/mkfleet" -local -scenario both -seed 2020 -sets 3 \
    -candidates 4000 -out "$tmp/local.jsonl" -q
  grep '"type":"row"' "$tmp/fleet.jsonl" > "$tmp/fleet_rows.jsonl"
  grep '"type":"row"' "$tmp/local.jsonl" > "$tmp/local_rows.jsonl"
  cmp "$tmp/fleet_rows.jsonl" "$tmp/local_rows.jsonl"
  kill "$w1"
  echo "BENCH_fleet.json written to $tmp (CI uploads this as an artifact)"

  step "store smoke (persistent result store across a restart)"
  # Cold run fills the store; the restarted server must answer the same
  # requests purely from disk — byte-identical bodies, zero misses.
  simreq='{"set":{"tasks":[{"period_ms":5,"deadline_ms":4,"wcet_ms":3,"m":2,"k":4},{"period_ms":10,"deadline_ms":10,"wcet_ms":3,"m":1,"k":2}]},"approach":"selective","scenario":"permanent","seed":42,"horizon_ms":20}'
  sweepreq='{"scenario":"both","seed":7,"sets_per_interval":2,"max_candidates":40,"lo":0.3,"hi":0.6,"approaches":["st"]}'
  "$tmp/mkservd" -addr 127.0.0.1:0 -addrfile "$tmp/st1.addr" -store "$tmp/store" -q \
    > "$tmp/st1.log" 2>&1 &
  std=$!
  for _ in $(seq 1 100); do [ -s "$tmp/st1.addr" ] && break; sleep 0.1; done
  saddr=$(cat "$tmp/st1.addr")
  curl -sf -X POST "http://$saddr/v1/simulate" -H 'Content-Type: application/json' \
    -d "$simreq" > "$tmp/cold_sim.json"
  curl -sf -X POST "http://$saddr/v1/sweep" -H 'Content-Type: application/json' \
    -d "$sweepreq" > "$tmp/cold_sweep.jsonl"
  kill -TERM "$std"
  wait "$std"
  "$tmp/mkservd" -addr 127.0.0.1:0 -addrfile "$tmp/st2.addr" -store "$tmp/store" -q \
    > "$tmp/st2.log" 2>&1 &
  std=$!
  for _ in $(seq 1 100); do [ -s "$tmp/st2.addr" ] && break; sleep 0.1; done
  saddr=$(cat "$tmp/st2.addr")
  curl -sf -X POST "http://$saddr/v1/simulate" -H 'Content-Type: application/json' \
    -d "$simreq" > "$tmp/warm_sim.json"
  curl -sf -X POST "http://$saddr/v1/sweep" -H 'Content-Type: application/json' \
    -d "$sweepreq" > "$tmp/warm_sweep.jsonl"
  cmp "$tmp/cold_sim.json" "$tmp/warm_sim.json"
  # The sweep "done" line carries wall-clock timing; rows are the contract.
  grep '"type":"row"' "$tmp/cold_sweep.jsonl" > "$tmp/cold_rows.jsonl"
  grep '"type":"row"' "$tmp/warm_sweep.jsonl" > "$tmp/warm_rows.jsonl"
  cmp "$tmp/cold_rows.jsonl" "$tmp/warm_rows.jsonl"
  curl -sf "http://$saddr/healthz" > "$tmp/STORE_stats.json"
  grep -q '"hits":4' "$tmp/STORE_stats.json"     # 1 simulate + 3 sweep units
  grep -q '"misses":0' "$tmp/STORE_stats.json"   # nothing recomputed
  kill -TERM "$std"
  wait "$std"
  echo "STORE_stats.json written to $tmp (CI uploads this as an artifact)"

  step "autoscale smoke (elastic pool grows under burst, drains to min)"
  "$tmp/mkfleet" -pool -min 1 -max 3 -worker-inflight 1 \
    -scale-interval 200ms -scale-cooldown 500ms \
    -pool-addrfile "$tmp/pool.addr" -pool-status "$tmp/pool.json" \
    2> "$tmp/pool.log" &
  poold=$!
  for _ in $(seq 1 100); do [ -s "$tmp/pool.addr" ] && break; sleep 0.1; done
  paddr=$(cat "$tmp/pool.addr")
  # -distinct defeats coalescing and the store, and the long horizon makes
  # each run tens of milliseconds, so the burst saturates the single-slot
  # baseline worker and builds real queue depth.
  "$tmp/mkload" -addr "$paddr" -duration 3s -c 12 -mix simulate=1 -distinct \
    -horizon 200000 -out "$tmp/BENCH_pool.json" -q &
  loadpid=$!
  grew=0
  for _ in $(seq 1 100); do
    size=$(sed -nE 's/.*"size":([0-9]+).*/\1/p' "$tmp/pool.json" 2>/dev/null || true)
    if [ -n "$size" ] && [ "$size" -gt 1 ]; then grew=1; break; fi
    sleep 0.1
  done
  wait "$loadpid"
  if [ "$grew" = 0 ]; then
    echo "pool never scaled above the baseline under burst" >&2
    cat "$tmp/pool.log" >&2
    exit 1
  fi
  drained=0
  for _ in $(seq 1 200); do
    size=$(sed -nE 's/.*"size":([0-9]+).*/\1/p' "$tmp/pool.json" 2>/dev/null || true)
    if [ "$size" = 1 ]; then drained=1; break; fi
    sleep 0.1
  done
  if [ "$drained" = 0 ]; then
    echo "pool never drained back to min after the burst" >&2
    cat "$tmp/pool.log" >&2
    exit 1
  fi
  grep -q 'pool scaling up' "$tmp/pool.log"
  grep -q 'pool scaling down' "$tmp/pool.log"
  kill -TERM "$poold"
  wait "$poold"
fi

printf '\nall checks passed\n'
