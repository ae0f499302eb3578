#!/usr/bin/env bash
# CLI smoke test: build every command and drive its primary paths — every
# registered topology family through topogen, the bundled campaign examples
# through dtrscen validate, a 1-trial preset run, dtropt on an imported
# graph, a dtrfail sweep, a dtrchurn generate/replay/counterfactual/compare
# cycle and a dtrd serve/load/route/whatif/search/drain round-trip — so no
# command, preset or generator family can rot unnoticed. CI runs this as
# the cli-smoke job; it is equally runnable locally.
set -euo pipefail
cd "$(dirname "$0")/.."

bin="$(mktemp -d)"
# On exit, also reap any backgrounded server still running: a failed check
# would otherwise orphan it holding our stdout pipe open.
trap 'kill "${scen_pid:-}" "${dtrd_pid:-}" 2>/dev/null || :; rm -rf "$bin"' EXIT

echo "== build all commands"
go build -o "$bin" ./cmd/...

echo "== topogen: list, describe, generate every registered family"
"$bin/topogen" list >/dev/null
"$bin/topogen" describe waxman >/dev/null
"$bin/topogen" -topo random >/dev/null 2>&1 && rc=0 || rc=$?
[ "$rc" -eq 2 ] || { echo "FAIL: topogen without a subcommand exited $rc, want usage and 2"; exit 1; }
for fam in $("$bin/topogen" list -q); do
  case "$fam" in
  import)
    "$bin/topogen" gen -topo import -path examples/campaigns/topologies/abilene.gml \
      -quiet -o "$bin/$fam.json"
    ;;
  *)
    "$bin/topogen" gen -topo "$fam" -quiet -o "$bin/$fam.json"
    ;;
  esac
  test -s "$bin/$fam.json"
  echo "   $fam ok"
done

echo "== dtrscen: list presets, validate bundled example campaigns"
"$bin/dtrscen" list >/dev/null
"$bin/dtrscen" validate examples/campaigns/*.json

echo "== dtrscen: run the tiny preset (1 trial per load point)"
"$bin/dtrscen" run -preset tiny -trials 1 -quiet >"$bin/tiny.jsonl"
test -s "$bin/tiny.jsonl"

echo "== dtrscen: run a new-family example campaign (1 trial per load point)"
"$bin/dtrscen" run -trials 1 -quiet examples/campaigns/waxman-load.json >"$bin/waxman.jsonl"
test -s "$bin/waxman.jsonl"

echo "== dtrscen: manifest line leads the trial stream"
head -1 "$bin/tiny.jsonl" | grep -q '"manifest"' || {
  echo "FAIL: tiny.jsonl does not start with a run manifest"; exit 1; }
head -1 "$bin/tiny.jsonl" | grep -q '"spec_hash"' || {
  echo "FAIL: run manifest lacks a spec hash"; exit 1; }

echo "== dtrscen: serve /metrics during a run and scrape it"
"$bin/dtrscen" run -preset tiny -trials 1 -quiet \
  -metrics-addr 127.0.0.1:0 -metrics-linger 30s \
  -metrics-dump "$bin/metrics.json" >"$bin/obs.jsonl" 2>"$bin/obs.stderr" &
scen_pid=$!
metrics_url=""
for _ in $(seq 1 100); do
  metrics_url="$(sed -n 's#^obs: metrics listening on \(http://[^ ]*\)$#\1#p' "$bin/obs.stderr" | head -1)"
  [ -n "$metrics_url" ] && break
  kill -0 "$scen_pid" 2>/dev/null || { cat "$bin/obs.stderr"; echo "FAIL: dtrscen exited before announcing metrics"; exit 1; }
  sleep 0.1
done
[ -n "$metrics_url" ] || { cat "$bin/obs.stderr"; echo "FAIL: metrics address never announced"; exit 1; }
scrape="$(curl -sf "$metrics_url")"
echo "$scrape" | grep -q '^# TYPE scenario_trials_total counter$' || {
  echo "FAIL: /metrics exposition missing scenario_trials_total TYPE header"; exit 1; }
echo "$scrape" | grep -q '^# TYPE spf_delta_applies_total counter$' || {
  echo "FAIL: /metrics exposition missing spf metrics"; exit 1; }
curl -sf "${metrics_url%/metrics}/debug/pprof/" | grep -q goroutine || {
  echo "FAIL: pprof index not served"; exit 1; }
curl -sf "${metrics_url%/metrics}/manifest.json" | grep -q '"command":"dtrscen run"' || {
  echo "FAIL: manifest endpoint not served"; exit 1; }
kill "$scen_pid" 2>/dev/null || true
wait "$scen_pid" 2>/dev/null || true

echo "== dtrscen: -metrics-dump snapshot with manifest"
"$bin/dtrscen" run -preset tiny -trials 1 -quiet -metrics-dump "$bin/dump.json" >/dev/null
grep -q '"scenario_trials_total"' "$bin/dump.json" || {
  echo "FAIL: metrics dump missing scenario_trials_total"; exit 1; }
grep -q '"manifest"' "$bin/dump.json" || {
  echo "FAIL: metrics dump missing run manifest"; exit 1; }

echo "== dtropt: optimize the imported Abilene topology at the tiny budget"
"$bin/dtropt" -budget tiny -graph "$bin/import.json" -json "$bin/weights.json" \
  -trace "$bin/trace.jsonl" >/dev/null
test -s "$bin/weights.json"
grep -q '"manifest"' "$bin/weights.json" || {
  echo "FAIL: dtropt -json output missing run manifest"; exit 1; }
test -s "$bin/trace.jsonl"
head -1 "$bin/trace.jsonl" | grep -q '"kind"' || {
  echo "FAIL: dtropt -trace output is not a trajectory event stream"; exit 1; }

echo "== dtropt: guided multi-start portfolio with per-trajectory traces"
"$bin/dtropt" -budget tiny -graph "$bin/import.json" -multistart 4 -guide 0.9 -prune \
  -json "$bin/portfolio.json" -trace "$bin/ptrace.jsonl" >/dev/null
grep -q '"portfolio"' "$bin/portfolio.json" || {
  echo "FAIL: dtropt -multistart JSON output missing the portfolio section"; exit 1; }
grep -q '"manifest"' "$bin/portfolio.json" || {
  echo "FAIL: dtropt -multistart JSON output missing run manifest"; exit 1; }
grep -q '"trajectory"' "$bin/ptrace.jsonl" || {
  echo "FAIL: dtropt -multistart trace events lack trajectory indexes"; exit 1; }

echo "== dtropt: an unknown objective fails instead of running load-based"
if "$bin/dtropt" -budget smoke -kind fastest >/dev/null 2>"$bin/kind.err"; then
  echo "FAIL: dtropt -kind fastest exited 0"; exit 1
fi
grep -q 'unknown objective "fastest" (load|sla)' "$bin/kind.err" || {
  cat "$bin/kind.err"; echo "FAIL: dtropt -kind fastest did not name the bad objective"; exit 1; }

echo "== dtropt: non-finite instance parameters fail, naming the field"
for pair in util:TargetUtil f:F; do
  flag="${pair%%:*}" field="${pair#*:}"
  if "$bin/dtropt" -budget smoke -"$flag" NaN >/dev/null 2>"$bin/nan.err"; then
    echo "FAIL: dtropt -$flag NaN exited 0"; exit 1
  fi
  grep -q "$field=NaN" "$bin/nan.err" || {
    cat "$bin/nan.err"; echo "FAIL: dtropt -$flag NaN did not name $field"; exit 1; }
done

echo "== dtropt: 10k-node hier topology with sink-limited traffic (scale path)"
"$bin/topogen" gen -topo hier -params '{"pops":100,"routers_per_pop":100}' -quiet \
  -o "$bin/hier10k.json"
"$bin/dtropt" -budget smoke -graph "$bin/hier10k.json" -lp-sinks 8 \
  -hp sink-uniform -k 0.00001 >"$bin/hier10k.out"
grep -q '10000 nodes' "$bin/hier10k.out" || {
  echo "FAIL: dtropt did not route the 10k-node instance"; exit 1; }

echo "== dtrfail: sampled single-link sweep at the tiny budget"
"$bin/dtrfail" -budget tiny -kind link -sample 4 >/dev/null

echo "== dtrfail: robust search, then a verify-mode sweep"
# Verify holds every delta state to a from-scratch evaluation.
"$bin/dtrfail" -budget tiny -kind link -sample 4 -robust -mode verify >/dev/null

echo "== dtrfail: verify-mode sweep of an SLA instance"
# The SLA state maintains link and pair delays, which verify mode compares.
"$bin/dtrfail" -budget tiny -objective sla -kind link -sample 4 -mode verify >/dev/null

echo "== dtrfail: -mode full is refused, naming the modes there are"
if "$bin/dtrfail" -budget tiny -kind link -sample 4 -mode full 2>"$bin/dtrfail_full.err"; then
  echo "FAIL: dtrfail -mode full exited 0"; exit 1
fi
grep -q 'delta|verify' "$bin/dtrfail_full.err" || {
  echo "FAIL: dtrfail -mode full did not name delta|verify"; cat "$bin/dtrfail_full.err"; exit 1; }

echo "== dtrchurn: generate a trace, replay it cumulatively and verified"
"$bin/dtrchurn" generate -horizon 120 -link-mtbf 60 -link-mttr 4 \
  -weight-rate 0.05 -o "$bin/churn.jsonl" 2>/dev/null
test -s "$bin/churn.jsonl"
head -1 "$bin/churn.jsonl" | grep -q '"churn_trace"' || {
  echo "FAIL: churn trace lacks its header line"; exit 1; }
"$bin/dtrchurn" replay -budget tiny -trace "$bin/churn.jsonl" -verify \
  >"$bin/churn-replay.jsonl" 2>/dev/null
head -1 "$bin/churn-replay.jsonl" | grep -q '"manifest"' || {
  echo "FAIL: churn replay stream does not start with a run manifest"; exit 1; }
tail -1 "$bin/churn-replay.jsonl" | grep -q '"churn_summary"' || {
  echo "FAIL: churn replay stream does not end with a summary"; exit 1; }
grep -q '"kind":"link-down"' "$bin/churn-replay.jsonl" || {
  echo "FAIL: churn replay emitted no link-down records"; exit 1; }

echo "== dtrchurn: counterfactual replay of the same trace, verified"
# Each event checkpointed, applied, verified against a from-scratch
# evaluation and reverted to the intact network.
"$bin/dtrchurn" replay -budget tiny -trace "$bin/churn.jsonl" -counterfactual -verify \
  >"$bin/churn-cf.jsonl" 2>/dev/null
tail -1 "$bin/churn-cf.jsonl" | grep -q '"churn_summary"' || {
  echo "FAIL: counterfactual churn replay stream does not end with a summary"; exit 1; }

echo "== dtrchurn: load-based replay of the same trace, verified"
# Reading the violation mass arms the delays of a load-based state too.
"$bin/dtrchurn" replay -budget tiny -objective load -trace "$bin/churn.jsonl" -verify \
  >"$bin/churn-load.jsonl" 2>/dev/null
tail -1 "$bin/churn-load.jsonl" | grep -q '"churn_summary"' || {
  echo "FAIL: load-based verified churn replay stream does not end with a summary"; exit 1; }

echo "== dtrchurn: instant-vs-convergence comparison on a generated timeline"
"$bin/dtrchurn" compare -budget tiny -horizon 120 -link-mtbf 60 \
  -link-mttr 4 >"$bin/churn-compare.out" 2>/dev/null
grep -q 'transient' "$bin/churn-compare.out" || {
  echo "FAIL: dtrchurn compare printed no transient row"; exit 1; }

echo "== dtrd: boot the daemon, load a topology, route/whatif/search, drain"
"$bin/dtrd" -addr 127.0.0.1:0 2>"$bin/dtrd.stderr" &
dtrd_pid=$!
base_url=""
for _ in $(seq 1 100); do
  base_url="$(sed -n 's#^dtrd: listening on \(http://[^ ]*\)$#\1#p' "$bin/dtrd.stderr" | head -1)"
  [ -n "$base_url" ] && break
  kill -0 "$dtrd_pid" 2>/dev/null || { cat "$bin/dtrd.stderr"; echo "FAIL: dtrd exited before announcing its address"; exit 1; }
  sleep 0.1
done
[ -n "$base_url" ] || { cat "$bin/dtrd.stderr"; echo "FAIL: dtrd address never announced"; exit 1; }

curl -sf -d @examples/dtrd/load.json "$base_url/v1/topologies" | grep -q '"id": "t1"' || {
  echo "FAIL: dtrd load did not create topology t1"; exit 1; }
curl -sf -d @examples/dtrd/route.json "$base_url/v1/topologies/t1/route" | grep -q '"phi_l"' || {
  echo "FAIL: dtrd route returned no costs"; exit 1; }
curl -sf -d @examples/dtrd/whatif.json "$base_url/v1/topologies/t1/whatif" | grep -q '"survivors"' || {
  echo "FAIL: dtrd whatif returned no sweep summary"; exit 1; }
curl -sf -d @examples/dtrd/search.json "$base_url/v1/topologies/t1/search" | grep -q '"id": "j1"' || {
  echo "FAIL: dtrd search did not start job j1"; exit 1; }
job=""
for _ in $(seq 1 300); do
  job="$(curl -sf "$base_url/v1/jobs/j1")"
  echo "$job" | grep -q '"status": "running"' || break
  sleep 0.1
done
echo "$job" | grep -q '"status": "done"' || {
  echo "$job"; echo "FAIL: dtrd search job did not finish"; exit 1; }
echo "$job" | grep -q '"dtr_low_weights"' || {
  echo "FAIL: dtrd search result carries no DTR weights"; exit 1; }
# Capture the (large) exposition before grepping: `curl | grep -q` under
# pipefail fails spuriously when grep exits on an early match and curl
# takes the resulting EPIPE.
dtrd_scrape="$(curl -sf "$base_url/metrics")"
echo "$dtrd_scrape" | grep -q '^# TYPE dtrd_request_seconds histogram$' || {
  echo "FAIL: dtrd /metrics missing the request latency histogram"; exit 1; }
kill -TERM "$dtrd_pid"
wait "$dtrd_pid" || { cat "$bin/dtrd.stderr"; echo "FAIL: dtrd exited non-zero on SIGTERM"; exit 1; }
grep -q '^dtrd: stopped$' "$bin/dtrd.stderr" || {
  cat "$bin/dtrd.stderr"; echo "FAIL: dtrd did not drain to 'stopped'"; exit 1; }

echo "ok: CLI smoke passed"
