#!/usr/bin/env bash
# smoke_lbd.sh — build-and-smoke cmd/lbd, exercised by CI: the load
# generator end to end, then the HTTP surface (healthz, 100 dispatches,
# metrics scrape, flight-recorder /debug/jobs, predicted-delay gauges)
# and a clean SIGTERM drain.
set -euo pipefail
cd "$(dirname "$0")/.."

bin=$(mktemp -d)/lbd
go build -o "$bin" ./cmd/lbd

echo "== loadgen mode =="
"$bin" -loadgen 200 -n 4 -d 2 -rho 0.6 -mean-service 1ms -warmup 20

echo "== loadgen mode: indexed JSQ, multi-dispatcher fan-in =="
out=$("$bin" -loadgen 2000 -n 64 -policy jsq -rho 0.5 -mean-service 1ms -dispatchers 4)
grep -q '4 dispatcher(s)' <<<"$out"

echo "== serve mode =="
addr=127.0.0.1:8097
pprof=127.0.0.1:8098
"$bin" -addr "$addr" -n 4 -d 2 -rho 0.6 -mean-service 1ms -pprof "$pprof" -trace 1 &
pid=$!
trap 'kill "$pid" 2>/dev/null || true' EXIT

for _ in $(seq 1 100); do
    curl -fsS "http://$addr/healthz" >/dev/null 2>&1 && break
    sleep 0.1
done
curl -fsS "http://$addr/healthz" | grep -q ok
curl -fsS "http://$pprof/debug/pprof/goroutine?debug=1" | head -1 | grep -q 'goroutine profile'

for _ in $(seq 1 100); do
    curl -fsS -X POST "http://$addr/work?work=0.5" >/dev/null
done

# The predicted-delay gauges are solved in a background goroutine at
# startup; poll the readiness gauge before asserting on the bracket.
for _ in $(seq 1 100); do
    curl -fsS "http://$addr/metrics" | grep -q '^lbd_delay_predicted_ready 1$' && break
    sleep 0.1
done

metrics=$(curl -fsS "http://$addr/metrics")
echo "$metrics" | grep -q '^lbd_jobs_completed_total 100$'
echo "$metrics" | grep -q '^lbd_jobs_rejected_total 0$'
echo "$metrics" | grep -q '^lbd_delay_mean_service_times '
echo "$metrics" | grep -q 'lbd_queue_length{server="3"}'

echo "== flight-recorder metrics =="
echo "$metrics" | grep -q '^lbd_trace_jobs_total{outcome="sampled"} '
echo "$metrics" | grep -q '^lbd_trace_sample_every 1$'
echo "$metrics" | grep -q '^lbd_trace_stage_service_times_bucket{stage="wait",le="+Inf"} '

echo "== predicted-vs-measured gauges =="
echo "$metrics" | grep -q '^lbd_delay_predicted_ready 1$'
echo "$metrics" | grep -q '^lbd_delay_predicted_mean_lower '
echo "$metrics" | grep -q '^lbd_delay_predicted_mean_upper '
echo "$metrics" | grep -q '^lbd_delay_predicted_p99_lower '

echo "== /debug/jobs =="
jobs=$(curl -fsS "http://$addr/debug/jobs?max=16")
grep -q '"sample_every": *1' <<<"$jobs" || grep -q '"sample_every":1' <<<"$jobs"
grep -q '"spans"' <<<"$jobs"
grep -q '"server"' <<<"$jobs"
csv=$(curl -fsS "http://$addr/debug/jobs?format=csv&max=16")
head -1 <<<"$csv" | grep -q '^seq,server,qlen,ties,'
test "$(wc -l <<<"$csv")" -gt 1

kill -TERM "$pid"
wait "$pid"
trap - EXIT
echo "lbd smoke OK"
