#!/usr/bin/env bash
# End-to-end observability smoke test:
#   simulate → featurize → train → evaluate → taped-vs-module training
#   diff → interrupt/resume → bench → scenario robustness matrix →
#   quantile-head train + risk-interval serve → traced serve round-trip
#   (/predict, /metrics scrape, clean /shutdown) → repro trace over the
#   exported span file → taped-vs---no-tape serving diff (200 queries,
#   bitwise) → 2-worker sharded fleet under loadtest (single-item +
#   batched /predict_batch legs) with a mid-load worker SIGKILL (zero
#   failed requests, supervised respawn, router batch-vs-single bitwise
#   parity, clean /shutdown) → report
# (tiny scale).  Fails if any stage exits non-zero, logs an ERROR event,
# does not write its run manifest, if a training run resumed from a
# checkpoint diverges from the uninterrupted run, if the exported trace
# is malformed or missing expected spans, or if hot-path
# throughput regressed more than 2x against the committed BENCH_perf.json
# (skipped when the repo has no baseline yet).  Wired into tier-1 via the `smoke` pytest
# marker (tests/test_smoke_pipeline.py).
#
# Usage: scripts/smoke.sh [workdir]   (default: a fresh mktemp dir)
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
WORK="${1:-$(mktemp -d)}"
mkdir -p "$WORK"
LOG="$WORK/smoke.log"
export PYTHONPATH="$ROOT/src${PYTHONPATH:+:$PYTHONPATH}"

cd "$WORK"

run() {
    python -m repro "$@" --log-level debug --log-file "$LOG"
}

run simulate  --scale tiny --out city.npz
run featurize --scale tiny --city city.npz \
              --train-out train.npz --test-out test.npz
run train     --model basic --scale tiny --train train.npz --test test.npz \
              --epochs 2 --save model.npz
run evaluate  --model basic --scale tiny --weights model.npz \
              --train train.npz --test test.npz

# Execution-tape training equivalence: one epoch on the taped engine
# (the default) must write bitwise the same weights as --no-tape module
# dispatch.
run train     --model basic --scale tiny --train train.npz --test test.npz \
              --epochs 1 --save model_tape_on.npz
run train     --model basic --scale tiny --train train.npz --test test.npz \
              --epochs 1 --no-tape --save model_tape_off.npz
python - <<'EOF'
import numpy as np
a = np.load("model_tape_on.npz")
b = np.load("model_tape_off.npz")
assert set(a.files) == set(b.files), "weight keys differ"
for key in a.files:
    np.testing.assert_array_equal(a[key], b[key], err_msg=key)
print("taped training equivalence ok")
EOF

# Fault-injected checkpoint/resume: train 3 epochs straight, then "kill"
# an identical run after epoch 1 and resume it from its checkpoint dir.
# The resumed run must reproduce the straight run's weights bitwise.
run train     --model basic --scale tiny --train train.npz --test test.npz \
              --epochs 3 --save model_straight.npz
run train     --model basic --scale tiny --train train.npz --test test.npz \
              --epochs 3 --checkpoint-dir ckpt --checkpoint-every 1 \
              --stop-after 1
run train     --model basic --scale tiny --train train.npz --test test.npz \
              --epochs 3 --checkpoint-dir ckpt --resume \
              --save model_resumed.npz

if [ ! -f ckpt/latest.json ]; then
    echo "smoke FAILED: missing ckpt/latest.json" >&2
    exit 1
fi
if ! grep -q '"resume"' model_resumed.npz.manifest.json; then
    echo "smoke FAILED: no resume provenance in model_resumed manifest" >&2
    exit 1
fi
python - <<'EOF'
import numpy as np
a = np.load("model_straight.npz")
b = np.load("model_resumed.npz")
assert set(a.files) == set(b.files), "weight keys differ"
for key in a.files:
    np.testing.assert_array_equal(a[key], b[key], err_msg=key)
print("resume equivalence ok")
EOF

for manifest in city.npz.manifest.json train.npz.manifest.json \
                model.npz.manifest.json model.npz.eval.manifest.json \
                model_resumed.npz.manifest.json; do
    if [ ! -f "$manifest" ]; then
        echo "smoke FAILED: missing manifest $manifest" >&2
        exit 1
    fi
done

# Fast canonical perf bench: writes the BENCH_perf.json schema and gates
# throughput against the committed baseline.  Also a determinism check —
# the bench compares a serial and a parallel experiment run bitwise.
run bench --scale tiny --epochs 2 --workers 2 \
          --out "$WORK/BENCH_perf.json" --baseline "$ROOT/BENCH_perf.json"
python - <<'EOF'
import json
payload = json.load(open("BENCH_perf.json"))
assert payload["schema_version"] == 1, payload
assert payload["metrics"]["experiment.identical"] == 1.0, \
    "parallel experiment run diverged from serial"
print("bench schema + determinism ok")
EOF

# Robustness matrix: a small-scale scenario sweep through the parallel
# engine.  The report is asserted well-formed here and uploaded as a CI
# artifact; byte-identity across worker counts is pinned by
# tests/scenarios/.
run scenarios --scale tiny --models average,lasso \
    --packs storm,supply_shock --workers 2 --out robustness.json
python - <<'EOF'
import json
report = json.load(open("robustness.json"))
assert report["schema_version"] == 1, report
rows = report["results"]
assert {r["scenario"] for r in rows} == {"steady", "storm", "supply_shock"}
steady = [r for r in rows if r["scenario"] == "steady"]
assert steady and all(r["degradation"] == 1.0 for r in steady), rows
assert all(r["worst_case_mae"] >= r["mae"] for r in rows), rows
print(f"scenario matrix ok ({len(rows)} rows)")
EOF

# Risk-aware serving: a --quantiles training run attaches a P10/P50/P90
# head to its checkpoint; /predict on that checkpoint must return
# monotone intervals alongside the point gap.
run train --model basic --scale tiny --train train.npz --test test.npz \
    --epochs 2 --checkpoint-dir ckpt_q --quantiles
python -m repro serve --city city.npz --checkpoint ckpt_q --scale tiny \
    --port 0 --log-level debug --log-file "$LOG" > serve_q.out &
QSERVE_PID=$!
for _ in $(seq 1 100); do
    grep -q "^serving .* on http://" serve_q.out 2>/dev/null && break
    sleep 0.1
done
if ! grep -q "^serving .* on http://" serve_q.out; then
    echo "smoke FAILED: quantile serve did not start" >&2
    cat serve_q.out >&2
    kill "$QSERVE_PID" 2>/dev/null || true
    exit 1
fi
QPORT=$(head -1 serve_q.out | sed 's/.*://')
python - "$QPORT" <<'EOF'
import json, sys, urllib.request

base = f"http://127.0.0.1:{sys.argv[1]}"

def post(path, payload):
    req = urllib.request.Request(
        base + path, json.dumps(payload).encode(),
        {"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=30) as resp:
        return resp.status, json.loads(resp.read())

for i in range(20):
    status, body = post(
        "/predict", {"area": i % 6, "day": 1 + i % 9, "timeslot": 30 + 40 * i}
    )
    assert status == 200, (status, body)
    assert body["p10"] <= body["p50"] <= body["p90"], body
status, stats = 200, None
with urllib.request.urlopen(base + "/stats", timeout=30) as resp:
    stats = json.loads(resp.read())
assert stats["quantiles"] is True, stats
status, body = post("/shutdown", {})
assert status == 200 and body == {"status": "shutting down"}, (status, body)
print("quantile serving ok (20 queries, monotone intervals)")
EOF
wait "$QSERVE_PID"

# Online serving round-trip: start the HTTP service (traced) from the
# checkpoint the resume flow left behind, answer 500 live queries,
# verify every response is a 200 with a finite gap, scrape /metrics for
# Prometheus latency quantiles, then shut it down cleanly.  The trace
# exports to serve_trace.json on exit and is summarized below.
python -m repro serve --city city.npz --checkpoint ckpt --scale tiny \
    --port 0 --log-level debug --log-file "$LOG" \
    --trace-file serve_trace.json > serve.out &
SERVE_PID=$!
for _ in $(seq 1 100); do
    grep -q "^serving .* on http://" serve.out 2>/dev/null && break
    sleep 0.1
done
if ! grep -q "^serving .* on http://" serve.out; then
    echo "smoke FAILED: serve did not start" >&2
    cat serve.out >&2
    kill "$SERVE_PID" 2>/dev/null || true
    exit 1
fi
PORT=$(head -1 serve.out | sed 's/.*://')
python - "$PORT" <<'EOF'
import json, math, sys, urllib.request

base = f"http://127.0.0.1:{sys.argv[1]}"

def post(path, payload):
    req = urllib.request.Request(
        base + path, json.dumps(payload).encode(),
        {"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=30) as resp:
        return resp.status, json.loads(resp.read())

queries = [
    (area, day, 30 + 13 * (i % 100))
    for i, (area, day) in enumerate(
        (i % 6, 1 + i % 9) for i in range(500)
    )
]
for area, day, slot in queries:
    status, body = post("/predict", {"area": area, "day": day, "timeslot": slot})
    assert status == 200, (status, body)
    assert math.isfinite(body["gap"]), body
status, stats = 200, None
with urllib.request.urlopen(base + "/stats", timeout=30) as resp:
    stats = json.loads(resp.read())
assert stats["cache"]["hits"] + stats["cache"]["misses"] >= 500, stats

# Live metrics plane: the Prometheus scrape must carry the request
# counter and the latency-quantile summary in text exposition format.
with urllib.request.urlopen(base + "/metrics", timeout=30) as resp:
    assert resp.status == 200, resp.status
    assert resp.headers["Content-Type"].startswith("text/plain"), \
        resp.headers["Content-Type"]
    metrics = resp.read().decode()
for needle in (
    "# TYPE repro_serving_requests counter",
    "# TYPE repro_serving_request_seconds summary",
    'repro_serving_request_seconds{quantile="0.99"}',
    "repro_serving_request_seconds_count",
):
    assert needle in metrics, f"missing from /metrics: {needle}"

status, body = post("/shutdown", {})
assert status == 200, (status, body)
assert body == {"status": "shutting down"}, body
print(f"serving round-trip ok ({len(queries)} queries, "
      f"{stats['cache']['hits']} cache hits, /metrics scrape ok)")
EOF
wait "$SERVE_PID"
if [ ! -f ckpt.serve.manifest.json ]; then
    echo "smoke FAILED: missing serve manifest" >&2
    exit 1
fi

# The traced serve must have exported a well-formed Chrome trace with a
# complete span tree per request; `repro trace` both validates the file
# (malformed events are a hard error) and prints the percentile table.
if [ ! -f serve_trace.json ]; then
    echo "smoke FAILED: serve did not export serve_trace.json" >&2
    exit 1
fi
python -m repro trace serve_trace.json --quiet > trace_summary.out
for span in http.handle serving.predict batcher.batch p95_ms; do
    if ! grep -q "$span" trace_summary.out; then
        echo "smoke FAILED: '$span' missing from repro trace summary:" >&2
        cat trace_summary.out >&2
        exit 1
    fi
done

# Execution-tape serving equivalence: the same 200 queries served with
# the tape on (default) and with --no-tape must match bit for bit.
for mode in tape_on tape_off; do
    EXTRA=""
    [ "$mode" = tape_off ] && EXTRA="--no-tape"
    python -m repro serve --city city.npz --checkpoint ckpt --scale tiny \
        --port 0 --log-level debug --log-file "$LOG" $EXTRA \
        > "serve_$mode.out" &
    TAPE_PID=$!
    for _ in $(seq 1 100); do
        grep -q "^serving .* on http://" "serve_$mode.out" 2>/dev/null && break
        sleep 0.1
    done
    if ! grep -q "^serving .* on http://" "serve_$mode.out"; then
        echo "smoke FAILED: serve ($mode) did not start" >&2
        cat "serve_$mode.out" >&2
        kill "$TAPE_PID" 2>/dev/null || true
        exit 1
    fi
    TAPE_PORT=$(head -1 "serve_$mode.out" | sed 's/.*://')
    python - "$TAPE_PORT" "gaps_$mode.json" <<'EOF'
import json, sys, urllib.request

base = f"http://127.0.0.1:{sys.argv[1]}"

def post(path, payload):
    req = urllib.request.Request(
        base + path, json.dumps(payload).encode(),
        {"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=30) as resp:
        return resp.status, json.loads(resp.read())

gaps = []
for i in range(200):
    area, day, slot = i % 6, 1 + i % 9, 30 + 13 * (i % 100)
    status, body = post("/predict", {"area": area, "day": day, "timeslot": slot})
    assert status == 200, (status, body)
    gaps.append(body["gap"])
with open(sys.argv[2], "w") as handle:
    json.dump(gaps, handle)
status, body = post("/shutdown", {})
assert status == 200 and body == {"status": "shutting down"}, (status, body)
EOF
    wait "$TAPE_PID"
done
python - <<'EOF'
import json
taped = json.load(open("gaps_tape_on.json"))
untaped = json.load(open("gaps_tape_off.json"))
assert taped == untaped, "taped serving diverged from --no-tape serving"
print(f"taped serving equivalence ok ({len(taped)} queries, bitwise)")
EOF

# Sharded fleet under fire: two supervised workers behind a router, one
# SIGKILLed mid-load.  No request may fail (router retry + journal
# replay), the supervisor must respawn the worker, a mixed loadtest must
# then run clean, and the fleet must acknowledge a clean /shutdown.
python -m repro serve --city city.npz --checkpoint ckpt --scale tiny \
    --workers 2 --shard-by area-slot --port 0 --fleet-run-dir fleet_run \
    --log-level debug --log-file "$LOG" > fleet.out &
FLEET_PID=$!
for _ in $(seq 1 300); do
    grep -q "^serving fleet" fleet.out 2>/dev/null && break
    sleep 0.1
done
if ! grep -q "^serving fleet" fleet.out; then
    echo "smoke FAILED: fleet did not start" >&2
    cat fleet.out fleet_run/*.err >&2 2>/dev/null
    kill "$FLEET_PID" 2>/dev/null || true
    exit 1
fi
FLEET_PORT=$(head -1 fleet.out | sed 's/.*://')
WORKER_PID=$(pgrep -f "fleet_run/worker-0.manifest.json" | head -1)
if [ -z "$WORKER_PID" ]; then
    echo "smoke FAILED: could not find fleet worker 0 pid" >&2
    exit 1
fi
# Four clients replay the loadtest's mixed predict/observe stream through
# the router from before the kill until after the respawn: the kill waits
# for their first replies and the stop for the respawn, so requests are
# in flight across the outage however fast the fleet answers.  The kill
# must cost latency, never a request.
python - "$FLEET_PORT" "$WORKER_PID" <<'EOF'
import os, signal, sys, threading, time

from repro.config import tiny_scale
from repro.serving import generate_ops
from repro.serving.router import TRANSPORT_ERRORS, request_json

address = f"127.0.0.1:{sys.argv[1]}"
worker_pid = int(sys.argv[2])
ops = generate_ops(tiny_scale(), 400, observe_fraction=0.2, seed=0)
clients = 4
killed, respawned, stop = threading.Event(), threading.Event(), threading.Event()
first_reply = threading.Semaphore(0)
lock = threading.Lock()
after_kill = [0] * clients
after_respawn = [0] * clients
failures = []

def client(index):
    n = 0
    while not stop.is_set():
        path, body = ops[(index + clients * n) % len(ops)]
        started_after_kill = killed.is_set()
        started_after_respawn = respawned.is_set()
        try:
            status, payload = request_json(address, "POST", path, body, timeout=60)
            if status != 200:
                failures.append((path, body, status, payload))
        except TRANSPORT_ERRORS as error:
            failures.append((path, body, repr(error)))
        with lock:
            after_kill[index] += started_after_kill
            after_respawn[index] += started_after_respawn
        if n == 0:
            first_reply.release()
        n += 1

threads = [threading.Thread(target=client, args=(i,), daemon=True)
           for i in range(clients)]
for thread in threads:
    thread.start()
for _ in range(clients):
    assert first_reply.acquire(timeout=60), "no reply before the kill"
os.kill(worker_pid, signal.SIGKILL)
killed.set()
deadline = time.monotonic() + 60
while True:
    _, stats = request_json(address, "GET", "/stats", timeout=30)
    if stats["fleet"]["respawns"] >= 1 and all(w["ready"] for w in stats["workers"]):
        break
    assert time.monotonic() < deadline, f"no respawn within 60s: {stats}"
    time.sleep(0.2)
respawned.set()
while True:
    with lock:
        if min(after_respawn) >= 1:
            break
    assert time.monotonic() < deadline, "clients stalled after the respawn"
    time.sleep(0.01)
stop.set()
for thread in threads:
    thread.join(timeout=60)
    assert not thread.is_alive(), "client hung through the kill"
assert not failures, failures[:5]
assert min(after_kill) >= 1, after_kill
print(f"fleet kill under load ok ({sum(after_kill)} requests sent after "
      f"the SIGKILL, 0 failed)")
EOF
# Exits 1 if any of the 400 concurrent requests fails.  --batch 32 adds a
# second leg that folds the same stream into /predict_batch wire calls
# (recorded as serving.fleet.batch.*) plus a bitwise batch-vs-single
# cross-check (serving.batch.identical must be 1.0 or loadtest exits 1).
run loadtest --url "http://127.0.0.1:$FLEET_PORT" --scale tiny \
    --requests 400 --concurrency 4 --observe-fraction 0.2 \
    --batch 32 --bench-out fleet_bench.json

# Batch transport parity through the router: one /predict_batch call
# spanning both shards must answer bitwise what per-item /predict says
# for every item (JSON round-trips doubles exactly, so == is bitwise).
python - "$FLEET_PORT" <<'EOF'
import json, sys, urllib.request

base = f"http://127.0.0.1:{sys.argv[1]}"

def post(path, payload):
    req = urllib.request.Request(
        base + path, json.dumps(payload).encode(),
        {"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=60) as resp:
        return resp.status, json.loads(resp.read())

items = [
    {"area": i % 6, "day": 1 + i % 9, "timeslot": 30 + 17 * i}
    for i in range(48)
]
status, batch = post("/predict_batch", {"items": items})
assert status == 200, (status, batch)
assert batch["count"] == len(items), batch
for item, got in zip(items, batch["results"]):
    status, single = post("/predict", item)
    assert status == 200, (status, single)
    assert single["gap"] == got["gap"], (item, single, got)
    assert single["version"] == got["version"], (item, single, got)
print(f"router batch parity ok ({len(items)} items, bitwise)")
EOF
python - "$FLEET_PORT" <<'EOF'
import json, sys, time, urllib.request

base = f"http://127.0.0.1:{sys.argv[1]}"
deadline = time.monotonic() + 60
while True:
    with urllib.request.urlopen(base + "/stats", timeout=30) as resp:
        stats = json.loads(resp.read())
    fleet = stats["fleet"]
    if fleet["respawns"] >= 1 and all(w["ready"] for w in stats["workers"]):
        break
    assert time.monotonic() < deadline, f"no respawn within 60s: {stats}"
    time.sleep(0.5)
assert fleet["workers"] == 2, stats

bench = json.load(open("fleet_bench.json"))["metrics"]
assert bench["serving.fleet.errors"] == 0.0, bench
assert bench["serving.fleet.requests"] == 400.0, bench
assert bench["serving.fleet.items_per_sec"] > 0, bench
assert bench["serving.fleet.batch.errors"] == 0.0, bench
assert bench["serving.fleet.batch.items"] == 400.0, bench
assert bench["serving.fleet.batch.items_per_sec"] > 0, bench
assert bench["serving.batch.identical"] == 1.0, bench

req = urllib.request.Request(base + "/shutdown", b"{}",
                             {"Content-Type": "application/json"})
with urllib.request.urlopen(req, timeout=30) as resp:
    assert resp.status == 200
    assert json.loads(resp.read()) == {"status": "shutting down"}
print(f"fleet ok (400 loadtest requests, 0 errors, "
      f"{fleet['respawns']} respawn(s) after SIGKILL)")
EOF
wait "$FLEET_PID"

if grep -q "level=error" "$LOG"; then
    echo "smoke FAILED: ERROR events in $LOG:" >&2
    grep "level=error" "$LOG" >&2
    exit 1
fi

python -m repro report city.npz.manifest.json train.npz.manifest.json \
    model.npz.manifest.json model.npz.eval.manifest.json \
    model_resumed.npz.manifest.json --quiet

echo "smoke ok"
