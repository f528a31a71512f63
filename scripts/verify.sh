#!/usr/bin/env bash
# Tier-1 verification: build, full test suite, and a benchmark smoke run.
#
# This is the repo's single entry point for "is the tree healthy":
#   1. release build of every workspace member;
#   2. clippy over every target with warnings denied, and rustfmt's
#      check mode over every workspace member (the CI lint job);
#   3. the whole test suite (unit + property + integration);
#   4. a smoke run of the parallel-checking benchmark, validating that it
#      produces well-formed JSON (both the checking and the solver-kernel
#      reports), that every parallel run was bitwise equal to serial, and
#      that the batched SoA sweep kernels (batch_sweep_perlane /
#      batch_sweep_shared) are present, carry per-lane accept/reject/eval
#      tallies, and hold the RHS-eval budget (a B-occupancy sweep costs at
#      most 3x one scalar solve's evaluations); the same batch checks run
#      against the committed BENCH_solver.json so the published artifact
#      cannot drift from the acceptance bar;
#   5. a second smoke run through the --baseline AND --solver-baseline
#      regression gates against the first, exercising both baseline
#      parsers and gate verdicts (smoke walls sit below the gate's noise
#      floor, so this checks the machinery deterministically; real
#      slowdown detection happens on full-size runs compared across
#      commits — the solver gate additionally compares rhs_evals, which
#      are deterministic and must match exactly on identical trees);
#   6. an mfcsld daemon smoke test: an ephemeral-port daemon answers 20
#      concurrent formula requests bitwise identically to the offline
#      CLI, reports warm-cache hits in /metrics on the second batch,
#      applies 429 backpressure when its admission queue is full, and
#      drains cleanly on shutdown;
#   7. a chaos smoke test: a fresh --allow-faults daemon is fed a mix of
#      healthy requests and seeded NaN fault-injection requests; every
#      failure must be a structured error with a machine-readable code,
#      the poisoned session must be quarantined, healthy verdicts must
#      stay correct, and no worker may die;
#   8. a panic-audit lint of the daemon library and of the mfcsl-math
#      sparse-lane modules (clippy::unwrap_used / clippy::expect_used
#      denied outside tests);
#   9. a smoke run of the serving load benchmark: schema validation of
#      all three workloads (cold / warm / warm_keepalive) plus the
#      snapshot-restart probe, an assertion that the committed
#      BENCH_serve.json holds the restart-within-5x-warm-p50 bar, and a
#      --serve-baseline regression-gate run against the first smoke.
#
# That a SIGKILLed daemon restarts warm from its --state-dir is checked by
# crates/cli/tests/end_to_end.rs in step 3.
#
# Two statistical-lane gates run before the benchmarks:
#   * the committed conformance-vector suite (vectors/) is regenerated and
#     byte-compared — mean-field curve digests and SMC estimate digests pin
#     every solver and sampler bit;
#   * a bounded fuzz smoke mutates the committed seed corpus (fuzz/corpus/)
#     against the .mf parser and the daemon's JSON layer — structured
#     errors always, panics never.
# The daemon smoke additionally exercises `mfcsl simulate` and the wire
# `"mode": "simulate"` end to end, asserting both lanes print identical
# verdict lines and that replays are deterministic.
#
# Usage: scripts/verify.sh

set -euo pipefail
cd "$(dirname "$0")/.."

tmpdir="$(mktemp -d -t mfcsl_verify.XXXXXX)"
serve_pid=""
slow_pid=""
chaos_pid=""
cleanup() {
    [ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null || true
    [ -n "$slow_pid" ] && kill "$slow_pid" 2>/dev/null || true
    [ -n "$chaos_pid" ] && kill "$chaos_pid" 2>/dev/null || true
    rm -rf "$tmpdir"
}
trap cleanup EXIT

# NB: --workspace matters — the repo root is both a workspace and the
# umbrella `mfcsl` package, so a plain `cargo build`/`cargo test` here
# would cover only the umbrella crate and leave the CLI binary stale.
echo "== cargo build --release --workspace =="
cargo build --release --workspace

echo "== cargo clippy --workspace --all-targets =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo fmt --all --check =="
cargo fmt --all --check

echo "== cargo test -q --workspace =="
cargo test -q --workspace

echo "== conformance vectors (regenerate + byte-compare) =="
# The committed vectors/ suite pins every solver and sampler bit: a
# refactor that changes a mean-field curve value or an SMC estimate by one
# ULP regenerates differently and fails the byte comparison here.
vec_out="$tmpdir/vectors"
./target/release/mfcsl vectors vectors/spec.json --out "$vec_out" >/dev/null
for f in "$vec_out"/*.json; do
    name="$(basename "$f")"
    cmp -s "vectors/$name" "$f" || {
        echo "conformance vector $name drifted from the committed copy:"
        diff "vectors/$name" "$f" || true
        echo "(if the change is intentional, regenerate with:"
        echo "   cargo run --release -p mfcsl-cli -- vectors vectors/spec.json --out vectors)"
        exit 1
    }
done
python3 - vectors "$vec_out" <<'EOF'
import json, os, sys

spec = json.load(open(os.path.join(sys.argv[1], "spec.json")))
assert spec["schema"] == "mfcsl-vectors-spec-v1", spec["schema"]
suite_names = [s["name"] for s in spec["suites"]]
assert suite_names, "spec must define at least one suite"

committed = sorted(
    f for f in os.listdir(sys.argv[1]) if f.endswith(".json") and f != "spec.json")
assert committed == sorted(n + ".json" for n in suite_names), (committed, suite_names)
regenerated = sorted(f for f in os.listdir(sys.argv[2]) if f.endswith(".json"))
assert regenerated == committed, (regenerated, committed)

for name in committed:
    doc = json.load(open(os.path.join(sys.argv[1], name)))
    assert doc["schema"] == "mfcsl-vectors-v1", (name, doc["schema"])
    assert doc["curve_fnv1a"].startswith("0x") and len(doc["curve_fnv1a"]) == 18, doc
    assert doc["population"] >= 1 and doc["points"] >= 2 and doc["horizon"] > 0, doc
    assert doc["entries"], (name, "entries must not be empty")
    for e in doc["entries"]:
        assert isinstance(e["meanfield"]["holds"], bool), e
        sim = e["simulate"]
        assert sim["replications"] >= 1, e
        assert sim["estimates_fnv1a"].startswith("0x"), e
        assert sim["estimates"], (name, e["formula"], "estimates must not be empty")
        for est in sim["estimates"]:
            assert est["lo"] <= est["mean"] <= est["hi"], (name, est)
            assert est["n"] >= 1, (name, est)
print(f"{len(committed)} conformance suites regenerate byte-identically; schema valid")
EOF

echo "== fuzz smoke (.mf parser + daemon JSON layer) =="
# Bounded deterministic mutation runs over the committed seed corpus
# (fuzz/corpus/): every mutant must produce a structured error or a valid
# result, never a panic. MFCSL_FUZZ_ITERS bounds the budget so the smoke
# stays fast; soak runs can raise it.
MFCSL_FUZZ_ITERS=1024 cargo test -q --release -p mfcsl-modelfile --test fuzz_mf
MFCSL_FUZZ_ITERS=512 cargo test -q --release -p mfcsl-serve --test fuzz_json

echo "== bench_check smoke =="
smoke_out="$tmpdir/bench_check_smoke.json"
solver_out="$tmpdir/bench_solver_smoke.json"
gate_out="$tmpdir/bench_check_gate.json"
gate_solver_out="$tmpdir/bench_solver_gate.json"
cargo run --release -p mfcsl-bench --bin bench_check -- --smoke \
    --out "$smoke_out" --solver-out "$solver_out" >/dev/null

python3 - "$smoke_out" "$solver_out" BENCH_solver.json <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    report = json.load(f)

assert report["bench"] == "check", report
assert report["smoke"] is True, report
assert report["git_revision"], report
assert report["threads_available"] >= 1, report
names = [w["name"] for w in report["workloads"]]
assert names == ["fig3", "table2", "scalability", "sim"], names
for w in report["workloads"]:
    threads = [r["threads"] for r in w["results"]]
    assert threads == [1, 2, 4, 8], (w["name"], threads)
    for r in w["results"]:
        assert r["wall_seconds"] > 0, (w["name"], r)
        assert r["bitwise_equal_to_serial"] is True, (w["name"], r)
print("bench_check smoke report is well-formed; all runs bitwise equal to serial")

with open(sys.argv[2]) as f:
    solver = json.load(f)

assert solver["bench"] == "solver", solver
assert solver["smoke"] is True, solver
assert solver["allocation_counters"] is True, solver
kernels = [k["name"] for k in solver["kernels"]]
dense_kernels = [
    "meanfield_fresh",
    "meanfield_workspace",
    "batch_sweep_perlane",
    "batch_sweep_shared",
    "transition_matrix",
    "window_full",
    "window_fastpath",
]
sparse_kernels = [
    "sparse_steady_k64",
    "sparse_until_k64",
    "sparse_steady_k256",
    "sparse_until_k256",
]
assert kernels == dense_kernels + sparse_kernels, kernels
by_name = {k["name"]: k for k in solver["kernels"]}
for name in dense_kernels:
    k = by_name[name]
    assert k["wall_seconds"] > 0, k
    assert k["rhs_evals"] > 0, k
    assert k["accepted_steps"] > 0, k
# The workspace-reuse sweep is bitwise: identical step counts, fewer
# allocations than fresh-workspace solves.
assert by_name["meanfield_workspace"]["rhs_evals"] == by_name["meanfield_fresh"]["rhs_evals"]
assert by_name["meanfield_workspace"]["allocations"] <= by_name["meanfield_fresh"]["allocations"]
# The steady-regime hand-off must save Runge-Kutta work on the same problem.
assert by_name["window_fastpath"]["rhs_evals"] < by_name["window_full"]["rhs_evals"]


def check_batch_kernels(by_name):
    """Schema + RHS-eval-budget checks for the batched SoA sweep kernels.

    A batch kernel's rhs_evals counts K x B drive invocations: one batched
    call advances every lane, so a B-occupancy sweep must cost at most 3x
    one scalar solve's evaluations (budget = 3 * fresh_total / B, with
    fresh solving the same B occupancies serially).
    """
    fresh = by_name["meanfield_fresh"]
    for name in ("batch_sweep_perlane", "batch_sweep_shared"):
        k = by_name[name]
        width = k["batch_width"]
        assert width >= 2, (name, k)
        assert k["detached"] == 0, (name, k)
        assert k["restarts"] == 0, (name, k)
        lanes = k["lanes"]
        assert len(lanes) == width, (name, lanes)
        for b, lane in enumerate(lanes):
            assert lane["lane"] == b, (name, lane)
            assert lane["accepted"] > 0, (name, lane)
            assert lane["rejected"] >= 0, (name, lane)
            assert lane["rhs_evals"] > 0, (name, lane)
        budget = 3 * fresh["rhs_evals"] / width
        assert k["rhs_evals"] <= budget, (
            name, k["rhs_evals"], budget)
    # Per-lane controllers replay each scalar accept/reject stream exactly,
    # so the lane tallies must sum to the serial sweep's totals.
    perlane = by_name["batch_sweep_perlane"]
    assert sum(l["rhs_evals"] for l in perlane["lanes"]) == fresh["rhs_evals"], perlane
    assert sum(l["accepted"] for l in perlane["lanes"]) == fresh["accepted_steps"], perlane


check_batch_kernels(by_name)
print("batch_sweep kernels present; lane schema valid; "
      "sweep rhs_evals within 3x one solve's budget")

# The committed artifact must hold the same bar: batch kernels present,
# per-lane schema intact, RHS-eval budget kept. (Wall-clock is not
# asserted — it is host-dependent; the deterministic counters are not.)
with open(sys.argv[3]) as f:
    committed = json.load(f)
assert committed["bench"] == "solver", committed
committed_names = [k["name"] for k in committed["kernels"]]
assert "batch_sweep_perlane" in committed_names, committed_names
assert "batch_sweep_shared" in committed_names, committed_names
check_batch_kernels({k["name"]: k for k in committed["kernels"]})
print("committed BENCH_solver.json carries batch_sweep kernels within budget")
# The sparse lane must run in O(nnz) memory: peak heap growth below one
# dense K x K matrix (8 K^2 bytes). At K = 64 the GMRES restart basis
# (60 vectors) legitimately dominates 8 K^2, so the bound is asserted
# from K = 256 up; full-size runs extend the same check to K = 1024.
for name in sparse_kernels:
    k = by_name[name]
    assert k["wall_seconds"] > 0, k
    assert k["allocations"] > 0, k
    assert k["peak_bytes"] > 0, k
    big_k = int(name.rsplit("_k", 1)[1])
    if big_k >= 256:
        dense_matrix = 8 * big_k * big_k
        assert k["peak_bytes"] < dense_matrix, (
            name, k["peak_bytes"], dense_matrix)
print("bench_solver smoke report is well-formed; fast path saves RHS evaluations; "
      "sparse kernels stay below one dense matrix of heap growth")
EOF

echo "== bench_check --baseline / --solver-baseline regression gates =="
cargo run --release -p mfcsl-bench --bin bench_check -- --smoke \
    --out "$gate_out" --solver-out "$gate_solver_out" \
    --baseline "$smoke_out" --solver-baseline "$solver_out" \
    > "$tmpdir/gate.txt"
grep "baseline gate" "$tmpdir/gate.txt"
grep "solver gate" "$tmpdir/gate.txt"
# The solver kernels are deterministic between identical trees: every
# compared kernel must pass, and the batch kernels must be among them.
if grep "solver gate" "$tmpdir/gate.txt" | grep -q "FAIL"; then
    echo "solver gate regressed between identical smoke runs"; exit 1
fi
grep "solver gate" "$tmpdir/gate.txt" | grep -q "batch_sweep_perlane" || {
    echo "solver gate never compared batch_sweep_perlane"; exit 1; }
grep "solver gate" "$tmpdir/gate.txt" | grep -q "batch_sweep_shared" || {
    echo "solver gate never compared batch_sweep_shared"; exit 1; }

echo "== mfcsld daemon smoke =="
mfcsl=./target/release/mfcsl
m0="0.8,0.15,0.05"
formulas=(
    "EP{<0.3}[ not_infected U[0,1] infected ]"
    "E{<0.3}[ infected ]"
    "ES{>0.1}[ infected ]"
)

# The offline reference every served verdict must match byte-for-byte.
"$mfcsl" check modelfiles/virus.mf --m0 "$m0" "${formulas[@]}" > "$tmpdir/offline.txt"

"$mfcsl" serve modelfiles --addr 127.0.0.1:0 --workers 2 > "$tmpdir/serve.log" &
serve_pid=$!
for _ in $(seq 100); do
    grep -q "mfcsld listening on" "$tmpdir/serve.log" 2>/dev/null && break
    sleep 0.1
done
addr="$(awk '/mfcsld listening on/ {print $4; exit}' "$tmpdir/serve.log")"
[ -n "$addr" ] || { echo "daemon never announced its address"; exit 1; }

# First batch: 20 concurrent clients, each output bitwise equal to
# offline. (Wait on the client pids specifically — a bare `wait` would
# also wait on the daemon job, which does not exit until shutdown.)
client_pids=()
for i in $(seq 20); do
    "$mfcsl" client "$addr" check virus --m0 "$m0" "${formulas[@]}" \
        > "$tmpdir/served.$i.txt" &
    client_pids+=("$!")
done
wait "${client_pids[@]}"
for i in $(seq 20); do
    cmp -s "$tmpdir/offline.txt" "$tmpdir/served.$i.txt" || {
        echo "served output $i differs from offline check:"
        diff "$tmpdir/offline.txt" "$tmpdir/served.$i.txt" || true
        exit 1
    }
done
echo "20 concurrent served verdicts bitwise equal to offline check"

# Second batch: all warm. The session store built exactly one session for
# the 20-request stampede (instantiation happens under the store lock), so
# after three more requests the counters must show 1 cold start and 22
# warm hits.
for _ in 1 2 3; do
    "$mfcsl" client "$addr" check virus --m0 "$m0" "${formulas[@]}" > /dev/null
done
"$mfcsl" client "$addr" metrics > "$tmpdir/metrics.txt"
grep -q "^mfcsld_session_cold_starts_total 1$" "$tmpdir/metrics.txt" || {
    echo "expected exactly one cold start:"; cat "$tmpdir/metrics.txt"; exit 1; }
grep -q "^mfcsld_session_warm_hits_total 22$" "$tmpdir/metrics.txt" || {
    echo "expected 22 warm hits:"; cat "$tmpdir/metrics.txt"; exit 1; }
echo "second batch served warm (1 cold start, 22 warm hits)"

# Statistical lane: the same daemon answers `"mode": "simulate"` requests
# with finite-N interval verdicts, deterministically (two identical
# requests, byte-identical output, counted in /metrics), and the offline
# `mfcsl simulate` subcommand renders its verdict through the same
# verdict_line as `mfcsl check`.
"$mfcsl" simulate modelfiles/virus.mf --m0 "$m0" --population 100 \
    --reps 60 --seed 11 "ES{>0.1}[ infected ]" > "$tmpdir/sim_offline.txt"
grep -q "replications, N = 100, 95% CI" "$tmpdir/sim_offline.txt" || {
    echo "mfcsl simulate printed no interval line:"; cat "$tmpdir/sim_offline.txt"; exit 1; }
"$mfcsl" client "$addr" check virus --m0 "$m0" --simulate --population 100 \
    --reps 60 --seed 11 "ES{>0.1}[ infected ]" > "$tmpdir/sim_served.1.txt"
"$mfcsl" client "$addr" check virus --m0 "$m0" --simulate --population 100 \
    --reps 60 --seed 11 "ES{>0.1}[ infected ]" > "$tmpdir/sim_served.2.txt"
cmp -s "$tmpdir/sim_served.1.txt" "$tmpdir/sim_served.2.txt" || {
    echo "simulate replay not deterministic:"
    diff "$tmpdir/sim_served.1.txt" "$tmpdir/sim_served.2.txt" || true
    exit 1
}
head -n 1 "$tmpdir/sim_offline.txt" | cmp -s - "$tmpdir/sim_served.1.txt" || {
    echo "served simulate verdict differs from offline mfcsl simulate:"
    diff <(head -n 1 "$tmpdir/sim_offline.txt") "$tmpdir/sim_served.1.txt" || true
    exit 1
}
"$mfcsl" client "$addr" metrics > "$tmpdir/sim_metrics.txt"
grep -q "^mfcsld_simulate_requests_total 2$" "$tmpdir/sim_metrics.txt" || {
    echo "expected 2 simulate requests:"; cat "$tmpdir/sim_metrics.txt"; exit 1; }
grep -q "^mfcsld_simulate_replications_total 120$" "$tmpdir/sim_metrics.txt" || {
    echo "expected 120 simulate replications:"; cat "$tmpdir/sim_metrics.txt"; exit 1; }
echo "simulate lane: offline and served verdicts agree; replay deterministic"

# Drain-and-stop: the daemon must exit cleanly on its own.
"$mfcsl" client "$addr" shutdown | grep -q draining
wait "$serve_pid"
serve_pid=""
echo "daemon drained and exited cleanly"

# Backpressure: a one-worker, one-slot daemon under a slow request must
# 429 the connection that finds both the worker and the queue busy.
"$mfcsl" serve modelfiles/virus.mf --addr 127.0.0.1:0 \
    --workers 1 --queue 1 --allow-sleep > "$tmpdir/slow.log" &
slow_pid=$!
for _ in $(seq 100); do
    grep -q "mfcsld listening on" "$tmpdir/slow.log" 2>/dev/null && break
    sleep 0.1
done
slow_addr="$(awk '/mfcsld listening on/ {print $4; exit}' "$tmpdir/slow.log")"
python3 - "$slow_addr" <<'EOF'
import socket, sys, time

host, port = sys.argv[1].rsplit(":", 1)
body = (
    '{"model":"virus","m0":[0.8,0.15,0.05],'
    '"formulas":["E{<0.3}[ infected ]"],"sleep_ms":1500}'
).encode()

def post():
    s = socket.create_connection((host, int(port)), timeout=15)
    s.sendall(
        b"POST /v1/check HTTP/1.1\r\nHost: mfcsld\r\nContent-Length: "
        + str(len(body)).encode() + b"\r\nConnection: close\r\n\r\n" + body
    )
    return s

def status(s):
    buf = b""
    while b"\r\n" not in buf:
        chunk = s.recv(4096)
        if not chunk:
            break
        buf += chunk
    return buf.split(b"\r\n", 1)[0].decode()

a = post()          # occupies the single worker (sleeps 1500 ms)
time.sleep(0.3)
b = post()          # sits in the one queue slot
time.sleep(0.3)
c = post()          # queue full: must be rejected at admission
line = status(c)
assert " 429 " in line, f"expected 429, got {line!r}"
for s in (a, b):    # the admitted requests still complete
    line = status(s)
    assert " 200 " in line, f"expected 200, got {line!r}"
    s.close()
c.close()
print("queue-full connection got 429; admitted requests completed")
EOF
"$mfcsl" client "$slow_addr" shutdown > /dev/null
wait "$slow_pid"
slow_pid=""

echo "== mfcsld chaos smoke =="
# A dedicated --allow-faults daemon (so the counters asserted above are
# undisturbed): interleave seeded NaN fault-injection requests with
# healthy ones. Every failure must be a structured JSON error with a
# machine-readable code, the poisoned session must be quarantined, the
# healthy verdicts must keep matching the offline CLI, and no worker may
# die.
"$mfcsl" serve modelfiles/virus.mf --addr 127.0.0.1:0 \
    --workers 1 --allow-faults > "$tmpdir/chaos.log" &
chaos_pid=$!
for _ in $(seq 100); do
    grep -q "mfcsld listening on" "$tmpdir/chaos.log" 2>/dev/null && break
    sleep 0.1
done
chaos_addr="$(awk '/mfcsld listening on/ {print $4; exit}' "$tmpdir/chaos.log")"
[ -n "$chaos_addr" ] || { echo "chaos daemon never announced its address"; exit 1; }

python3 - "$chaos_addr" <<'EOF'
import json, socket, sys

host, port = sys.argv[1].rsplit(":", 1)

def post(payload):
    body = json.dumps(payload).encode()
    s = socket.create_connection((host, int(port)), timeout=30)
    s.sendall(
        b"POST /v1/check HTTP/1.1\r\nHost: mfcsld\r\nContent-Length: "
        + str(len(body)).encode() + b"\r\nConnection: close\r\n\r\n" + body
    )
    buf = b""
    while True:
        chunk = s.recv(65536)
        if not chunk:
            break
        buf += chunk
    s.close()
    head, _, resp_body = buf.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(resp_body)

# The faulted formula must carry a time horizon so the injected NaN
# actually reaches the integrator (a bare E operator never integrates).
formulas = ["EP{>0}[ tt U[0,2] infected ]"]
healthy = {"model": "virus", "m0": [0.8, 0.15, 0.05], "formulas": formulas}
poisoned = dict(healthy, fault={"mode": "nan", "period": 1, "seed": 7})

status, body = post(healthy)
assert status == 200, (status, body)
reference = body["verdicts"]

for round_no in range(4):
    status, body = post(poisoned)
    assert status == 500, f"fault round {round_no}: {status} {body}"
    assert body.get("code") == "engine_numerical", body
    assert body.get("error"), body
    status, body = post(healthy)
    assert status == 200, f"healthy round {round_no}: {status} {body}"
    assert body["verdicts"] == reference, body

print("4 injected faults -> structured engine_numerical errors; healthy verdicts unchanged")
EOF

"$mfcsl" client "$chaos_addr" metrics > "$tmpdir/chaos_metrics.txt"
grep -q "^mfcsld_worker_panics_total 0$" "$tmpdir/chaos_metrics.txt" || {
    echo "chaos run killed a worker:"; cat "$tmpdir/chaos_metrics.txt"; exit 1; }
grep -q "^mfcsld_requests_engine_errors_total 4$" "$tmpdir/chaos_metrics.txt" || {
    echo "expected 4 engine errors:"; cat "$tmpdir/chaos_metrics.txt"; exit 1; }
quarantined="$(awk '/^mfcsld_sessions_quarantined_total/ {print $2}' "$tmpdir/chaos_metrics.txt")"
[ "${quarantined:-0}" -ge 1 ] || {
    echo "expected at least one quarantined session:"; cat "$tmpdir/chaos_metrics.txt"; exit 1; }
"$mfcsl" client "$chaos_addr" health | grep -q ok || {
    echo "chaos daemon unhealthy after fault storm"; exit 1; }
echo "chaos storm survived: 0 worker deaths, $quarantined session(s) quarantined"

"$mfcsl" client "$chaos_addr" shutdown > /dev/null
wait "$chaos_pid"
chaos_pid=""

echo "== panic audit (mfcsl-serve, mfcsl-math sparse lane) =="
# The daemon library — and the sparse-lane modules of mfcsl-math that its
# long-lived sessions now solve through — carry
# #![warn(clippy::unwrap_used, expect_used)] outside tests; denying
# warnings here turns any new panic path into a verification failure.
cargo clippy -p mfcsl-serve --lib --release -- -D warnings
cargo clippy -p mfcsl-math --lib --release -- -D warnings

echo "== bench_serve smoke =="
serve_bench_out="$tmpdir/bench_serve_smoke.json"
cargo run --release -p mfcsl-bench --bin bench_serve -- --smoke \
    --out "$serve_bench_out" >/dev/null

python3 - "$serve_bench_out" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    report = json.load(f)

assert report["bench"] == "serve", report
assert report["smoke"] is True, report
assert report["git_revision"], report
assert report["threads_available"] >= 1, report
assert report["workers"] >= 1, report
assert report["serving_core"] == "epoll", report
names = [w["name"] for w in report["workloads"]]
assert names == ["cold", "warm", "warm_keepalive"], names
for w in report["workloads"]:
    assert w["requests"] > 0, w
    assert w["concurrency"] >= 1, w
    assert w["wall_seconds"] > 0, w
    assert w["throughput_rps"] > 0, w
    assert 0 < w["p50_us"] <= w["p95_us"] <= w["p99_us"], w
    assert w["bitwise_equal"] is True, w
by_name = {w["name"]: w for w in report["workloads"]}
assert by_name["warm"]["concurrency"] > by_name["cold"]["concurrency"], by_name
# The event loop multiplexes many keep-alive sockets over a handful of OS
# threads: far more connections than worker threads, none dropped.
ka = by_name["warm_keepalive"]
assert ka["connections"] > report["workers"], ka
assert ka["connections"] <= ka["requests"], ka
# Restart-with-snapshot: restored first request is served warm (no fresh
# solves) and bitwise identical. The 5x-warm-p50 latency bar is asserted
# on the committed artifact below, not on a noisy smoke run.
restart = report["snapshot_restart"]
assert restart["warm"] is True, restart
assert restart["bitwise_equal"] is True, restart
assert restart["first_request_us"] > 0, restart
print("bench_serve smoke report is well-formed; all responses bitwise equal; "
      "restored first request served warm")
EOF

# The committed serving artifact must hold the acceptance bar durably:
# restart-with-snapshot first-request latency within 5x warm p50.
python3 - BENCH_serve.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
restart = report["snapshot_restart"]
assert restart["warm"] is True, restart
assert restart["bitwise_equal"] is True, restart
assert restart["within_5x_warm_p50"] is True, restart
names = [w["name"] for w in report["workloads"]]
assert names == ["cold", "warm", "warm_keepalive"], names
print("committed BENCH_serve.json holds the snapshot-restart latency bar")
EOF

echo "== bench_serve --serve-baseline regression gate =="
# Smoke runs are tiny (tens of requests), so a single scheduler hiccup can
# breach the 0.75x rps bar; retry a few times before calling it a regression.
serve_gate_out="$tmpdir/bench_serve_gate.json"
serve_gate_ok=""
for attempt in 1 2 3; do
    if cargo run --release -p mfcsl-bench --bin bench_serve -- --smoke \
        --out "$serve_gate_out" --serve-baseline "$serve_bench_out" \
        > "$tmpdir/serve_gate.txt"; then
        serve_gate_ok=1
        break
    fi
    echo "serve gate attempt $attempt failed (smoke-scale noise); retrying"
    grep "serve gate" "$tmpdir/serve_gate.txt" || true
done
grep "serve gate" "$tmpdir/serve_gate.txt"
if [ -z "$serve_gate_ok" ]; then
    echo "serve gate regressed between identical smoke runs"; exit 1
fi
if grep "serve gate" "$tmpdir/serve_gate.txt" | grep -q "REFUSED"; then
    echo "serve gate refused a same-host comparison"; exit 1
fi

echo "verify: OK"
