#!/usr/bin/env bash
# Offline CI gate: build, test, lint, format. No network access required —
# all third-party dependencies are vendored under vendor/ as path deps.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test"
cargo test -q --workspace --no-fail-fast

# Feature matrix: the obs feature only constant-folds the flight recorder's
# recording paths — the API must build and test identically without it.
echo "==> cargo test (no default features)"
cargo test -q -p virtualwire --no-default-features

# Control-plane fault matrix: every distributed scenario must converge to
# the fault-free report under {drop,dup,reorder,delay} x {0..30%} on the
# 0x88B5 control frames, with staleness flagged loudly, never silently.
echo "==> control-matrix"
cargo test -q -p virtualwire --test control_plane_reliability

echo "==> example smoke: obs_flight_recorder"
cargo run -q --release --example obs_flight_recorder > /dev/null

echo "==> example smoke: trace_dump (pcap export round-trip)"
cargo run -q --release --example trace_dump > /dev/null

# Fault analysis engine: cross-node timeline merge, invariant checking
# (zero violations on clean runs, seeded orphan detected), and campaign
# analytics determinism + regression diff.
echo "==> analysis"
cargo test -q -p vw-analysis
cargo test -q --test analysis_suite
cargo run -q --release --example fault_analysis > /dev/null

# Campaign engine: a small sweep must dedup into multiple outcome classes
# and the shrinker must halve a failing instance's rule count; the
# determinism suite pins byte-identical JSONL across thread counts. The
# example then runs the full 216-instance sweep end to end.
echo "==> campaign-smoke"
cargo test -q -p vw-campaign --test campaign_smoke --test determinism
cargo run -q --release --example campaign_sweep > /dev/null

# Scripted stimulus + protocol conformance: the vw-script parser and
# runtime suites (round-trip and robustness property tests included),
# the reference-model scenarios on the paper's §6.1/§6.2 testbeds (clean
# runs conform; seeded faults produce their documented violation class),
# the thread-count determinism of conformance-keyed campaign digests,
# and the end-to-end scripted stimulus + sweep example.
echo "==> script-smoke"
cargo test -q -p vw-script
cargo test -q --test conformance_models
cargo test -q -p vw-analysis --test conformance_determinism
cargo run -q --release --example scripted_conformance > /dev/null

# Trace smoke: the span profiler must collect a real run, export Chrome
# trace JSON that round-trips the vendored parser (the example
# self-checks both, plus the 5% self-time coverage bound), and the whole
# feature matrix must build: tracing compiled out (ZST guards), obs off,
# and both on.
echo "==> trace-smoke"
cargo test -q -p vw-trace
cargo test -q -p vw-trace --no-default-features
cargo run -q --release --example profile_run > /dev/null
cargo build -q -p virtualwire --no-default-features --features obs
cargo build -q -p virtualwire --no-default-features --features trace

# Serve smoke: the fault-injection daemon end to end. The protocol
# robustness corpus, typed service errors, quota + backpressure
# semantics, and — via the daemon_smoke/kill_resume suites — the real
# binary on a unix socket: submit through the framed client, SIGKILL it
# mid-sweep, restart on the same state dir, and diff the re-streamed
# JSONL byte-for-byte against an uninterrupted direct run_campaign at
# 1/2/8 workers. The load_test example then drives 9 concurrent clients
# with a stalled reader and an over-quota rejection.
echo "==> serve-smoke"
cargo test -q -p vw-serve
cargo run -q --release --example load_test > /dev/null

# Telemetry smoke: the live telemetry plane end to end. The integration
# suite covers streaming subscriptions during multi-campaign runs, the
# slow-subscriber drop semantics, and the determinism pins with a
# subscriber attached; the watch_daemon example self-validates a full
# subscribe -> progress -> journal round trip; and `vw-serve top` runs
# as a real client against the real binary on a unix socket.
echo "==> telemetry-smoke"
cargo test -q -p vw-serve --test telemetry
cargo run -q --release --example watch_daemon > /dev/null
VW_TELE_SOCK="target/vw-ci-telemetry.sock"
rm -f "$VW_TELE_SOCK"
./target/release/vw-serve --unix "$VW_TELE_SOCK" \
    --state-dir target/vw-ci-telemetry-state > /dev/null &
VW_TELE_PID=$!
for _ in $(seq 1 100); do
    [ -S "$VW_TELE_SOCK" ] && break
    sleep 0.1
done
[ -S "$VW_TELE_SOCK" ] || { echo "vw-serve never bound its socket"; exit 1; }
./target/release/vw-serve top --unix "$VW_TELE_SOCK" --ticks 2 --interval 100 > /dev/null
kill "$VW_TELE_PID" 2>/dev/null || true
wait "$VW_TELE_PID" 2>/dev/null || true
rm -rf "$VW_TELE_SOCK" target/vw-ci-telemetry-state

# Bench smoke: vwbench (BENCHMARK.json) is the one performance harness.
# Its own suite pins the seed-1 digests, the paper's Fig 7 / Fig 8 points
# and the span bookkeeping; then every workload runs once in quick mode
# and must pass its output checks (fault_storm's include frame
# conservation) with no failed operation. The result is the last line of
# standard output.
echo "==> bench-smoke"
cargo test --release -q --manifest-path vwbench/Cargo.toml
for workload in tower_tcp_lossy udp_min_forward paper_overhead fault_storm \
    campaign_sweep serve_stream; do
    result=$(cargo run --release --quiet --manifest-path vwbench/Cargo.toml -- \
        --workload "$workload" --quick --seed 1 --trace 0 | tail -n 1)
    if ! grep -q '"correct":true' <<<"$result" || ! grep -q '"failed":0' <<<"$result"; then
        echo "vwbench $workload: $result"
        exit 1
    fi
done

echo "==> cargo clippy"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "CI OK"
