#!/usr/bin/env bash
# Tier-1 gate: build, tests, lints, formatting. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release --workspace

echo "== tests =="
cargo test --release --workspace --quiet

echo "== simulator tests (debug: the ready-heap vs linear-scan cross-check is on) =="
# Release builds compile out `assert_pick_matches_scan`, so only a
# debug build checks every scheduling pick, same-thread fast path
# included, against the linear scan it replaced.
cargo test -p cord-sim --quiet
# A shared machine run answers a fork's replayed callbacks from its
# stall log, and a debug assertion checks each against the callback it
# logged; these suites drive it through real sweeps, with metrics and
# with failing runs, and through a CORD-D fork tree on a real app.
cargo test -p cord-bench --test observability --test fault_tolerance --quiet
cargo test --test shared_machine_runs --quiet

echo "== detector and wire tests (debug: overflow checks and debug assertions are on) =="
# The epoch-vs-vector-clock and fast-vs-checked-decoder property tests
# also run with overflow checks, so an arithmetic wrap on either fast
# path fails here instead of passing silently in release.
cargo test -p cord-detectors -p cord-obs --quiet

echo "== clippy (deny warnings; unwrap_used denied outside tests) =="
cargo clippy --workspace --all-targets -- -D warnings
cargo clippy -p cord-sim --all-targets -- -D warnings
cargo clippy -p cord-pool --all-targets -- -D warnings
cargo clippy -p cord-obs --all-targets -- -D warnings
cargo clippy -p cord-fuzz --all-targets -- -D warnings
cargo clippy -p cord-shard --all-targets -- -D warnings
cargo clippy -p cord-serve --all-targets -- -D warnings

echo "== rustfmt check =="
cargo fmt --all --check

echo "== parallel-sweep smoke: --jobs 2 must match serial byte-for-byte =="
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
./target/release/figures fig10 --scale tiny --injections 2 --jobs 1 \
    --json "$smoke_dir/serial.json" > "$smoke_dir/serial.txt" 2> /dev/null
./target/release/figures fig10 --scale tiny --injections 2 --jobs 2 \
    --json "$smoke_dir/parallel.json" > "$smoke_dir/parallel.txt" 2> /dev/null
diff "$smoke_dir/serial.json" "$smoke_dir/parallel.json"
diff "$smoke_dir/serial.txt" "$smoke_dir/parallel.txt"

echo "== §4 fixtures: figures all and the cores-scaling document match the committed files =="
# results/ and BENCH_scaling.json are what EXPERIMENTS.md quotes; any
# change to a simulated number shows up here as a byte diff.
./target/release/figures all --scale small --injections 40 --jobs 2 \
    --json "$smoke_dir/sweep.json" > "$smoke_dir/figures_all.txt" 2> /dev/null
diff "$smoke_dir/figures_all.txt" results/figures_all.txt
diff "$smoke_dir/sweep.json" results/sweep.json
./target/release/figures scaling --seed 2006 --injections 3 \
    --json "$smoke_dir/scaling.json" > /dev/null 2> /dev/null
diff "$smoke_dir/scaling.json" BENCH_scaling.json

echo "== coherence-backend smoke: explicit 4-core snooping flags are the default, byte-for-byte =="
./target/release/figures fig10 --scale tiny --injections 2 --jobs 1 \
    --cores 4 --backend snooping \
    --json "$smoke_dir/explicit4.json" > "$smoke_dir/explicit4.txt" 2> /dev/null
diff "$smoke_dir/serial.json" "$smoke_dir/explicit4.json"
diff "$smoke_dir/serial.txt" "$smoke_dir/explicit4.txt"

echo "== coherence-backend smoke: 8-core directory sweep completes and tags its options =="
./target/release/figures fig10 --scale tiny --injections 2 --jobs 2 \
    --cores 8 --backend directory \
    --json "$smoke_dir/dir8.json" > "$smoke_dir/dir8.txt" 2> /dev/null
test -s "$smoke_dir/dir8.json"
grep -q '"cores": 8' "$smoke_dir/dir8.json"
grep -q '"backend": "directory"' "$smoke_dir/dir8.json"
if diff -q "$smoke_dir/serial.json" "$smoke_dir/dir8.json" > /dev/null; then
    echo "8-core directory sweep unexpectedly identical to 4-core snooping" >&2
    exit 1
fi

echo "== observability smoke: tracing/metrics must not perturb results =="
./target/release/figures fig10 --scale tiny --injections 2 --jobs 2 \
    --json "$smoke_dir/observed.json" \
    --trace-dir "$smoke_dir/traces" --metrics-out "$smoke_dir/metrics.json" \
    > "$smoke_dir/observed.txt" 2> /dev/null
diff "$smoke_dir/serial.json" "$smoke_dir/observed.json"
diff "$smoke_dir/serial.txt" "$smoke_dir/observed.txt"
test -s "$smoke_dir/metrics.json"
ls "$smoke_dir/traces"/*.json > /dev/null
# Metrics alone keep passive detectors sharing a machine run (traces
# force one run per cell), so this byte-checks grouped-with-metrics
# against the grouped serial run and the ungrouped traced one above.
./target/release/figures fig10 --scale tiny --injections 2 --jobs 1 \
    --json "$smoke_dir/metrics-only.json" --metrics-out "$smoke_dir/metrics-only-metrics.json" \
    > "$smoke_dir/metrics-only.txt" 2> /dev/null
diff "$smoke_dir/serial.json" "$smoke_dir/metrics-only.json"
diff "$smoke_dir/serial.txt" "$smoke_dir/metrics-only.txt"
test -s "$smoke_dir/metrics-only-metrics.json"

echo "== fuzz smoke: 200 cases, oracle clean, --jobs invariant, corpus replays =="
./target/release/fuzz --seed 1 --count 200 --jobs 1 --budget-secs 600 \
    > "$smoke_dir/fuzz-serial.txt" 2> /dev/null
./target/release/fuzz --seed 1 --count 200 --jobs 2 --budget-secs 600 \
    > "$smoke_dir/fuzz-parallel.txt" 2> /dev/null
diff "$smoke_dir/fuzz-serial.txt" "$smoke_dir/fuzz-parallel.txt"
grep -q "200 of 200 cases, 0 failures" "$smoke_dir/fuzz-serial.txt"
./target/release/fuzz replay crates/fuzz/corpus > "$smoke_dir/fuzz-replay.txt" 2> /dev/null
grep -q ", 0 failures" "$smoke_dir/fuzz-replay.txt"

echo "== lockfree fuzz smoke: 200 CAS-loop-only cases, oracle clean =="
./target/release/fuzz --seed 1 --count 200 --jobs 2 --budget-secs 600 --lockfree \
    > "$smoke_dir/fuzz-lockfree.txt" 2> /dev/null
grep -q "200 of 200 cases, 0 failures" "$smoke_dir/fuzz-lockfree.txt"

echo "== lockfree figures smoke: clean runs report zero races, injections are caught =="
./target/release/figures lockfree > "$smoke_dir/lockfree.txt" 2> /dev/null
grep -q "Lock-free family" "$smoke_dir/lockfree.txt"
for app in treiber-stack ms-queue fa-counter seqlock; do
    # columns: app, clean races, racy inj (snoop), caught (snoop), racy inj (dir), caught (dir)
    awk -v app="$app" '$1 == app {
        found = 1
        if ($2 != 0 || $4 < 1 || $6 < 1) exit 1
    } END { exit !found }' "$smoke_dir/lockfree.txt"
done

echo "== shard smoke: chaos-killed 4-shard campaign must match --shards 1 byte-for-byte =="
./target/release/shard fuzz --dir "$smoke_dir/shard-serial" --shards 1 \
    --count 60 --short --seed 2006 --worker-jobs 2 2> /dev/null
./target/release/shard fuzz --dir "$smoke_dir/shard-chaos" --shards 4 \
    --count 60 --short --seed 2006 --worker-jobs 2 --poll-ms 5 \
    --chaos kill-rate=0.3,budget=6,seed=2006 2> /dev/null
diff "$smoke_dir/shard-serial/merged/report.txt" "$smoke_dir/shard-chaos/merged/report.txt"
diff "$smoke_dir/shard-serial/merged/metrics.json" "$smoke_dir/shard-chaos/merged/metrics.json"

echo "== shard smoke: forced abandonment, then resume heals to identical bytes =="
abandon_rc=0
CORD_SHARD_FAIL_SHARDS=2 ./target/release/shard fuzz --dir "$smoke_dir/shard-abandon" \
    --shards 4 --count 60 --short --seed 2006 --worker-jobs 2 --poll-ms 5 \
    --max-retries 1 2> /dev/null || abandon_rc=$?
test "$abandon_rc" -eq 2
grep -q "shard 2: abandoned" "$smoke_dir/shard-abandon/merged/report.txt"
./target/release/shard resume --dir "$smoke_dir/shard-abandon" --poll-ms 5 2> /dev/null
diff "$smoke_dir/shard-serial/merged/report.txt" "$smoke_dir/shard-abandon/merged/report.txt"
diff "$smoke_dir/shard-serial/merged/metrics.json" "$smoke_dir/shard-abandon/merged/metrics.json"

echo "== shard smoke: sharded sweep matches --shards 1 byte-for-byte =="
./target/release/shard sweep --dir "$smoke_dir/shard-sweep1" --shards 1 \
    --apps fft,radix --injections 2 --scale tiny --seed 13 --worker-jobs 2 2> /dev/null
./target/release/shard sweep --dir "$smoke_dir/shard-sweep4" --shards 4 \
    --apps fft,radix --injections 2 --scale tiny --seed 13 --worker-jobs 2 \
    --poll-ms 5 2> /dev/null
diff "$smoke_dir/shard-sweep1/merged/results.json" "$smoke_dir/shard-sweep4/merged/results.json"
diff "$smoke_dir/shard-sweep1/merged/report.txt" "$smoke_dir/shard-sweep4/merged/report.txt"
diff "$smoke_dir/shard-sweep1/merged/metrics.json" "$smoke_dir/shard-sweep4/merged/metrics.json"

echo "== serve smoke: daemon replay must match inline detection byte-for-byte =="
./target/release/serve smoke > "$smoke_dir/serve-smoke.txt" 2> /dev/null
grep -q ", 0 mismatches" "$smoke_dir/serve-smoke.txt"

echo "== serve smoke: capture file streamed to a daemon over the socket =="
./target/release/serve capture --app fft --config CORD-D16 --seed 42 \
    --out "$smoke_dir/fft.stream" 2> /dev/null
./target/release/serve daemon --socket "$smoke_dir/serve.sock" 2> /dev/null &
serve_pid=$!
for _ in $(seq 50); do test -S "$smoke_dir/serve.sock" && break; sleep 0.1; done
./target/release/serve replay --socket "$smoke_dir/serve.sock" \
    --capture "$smoke_dir/fft.stream" > "$smoke_dir/serve-report.json"
./target/release/serve status --socket "$smoke_dir/serve.sock" > "$smoke_dir/serve-status.json"
grep -q '"detector":"CORD-D16"' "$smoke_dir/serve-report.json"
grep -q '"events":' "$smoke_dir/serve-status.json"
# The sampled ingest-latency histogram reaches the CLI with at least
# one sample (the session's first Access is always timed).
./target/release/serve metrics --socket "$smoke_dir/serve.sock" > "$smoke_dir/serve-metrics.json"
ingest_count=$(sed -n 's/.*"ingest_latency":{"count":\([0-9]*\).*/\1/p' "$smoke_dir/serve-metrics.json")
test -n "$ingest_count"
test "$ingest_count" -ge 1
./target/release/serve shutdown --socket "$smoke_dir/serve.sock" > /dev/null
wait "$serve_pid"

echo "== refactor guard: mini sweep must match the committed fixtures =="
./target/release/refactor_guard "$smoke_dir/guard"
diff "$smoke_dir/guard/results.json" crates/bench/tests/fixtures/refactor_guard/results.json
diff "$smoke_dir/guard/checkpoint.json" crates/bench/tests/fixtures/refactor_guard/checkpoint.json
echo "== bench gate: sweep cell must stay within 20% of committed BENCH_engine.json =="
# Single-run timings on shared hardware are noisy, so gate on the best
# of three: a genuine regression slows every run, while a noise spike
# only slows some. Refresh the committed baseline with
#   ./target/release/refactor_guard --bench BENCH_engine.json
best_ns=""
for i in 1 2 3; do
    ./target/release/refactor_guard --bench "$smoke_dir/bench-$i.json" > /dev/null
    run_ns=$(sed -n 's/.*"mean_ns_per_cell": \([0-9.]*\).*/\1/p' "$smoke_dir/bench-$i.json")
    test -n "$run_ns"
    if [ -z "$best_ns" ] || awk -v a="$run_ns" -v b="$best_ns" 'BEGIN { exit !(a < b) }'; then
        best_ns="$run_ns"
    fi
done
base_ns=$(sed -n 's/.*"mean_ns_per_cell": \([0-9.]*\).*/\1/p' BENCH_engine.json)
test -n "$base_ns"
awk -v best="$best_ns" -v base="$base_ns" 'BEGIN {
    ratio = best / base
    printf "bench gate: best %.3f ms/cell vs baseline %.3f ms/cell (%.0f%%)\n",
        best / 1e6, base / 1e6, ratio * 100
    exit !(ratio <= 1.20)
}'

echo "== benchmark smoke: the separate benchmark package builds, lints, tests, and reproduces its digests =="
# benchmark/ is a workspace of its own that builds against crates/ by
# path, so the steps above never compile it.
benchmark/check.sh --smoke

echo "ci: all green"
