#!/usr/bin/env bash
# Checks the benchmark and this commit's numbers. First the benchmark's
# own tests, lints and formatting (its package is a workspace of its
# own, so the repository's `cargo test` does not reach it); then two
# sets of untraced runs of this commit, A and B, interleaved A B A B
# over seeds 1 to 10 for every workload in BENCHMARK.json, each run
# lasting its run_seconds, compared by compare.py against the bounds
# in BENCHMARK.json. Run from anywhere in the checkout.
#
#   benchmark/check.sh           # tests, then 10 seeds x 2 sets x every workload
#   benchmark/check.sh --smoke   # tests, then one round of each workload
#
# --smoke runs one round of each workload (serve-replay with one pass
# over its streams instead of five) and checks only that every output
# is correct; it takes under 15 seconds after the build. Outputs land
# in .bench_build/benchmark/check/.
set -euo pipefail
cd "$(dirname "$0")/.."

smoke=0
case "${1-}" in
    "") ;;
    --smoke) smoke=1 ;;
    *) echo "usage: $0 [--smoke]" >&2; exit 2 ;;
esac

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
manifest=benchmark/Cargo.toml
cargo fmt --manifest-path "$manifest" --check
cargo clippy --quiet --offline --manifest-path "$manifest" --all-targets -- -D warnings
cargo test --quiet --offline --manifest-path "$manifest"
cargo build --release --quiet --offline --manifest-path "$manifest"
bin="$CARGO_TARGET_DIR/release/benchmark"
out=.bench_build/benchmark/check
rm -rf "$out"

workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

if [ "$smoke" = 1 ]; then
    mkdir -p "$out"
    status=0
    for w in $workloads; do
        if "$bin" --workload "$w" --smoke > "$out/smoke-$w.out"; then
            echo "smoke $w: ok"
        else
            echo "smoke $w: FAILED"
            grep "check failed" "$out/smoke-$w.out" || true
            status=1
        fi
    done
    exit $status
fi

seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
for w in $workloads; do
    mkdir -p "$out/A/$w" "$out/B/$w"
    for seed in $(seq 1 10); do
        for set in A B; do
            # A failed run still leaves its output for compare.py to flag.
            "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
                > "$out/$set/$w/$seed.out" || true
            echo "$set $w seed $seed: $(tail -n 1 "$out/$set/$w/$seed.out" | cut -c 1-60)"
        done
    done
done
python3 benchmark/compare.py BENCHMARK.json "$out"
