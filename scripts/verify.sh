#!/usr/bin/env bash
# Hermetic verification gate: the whole workspace must build, test, and
# compile its benches/examples with no network access. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== release build (offline) =="
cargo build --release --offline

echo "== test suite (offline, detected-best kernel backend) =="
cargo test -q --offline --workspace

echo "== test suite (offline, forced scalar kernel backend) =="
# The backend leg: the only run that executes every test under the scalar
# kernels. Any kernel whose SIMD path diverges beyond the documented
# tolerances fails here or above. (Collectives have one issue path, so
# there is no second schedule to run the suite under; the rebalance gate
# that checks loss bit-identity across assignments is `tests/gates.rs`.)
TORCHGT_BACKEND=scalar cargo test -q --offline --workspace

if grep -qw avx512f /proc/cpuinfo 2>/dev/null; then
    echo "== kernel suites (offline, forced AVX2 kernel backend) =="
    # Where the detected best is AVX-512 the AVX2 kernels otherwise only run
    # inside the parity harness's per-kernel comparisons, never end to end.
    TORCHGT_BACKEND=avx2 cargo test -q --offline --test simd_parity
    TORCHGT_BACKEND=avx2 cargo test -q --offline -p torchgt-tensor -p torchgt-model
fi

echo "== every SIMD kernel is named in the parity harness =="
# ROADMAP: zero new `unsafe` without a parity test. The gate itself is a test
# (tier-1 runs it with the suite above); it is named here so a filter that
# stops matching fails loudly instead of passing on zero tests.
cargo test -q --offline --test simd_parity every_simd_kernel_is_named_in_this_harness 2>&1 \
    | grep -q "1 passed" || { echo "SIMD kernel coverage gate did not run or failed"; exit 1; }
echo "SIMD kernel coverage: OK"

echo "== benches + examples compile (offline) =="
cargo check --benches --examples --offline

echo "== the paper's figures hold their shapes (release harness) =="
# Every figure and table of the paper's evaluation, one registry entry each
# (`crates/bench/src/figures.rs`). Tier-1 runs the eight that train nothing
# (`tests/paper_shapes.rs`); the ten training figures take minutes each in a
# debug build, so only this release run checks them. A failed check exits
# non-zero and is named on stderr.
cargo bench -q --offline -p torchgt-bench --bench paper_shapes >/dev/null
echo "paper shapes: OK"

echo "== release examples + bins build (offline) =="
cargo build --release --offline --examples --bins

echo "== perf_ledger smoke (the benchmark builds and passes against these crates) =="
# The benchmark is a package of its own, so tier-1 never compiles it: a
# slipped pinned signature (examples/perf_ledger/README.md) would otherwise
# surface only as failed benchmark runs. `--trace` also runs the per-layer form.
cargo run --release --offline --manifest-path examples/perf_ledger/Cargo.toml -- --smoke --trace >/dev/null
echo "perf_ledger smoke: OK"

# The metrics export, allocation-free steady state, crash-resume and elastic
# shrink gates are tier-1 tests (`tests/observability.rs`,
# `tests/fault_tolerance.rs`, `tests/elastic.rs`), and so is the chaos gate
# (datagen + train under a seeded disk-fault plan: bit-identical losses,
# `io_retry`, snapshot fallback and quarantine on a corrupt resume):
# `tests/gates.rs::chaos_plan_heals_to_the_fault_free_losses`.

# The kernel backend parity gate (scalar vs detected-best loss histories) is
# a tier-1 test: `tests/gates.rs::kernel_backends_train_to_the_same_losses`.
# The SIMD speedup gate below only needs the backend the CLI resolves.
best="$(./target/release/torchgt_cli train --dataset arxiv --method gp-sparse --epochs 1 \
    --scale 0.002 --seq-len 128 --hidden 16 --layers 2 --heads 2 --seed 7 \
    | grep -o 'kernel backend: .*' | cut -d' ' -f3)"
[ -n "$best" ] || { echo "CLI did not announce the detected backend"; exit 1; }

echo "== SIMD speedup bench =="
cargo bench -q --offline -p torchgt-bench --bench simd_speedup >/dev/null
bench_json="target/experiments/BENCH_simd.json"
[ -f "$bench_json" ] || { echo "$bench_json missing"; exit 1; }
if [ "$best" != "scalar" ]; then
    # At least one matmul or softmax kernel must clear 2x under some SIMD
    # backend on SIMD-capable hardware. The JSON is pretty-printed, so each
    # row's "kernel" line precedes its "speedup" line.
    awk -F'"' '/"kernel":/ { kernel = $4 }
        /"speedup":/ && (kernel ~ /matmul/ || kernel ~ /softmax/) {
            split($0, f, ":"); if (f[2] + 0 >= 2.0) found = 1 }
        END { exit !found }' "$bench_json" \
        || { echo "no >=2x matmul/softmax speedup recorded in $bench_json"; exit 1; }
    echo "SIMD speedup bench: OK (>=2x on a matmul/softmax kernel)"
else
    echo "SIMD speedup bench: OK (scalar-only CPU, speedup gate skipped)"
fi

echo "== quantized serving gate + channel schedule property (release) =="
# Freeze -> serve 128 queries at 500 qps, the serving gauges present, p99
# within the 50 ms SLO: `tests/gates.rs`. Tier-1 runs it in a debug build,
# where it checks the answers and gauges only; the SLO needs this build.
# The same leg runs `compat::sync`'s schedule property at 1,000 cases, with
# both ends of each hand-off at full speed (tier-1 runs 48 debug cases).
cargo test -q --release --offline --test gates -- quantized_serving_answers_every_query_within_the_slo \
    channel_schedules_lose_no_message_and_no_wake_up_in_release 2>&1 \
    | grep -q "2 passed" || { echo "quantized serving gate or channel property did not run or failed"; exit 1; }
echo "quantized serving gate + channel schedule property: OK"

echo "== serve load bench (SLO assert) =="
# The bench itself asserts p99 <= SLO at the stated QPS; the JSON row must
# also record slo_met=true for every offered rate at or below it.
cargo bench -q --offline -p torchgt-bench --bench serve_load >/dev/null
serve_json="target/experiments/BENCH_serve.json"
[ -f "$serve_json" ] || { echo "$serve_json missing"; exit 1; }
awk -F'[:,]' '
    /"offered_qps":/ { qps = $2 + 0 }
    /"slo_met":/ { if (qps <= 500 && $2 !~ /true/) bad = 1; rows += 1 }
    END { exit !(rows >= 3 && !bad) }' "$serve_json" \
    || { echo "SLO missed at or below the stated QPS in $serve_json"; exit 1; }
echo "serve load bench: OK (slo_met at <=500 qps)"

echo "== out-of-core streaming gate (release) =="
# Shard a papers100M-scale stand-in, stream-train it: >= 2 shards, losses
# bit-identical to the in-memory run, prefetch gauges nonzero and — in this
# optimized build — peak RSS below the on-disk dataset size:
# `tests/gates.rs`. Tier-1 runs it in a debug build without the RSS bound.
cargo test -q --release --offline --test gates streaming_training_matches_in_memory_below_the_dataset_size 2>&1 \
    | grep -q "1 passed" || { echo "out-of-core gate did not run or failed"; exit 1; }
echo "out-of-core gate: OK"

echo "== rebalance bench =="
# The bench asserts internally: bit-identical losses for the static and
# closed-loop assignments, and the closed loop faster than the static
# assignment on tail epochs. The gate additionally requires the recorded
# speedup in the JSON.
cargo bench -q --offline -p torchgt-bench --bench rebalance_skew >/dev/null
rebalance_json="target/experiments/BENCH_rebalance.json"
[ -f "$rebalance_json" ] || { echo "$rebalance_json missing"; exit 1; }
awk -F'[:,]' '
    /"rebalance_tail_speedup":/ { if ($2 + 0 > 1.0) r = 1 }
    END { exit !r }' "$rebalance_json" \
    || { echo "no rebalance speedup recorded in $rebalance_json"; exit 1; }
echo "rebalance bench: OK"

echo "== data loader bench =="
# The bench asserts exact per-epoch byte accounting internally; the gate
# requires the JSON rows with a sane stall fraction.
cargo bench -q --offline -p torchgt-bench --bench data_loader >/dev/null
data_json="target/experiments/BENCH_data.json"
[ -f "$data_json" ] || { echo "$data_json missing"; exit 1; }
awk -F'[:,]' '
    /"stall_fraction":/ { rows += 1; if ($2 + 0 < 0 || $2 + 0 > 1) bad = 1 }
    END { exit !(rows >= 2 && !bad) }' "$data_json" \
    || { echo "bad or missing stall_fraction rows in $data_json"; exit 1; }
echo "data loader bench: OK"

echo "== serve shed gate: SLO holds with load shedding active =="
# Freeze under a disk-fault plan, then serve a burst-injected overload with a
# low shed watermark: the run must shed, every shed must surface as a
# load_shed event plus the queries_shed counter, and the accepted-query p99
# must still meet the SLO: `tests/gates.rs`. Tier-1 runs it in a debug
# build, where it checks the shedding only; the SLO needs this build.
cargo test -q --release --offline --test gates serve_sheds_under_overload_and_keeps_the_slo 2>&1 \
    | grep -q "1 passed" || { echo "serve shed gate did not run or failed"; exit 1; }
echo "serve shed gate: OK"

echo "== serve overload bench =="
# The bench asserts internally: goodput at 2x the saturated load within 10%
# of the plateau, and shed replies issued in under a millisecond. The gate
# re-checks the recorded JSON.
cargo bench -q --offline -p torchgt-bench --bench serve_overload >/dev/null
overload_json="target/experiments/BENCH_overload.json"
[ -f "$overload_json" ] || { echo "$overload_json missing"; exit 1; }
awk -F'[:,]' '
    /"plateau_goodput_qps":/ { plateau = $2 + 0 }
    /"overload_goodput_qps":/ { over = $2 + 0 }
    /"goodput_floor":/ { floor = $2 + 0 }
    /"shed":/ { shed += $2 + 0 }
    END { exit !(plateau > 0 && over >= floor * plateau && shed >= 1) }' "$overload_json" \
    || { echo "overload goodput or shed accounting failed in $overload_json"; exit 1; }
echo "serve overload bench: OK"

echo "verify: OK"
