#!/usr/bin/env bash
# Hermetic verification gate: the whole workspace must build, test, and
# compile its benches/examples with no network access. Every bound is a
# test; this script only picks the profiles and backends. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== release build (offline) =="
cargo build --release --offline --bins --examples

echo "== test suite (detected-best kernel backend) =="
cargo test -q --offline --workspace

echo "== test suite (forced scalar kernel backend) =="
# The only run that executes every test under the scalar kernels: a SIMD
# path that diverges beyond the documented tolerances fails here or above.
TORCHGT_BACKEND=scalar cargo test -q --offline --workspace

if grep -qw avx512f /proc/cpuinfo 2>/dev/null; then
    echo "== kernel suites (forced AVX2 kernel backend) =="
    # Where the best is AVX-512 the AVX2 kernels otherwise only run inside
    # the parity harness's per-kernel comparisons, never end to end.
    TORCHGT_BACKEND=avx2 cargo test -q --offline --test simd_parity
    TORCHGT_BACKEND=avx2 cargo test -q --offline -p torchgt-tensor -p torchgt-model
fi

echo "== benches + examples compile =="
cargo check --benches --examples --offline

echo "== end-to-end gates (release) =="
# `tests/gates.rs` in an optimized build: the cases a debug build skips or
# checks without their timing bound (SLOs, the SIMD speedup, the loader's
# stall fractions, overload goodput, the rebalance tail bound, peak RSS
# below the dataset size, the channel schedule property at 1,000 cases).
# Unfiltered, so a renamed case cannot drop out unnoticed.
cargo test -q --release --offline --test gates

echo "== the paper's figures hold their shapes (release harness) =="
# Every figure and table of the paper's evaluation, one registry entry each
# (`crates/bench/src/figures.rs`). Tier-1 runs the eight that train nothing
# (`tests/paper_shapes.rs`); only this release run checks the ten training
# figures. A failed check exits non-zero and is named on stderr.
cargo bench -q --offline -p torchgt-bench --bench paper_shapes >/dev/null

echo "== perf_ledger smoke =="
# The benchmark is a package of its own, so tier-1 never runs it: a slipped
# pinned signature (examples/perf_ledger/README.md) would otherwise surface
# only as failed benchmark runs. `--trace` also runs the per-layer form.
cargo run --release --offline --manifest-path examples/perf_ledger/Cargo.toml -- --smoke --trace >/dev/null

echo "verify: OK"
