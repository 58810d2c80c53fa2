#!/usr/bin/env python3
"""Drift-free kernel A/B of two commits: writes the root BENCH_simd.json (or OUT).

Raw milliseconds of `simd_speedup` cannot compare commits on a shared host
(two runs of unchanged scalar code differ by x0.77-x1.69 per row), but each
row's speedup over the scalar column *of the same run* can, as long as the
scalar kernels are untouched — they are the control. Usage (EXPERIMENTS.md
"Kernel A/B across commits"):

    scripts/simd_ab.py PARENT_CHECKOUT [ROUNDS] [OUT]

PARENT_CHECKOUT is a `git clone` of the parent commit in which
`cargo bench --offline -p torchgt-bench --bench simd_speedup --no-run` and
`cargo build --release --offline --manifest-path examples/perf_ledger/Cargo.toml`
have been run; the same two commands must have been run in this checkout.
Rows the parent's bench does not have are skipped (copy this checkout's
crates/bench/benches/simd_speedup.rs into the parent first to compare them);
entry points only one side has are listed with null counts on the other.
"""
import glob, json, os, re, statistics, subprocess, sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAD = re.compile(r"^(int3|nop|nopw|nopl|cs|data16|xchg)$")


def bench_exe(checkout):
    exes = [p for p in glob.glob(f"{checkout}/target/release/deps/simd_speedup-*") if os.access(p, os.X_OK) and "." not in os.path.basename(p)]
    return max(exes, key=os.path.getmtime)


def run_once(checkout):
    subprocess.run([bench_exe(checkout), "--bench"], cwd=f"{checkout}/crates/bench", check=True, stdout=subprocess.DEVNULL)
    with open(f"{checkout}/target/experiments/BENCH_simd.json") as f:
        return {(c["kernel"], c["backend"]): c["speedup"] for c in json.load(f)["cases"]}


def entry_point_counts(checkout):
    """{entry point: [copies, instructions (padding excluded), calls]} of the release ledger binary."""
    exe = f"{checkout}/examples/perf_ledger/target/release/perf_ledger"
    counts, sym = {}, None
    for line in subprocess.run(["objdump", "-d", "-C", "--no-show-raw-insn", exe], check=True, capture_output=True, text=True).stdout.splitlines():
        if line.endswith(">:"):
            m = re.search(r"backend::((?:avx2|avx512)::\w+)>:$", line)
            sym = m.group(1) if m else None
            if sym:
                counts.setdefault(sym, [0, 0, 0])[0] += 1
        elif sym and re.match(r"^ +[0-9a-f]+:\t", line):
            mnemonic = line.split("\t")[1].split()[0]
            if not PAD.match(mnemonic):
                counts[sym][1] += 1
                counts[sym][2] += mnemonic.startswith("call")
    return counts


def main():
    parent, rounds = os.path.abspath(sys.argv[1]), int(sys.argv[2]) if len(sys.argv) > 2 else 5
    out_name = sys.argv[3] if len(sys.argv) > 3 else "BENCH_simd.json"
    runs = {"parent": [], "change": []}
    for i in range(rounds):  # alternate which side goes first
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            runs[side].append(run_once(parent if side == "parent" else ROOT))
    keys = [k for k in runs["change"][0] if k in runs["parent"][0]]
    rows, ratios = [], []
    for kernel, backend in keys:
        p = statistics.median(r[(kernel, backend)] for r in runs["parent"])
        c = statistics.median(r[(kernel, backend)] for r in runs["change"])
        ratios.append(c / p)
        rows.append({"kernel": kernel, "backend": backend, "parent_speedup": round(p, 3), "change_speedup": round(c, 3), "ratio": round(c / p, 3)})
    pc, cc = entry_point_counts(parent), entry_point_counts(ROOT)
    names = subprocess.run(["nm", "-C", f"{ROOT}/examples/perf_ledger/target/release/perf_ledger"], check=True, capture_output=True, text=True).stdout
    assert not re.search(r"lanes::|Isa", names), "a lanes:: / Isa symbol survived inlining"
    none = [None, None, None]
    entry_points = [
        {"entry_point": s, **{f: [pc.get(s, none)[i], cc.get(s, none)[i]] for i, f in enumerate(("copies", "instructions", "calls"))}}
        for s in sorted(set(pc) | set(cc))
    ]
    assert all(e["calls"][0] == e["calls"][1] for e in entry_points if None not in e["calls"]), "call counts differ"

    def side(name):
        return {"runs": rounds, "speedup_over_scalar": {f"{k} [{b}]": [round(r[(k, b)], 3) for r in runs[name]] for k, b in keys}}

    out = {
        "what": "crates/bench/benches/simd_speedup.rs, speedup of each SIMD row over the scalar column of the same run (scalar is the "
        f"untouched control), {rounds} alternated runs per side; entry_points = [parent, change] objdump counts per "
        "backend::{avx2,avx512} symbol of the release perf_ledger binary (padding excluded, copies summed)",
        "parent": side("parent"),
        "change": side("change"),
        "rows": rows,
        "median_ratio": round(statistics.median(ratios), 3),
        "entry_points": entry_points,
    }
    with open(f"{ROOT}/{out_name}", "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    print(f"median change/parent ratio over {len(rows)} rows: x{out['median_ratio']}")


if __name__ == "__main__":
    main()
