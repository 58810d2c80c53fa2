//! `examples/perf_ledger` — the frozen benchmark — is a package of its own,
//! so nothing else in `cargo test` compiles it: a slipped pinned signature
//! (see its README, "Pinned public items") would surface only as a
//! benchmark run with no numbers. This checks that it still builds against
//! the workspace as it is now.

use std::path::Path;
use std::process::Command;

#[test]
fn the_frozen_benchmark_still_compiles() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let out = Command::new(env!("CARGO"))
        .args(["check", "--offline", "--quiet", "--manifest-path"])
        .arg(root.join("examples/perf_ledger/Cargo.toml"))
        // Its own target dir: no lock contention with the build running this test.
        .env("CARGO_TARGET_DIR", root.join("target/perf_ledger_check"))
        .output()
        .expect("cargo runs");
    assert!(
        out.status.success(),
        "examples/perf_ledger no longer builds:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
