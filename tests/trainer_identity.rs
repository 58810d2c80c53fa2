//! The training loops' bit-identity probe, gated.
//!
//! `examples/trainer_identity.rs` prints 21 lines of loss bits, accuracies
//! and simulated times from fixed-seed runs of every trainer and the
//! data-parallel supervisor. Its output is a pure function of the code and
//! the kernel backend, and must equal the fixture recorded for that backend
//! (`tests/fixtures/trainer_identity/<backend>.txt`) under every backend
//! this CPU has: a change that moves a bit of training moves a line here.
//! A change meant to move the numbers re-records the fixtures with
//! `TORCHGT_BACKEND=<backend> cargo run --release --offline --example
//! trainer_identity > tests/fixtures/trainer_identity/<backend>.txt`.

use std::path::Path;
use std::process::Command;
use torchgt::tensor::backend;

#[allow(dead_code)]
#[path = "../examples/trainer_identity.rs"]
mod probe;

#[test]
fn trainer_identity_matches_its_fixture() {
    let be = backend::active();
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/trainer_identity")
        .join(format!("{}.txt", be.name()));
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let got = probe::probe();
    let want: Vec<&str> = want.lines().collect();
    for (i, (got, want)) in got.iter().zip(&want).enumerate() {
        assert_eq!(got, want, "{}: line {} moved", be.name(), i + 1);
    }
    assert_eq!(got.len(), want.len(), "{}: the probe printed another number of lines", be.name());
}

/// Re-run the fixture comparison under every other kernel backend this CPU
/// has (the process-wide backend is chosen once, from `TORCHGT_BACKEND`).
#[test]
fn trainer_identity_holds_under_every_backend() {
    let exe = std::env::current_exe().expect("test binary path");
    for be in backend::supported().into_iter().filter(|&be| be != backend::active()) {
        let status = Command::new(&exe)
            .args(["--exact", "trainer_identity_matches_its_fixture", "--test-threads", "1", "-q"])
            .env(backend::ENV_VAR, be.name())
            .status()
            .expect("spawn the comparison");
        assert!(status.success(), "trainer_identity under {} differs from its fixture: {status}", be.name());
    }
}
