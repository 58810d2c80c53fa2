//! The paper's evaluation in one harness: every figure and table of TorchGT
//! §V, and this reproduction's two ablations, from the registry
//! `torchgt_bench::FIGURES`.
//!
//! ```sh
//! cargo bench -p torchgt-bench --bench paper_shapes                     # all eighteen
//! cargo bench -p torchgt-bench --bench paper_shapes -- fig9_scalability # one figure
//! ```
//!
//! Each figure prints its tables and check verdicts and writes
//! `target/experiments/<id>.json`. The run exits 1 naming every check that
//! did not hold, and 2 on an unknown id.

use std::process::exit;
use torchgt_bench::FIGURES;

fn main() {
    // `cargo bench` passes `--bench`; every other argument is a figure id.
    let ids: Vec<String> = std::env::args().skip(1).filter(|a| !a.starts_with("--")).collect();
    if let Some(unknown) = ids.iter().find(|id| FIGURES.iter().all(|f| f.id != id.as_str())) {
        let known: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
        eprintln!("unknown figure `{unknown}`; the figures are: {}", known.join(", "));
        exit(2);
    }
    let mut failed = Vec::new();
    for fig in FIGURES.iter().filter(|f| ids.is_empty() || ids.iter().any(|id| id == f.id)) {
        failed.extend(fig.reproduce().into_iter().map(|check| format!("{}: {check}", fig.id)));
    }
    if !failed.is_empty() {
        eprintln!("\n{} paper-shape check(s) failed:", failed.len());
        failed.iter().for_each(|f| eprintln!("  {f}"));
        exit(1);
    }
}
