//! The paper's figures in tier-1. Every shape check of the eight figures
//! that train nothing — Figs. 2, 5, 6, 7, 9, 12 and Tables II, VI, which
//! price the cost model on statistics measured on the scaled stand-ins —
//! runs here, and the registry must agree with EXPERIMENTS.md. The ten
//! training figures take minutes each in a debug build; `scripts/verify.sh`
//! runs all eighteen through the release harness
//! (`cargo bench -p torchgt-bench --bench paper_shapes`).

use torchgt_bench::FIGURES;

/// The registry's figures whose `run` trains no model.
const COST_MODEL_FIGURES: [&str; 8] = [
    "fig2_breakdown",
    "table2_backward",
    "fig5_layouts",
    "fig6_subblock",
    "table6_a100",
    "fig7_scaling",
    "fig9_scalability",
    "fig12_attention_kernel",
];

#[test]
fn cost_model_figures_hold_their_paper_shapes() {
    let mut failed = Vec::new();
    for id in COST_MODEL_FIGURES {
        let fig = FIGURES.iter().find(|f| f.id == id).unwrap_or_else(|| panic!("{id} is not in the registry"));
        let report = (fig.run)();
        assert!(!report.checks.is_empty(), "{id} checks nothing");
        failed.extend(report.failed().into_iter().map(|check| format!("{id}: {check}")));
    }
    assert!(failed.is_empty(), "paper-shape checks failed:\n{}", failed.join("\n"));
}

/// Each registry id is named by exactly one EXPERIMENTS.md section (as
/// `` `paper_shapes <id>` ``), and the document names no other, so it cannot
/// point at a figure the harness no longer has.
#[test]
fn registry_and_experiments_md_name_the_same_figures() {
    let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
    assert_eq!(
        ids,
        [
            "table1_model_quality",
            "fig1_seq_length",
            "fig2_breakdown",
            "table2_backward",
            "fig5_layouts",
            "fig6_subblock",
            "table5_end_to_end",
            "table6_a100",
            "table7_precision",
            "fig7_scaling",
            "fig8_convergence",
            "fig9_scalability",
            "fig10_interleave_large",
            "fig11_interleave_small",
            "fig12_attention_kernel",
            "table8_beta_thre",
            "ablation_components",
            "ablation_nlp_attention",
        ]
    );
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/EXPERIMENTS.md"))
        .expect("EXPERIMENTS.md");
    let sections: Vec<&str> = doc.split("\n#").collect();
    for id in &ids {
        let tag = format!("`paper_shapes {id}`");
        let naming = sections.iter().filter(|s| s.contains(&tag)).count();
        assert_eq!(naming, 1, "{id} is named by {naming} EXPERIMENTS.md sections");
    }
    for named in doc.split("`paper_shapes ").skip(1).map(|rest| rest.split('`').next().unwrap_or("")) {
        assert!(ids.contains(&named), "EXPERIMENTS.md names `paper_shapes {named}`, not a registry id");
    }
}
