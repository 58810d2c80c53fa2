//! The epoch loop the three single-process training workloads share: drive a
//! [`Trainer`] for a wall-clock budget, time every epoch from outside, and —
//! in the traced run — turn the program's own `StepTrace`/`EpochTrace`
//! records into span children and `runtime.*` rows.

use crate::host::{HostClock, Timed};
use crate::ledger::{median, quantile, Ledger, Tracer};
use std::sync::Arc;
use std::time::Instant;
use torchgt::obs::{EpochTrace, StepTrace};
use torchgt::prelude::*;

/// What the loop saw, one entry per epoch.
pub struct EpochRun {
    pub stats: Vec<EpochStats>,
    /// Wall-clock of `train_epoch` plus the after-epoch hook.
    pub walls: Vec<f64>,
    /// The same, with the host's speed around each epoch.
    pub timed: Vec<Timed>,
    /// Seconds of the hook alone (checkpoint save on `stream_ckpt`).
    pub hook_s: Vec<f64>,
    /// Whether the recorder was attached for this epoch.
    pub traced: Vec<bool>,
    /// Span id of each epoch (meaningless when spans are off).
    pub span_ids: Vec<usize>,
    /// `VmHWM` once `min_epochs` epochs have run (a fixed amount of work).
    pub rss_mib: f64,
}

impl EpochRun {
    /// Steady-state epochs: everything but epoch 0, which pays cold pools and
    /// first-touch page faults.
    pub fn steady(&self) -> &[f64] {
        &self.walls[1..]
    }

    pub fn steady_timed(&self) -> &[Timed] {
        &self.timed[1..]
    }
}

/// Train until `budget_s` has elapsed (at least `min_epochs`), every epoch
/// one operation on the host clock. With a recorder, even epochs run traced
/// and odd epochs run with the no-op sink, so the two populations interleave
/// over the same stretch of training and their medians give the tracing
/// overhead.
pub fn run_epochs<T: Trainer>(
    trainer: &mut T,
    tracer: &mut Tracer,
    clock: &mut HostClock,
    recorder: Option<&Arc<MemoryRecorder>>,
    budget_s: f64,
    min_epochs: usize,
    mut after_epoch: impl FnMut(&mut T, &mut Tracer),
) -> EpochRun {
    let mut run = EpochRun {
        stats: Vec::new(),
        walls: Vec::new(),
        timed: Vec::new(),
        hook_s: Vec::new(),
        traced: Vec::new(),
        span_ids: Vec::new(),
        rss_mib: 0.0,
    };
    let start = Instant::now();
    loop {
        let done = run.walls.len();
        if done >= min_epochs && start.elapsed().as_secs_f64() >= budget_s {
            break;
        }
        let traced = recorder.is_some() && done.is_multiple_of(2);
        if let Some(rec) = recorder {
            let sink: RecorderHandle = if traced {
                rec.clone()
            } else {
                Arc::new(NoopRecorder)
            };
            trainer.attach_recorder(sink);
        }
        let ((id, stats, hook), timed) = clock.time(|| {
            let id = tracer.begin("epoch");
            let stats = trainer.train_epoch();
            let h = Instant::now();
            after_epoch(trainer, tracer);
            let hook = h.elapsed().as_secs_f64();
            tracer.end();
            (id, stats, hook)
        });
        run.stats.push(stats);
        run.walls.push(timed.raw_s);
        run.timed.push(timed);
        run.hook_s.push(hook);
        run.traced.push(traced);
        run.span_ids.push(id);
        if run.walls.len() == min_epochs {
            run.rss_mib = crate::ledger::peak_rss_mib();
        }
    }
    println!(
        "{:>5} {:>9} {:>10} {:>9} {:>6} {:>6}",
        "epoch", "wall_s", "loss", "test_acc", "full", "traced"
    );
    for (i, s) in run.stats.iter().enumerate() {
        println!(
            "{:>5} {:>9.4} {:>10.5} {:>9.4} {:>6} {:>6}",
            s.epoch,
            run.walls[i],
            s.loss,
            s.test_acc,
            s.full_iters,
            u8::from(run.traced[i])
        );
    }
    run
}

/// Checks every training workload makes on its loss history.
pub fn check_history(ledger: &mut Ledger, run: &EpochRun) {
    let losses: Vec<f32> = run.stats.iter().map(|s| s.loss).collect();
    ledger.check(
        "loss is finite in every epoch",
        losses.iter().all(|l| l.is_finite()),
    );
    ledger.check(
        "loss decreases from the first to the last epoch",
        losses.len() >= 2 && losses[losses.len() - 1] < losses[0],
    );
}

/// Wall-clock from the first `train_epoch` until `test_acc` first reaches
/// `target`; `None` when it never does.
pub fn time_to_acc(run: &EpochRun, target: f64) -> Option<f64> {
    run.stats
        .iter()
        .position(|s| s.test_acc >= target)
        .map(|i| run.walls[..=i].iter().sum())
}

/// Traced-run rows read from the attached recorder, plus the span children
/// of every traced epoch. `extra_children(epoch_index)` names bench-measured
/// children (checkpoint save, loader stall) of that epoch.
pub fn report_runtime_rows(
    ledger: &mut Ledger,
    tracer: &mut Tracer,
    run: &EpochRun,
    report: &MetricsReport,
    extra_children: impl Fn(usize) -> Vec<(&'static str, f64)>,
) {
    let traced_walls: Vec<f64> = (1..run.walls.len())
        .filter(|&i| run.traced[i])
        .map(|i| run.walls[i])
        .collect();
    let plain_walls: Vec<f64> = (1..run.walls.len())
        .filter(|&i| !run.traced[i])
        .map(|i| run.walls[i])
        .collect();
    if !traced_walls.is_empty() && !plain_walls.is_empty() {
        let plain = median(&plain_walls);
        ledger.set(
            "obs.trace_overhead_frac",
            (median(&traced_walls) - plain) / plain,
            traced_walls.len().min(plain_walls.len()),
        );
    }

    // Per-epoch phase totals as the program measured them.
    let mut unattributed = Vec::new();
    for trace in &report.epochs {
        let Some(i) = run.stats.iter().position(|s| s.epoch == trace.epoch) else {
            continue;
        };
        // Epoch 0's `preprocess_s` is the dataset preparation done at
        // construction (already under `setup`); later epochs' is a mid-run
        // reformation rebuild, which happens inside `train_epoch`.
        let rebuild_s = if trace.epoch == 0 {
            0.0
        } else {
            trace.preprocess_s
        };
        let mut children = vec![
            ("forward", trace.forward_s),
            ("backward", trace.backward_s),
            ("optim", trace.optim_s),
            ("eval", trace.eval_s),
            ("reform_rebuild", rebuild_s),
        ];
        children.extend(extra_children(i));
        let covered: f64 = children.iter().map(|c| c.1).sum();
        unattributed.push(((run.walls[i] - covered) / run.walls[i]).max(0.0));
        tracer.add_children(run.span_ids[i], &children);
    }
    let col = |f: fn(&EpochTrace) -> f64| {
        let v: Vec<f64> = report.epochs.iter().map(f).collect();
        (median(&v), v.len())
    };
    if !report.epochs.is_empty() {
        let (v, n) = col(|e| e.forward_s);
        ledger.set("runtime.step.forward_s", v, n);
        let (v, n) = col(|e| e.backward_s);
        ledger.set("runtime.step.backward_s", v, n);
        let (v, n) = col(|e| e.optim_s);
        ledger.set("runtime.step.optim_s", v, n);
        let (v, n) = col(|e| e.eval_s);
        ledger.set("runtime.eval.s", v, n);
        ledger.set(
            "runtime.epoch.unattributed_frac",
            median(&unattributed),
            unattributed.len(),
        );
    }

    // Per-step latencies, split by attention pattern.
    let step_ms = |s: &StepTrace| (s.forward_s + s.backward_s + s.optim_s) * 1e3;
    let sparse: Vec<f64> = report
        .steps
        .iter()
        .filter(|s| s.sparse)
        .map(step_ms)
        .collect();
    let full: Vec<f64> = report
        .steps
        .iter()
        .filter(|s| !s.sparse)
        .map(step_ms)
        .collect();
    let all: Vec<f64> = report.steps.iter().map(step_ms).collect();
    if !all.is_empty() {
        ledger.set("runtime.step.sparse_ms_p50", median(&sparse), sparse.len());
        ledger.set("runtime.step.full_ms_p50", median(&full), full.len());
        ledger.set("runtime.step.ms_p90", quantile(&all, 0.9), all.len());
        ledger.set(
            "runtime.step.full_frac",
            full.len() as f64 / all.len() as f64,
            all.len(),
        );
        // Cost-model error: simulated GPU seconds over measured CPU seconds.
        // Not a speed claim in either direction — the two are different
        // machines; the ratio is the baseline for ROADMAP item 5(e).
        let ratios: Vec<f64> = report
            .steps
            .iter()
            .filter(|s| step_ms(s) > 0.0)
            .map(|s| s.sim_s / (step_ms(s) * 1e-3))
            .collect();
        ledger.set("perf.sim_over_measured", median(&ratios), ratios.len());
    }
    ledger.set(
        "runtime.autotune.beta_transitions",
        report.events_of("beta_transition").len() as f64,
        report.epochs.len(),
    );
    // Workspace discipline of the last traced step (or epoch, for trainers
    // that publish the gauge per epoch): bytes freshly allocated once the
    // pools are warm, and pool hits over the same stretch.
    let gauge = |name: &str| {
        report
            .gauges
            .iter()
            .find(|g| g.name == name)
            .map(|g| g.value)
    };
    if let Some(v) = gauge("alloc_bytes") {
        ledger.set("tensor.workspace.alloc_bytes_steady", v, 1);
    }
    if let Some(v) = gauge("arena_reuse_hits") {
        ledger.set("tensor.workspace.reuse_hits", v, 1);
    }
}
