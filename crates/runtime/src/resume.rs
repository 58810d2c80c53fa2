//! Crash-resume driving: periodic snapshots during training and bit-exact
//! re-entry into the epoch loop from the latest snapshot.
//!
//! [`run_with_checkpoints`] wraps any [`Trainer`] with a
//! [`CheckpointStore`]: after every `every` completed epochs it captures a
//! full-state snapshot (model parameters, Adam moments and step counter,
//! dropout PRNG cursors, AutoTuner ladder, interleave cursors) and publishes
//! it atomically. Interrupt the process at any point, start a *fresh*
//! trainer over the same dataset/config with `resume: true`, and the run
//! continues from the last snapshot producing the same per-epoch losses and
//! final parameters as the uninterrupted run — asserted bit-for-bit by
//! `tests/fault_tolerance.rs`.

use crate::engine::EpochStats;
use crate::traits::Trainer;
use std::io;
use torchgt_ckpt::{CheckpointStore, Snapshot, TrainerState};
use torchgt_model::SequenceModel;
use torchgt_obs::{Event, RecorderHandle};
use torchgt_tensor::Adam;

/// Capture a model + optimizer into a snapshot around a prepared
/// [`TrainerState`] (shared by all trainer implementations).
pub(crate) fn capture_model(model: &mut dyn SequenceModel, state: TrainerState) -> Snapshot {
    let params = model.params_mut();
    let refs: Vec<&torchgt_tensor::param::Param> = params.iter().map(|p| &**p).collect();
    Snapshot::capture(state, &refs)
}

/// Restore the model/optimizer half of a snapshot: parameter values, Adam
/// moments and step counter, dropout PRNG cursors. Validates the PRNG
/// stream count and every tensor shape before mutating anything.
pub(crate) fn restore_model(
    model: &mut dyn SequenceModel,
    opt: &mut Adam,
    snapshot: &Snapshot,
) -> io::Result<()> {
    let live_streams = model.rng_state().len();
    if snapshot.state.rng_streams.len() != live_streams {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "snapshot carries {} PRNG streams, model {} has {}",
                snapshot.state.rng_streams.len(),
                model.name(),
                live_streams
            ),
        ));
    }
    let mut params = model.params_mut();
    snapshot.apply_params(&mut params)?;
    drop(params);
    model.set_rng_state(&snapshot.state.rng_streams);
    opt.set_steps(snapshot.state.opt_steps);
    Ok(())
}

/// How [`run_with_checkpoints`] snapshots and resumes.
#[derive(Clone, Copy, Debug)]
pub struct CheckpointOptions {
    /// Snapshot after every `every` completed epochs (values below 1 are
    /// treated as 1). The final epoch is always snapshotted.
    pub every: usize,
    /// Restore from the store's latest snapshot before training (no-op when
    /// the store is empty — a cold start).
    pub resume: bool,
    /// Simulated crash: stop training (snapshots intact) once this many
    /// epochs have completed. Drives the crash-resume verification gate.
    pub crash_after: Option<usize>,
}

impl Default for CheckpointOptions {
    fn default() -> Self {
        Self { every: 1, resume: false, crash_after: None }
    }
}

/// What a checkpointed run did.
#[derive(Clone, Debug)]
pub struct ResumeOutcome {
    /// The epoch the run resumed from (`None` on a cold start).
    pub resumed_from: Option<usize>,
    /// Stats of the epochs *this* process ran (a resumed run starts at
    /// `resumed_from`, not 0).
    pub stats: Vec<EpochStats>,
    /// True when `crash_after` stopped the run before `cfg.epochs`.
    pub interrupted: bool,
}

/// Train `trainer` to its configured epoch count, snapshotting into `store`
/// as it goes; see [`CheckpointOptions`] for resume and simulated-crash
/// behaviour. Snapshot/restore transitions are recorded as
/// [`Event::SNAPSHOT`] / [`Event::RESTORE`] events on `recorder`.
pub fn run_with_checkpoints(
    trainer: &mut dyn Trainer,
    store: &CheckpointStore,
    opts: &CheckpointOptions,
    recorder: &RecorderHandle,
) -> io::Result<ResumeOutcome> {
    // Attach the run's recorder to the store so the self-healing ladder
    // (IO_RETRY / SNAPSHOT_FALLBACK) surfaces in this run's metrics.
    let store = store.clone().with_recorder(recorder.clone());
    let store = &store;
    let mut resumed_from = None;
    if opts.resume {
        if let Some(snap) = store.load_latest()? {
            trainer.restore(&snap)?;
            resumed_from = Some(trainer.epoch());
            if recorder.enabled() {
                recorder.event(Event::restore(trainer.epoch()));
            }
        }
    }
    let total = trainer.cfg().epochs;
    let every = opts.every.max(1);
    let mut stats = Vec::new();
    let mut nonfinite_restore_spent = false;
    while trainer.epoch() < total {
        let epoch_stats = trainer.train_epoch();
        if !epoch_stats.loss.is_finite() {
            // Numerical-health guard: the epoch is poisoned (NaN/Inf loss),
            // so don't record or snapshot it. Restore from the last good
            // snapshot once; a recurrence means the run itself is diverging
            // and retrying would loop forever.
            if recorder.enabled() {
                recorder.event(Event::loss_nonfinite(epoch_stats.epoch, epoch_stats.loss as f64));
            }
            if !nonfinite_restore_spent {
                if let Some(snap) = store.load_latest()? {
                    nonfinite_restore_spent = true;
                    trainer.restore(&snap)?;
                    if recorder.enabled() {
                        recorder.event(Event::restore(trainer.epoch()));
                    }
                    continue;
                }
            }
            return Err(io::Error::other(format!(
                "non-finite training loss {} at epoch {}",
                epoch_stats.loss, epoch_stats.epoch
            )));
        }
        stats.push(epoch_stats);
        let done = trainer.epoch();
        if done % every == 0 || done == total {
            store.save(&trainer.snapshot())?;
            if recorder.enabled() {
                recorder.event(Event::snapshot(done));
            }
        }
        if opts.crash_after.is_some_and(|at| done >= at) && done < total {
            return Ok(ResumeOutcome { resumed_from, stats, interrupted: true });
        }
    }
    Ok(ResumeOutcome { resumed_from, stats, interrupted: false })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Method, TrainConfig};
    use crate::trainer::NodeTrainer;
    use std::sync::Arc;
    use torchgt_graph::{DatasetKind, NodeDataset};
    use torchgt_model::{Graphormer, GraphormerConfig};
    use torchgt_obs::MemoryRecorder;

    fn dataset() -> NodeDataset {
        DatasetKind::OgbnArxiv.generate_node(0.002, 31)
    }

    fn make_trainer(d: &NodeDataset, epochs: usize) -> NodeTrainer {
        let mut cfg = TrainConfig::new(Method::TorchGt, 128, epochs);
        cfg.interleave_period = 3;
        let mcfg = GraphormerConfig {
            feat_dim: d.feat_dim,
            hidden: 16,
            layers: 2,
            heads: 2,
            ffn_mult: 2,
            out_dim: d.num_classes,
            max_degree: 16,
            max_spd: 4,
            // Dropout on: the PRNG cursors are part of the state under test.
            dropout: 0.1,
        };
        let model = Box::new(Graphormer::new(mcfg, 5));
        NodeTrainer::new(cfg, d, model)
    }

    #[test]
    fn crash_then_resume_matches_uninterrupted() {
        let d = dataset();
        let dir = std::env::temp_dir().join("tgt-resume-match");
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::new(&dir, 3).unwrap();
        let noop = torchgt_obs::noop();

        let mut full = make_trainer(&d, 5);
        let full_stats: Vec<_> = full.run();

        let mut first = make_trainer(&d, 5);
        let out = run_with_checkpoints(
            &mut first,
            &store,
            &CheckpointOptions { every: 1, resume: false, crash_after: Some(2) },
            &noop,
        )
        .unwrap();
        assert!(out.interrupted);
        assert_eq!(out.stats.len(), 2);
        drop(first); // the "crashed" process

        let mut second = make_trainer(&d, 5);
        let out = run_with_checkpoints(
            &mut second,
            &store,
            &CheckpointOptions { every: 1, resume: true, crash_after: None },
            &noop,
        )
        .unwrap();
        assert_eq!(out.resumed_from, Some(2));
        assert!(!out.interrupted);
        assert_eq!(out.stats.len(), 3);
        for (a, b) in full_stats[2..].iter().zip(&out.stats) {
            assert_eq!(a.epoch, b.epoch);
            assert_eq!(a.loss.to_bits(), b.loss.to_bits(), "epoch {} loss", a.epoch);
            assert_eq!(a.test_acc, b.test_acc);
            assert_eq!(a.beta_thre, b.beta_thre);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_and_restore_events_are_recorded() {
        let d = dataset();
        let dir = std::env::temp_dir().join("tgt-resume-events");
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::new(&dir, 2).unwrap();
        let mem = Arc::new(MemoryRecorder::default());
        let rec: RecorderHandle = mem.clone();
        let mut t = make_trainer(&d, 2);
        run_with_checkpoints(&mut t, &store, &CheckpointOptions::default(), &rec).unwrap();
        let mut t2 = make_trainer(&d, 2);
        run_with_checkpoints(
            &mut t2,
            &store,
            &CheckpointOptions { resume: true, ..CheckpointOptions::default() },
            &rec,
        )
        .unwrap();
        let report = mem.report();
        assert_eq!(report.events_of(Event::SNAPSHOT).len(), 2);
        let restores = report.events_of(Event::RESTORE);
        assert_eq!(restores.len(), 1);
        assert_eq!(restores[0].num("epoch"), Some(2.0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_into_mismatched_trainer_fails_cleanly() {
        let d = dataset();
        let mut a = make_trainer(&d, 2);
        let snap = {
            let t: &mut dyn Trainer = &mut a;
            t.train_epoch();
            t.snapshot()
        };
        // A different architecture must be rejected, not corrupted.
        let mut cfg = TrainConfig::new(Method::TorchGt, 128, 2);
        cfg.interleave_period = 3;
        let mcfg = GraphormerConfig {
            feat_dim: d.feat_dim,
            hidden: 32,
            layers: 3,
            heads: 2,
            ffn_mult: 2,
            out_dim: d.num_classes,
            max_degree: 16,
            max_spd: 4,
            dropout: 0.1,
        };
        let model = Box::new(Graphormer::new(mcfg, 5));
        let mut other = NodeTrainer::new(cfg, &d, model);
        let t: &mut dyn Trainer = &mut other;
        assert!(t.restore(&snap).is_err());
        assert_eq!(t.epoch(), 0, "failed restore must leave the trainer untouched");
    }
}
