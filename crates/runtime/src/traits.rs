//! The unified [`Trainer`] abstraction: the epoch engine
//! ([`crate::engine::EpochLoop`]) implements it once for every data source
//! (node-level, graph-level, batched, streaming), so CLIs, examples and
//! benchmarks can hold a `&mut dyn Trainer` and stay agnostic of the task
//! level.

use crate::config::TrainConfig;
use crate::engine::EpochStats;
use torchgt_ckpt::Snapshot;
use torchgt_obs::RecorderHandle;

/// A training loop over a prepared dataset.
///
/// Implementations must make `train_epoch` / `evaluate` / `run` behave
/// identically to their inherent counterparts — dispatching through
/// `dyn Trainer` is observationally equivalent to calling the concrete type
/// (covered by the workspace's trait-parity tests).
pub trait Trainer {
    /// The run configuration this trainer was built with.
    fn cfg(&self) -> &TrainConfig;

    /// Route observability signals (spans, step/epoch traces, collective
    /// volume, events) to `recorder`. The default recorder is the no-op
    /// sink, which keeps instrumentation cost negligible.
    fn attach_recorder(&mut self, recorder: RecorderHandle);

    /// Run one training epoch and return its statistics.
    fn train_epoch(&mut self) -> EpochStats;

    /// Score the train and test splits (higher is better for both).
    fn evaluate(&mut self) -> (f64, f64);

    /// Number of completed epochs (the next [`Trainer::train_epoch`] call
    /// runs this epoch index).
    fn epoch(&self) -> usize;

    /// Capture the full resumable training state: model parameters, Adam
    /// step counter and moments, per-dropout PRNG cursors, and whatever
    /// controller state the trainer owns (AutoTuner ladder, interleave
    /// cursors). Restoring the snapshot into a freshly built trainer over
    /// the same dataset/config must continue the run bit-for-bit.
    fn snapshot(&mut self) -> Snapshot;

    /// Restore state captured by [`Trainer::snapshot`]. Validates shapes and
    /// stream counts before mutating anything — on error the trainer is
    /// unchanged.
    fn restore(&mut self, snapshot: &Snapshot) -> std::io::Result<()>;

    /// Train for the configured number of epochs.
    fn run(&mut self) -> Vec<EpochStats> {
        (0..self.cfg().epochs).map(|_| self.train_epoch()).collect()
    }
}
