//! # torchgt-ckpt
//!
//! Fault-tolerance substrate for the TorchGT reproduction: versioned
//! **full-training-state** snapshots.
//!
//! A checkpoint of bare parameter values is not enough: a run resumed from
//! one diverges from an uninterrupted one (Adam's moments and
//! bias-correction step restart from zero, dropout masks re-draw from call
//! 0, the AutoTuner ladder forgets its position). TorchGT trains for
//! hundreds of epochs on 111M-node graphs (PAPER.md §VI) — exactly the
//! regime where a mid-run crash must not cost the run. This crate captures
//! *everything* the training loop's determinism depends on:
//!
//! * model parameters **and** Adam first/second moment buffers,
//! * the Adam step counter (bias correction depends on it),
//! * PRNG state (per-dropout mask-draw counters),
//! * AutoTuner β_thre ladder position and observation histories,
//! * interleave-scheduler cursors and the epoch cursor.
//!
//! On disk a snapshot is a single file: fixed header, checksummed JSON
//! manifest (via `torchgt-compat::json`), checksummed packed-f32 tensor
//! payload. That container — header codec, both checksums, atomic
//! publication, self-healing reads — is [`frame`], shared with the `TGTF`
//! artifacts of `torchgt-serve` and the `TGDS`/`TGDM` files of
//! `torchgt-data`; [`snapshot`] is the `TGTS` instance of it and [`store`]
//! adds keep-last-K retention and the corrupt-snapshot fallback.

pub mod checksum;
pub mod frame;
pub mod snapshot;
pub mod state;
pub mod store;

pub use checksum::crc32;
pub use snapshot::{Snapshot, FORMAT_VERSION, FORMAT_VERSION_V1, FORMAT_VERSION_V2};
pub use state::{
    ParamState, PartitionLayout, SchedulerState, TensorShape, TrainerState, TunerState,
};
pub use store::CheckpointStore;
