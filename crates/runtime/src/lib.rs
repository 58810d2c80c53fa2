//! # torchgt-runtime
//!
//! The TorchGT training runtime: the three techniques of the paper wired
//! into end-to-end training loops.
//!
//! * [`interleave`] — Dual-interleaved Attention scheduler (conditions
//!   C1–C3, periodic fully-connected passes);
//! * [`preprocess`] — cluster partitioning, node reordering, sequence
//!   chunking and mask construction (the runtime level of Figure 4);
//! * [`autotune`] — the elastic `β_thre` controller (LDR ladder) and the
//!   `k`/`d_b` selection (the Auto Tuner of §III-D);
//! * [`parallel`] — cluster-aware graph parallelism over simulated devices
//!   (all-to-all sequence↔head relayouts, distributed attention that matches
//!   the single-device result bit-for-bit up to float tolerance);
//! * [`engine`] — the one epoch loop ([`EpochLoop`]) for all four methods
//!   (GP-RAW, GP-FLASH, GP-SPARSE, TorchGT): decide → pattern → forward →
//!   loss → backward → optimizer → cost model → traces, plus evaluation,
//!   snapshot/restore and the only [`Trainer`] impl;
//! * [`trainer`] / [`batched`] / [`streaming`] — the three
//!   [`BatchSource`]s that feed it (in-memory node sequences with the
//!   reformation state, packed graph batches — per-graph training is the
//!   pack of one — and on-disk shard streams) and the trainer aliases over
//!   them;
//! * [`resume`] — crash-resume driving on top of `torchgt-ckpt`: periodic
//!   full-state snapshots and bit-exact re-entry into the epoch loop;
//! * [`distributed`] — data-parallel training over simulated ranks: one
//!   job description, one supervisor ([`train_distributed`]) and one step
//!   rule whose bits do not depend on which rank owns which sequence; its
//!   escalation ladder (retry → restore → shrink-and-continue) recovers
//!   injected crashes from the latest snapshot and survives *permanent*
//!   rank loss, with world-size-independent snapshots;
//! * [`elastic`] — the layout changes under it: the balanced cut for an
//!   arbitrary live set and token-conserving resharding;
//! * [`rebalance`] — closed-loop straggler rebalancing for that
//!   supervisor: an EWMA [`StepLedger`] fed by measurements and the
//!   watchdog drives a [`RebalancePolicy`] that re-cuts the sequence stream
//!   away from slow ranks between epochs;
//! * [`streaming`] — out-of-core training over `torchgt-data` shard
//!   streams: bounded-memory epochs that are bit-identical to the
//!   in-memory GP-* runs, with dataset identity enforced on restore.

pub mod autotune;
pub mod batched;
pub mod config;
pub mod distributed;
pub mod elastic;
pub mod engine;
pub mod interleave;
pub mod parallel;
pub mod preprocess;
pub mod rebalance;
pub mod resume;
pub mod streaming;
pub mod trainer;
pub mod traits;

pub use autotune::AutoTuner;
pub use batched::BatchedGraphTrainer;
pub use config::{Method, RecoveryPolicy, TrainConfig};
pub use distributed::{
    train_data_parallel, train_distributed, DistributedJob, DistributedRun, DistributedStats,
};
pub use elastic::{
    cluster_token_assignment, reshard_exchange, tokens_conserved, RankLoss, ReshardOutcome,
};
pub use engine::{Batch, BatchSource, EpochLoop, EpochStats, Target};
pub use interleave::{Decision, InterleaveScheduler};
pub use preprocess::{prepare_node_dataset, Prepared, Sequence};
pub use rebalance::{weighted_token_assignment, RebalanceController, RebalancePolicy, StepLedger};
pub use resume::{run_with_checkpoints, CheckpointOptions, ResumeOutcome};
pub use streaming::StreamingTrainer;
pub use trainer::NodeTrainer;
pub use traits::Trainer;
