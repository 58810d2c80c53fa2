//! End-to-end distributed training over simulated devices.
//!
//! Combines the two parallel axes of the paper's runtime:
//!
//! * **sequence/graph parallelism** inside attention (see [`crate::parallel`]
//!   — all-to-all head/sequence relayouts), and
//! * **data parallelism across sequences** for the parameter path: each rank
//!   trains on its share of the sequence stream and gradients are averaged
//!   with an all-reduce before every optimizer step, keeping replicas
//!   bit-synchronised.
//!
//! [`train_data_parallel`] runs the full loop on a [`DeviceGroup`] with real
//! gradient traffic; its parity with single-device training is asserted by
//! the tests and the `distributed_scaling` example.
//!
//! [`train_data_parallel_resilient`] is the fault-tolerant variant: it runs
//! the same loop under an injected [`FaultPlan`], with rank 0 publishing a
//! full-state snapshot after every epoch. When an injected crash tears the
//! group down (the whole-group abort semantics of a real NCCL job), the
//! driver restores every rank from the last snapshot and re-enters the
//! epoch loop — the stitched loss history is bit-identical to an
//! uninterrupted run, because delay/drop faults never perturb delivered
//! data and the snapshot carries the complete optimizer/PRNG state.

use crate::config::TrainConfig;
use crate::elastic::RankLoss;
use crate::parallel::all_reduce_mean_params;
use crate::preprocess::{prepare_node_dataset, Prepared};
use std::io;
use torchgt_ckpt::{CheckpointStore, PartitionLayout, Snapshot, TrainerState};
use torchgt_comm::{CollectiveKind, Communicator, DeviceGroup, FaultPlan, RankCrash};
use torchgt_graph::NodeDataset;
use torchgt_model::{loss, Pattern, SequenceBatch, SequenceModel};
use torchgt_obs::{Event, RecorderHandle};
use torchgt_tensor::{Adam, Optimizer, Workspace};

torchgt_compat::json_struct! {
    /// Result of a distributed run (identical on every rank; rank 0's copy is
    /// returned).
    #[derive(Clone, Debug)]
    pub struct DistributedStats {
        /// Mean training loss per epoch.
        pub epoch_losses: Vec<f32>,
        /// Total bytes moved by gradient all-reduces.
        pub grad_bytes: u64,
        /// All-reduce invocations per rank.
        pub all_reduces: u64,
        /// World size the run used.
        pub world: usize,
    }
}

/// Train `cfg.epochs` epochs of the node-level task across `world` simulated
/// ranks with data-parallel gradients. `factory` builds one identically-
/// seeded model per rank (replicas must start equal for the parity
/// guarantee).
pub fn train_data_parallel<F>(
    dataset: &NodeDataset,
    cfg: TrainConfig,
    world: usize,
    factory: F,
) -> DistributedStats
where
    F: Fn() -> Box<dyn SequenceModel> + Sync,
{
    assert!(world >= 1);
    let group = DeviceGroup::new(world);
    let job = RankJob::new(dataset, cfg, &factory);
    let assignment = strided_assignment(job.prepared.sequences.len(), world);
    let mut results = group.run(|comm| run_rank(&comm, &job, &assignment, None));
    let stats = group.stats();
    let mut out = results.swap_remove(0).expect("no store and no restore: a rank cannot fail");
    out.grad_bytes = stats.bytes_sent();
    out.all_reduces = stats.ops(CollectiveKind::AllReduce);
    out
}

/// Round-robin token assignment: sequence `t` trains on rank `t % world`,
/// so every step consumes `world` consecutive sequences.
pub(crate) fn strided_assignment(tokens: usize, world: usize) -> Vec<u32> {
    (0..tokens).map(|t| (t % world) as u32).collect()
}

/// What every rank and every retry of an all-reduce data-parallel run
/// shares.
pub(crate) struct RankJob<'a, F> {
    /// The sequence stream, prepared once (the pipeline is deterministic).
    pub prepared: Prepared,
    train_pos: Vec<Vec<u32>>,
    cfg: TrainConfig,
    /// Builds one identically-seeded model replica per rank.
    factory: &'a F,
    /// Where dense rank 0 publishes a snapshot after every epoch.
    pub store: Option<&'a CheckpointStore>,
    pub recorder: RecorderHandle,
    /// Scripted permanent rank loss.
    pub lose: Option<RankLoss>,
}

impl<'a, F> RankJob<'a, F> {
    /// Prepare the dataset; no snapshot sink, no recorder, no scripted loss.
    pub fn new(dataset: &NodeDataset, cfg: TrainConfig, factory: &'a F) -> Self {
        let prepared = prepare_node_dataset(dataset, cfg.seq_len, false, 1, cfg.seed);
        Self {
            train_pos: prepared.train_positions(),
            prepared,
            cfg,
            factory,
            store: None,
            recorder: torchgt_obs::noop(),
            lose: None,
        }
    }
}

/// One rank of the data-parallel loop. Restores `start` if present, then
/// trains only the sequences `assignment` gives this rank's *global* id
/// (`assignment[t]` owns sequence `t`); gradient averaging and the
/// per-epoch loss all-reduce span the dense live group.
pub(crate) fn run_rank<F>(
    comm: &Communicator,
    job: &RankJob<'_, F>,
    assignment: &[u32],
    start: Option<&Snapshot>,
) -> io::Result<DistributedStats>
where
    F: Fn() -> Box<dyn SequenceModel> + Sync,
{
    let RankJob { prepared, train_pos, cfg, recorder, .. } = job;
    let global = comm.global_rank();
    let mine: Vec<usize> =
        (0..assignment.len()).filter(|&t| assignment[t] as usize == global).collect();
    // Lock-step bound: every rank walks the same number of steps (the
    // largest shard size) so the collectives stay aligned; ranks past
    // their own shard contribute zero gradients.
    let maxg = assignment.iter().copied().max().unwrap_or(0) as usize;
    let mut counts = vec![0usize; maxg + 1];
    for &a in assignment {
        counts[a as usize] += 1;
    }
    let steps = counts.into_iter().max().unwrap_or(0);
    let mut model = (job.factory)();
    let mut opt = Adam::with_lr(cfg.lr);
    let mut start_epoch = 0usize;
    let mut epoch_losses: Vec<f32> = Vec::new();
    if let Some(snap) = start {
        // Parameters are replicated (canonical order), so the same snapshot
        // restores every rank identically — at any world size — and the
        // data-parallel parity invariant holds across the restart.
        crate::resume::restore_model(model.as_mut(), &mut opt, snap)?;
        start_epoch = snap.state.epoch;
        epoch_losses = snap.state.epoch_losses.iter().map(|&l| l as f32).collect();
    }
    model.set_training(true);
    // One arena per rank, warm after the first step.
    let mut ws = Workspace::new();
    for epoch in start_epoch..cfg.epochs {
        if let Some(l) = job.lose.filter(|l| l.rank == global && epoch >= l.epoch) {
            // Permanent loss: refires on every retry while this rank is
            // still in the group, forcing the ladder to shrink.
            if recorder.enabled() {
                recorder.event(Event::rank_crash(l.rank, u64::MAX));
            }
            std::panic::panic_any(RankCrash { rank: l.rank, op: u64::MAX });
        }
        let mut total_loss = 0.0f32;
        let mut counted = 0usize;
        for step in 0..steps {
            if let Some(&idx) = mine.get(step) {
                let seq = &prepared.sequences[idx];
                let batch =
                    SequenceBatch { features: &seq.features, graph: &seq.graph, spd: None };
                let pattern = Pattern::Sparse(&seq.mask);
                let logits = model.forward_ws(&batch, pattern, &mut ws);
                let (l, dlogits) = loss::masked_softmax_cross_entropy_ws(
                    &logits,
                    &seq.labels,
                    &train_pos[idx],
                    &mut ws,
                );
                model.backward_ws(&batch, pattern, &dlogits, &mut ws);
                ws.give(dlogits);
                ws.give(logits);
                total_loss += l;
                counted += 1;
            }
            // Mean over the *live* world: idle ranks contribute zeros so the
            // collective stays aligned, and averaging rescales to the
            // surviving rank count after a shrink. With overlap on, every
            // parameter's reduce is in flight before the first is awaited.
            all_reduce_mean_params(comm, &mut model.params_mut());
            opt.step(&mut model.params_mut());
        }
        // Average the loss across ranks for reporting.
        let sums = comm.all_reduce_sum(vec![total_loss, counted as f32]);
        epoch_losses.push(if sums[1] > 0.0 { sums[0] / sums[1] } else { 0.0 });
        if let (0, Some(store)) = (comm.rank(), job.store) {
            let mut state = TrainerState::basic(epoch + 1, opt.steps());
            state.rng_streams = model.rng_state();
            // f32 → f64 widening is exact, so the ledger survives the
            // manifest round-trip bit-for-bit.
            state.epoch_losses = epoch_losses.iter().map(|&l| l as f64).collect();
            let snap = crate::resume::capture_model(model.as_mut(), state).with_layout(
                PartitionLayout {
                    world: comm.world_size(),
                    generation: comm.generation(),
                    assignment: assignment.to_vec(),
                },
            );
            store.save(&snap)?;
            if recorder.enabled() {
                recorder.event(Event::snapshot(epoch + 1));
            }
        }
    }
    Ok(DistributedStats {
        epoch_losses,
        grad_bytes: 0,
        all_reduces: 0,
        world: comm.world_size(),
    })
}

torchgt_compat::json_struct! {
    /// Result of a fault-tolerant distributed run.
    #[derive(Clone, Debug)]
    pub struct ResilientStats {
        /// The distributed stats, with `epoch_losses` stitched across
        /// crash/restore cycles (covers every epoch exactly once).
        pub stats: DistributedStats,
        /// How many times the group was torn down and restarted.
        pub restarts: usize,
        /// The epoch each restart resumed from (0 = cold restart because no
        /// snapshot existed yet).
        pub resumed_epochs: Vec<usize>,
    }
}

/// Fault-tolerant [`train_data_parallel`]: trains under an injected
/// [`FaultPlan`], checkpointing full state (parameters, Adam moments and
/// step counter, PRNG cursors, loss ledger) into `store` after every epoch
/// on rank 0. An injected rank crash aborts the whole group; the driver
/// then restores from the latest snapshot and re-runs the remaining epochs
/// on the same group (the crash is one-shot, so the recovery attempt runs
/// clean). Crash, snapshot and restore transitions are all recorded as
/// events on `recorder`.
pub fn train_data_parallel_resilient<F>(
    dataset: &NodeDataset,
    cfg: TrainConfig,
    world: usize,
    factory: F,
    plan: FaultPlan,
    store: &CheckpointStore,
    recorder: RecorderHandle,
) -> io::Result<ResilientStats>
where
    F: Fn() -> Box<dyn SequenceModel> + Sync,
{
    assert!(world >= 1);
    // The retry budget comes from the config's RecoveryPolicy (default 4,
    // matching the former hardcoded bound): the injected crash fires at
    // most once, so two attempts normally suffice.
    let policy = cfg.recovery;
    let mut group = DeviceGroup::with_recorder(world, recorder.clone());
    group.set_fault_plan(Some(plan));
    let mut job = RankJob::new(dataset, cfg, &factory);
    (job.store, job.recorder) = (Some(store), recorder.clone());
    let assignment = strided_assignment(job.prepared.sequences.len(), world);
    let mut restarts = 0usize;
    let mut resumed_epochs = Vec::new();
    loop {
        let start = store.load_latest()?;
        if restarts > 0 {
            let epoch = start.as_ref().map(|s| s.state.epoch).unwrap_or(0);
            resumed_epochs.push(epoch);
            if recorder.enabled() {
                recorder.event(Event::restore(epoch));
            }
        }
        let results = group.try_run(|comm| run_rank(&comm, &job, &assignment, start.as_ref()));
        if results.iter().all(Result::is_ok) {
            let mut out = results
                .into_iter()
                .next()
                .expect("world >= 1")
                .expect("checked all ranks ok")?;
            let stats = group.stats();
            out.grad_bytes = stats.bytes_sent();
            out.all_reduces = stats.ops(CollectiveKind::AllReduce);
            return Ok(ResilientStats { stats: out, restarts, resumed_epochs });
        }
        restarts += 1;
        if restarts >= policy.max_retries {
            let failure = results
                .into_iter()
                .filter_map(Result::err)
                .next()
                .map(|f| f.to_string())
                .unwrap_or_else(|| "unknown rank failure".to_string());
            return Err(io::Error::other(format!(
                "distributed run did not recover after {restarts} restarts: {failure}"
            )));
        }
        let wait = policy.backoff_s(restarts);
        if wait > 0.0 {
            std::thread::sleep(std::time::Duration::from_secs_f64(wait));
        }
    }
}

/// Single-process reference with the same update semantics as
/// [`train_data_parallel`]: `world` sequences per step, mean gradient, one
/// optimizer step. Used by parity tests.
pub fn train_reference(
    dataset: &NodeDataset,
    cfg: TrainConfig,
    world: usize,
    mut model: Box<dyn SequenceModel>,
) -> Vec<f32> {
    let prepared = prepare_node_dataset(dataset, cfg.seq_len, false, 1, cfg.seed);
    let train_pos = prepared.train_positions();
    model.set_training(true);
    let mut ws = Workspace::new();
    let mut opt = Adam::with_lr(cfg.lr);
    let nseq = prepared.sequences.len();
    let steps = nseq.div_ceil(world);
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    for _ in 0..cfg.epochs {
        let mut total_loss = 0.0f32;
        let mut counted = 0usize;
        for step in 0..steps {
            // Accumulate the "world" sequences of this step, then average.
            for r in 0..world {
                let idx = step * world + r;
                if idx >= nseq {
                    continue;
                }
                let seq = &prepared.sequences[idx];
                let batch =
                    SequenceBatch { features: &seq.features, graph: &seq.graph, spd: None };
                let pattern = Pattern::Sparse(&seq.mask);
                let logits = model.forward_ws(&batch, pattern, &mut ws);
                let (l, dlogits) = loss::masked_softmax_cross_entropy_ws(
                    &logits,
                    &seq.labels,
                    &train_pos[idx],
                    &mut ws,
                );
                model.backward_ws(&batch, pattern, &dlogits, &mut ws);
                ws.give(dlogits);
                ws.give(logits);
                total_loss += l;
                counted += 1;
            }
            for p in model.params_mut() {
                torchgt_tensor::ops::scale_inplace(&mut p.grad, 1.0 / world as f32);
            }
            opt.step(&mut model.params_mut());
        }
        epoch_losses.push(if counted > 0 { total_loss / counted as f32 } else { 0.0 });
    }
    epoch_losses
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Method;
    use torchgt_graph::DatasetKind;
    use torchgt_model::{Gt, GtConfig};

    fn dataset() -> NodeDataset {
        DatasetKind::OgbnArxiv.generate_node(0.002, 19)
    }

    fn cfg(epochs: usize) -> TrainConfig {
        let mut c = TrainConfig::new(Method::GpSparse, 128, epochs);
        c.lr = 2e-3;
        c.seed = 7;
        c
    }

    fn factory(d: &NodeDataset) -> impl Fn() -> Box<dyn SequenceModel> + Sync + '_ {
        move || Box::new(Gt::new(GtConfig::tiny(d.feat_dim, d.num_classes), 11))
    }

    #[test]
    fn distributed_matches_reference_losses() {
        let d = dataset();
        let world = 2;
        let dist = train_data_parallel(&d, cfg(2), world, factory(&d));
        let reference = train_reference(
            &d,
            cfg(2),
            world,
            Box::new(Gt::new(GtConfig::tiny(d.feat_dim, d.num_classes), 11)),
        );
        assert_eq!(dist.epoch_losses.len(), reference.len());
        for (a, b) in dist.epoch_losses.iter().zip(&reference) {
            assert!(
                (a - b).abs() < 5e-3,
                "distributed {a} vs reference {b} (losses {:?} vs {:?})",
                dist.epoch_losses,
                reference
            );
        }
    }

    #[test]
    fn gradient_traffic_is_accounted() {
        let d = dataset();
        let dist = train_data_parallel(&d, cfg(1), 2, factory(&d));
        assert!(dist.grad_bytes > 0, "all-reduce must move bytes");
        assert!(dist.all_reduces > 0);
        assert_eq!(dist.world, 2);
    }

    #[test]
    fn world_one_equals_reference_exactly() {
        let d = dataset();
        let dist = train_data_parallel(&d, cfg(2), 1, factory(&d));
        let reference = train_reference(
            &d,
            cfg(2),
            1,
            Box::new(Gt::new(GtConfig::tiny(d.feat_dim, d.num_classes), 11)),
        );
        for (a, b) in dist.epoch_losses.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn losses_decrease_across_epochs() {
        let d = dataset();
        let dist = train_data_parallel(&d, cfg(4), 4, factory(&d));
        assert!(
            dist.epoch_losses.last().unwrap() < dist.epoch_losses.first().unwrap(),
            "{:?}",
            dist.epoch_losses
        );
    }

    #[test]
    fn injected_crash_recovers_from_snapshot_and_matches_clean_run() {
        use std::sync::Arc;
        use torchgt_obs::{Event, MemoryRecorder};
        let d = dataset();
        let world = 2;
        let epochs = 3;
        let clean = train_data_parallel(&d, cfg(epochs), world, factory(&d));

        // Place the crash early in epoch 1 on rank 1: per step every rank
        // runs one all-reduce per parameter (2 collective ticks each — the
        // op itself plus its nested all-gather), plus 2 ticks for the
        // epoch-end loss reduction.
        let mut probe = factory(&d)();
        let nparams = probe.params_mut().len();
        let nseq =
            prepare_node_dataset(&d, cfg(epochs).seq_len, false, 1, cfg(epochs).seed)
                .sequences
                .len();
        let steps = nseq.div_ceil(world);
        let ops_per_epoch = (steps * nparams * 2 + 2) as u64;
        let plan = FaultPlan {
            drop_prob: 0.1,
            max_retries: 2,
            crash: Some(torchgt_comm::CrashPoint { rank: 1, op: ops_per_epoch + 4 }),
            seed: 23,
            ..FaultPlan::default()
        };

        let dir = std::env::temp_dir().join("tgt-dist-resilient");
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::new(&dir, 2).unwrap();
        let mem = Arc::new(MemoryRecorder::default());
        let res = train_data_parallel_resilient(
            &d,
            cfg(epochs),
            world,
            factory(&d),
            plan,
            &store,
            mem.clone(),
        )
        .unwrap();

        assert_eq!(res.restarts, 1, "exactly one crash/recovery cycle");
        assert_eq!(res.resumed_epochs, vec![1], "resumed from the epoch-1 snapshot");
        assert_eq!(res.stats.epoch_losses.len(), epochs);
        for (i, (a, b)) in res.stats.epoch_losses.iter().zip(&clean.epoch_losses).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "epoch {i}: resilient {a} vs clean {b}");
        }
        assert!(
            res.stats.epoch_losses.last().unwrap() < res.stats.epoch_losses.first().unwrap(),
            "{:?}",
            res.stats.epoch_losses
        );

        let report = mem.report();
        assert_eq!(report.events_of(Event::RANK_CRASH).len(), 1);
        assert_eq!(report.events_of(Event::RESTORE).len(), 1);
        assert!(report.events_of(Event::SNAPSHOT).len() >= epochs, "one snapshot per epoch");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
