//! The structured records a [`crate::Recorder`] collects: per-iteration
//! [`StepTrace`]s, per-epoch [`EpochTrace`]s, discrete [`Event`]s and the
//! aggregated [`MetricsReport`] the JSON exporter writes.
//!
//! Every type here round-trips through `torchgt_compat::json`, so a metrics
//! file written by one process can be re-loaded and asserted on by another
//! (the schema round-trip is covered by tests).

use torchgt_compat::json::{ToJson, Value};

torchgt_compat::json_struct! {
    /// One training iteration, the granularity of the paper's Fig. 2
    /// breakdown: wall-clock per phase plus the sparse/full decision and the
    /// reformation state in effect.
    #[derive(Clone, Debug, PartialEq)]
    pub struct StepTrace {
        /// Epoch this step belongs to (0-based).
        pub epoch: usize,
        /// Step index within the epoch (0-based).
        pub step: usize,
        /// Tokens in this step's sequence.
        pub seq_len: usize,
        /// `true` when the scheduler ran the sparse pattern, `false` for a
        /// fully-connected (interleaved or baseline) pass.
        pub sparse: bool,
        /// The transfer threshold `β_thre` in effect during the step.
        pub beta_thre: f64,
        /// Reformation compaction ratio `nnz_after / nnz_before` of this
        /// sequence's mask (1.0 when no reformation applies).
        pub reform_ratio: f64,
        /// Forward-pass wall-clock seconds (includes the loss).
        pub forward_s: f64,
        /// Backward-pass wall-clock seconds.
        pub backward_s: f64,
        /// Optimizer-step wall-clock seconds.
        pub optim_s: f64,
        /// Simulated GPU-cluster seconds of the iteration (cost model).
        pub sim_s: f64,
    }
}

torchgt_compat::json_struct! {
    /// Per-epoch phase rollup — the record `--metrics` files key their
    /// "per-epoch spans" on. `preprocess_s` covers the trainer's set-up
    /// (charged to epoch 0) and any mid-training reformation rebuilds
    /// (charged to the epoch that triggered them).
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct EpochTrace {
        /// Epoch number (0-based).
        pub epoch: usize,
        /// Mean training loss of the epoch — lets two metrics files be
        /// compared epoch-by-epoch (the crash-resume gate relies on this).
        pub loss: f64,
        /// Preprocess seconds attributable to this epoch (partition /
        /// reorder / mask building / reformation rebuilds).
        pub preprocess_s: f64,
        /// Summed forward seconds over the epoch's iterations.
        pub forward_s: f64,
        /// Summed backward seconds.
        pub backward_s: f64,
        /// Summed optimizer seconds.
        pub optim_s: f64,
        /// Evaluation (train+test scoring) seconds.
        pub eval_s: f64,
        /// Simulated cluster seconds of the epoch.
        pub sim_s: f64,
        /// Iterations that ran the sparse pattern.
        pub sparse_iters: usize,
        /// Iterations that ran fully-connected.
        pub full_iters: usize,
        /// The `β_thre` in effect during the epoch.
        pub beta_thre: f64,
    }
}

torchgt_compat::json_struct! {
    /// A discrete, timestamped-by-position occurrence: `β_thre` ladder
    /// transitions, reformation passes, anything future subsystems emit.
    /// `fields` is free-form JSON so new event kinds need no schema change.
    #[derive(Clone, Debug, PartialEq)]
    pub struct Event {
        /// Event kind discriminator (`"beta_transition"`, `"reform"`, ...).
        pub kind: String,
        /// Kind-specific payload.
        pub fields: Value,
    }
}

impl Event {
    /// Kind tag of [`Event::beta_transition`] events.
    pub const BETA_TRANSITION: &'static str = "beta_transition";
    /// Kind tag of [`Event::reform`] events.
    pub const REFORM: &'static str = "reform";
    /// Kind tag of [`Event::backend`] events.
    pub const BACKEND: &'static str = "backend";

    /// The kernel backend the process dispatched to at startup — recorded so
    /// exported metrics say which instruction set produced them.
    pub fn backend(name: &str) -> Self {
        Self {
            kind: Self::BACKEND.to_string(),
            fields: torchgt_compat::json!({ "name": name }),
        }
    }

    /// An Auto-Tuner `β_thre` ladder move after `epoch`.
    pub fn beta_transition(epoch: usize, from: f64, to: f64, ladder_index: usize) -> Self {
        Self {
            kind: Self::BETA_TRANSITION.to_string(),
            fields: torchgt_compat::json!({
                "epoch": epoch,
                "from": from,
                "to": to,
                "ladder_index": ladder_index,
            }),
        }
    }

    /// One Elastic Computation Reformation pass over a sequence mask.
    #[allow(clippy::too_many_arguments)]
    pub fn reform(
        clusters_total: usize,
        clusters_transferred: usize,
        sub_blocks: usize,
        nnz_before: usize,
        nnz_after: usize,
        edge_recall: f64,
    ) -> Self {
        let density = if clusters_total > 0 {
            1.0 - clusters_transferred as f64 / clusters_total as f64
        } else {
            1.0
        };
        Self {
            kind: Self::REFORM.to_string(),
            fields: torchgt_compat::json!({
                "clusters_total": clusters_total,
                "clusters_transferred": clusters_transferred,
                "dense_cluster_fraction": density,
                "sub_blocks": sub_blocks,
                "nnz_before": nnz_before,
                "nnz_after": nnz_after,
                "compaction_ratio": if nnz_before > 0 {
                    nnz_after as f64 / nnz_before as f64
                } else {
                    1.0
                },
                "edge_recall": edge_recall,
            }),
        }
    }

    /// Kind tag of [`Event::fault_delay`] events.
    pub const FAULT_DELAY: &'static str = "fault_delay";
    /// Kind tag of [`Event::fault_drop`] events.
    pub const FAULT_DROP: &'static str = "fault_drop";
    /// Kind tag of [`Event::rank_crash`] events.
    pub const RANK_CRASH: &'static str = "rank_crash";
    /// Kind tag of [`Event::snapshot`] events.
    pub const SNAPSHOT: &'static str = "snapshot";
    /// Kind tag of [`Event::restore`] events.
    pub const RESTORE: &'static str = "restore";

    /// An injected message delay on a point-to-point send.
    pub fn fault_delay(rank: usize, peer: usize, op: u64, seconds: f64) -> Self {
        Self {
            kind: Self::FAULT_DELAY.to_string(),
            fields: torchgt_compat::json!({
                "rank": rank,
                "peer": peer,
                "op": op,
                "seconds": seconds,
            }),
        }
    }

    /// An injected message drop: the send was lost `retries` times (each
    /// costing a receiver timeout) before the retry succeeded.
    pub fn fault_drop(rank: usize, peer: usize, op: u64, retries: u64) -> Self {
        Self {
            kind: Self::FAULT_DROP.to_string(),
            fields: torchgt_compat::json!({
                "rank": rank,
                "peer": peer,
                "op": op,
                "retries": retries,
            }),
        }
    }

    /// An injected rank crash at communication op `op`.
    pub fn rank_crash(rank: usize, op: u64) -> Self {
        Self {
            kind: Self::RANK_CRASH.to_string(),
            fields: torchgt_compat::json!({ "rank": rank, "op": op }),
        }
    }

    /// A training-state snapshot was published after `epoch` epochs.
    pub fn snapshot(epoch: usize) -> Self {
        Self {
            kind: Self::SNAPSHOT.to_string(),
            fields: torchgt_compat::json!({ "epoch": epoch }),
        }
    }

    /// Training state was restored from the snapshot taken after `epoch`
    /// completed epochs (recovery from a crash or an explicit `--resume`).
    pub fn restore(epoch: usize) -> Self {
        Self {
            kind: Self::RESTORE.to_string(),
            fields: torchgt_compat::json!({ "epoch": epoch }),
        }
    }

    /// Kind tag of [`Event::rank_lost`] events.
    pub const RANK_LOST: &'static str = "rank_lost";
    /// Kind tag of [`Event::group_shrunk`] events.
    pub const GROUP_SHRUNK: &'static str = "group_shrunk";
    /// Kind tag of [`Event::reshard`] events.
    pub const RESHARD: &'static str = "reshard";
    /// Kind tag of [`Event::straggler`] events.
    pub const STRAGGLER: &'static str = "straggler";
    /// Kind tag of [`Event::loss_nonfinite`] events.
    pub const LOSS_NONFINITE: &'static str = "loss_nonfinite";
    /// Kind tag of [`Event::generation_rollup`] events.
    pub const GENERATION_ROLLUP: &'static str = "generation_rollup";

    /// A rank exhausted its retry budget and is declared permanently lost
    /// (the escalation ladder's shrink decision is about to run).
    pub fn rank_lost(rank: usize, generation: u64, restarts: usize) -> Self {
        Self {
            kind: Self::RANK_LOST.to_string(),
            fields: torchgt_compat::json!({
                "rank": rank,
                "generation": generation,
                "restarts": restarts,
            }),
        }
    }

    /// The device group reformed without a lost rank: generation
    /// `generation` now spans `to_world` live ranks (was `from_world`).
    pub fn group_shrunk(generation: u64, from_world: usize, to_world: usize, lost_rank: usize) -> Self {
        Self {
            kind: Self::GROUP_SHRUNK.to_string(),
            fields: torchgt_compat::json!({
                "generation": generation,
                "from_world": from_world,
                "to_world": to_world,
                "lost_rank": lost_rank,
            }),
        }
    }

    /// Token assignment was recomputed for a new world size: of `tokens`
    /// total, `moved` migrated between surviving ranks over the wire and
    /// `reloaded` were re-materialized because their old owner is gone.
    pub fn reshard(generation: u64, world: usize, tokens: usize, moved: usize, reloaded: usize) -> Self {
        Self {
            kind: Self::RESHARD.to_string(),
            fields: torchgt_compat::json!({
                "generation": generation,
                "world": world,
                "tokens": tokens,
                "moved": moved,
                "reloaded": reloaded,
            }),
        }
    }

    /// The straggler watchdog flagged `rank`: its accumulated injected
    /// send delay `delay_s` exceeds `multiple` × the group median
    /// `median_s` (detection only — no eviction). `measured_multiple` is
    /// the observed severity `delay_s / median_s`, as opposed to the
    /// configured threshold `multiple`.
    pub fn straggler(
        rank: usize,
        delay_s: f64,
        median_s: f64,
        multiple: f64,
        measured_multiple: f64,
    ) -> Self {
        Self {
            kind: Self::STRAGGLER.to_string(),
            fields: torchgt_compat::json!({
                "rank": rank,
                "delay_s": delay_s,
                "median_s": median_s,
                "multiple": multiple,
                "measured_multiple": measured_multiple,
            }),
        }
    }

    /// The epoch mean training loss came out NaN/Inf — the numerical-health
    /// guard fires before the poisoned state can reach a snapshot.
    pub fn loss_nonfinite(epoch: usize, loss: f64) -> Self {
        // NaN is not representable in JSON; encode it as a string marker so
        // the event survives a metrics round-trip.
        let loss_field = if loss.is_finite() {
            torchgt_compat::json!(loss)
        } else if loss.is_nan() {
            torchgt_compat::json!("nan")
        } else if loss > 0.0 {
            torchgt_compat::json!("inf")
        } else {
            torchgt_compat::json!("-inf")
        };
        Self {
            kind: Self::LOSS_NONFINITE.to_string(),
            fields: torchgt_compat::json!({ "epoch": epoch, "loss": loss_field }),
        }
    }

    /// Collective-volume rollup of one membership generation, emitted when
    /// the generation closes (shrink or end of training).
    pub fn generation_rollup(
        generation: u64,
        world: usize,
        ops: u64,
        wire_bytes: u64,
        bytes_sent: u64,
    ) -> Self {
        Self {
            kind: Self::GENERATION_ROLLUP.to_string(),
            fields: torchgt_compat::json!({
                "generation": generation,
                "world": world,
                "ops": ops,
                "wire_bytes": wire_bytes,
                "bytes_sent": bytes_sent,
            }),
        }
    }

    /// Kind tag of [`Event::rebalance`] events.
    pub const REBALANCE: &'static str = "rebalance";

    /// The rebalance policy fired: at the end of `epoch`, generation
    /// `generation` migrated `moved` tokens onto a new token-conserving
    /// assignment. `imbalance_before` is the measured max/mean step-time
    /// ratio that tripped the policy; `imbalance_after` the predicted
    /// ratio of the new assignment under the same per-rank rates.
    pub fn rebalance(
        epoch: usize,
        generation: u64,
        moved: usize,
        imbalance_before: f64,
        imbalance_after: f64,
    ) -> Self {
        Self {
            kind: Self::REBALANCE.to_string(),
            fields: torchgt_compat::json!({
                "epoch": epoch,
                "generation": generation,
                "moved": moved,
                "imbalance_before": imbalance_before,
                "imbalance_after": imbalance_after,
            }),
        }
    }

    /// Kind tag of [`Event::io_retry`] events.
    pub const IO_RETRY: &'static str = "io_retry";
    /// Kind tag of [`Event::shard_quarantined`] events.
    pub const SHARD_QUARANTINED: &'static str = "shard_quarantined";
    /// Kind tag of [`Event::snapshot_fallback`] events.
    pub const SNAPSHOT_FALLBACK: &'static str = "snapshot_fallback";
    /// Kind tag of [`Event::load_shed`] events.
    pub const LOAD_SHED: &'static str = "load_shed";

    /// A storage read failed transiently and was retried: attempt number
    /// `attempt` (1-based) against `path`, after backing off `backoff_s`
    /// seconds. `reason` carries the underlying error text.
    pub fn io_retry(path: &str, attempt: usize, backoff_s: f64, reason: &str) -> Self {
        Self {
            kind: Self::IO_RETRY.to_string(),
            fields: torchgt_compat::json!({
                "path": path,
                "attempt": attempt,
                "backoff_s": backoff_s,
                "reason": reason,
            }),
        }
    }

    /// A shard exhausted its retry budget (or failed CRC twice) and was
    /// quarantined: the loader refuses to serve it and surfaces a typed
    /// error naming the path.
    pub fn shard_quarantined(path: &str, reason: &str) -> Self {
        Self {
            kind: Self::SHARD_QUARANTINED.to_string(),
            fields: torchgt_compat::json!({ "path": path, "reason": reason }),
        }
    }

    /// `load_latest` found the newest snapshot corrupt, renamed it to
    /// `*.quarantined`, and fell back to the snapshot from `to_epoch`
    /// (`from_epoch` is the epoch of the corrupt one).
    pub fn snapshot_fallback(from_epoch: usize, to_epoch: usize, reason: &str) -> Self {
        Self {
            kind: Self::SNAPSHOT_FALLBACK.to_string(),
            fields: torchgt_compat::json!({
                "from_epoch": from_epoch,
                "to_epoch": to_epoch,
                "reason": reason,
            }),
        }
    }

    /// The serving admission controller rejected a query: `reason` is
    /// `"queue_full"` (depth exceeded the shed watermark), `"expired"`
    /// (deadline already passed at dequeue) or `"draining"` (arrived after
    /// shutdown began). `depth` is the queue depth observed at the decision.
    pub fn load_shed(node: u64, reason: &str, depth: usize) -> Self {
        Self {
            kind: Self::LOAD_SHED.to_string(),
            fields: torchgt_compat::json!({
                "node": node,
                "reason": reason,
                "depth": depth,
            }),
        }
    }

    /// Numeric field accessor (`None` when absent or non-numeric).
    pub fn num(&self, name: &str) -> Option<f64> {
        self.fields.get(name).and_then(Value::as_f64)
    }
}

torchgt_compat::json_struct! {
    /// Aggregated statistics of one span path.
    #[derive(Clone, Debug, PartialEq)]
    pub struct SpanStat {
        /// Hierarchical path, `/`-joined (`"train_epoch/forward"`).
        pub path: String,
        /// Number of recorded instances.
        pub count: u64,
        /// Total wall-clock seconds across instances.
        pub total_s: f64,
        /// Shortest instance.
        pub min_s: f64,
        /// Longest instance.
        pub max_s: f64,
    }
}

torchgt_compat::json_struct! {
    /// A monotonic counter's final value.
    #[derive(Clone, Debug, PartialEq)]
    pub struct CounterStat {
        /// Counter name.
        pub name: String,
        /// Accumulated value.
        pub value: u64,
    }
}

torchgt_compat::json_struct! {
    /// A gauge's last-set value.
    #[derive(Clone, Debug, PartialEq)]
    pub struct GaugeStat {
        /// Gauge name.
        pub name: String,
        /// Most recent value.
        pub value: f64,
    }
}

torchgt_compat::json_struct! {
    /// Volume/ops rollup of one collective kind — the paper's all-to-all
    /// accounting (§III-C). `payload_bytes` is the logical message volume;
    /// `wire_bytes` excludes same-rank chunks that never cross a link (zero
    /// on a single-GPU topology).
    #[derive(Clone, Debug, PartialEq)]
    pub struct CollectiveStat {
        /// Collective kind label (`"all_to_all"`, `"all_reduce"`, ...).
        pub kind: String,
        /// Invocations recorded.
        pub ops: u64,
        /// Logical payload bytes moved.
        pub payload_bytes: u64,
        /// Bytes that actually crossed an interconnect link.
        pub wire_bytes: u64,
    }
}

torchgt_compat::json_struct! {
    /// The full export of a [`crate::MemoryRecorder`]: what
    /// `torchgt_cli train --metrics out.json` writes and the bench harness
    /// attaches. Field order is the serialization order.
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct MetricsReport {
        /// Aggregated span timings, sorted by path.
        pub spans: Vec<SpanStat>,
        /// Counters, sorted by name.
        pub counters: Vec<CounterStat>,
        /// Gauges, sorted by name.
        pub gauges: Vec<GaugeStat>,
        /// Per-collective volume rollups, sorted by kind.
        pub collectives: Vec<CollectiveStat>,
        /// Events in emission order.
        pub events: Vec<Event>,
        /// Per-epoch phase rollups in epoch order.
        pub epochs: Vec<EpochTrace>,
        /// Per-iteration traces in emission order.
        pub steps: Vec<StepTrace>,
    }
}

impl MetricsReport {
    /// Serialize to two-space-indented JSON (what `--metrics` writes).
    pub fn to_json_string_pretty(&self) -> String {
        torchgt_compat::json::to_string_pretty(&self.to_json()).unwrap_or_default()
    }

    /// Parse a metrics file back into a report.
    pub fn from_json_str(s: &str) -> Result<Self, torchgt_compat::json::JsonError> {
        torchgt_compat::json::from_str_as(s)
    }

    /// Events of one kind, in order.
    pub fn events_of(&self, kind: &str) -> Vec<&Event> {
        self.events.iter().filter(|e| e.kind == kind).collect()
    }

    /// Lookup a collective rollup by kind label.
    pub fn collective(&self, kind: &str) -> Option<&CollectiveStat> {
        self.collectives.iter().find(|c| c.kind == kind)
    }

    /// Lookup a span aggregate by exact path.
    pub fn span(&self, path: &str) -> Option<&SpanStat> {
        self.spans.iter().find(|s| s.path == path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_json() {
        let report = MetricsReport {
            spans: vec![SpanStat {
                path: "train_epoch/forward".into(),
                count: 3,
                total_s: 0.5,
                min_s: 0.1,
                max_s: 0.3,
            }],
            counters: vec![CounterStat { name: "iterations".into(), value: 12 }],
            gauges: vec![GaugeStat { name: "beta_thre".into(), value: 0.01 }],
            collectives: vec![CollectiveStat {
                kind: "all_to_all".into(),
                ops: 64,
                payload_bytes: 1 << 20,
                wire_bytes: (1 << 20) * 7 / 8,
            }],
            events: vec![
                Event::beta_transition(4, 0.01, 0.015, 2),
                Event::reform(10, 4, 17, 900, 1100, 0.93),
            ],
            epochs: vec![EpochTrace { epoch: 0, forward_s: 0.2, ..Default::default() }],
            steps: vec![StepTrace {
                epoch: 0,
                step: 1,
                seq_len: 256,
                sparse: true,
                beta_thre: 0.01,
                reform_ratio: 1.2,
                forward_s: 0.05,
                backward_s: 0.08,
                optim_s: 0.01,
                sim_s: 0.4,
            }],
        };
        let text = report.to_json_string_pretty();
        let back = MetricsReport::from_json_str(&text).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn event_constructors_tag_kinds() {
        let b = Event::beta_transition(7, 0.0, 0.5, 3);
        assert_eq!(b.kind, Event::BETA_TRANSITION);
        assert_eq!(b.num("epoch"), Some(7.0));
        assert_eq!(b.num("to"), Some(0.5));
        let r = Event::reform(8, 8, 5, 100, 150, 0.9);
        assert_eq!(r.kind, Event::REFORM);
        assert_eq!(r.num("compaction_ratio"), Some(1.5));
        assert_eq!(r.num("dense_cluster_fraction"), Some(0.0));
        assert_eq!(r.num("missing"), None);
    }

    #[test]
    fn membership_event_constructors_tag_kinds() {
        let l = Event::rank_lost(3, 0, 2);
        assert_eq!(l.kind, Event::RANK_LOST);
        assert_eq!(l.num("rank"), Some(3.0));
        let s = Event::group_shrunk(1, 4, 3, 3);
        assert_eq!(s.kind, Event::GROUP_SHRUNK);
        assert_eq!(s.num("to_world"), Some(3.0));
        let r = Event::reshard(1, 3, 12, 4, 3);
        assert_eq!(r.kind, Event::RESHARD);
        assert_eq!(r.num("moved"), Some(4.0));
        assert_eq!(r.num("reloaded"), Some(3.0));
        let st = Event::straggler(2, 0.5, 0.01, 4.0, 50.0);
        assert_eq!(st.kind, Event::STRAGGLER);
        assert_eq!(st.num("delay_s"), Some(0.5));
        assert_eq!(st.num("measured_multiple"), Some(50.0));
        let g = Event::generation_rollup(0, 4, 128, 1 << 20, 1 << 21);
        assert_eq!(g.kind, Event::GENERATION_ROLLUP);
        assert_eq!(g.num("ops"), Some(128.0));
        let rb = Event::rebalance(3, 1, 96, 2.5, 1.1);
        assert_eq!(rb.kind, Event::REBALANCE);
        assert_eq!(rb.num("moved"), Some(96.0));
        assert_eq!(rb.num("imbalance_before"), Some(2.5));
        assert_eq!(rb.num("imbalance_after"), Some(1.1));
    }

    #[test]
    fn loss_nonfinite_event_survives_json_round_trip() {
        let e = Event::loss_nonfinite(5, f64::NAN);
        assert_eq!(e.kind, Event::LOSS_NONFINITE);
        assert_eq!(e.num("epoch"), Some(5.0));
        // NaN encodes as a string marker, not a broken number literal.
        assert_eq!(e.fields.get("loss").and_then(Value::as_str), Some("nan"));
        let text = torchgt_compat::json::to_string(&e.to_json()).unwrap();
        let back: Event = torchgt_compat::json::from_str_as(&text).unwrap();
        assert_eq!(back, e);
        let inf = Event::loss_nonfinite(1, f64::INFINITY);
        assert_eq!(inf.fields.get("loss").and_then(Value::as_str), Some("inf"));
        let fin = Event::loss_nonfinite(1, 2.5);
        assert_eq!(fin.num("loss"), Some(2.5));
    }

    #[test]
    fn report_lookup_helpers() {
        let mut report = MetricsReport::default();
        report.events.push(Event::beta_transition(0, 0.1, 0.2, 1));
        report.events.push(Event::reform(1, 1, 1, 1, 1, 1.0));
        report.collectives.push(CollectiveStat {
            kind: "all_to_all".into(),
            ops: 1,
            payload_bytes: 2,
            wire_bytes: 3,
        });
        assert_eq!(report.events_of(Event::BETA_TRANSITION).len(), 1);
        assert_eq!(report.collective("all_to_all").unwrap().wire_bytes, 3);
        assert!(report.collective("broadcast").is_none());
        assert!(report.span("nope").is_none());
    }
}
