//! # torchgt-data
//!
//! Out-of-core streaming data subsystem. The paper's headline scale claim is
//! training ogbn-papers100M (111M nodes, Table III / Table V), but the
//! in-memory generators in `torchgt-graph` cap functional runs at whatever
//! fits in RAM. This crate puts a binary shard layer underneath the whole
//! training/serving stack:
//!
//! * [`shard`] — the versioned `TGDS` shard format: a contiguous range of
//!   nodes (features, labels, communities, and full global-id adjacency
//!   rows) in the `torchgt_ckpt::frame` container that `TGTS` snapshots
//!   and `TGTF` frozen artifacts also use.
//! * [`manifest`] — the `TGDM` dataset manifest: generation parameters
//!   (kind/scale/seed), effective totals, and the shard list with per-shard
//!   byte counts and content CRCs. [`Manifest::hash`] is the dataset's
//!   stable identity, embedded in checkpoints and frozen artifacts.
//! * [`writer`] — streaming generation: [`writer::generate_to_dir`] drives
//!   [`torchgt_graph::datasets::DatasetKind::stream_node`] into per-shard
//!   edge spill files and then finalises shards one at a time, so peak
//!   memory is `O(n + shard)` rather than `O(dataset)`.
//! * [`loader`] — [`ShardLoader`]: a double-buffered prefetching reader
//!   (background thread over a bounded `torchgt_compat::sync` channel,
//!   optional seeded per-epoch shard shuffle) publishing prefetch-stall /
//!   bytes-read / buffer-occupancy gauges through `torchgt-obs`.
//!
//! Every shard written by the streaming path is **bit-identical** to what
//! slicing the in-memory [`torchgt_graph::NodeDataset`] would produce, so
//! trainers fed from disk reproduce the in-memory loss history exactly.

pub mod loader;
pub mod manifest;
pub mod shard;
pub mod writer;

pub use loader::{LoaderStats, ShardLoader, ShardStream, Stage};
pub use manifest::{Manifest, ShardEntry, MANIFEST_FILE, MANIFEST_FORMAT_VERSION};
pub use shard::{Shard, SHARD_FORMAT_VERSION};
pub use writer::{generate_to_dir, load_node_dataset, DatagenReport};

/// Typed payload of a shard-quarantine error: the self-healing reader
/// exhausted its retry ladder (transient retries plus the one CRC re-read)
/// against `path` and refuses to serve the shard. Reach it from an
/// [`io::Error`] via `e.get_ref().and_then(|r| r.downcast_ref())`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardQuarantined {
    /// The shard file that was quarantined.
    pub path: String,
    /// The underlying failure (I/O error text or CRC mismatch).
    pub reason: String,
}

impl std::fmt::Display for ShardQuarantined {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shard {} quarantined: {}", self.path, self.reason)
    }
}

impl std::error::Error for ShardQuarantined {}

/// The fault-plane registry is process-global, so a test that installs a
/// plan would perturb any concurrently-running test that reads shards
/// through it. Every disk-touching test in this crate takes this gate.
#[cfg(test)]
pub(crate) fn test_fault_gate() -> std::sync::MutexGuard<'static, ()> {
    use std::sync::{Mutex, OnceLock};
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|e| e.into_inner())
}
