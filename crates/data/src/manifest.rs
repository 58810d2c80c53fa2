//! The `TGDM` dataset manifest: the identity and table of contents of an
//! on-disk sharded dataset — a [`torchgt_ckpt::frame`] container with no
//! payload, only the checksummed JSON manifest.
//!
//! The manifest records the generation parameters (dataset kind, scale,
//! seed), the *effective* post-clamp totals actually generated
//! ([`torchgt_graph::EffectiveSpec`] — node count, feature dim, classes),
//! and one [`ShardEntry`] per shard with its byte count and whole-file
//! CRC-32, so the loader can verify a shard before parsing it.
//!
//! [`Manifest::hash`] — FNV-1a over the canonical JSON encoding — is the
//! dataset's stable identity. It is embedded in `TGTS` training snapshots
//! (restore refuses a mismatched dataset unless overridden) and in `TGTF`
//! frozen-artifact provenance.

use std::io;
use std::path::{Path, PathBuf};
use torchgt_ckpt::frame::{self, bad, Format};
use torchgt_graph::DatasetKind;

/// Current `TGDM` manifest format version.
pub const MANIFEST_FORMAT_VERSION: u32 = 1;

/// File name of the manifest inside a dataset directory.
pub const MANIFEST_FILE: &str = "manifest.tgdm";

/// The `TGDM` frame.
pub const FORMAT: Format = Format {
    magic: *b"TGDM",
    name: "dataset manifest",
    versions: MANIFEST_FORMAT_VERSION..=MANIFEST_FORMAT_VERSION,
};

torchgt_compat::json_struct! {
    /// One shard's entry in the dataset's table of contents.
    #[derive(Clone, Debug, PartialEq)]
    pub struct ShardEntry {
        /// File name relative to the dataset directory.
        pub file: String,
        /// Global id of the shard's first node.
        pub node_start: u64,
        /// Nodes in the shard.
        pub node_count: u64,
        /// Adjacency entries in the shard.
        pub num_arcs: u64,
        /// Size of the shard file in bytes.
        pub bytes: u64,
        /// CRC-32 of the entire shard file (header included), checked by
        /// the loader before the shard is parsed.
        pub crc: u32,
    }
}

torchgt_compat::json_struct! {
    /// The dataset manifest: generation parameters, effective totals, and
    /// the shard list.
    #[derive(Clone, Debug, PartialEq)]
    pub struct Manifest {
        /// `TGDM` format version.
        pub format_version: u32,
        /// Which dataset the shards stand in for.
        pub kind: DatasetKind,
        /// Scale the generator ran at.
        pub scale: f64,
        /// Generator seed (also derives the train/val/test split and the
        /// feature RNG, so it fully determines dataset content).
        pub seed: u64,
        /// Effective total nodes (post-clamp — what was actually written).
        pub total_nodes: u64,
        /// Effective feature dimension.
        pub feat_dim: u64,
        /// Effective class count.
        pub num_classes: u64,
        /// Total adjacency entries across all shards.
        pub total_arcs: u64,
        /// Nominal nodes per shard (the last shard may be smaller).
        pub shard_nodes: u64,
        /// Shards in node order.
        pub shards: Vec<ShardEntry>,
    }
}

impl Manifest {
    /// Stable dataset identity: 64-bit FNV-1a over the canonical compact
    /// JSON encoding, rendered as `tgds-` + 16 hex digits. Covers the
    /// generation parameters, effective totals, and every shard's size and
    /// CRC — any change to dataset content changes the hash.
    pub fn hash(&self) -> String {
        let json = torchgt_compat::json::to_string(self).expect("manifest encodes");
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in json.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!("tgds-{h:016x}")
    }

    /// Sparsity β_G of the stored graph (`total_arcs / n²`) — the quantity
    /// the Elastic Computation Reformation thresholds against, computable
    /// without loading a single shard.
    pub fn beta_g(&self) -> f64 {
        if self.total_nodes == 0 {
            return 0.0;
        }
        self.total_arcs as f64 / (self.total_nodes as f64 * self.total_nodes as f64)
    }

    /// Path of the shard described by `entry` inside `dir`.
    pub fn shard_path(dir: &Path, entry: &ShardEntry) -> PathBuf {
        dir.join(&entry.file)
    }

    /// Serialise to framed bytes (header + checksummed JSON).
    pub fn to_bytes(&self) -> io::Result<Vec<u8>> {
        let mut out = Vec::new();
        FORMAT.write(&mut out, self, &[])?;
        Ok(out)
    }

    /// Deserialise one `TGDM` frame, verifying everything the frame does
    /// and the structural invariants (non-empty contiguous shard coverage
    /// whose totals match the declared ones).
    pub fn read_from(bytes: &[u8]) -> io::Result<Self> {
        let (manifest, _): (Manifest, _) = FORMAT.parse(bytes)?;
        manifest.validate()?;
        Ok(manifest)
    }

    /// Structural invariants beyond the checksum: shards must tile
    /// `[0, total_nodes)` contiguously in order, the per-shard totals must
    /// sum to the declared ones, and no shard may declare more nodes,
    /// features and arcs than its `bytes` can hold — which bounds every
    /// size a reader derives from this manifest (`total_nodes`,
    /// `total_nodes × feat_dim`, `total_arcs`) by the dataset's declared
    /// bytes before anything is allocated from it.
    fn validate(&self) -> io::Result<()> {
        if self.shards.is_empty() {
            return Err(bad("dataset manifest lists no shards"));
        }
        if self.total_nodes == 0 || self.feat_dim == 0 || self.num_classes == 0 {
            return Err(bad("dataset manifest declares a zero dimension"));
        }
        let mut next_start = 0u64;
        let mut arcs = 0u64;
        for (i, s) in self.shards.iter().enumerate() {
            if s.node_start != next_start {
                return Err(bad(format!(
                    "shard {i} starts at node {} (expected {next_start}): non-contiguous coverage",
                    s.node_start
                )));
            }
            if s.node_count == 0 {
                return Err(bad(format!("shard {i} is empty")));
            }
            let overflow = || bad("dataset manifest totals overflow");
            next_start = next_start.checked_add(s.node_count).ok_or_else(overflow)?;
            arcs = arcs.checked_add(s.num_arcs).ok_or_else(overflow)?;
            // A `TGDS` payload is `feat_dim + 3` words per node (features,
            // label, community, row length) and one per arc.
            let payload = self
                .feat_dim
                .checked_add(3)
                .and_then(|per_node| per_node.checked_mul(s.node_count))
                .and_then(|words| words.checked_add(s.num_arcs))
                .and_then(|words| words.checked_mul(4));
            if payload.is_none_or(|payload| payload > s.bytes) {
                return Err(bad(format!(
                    "shard {i} declares {} nodes x {} features and {} arcs, more than its {} bytes hold",
                    s.node_count, self.feat_dim, s.num_arcs, s.bytes
                )));
            }
        }
        if next_start != self.total_nodes {
            return Err(bad(format!(
                "shards cover {next_start} nodes, manifest declares {}",
                self.total_nodes
            )));
        }
        if arcs != self.total_arcs {
            return Err(bad(format!(
                "shards hold {arcs} arcs, manifest declares {}",
                self.total_arcs
            )));
        }
        Ok(())
    }

    /// Publish atomically at `path` (write-then-rename).
    pub fn save(&self, path: &Path) -> io::Result<()> {
        frame::publish(path, false, |w| FORMAT.write(w, self, &[]).map(drop))
    }

    /// Read and fully validate a manifest file through the fault plane
    /// ([`torchgt_faults::read_file`]) and the self-healing ladder, like
    /// every other framed file: a planned transient error is retried, a
    /// torn or flipped read re-read once.
    pub fn load(path: &Path) -> io::Result<Self> {
        Self::load_counting(path, &mut 0)
    }

    /// [`Manifest::load`], adding the ladder's retries to `retries`.
    fn load_counting(path: &Path, retries: &mut u64) -> io::Result<Self> {
        frame::read_healing(path, &torchgt_obs::noop(), retries, || {
            Self::read_from(&torchgt_faults::read_file(path)?)
        })
    }

    /// Read the manifest of the dataset directory `dir` and hold every
    /// entry's `bytes` to its shard file's length. [`Manifest::validate`]
    /// bounds each size a reader derives from the manifest by those `bytes`;
    /// this ties the `bytes` to the disk, so an entry that inflates (or
    /// deflates) them is refused here, before anything is sized by it.
    pub fn load_dir(dir: &Path) -> io::Result<Self> {
        Self::load_dir_counting(dir, &mut 0)
    }

    /// [`Manifest::load_dir`], adding the manifest read's retries to
    /// `retries` (a loader's [`crate::LoaderStats::retries`]).
    pub(crate) fn load_dir_counting(dir: &Path, retries: &mut u64) -> io::Result<Self> {
        let manifest = Self::load_counting(&dir.join(MANIFEST_FILE), retries)?;
        for entry in &manifest.shards {
            let on_disk = std::fs::metadata(Self::shard_path(dir, entry))
                .map_err(|e| io::Error::new(e.kind(), format!("shard {}: {e}", entry.file)))?
                .len();
            if on_disk != entry.bytes {
                return Err(bad(format!(
                    "shard {} is {on_disk} bytes on disk, the manifest declares {}",
                    entry.file, entry.bytes
                )));
            }
        }
        Ok(manifest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use torchgt_compat::proptest::prelude::*;

    fn sample() -> Manifest {
        Manifest {
            format_version: MANIFEST_FORMAT_VERSION,
            kind: DatasetKind::OgbnArxiv,
            scale: 0.01,
            seed: 7,
            total_nodes: 300,
            feat_dim: 64,
            num_classes: 18,
            total_arcs: 1234,
            shard_nodes: 256,
            shards: vec![
                ShardEntry {
                    file: "shard-00000.tgds".to_string(),
                    node_start: 0,
                    node_count: 256,
                    num_arcs: 1100,
                    bytes: 74_000,
                    crc: 0xDEAD_BEEF,
                },
                ShardEntry {
                    file: "shard-00001.tgds".to_string(),
                    node_start: 256,
                    node_count: 44,
                    num_arcs: 134,
                    bytes: 13_000,
                    crc: 0x1234_5678,
                },
            ],
        }
    }

    #[test]
    fn byte_round_trip_and_stable_hash() {
        let m = sample();
        let back = Manifest::read_from(m.to_bytes().unwrap().as_slice()).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.hash(), m.hash());
        assert!(m.hash().starts_with("tgds-") && m.hash().len() == 5 + 16);
        // Identity is content-sensitive: a different seed is a different
        // dataset.
        let mut other = m.clone();
        other.seed = 8;
        assert_ne!(other.hash(), m.hash());
    }

    #[test]
    fn every_single_byte_corruption_is_rejected() {
        let m = sample();
        let bytes = m.to_bytes().unwrap();
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x01;
            match Manifest::read_from(corrupt.as_slice()) {
                Err(_) => {}
                Ok(decoded) => {
                    assert_ne!(decoded, m, "byte {i}: corruption accepted verbatim")
                }
            }
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let m = sample();
        let bytes = m.to_bytes().unwrap();
        for len in 0..bytes.len() {
            assert!(
                Manifest::read_from(&bytes[..len]).is_err(),
                "truncation to {len} bytes accepted"
            );
        }
    }

    #[test]
    fn trailing_junk_is_rejected() {
        let m = sample();
        let mut bytes = m.to_bytes().unwrap();
        bytes.push(b'x');
        assert!(Manifest::read_from(bytes.as_slice()).is_err());
    }

    #[test]
    fn non_contiguous_coverage_is_rejected() {
        let mut m = sample();
        m.shards[1].node_start = 300; // gap after shard 0
        assert!(Manifest::read_from(m.to_bytes().unwrap().as_slice()).is_err());
        let mut m = sample();
        m.total_arcs += 1;
        assert!(Manifest::read_from(m.to_bytes().unwrap().as_slice()).is_err());
    }

    #[test]
    fn shapes_beyond_the_declared_bytes_are_rejected() {
        // One byte short of shard 0's payload: (256 x (64 + 3) + 1100) x 4.
        let mut m = sample();
        m.shards[0].bytes = 73_007;
        let err = Manifest::read_from(m.to_bytes().unwrap().as_slice()).unwrap_err();
        assert!(err.to_string().contains("more than its 73007 bytes hold"), "{err}");
        // A feature dimension whose product with the node count overflows.
        let mut m = sample();
        m.feat_dim = u64::MAX / 2;
        let err = Manifest::read_from(m.to_bytes().unwrap().as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    proptest! {
        #[test]
        fn random_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..256)) {
            let _ = Manifest::read_from(bytes.as_slice());
        }
    }
}
