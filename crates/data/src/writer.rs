//! Streaming shard generation: papers100M-statistics stand-ins written to
//! disk **without ever holding the full graph**.
//!
//! [`generate_to_dir`] drives [`DatasetKind::stream_node`] into a two-phase
//! sink:
//!
//! 1. **Edge phase** — every generated edge `u—v` is spilled as two arcs
//!    (`u→v` into the shard owning `u`, `v→u` into the shard owning `v`) to
//!    per-shard temporary files. Nothing but `O(n)` generator state and one
//!    buffered writer per shard is resident.
//! 2. **Node phase** — node records arrive in id order. When the stream
//!    enters shard `k`, that shard's spill file is read back into adjacency
//!    rows (`O(shard)` memory), and the shard's features/labels/communities
//!    accumulate as records arrive; at the shard boundary the rows are
//!    sorted and deduplicated (exactly the `CsrGraph::from_edges`
//!    semantics), the `TGDS` file is published atomically, and the spill is
//!    deleted.
//!
//! Peak memory is `O(n + shard_nodes · (feat_dim + avg_degree))`: the
//! generator's own `O(n)` labels plus a single shard — tunable via
//! `shard_nodes`, independent of total dataset size. The resulting shards
//! are bit-identical to slicing the in-memory
//! [`torchgt_graph::NodeDataset`], which is what makes disk-fed training
//! loss histories match the in-memory path exactly.

use crate::manifest::{Manifest, ShardEntry, MANIFEST_FILE, MANIFEST_FORMAT_VERSION};
use crate::shard::Shard;
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use torchgt_ckpt::frame::{self, bad};
use torchgt_graph::datasets::{DatasetKind, EffectiveSpec, NodeSink};

/// What [`generate_to_dir`] produced.
#[derive(Clone, Debug)]
pub struct DatagenReport {
    /// The published manifest.
    pub manifest: Manifest,
    /// The manifest's stable identity hash.
    pub hash: String,
    /// Effective (post-clamp) generation parameters.
    pub effective: EffectiveSpec,
    /// Total bytes across all shard files (manifest excluded).
    pub total_bytes: u64,
}

fn spill_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("spill-{shard:05}.tmp"))
}

fn shard_file_name(shard: usize) -> String {
    format!("shard-{shard:05}.tgds")
}

struct StreamingWriter {
    dir: PathBuf,
    shard_nodes: usize,
    total_nodes: usize,
    feat_dim: usize,
    /// One spill writer per shard during the edge phase; dropped (flushed)
    /// when the first node record arrives.
    spills: Vec<Option<BufWriter<File>>>,
    in_edge_phase: bool,
    /// Node-phase state for the shard currently being assembled.
    cur_shard: usize,
    adj: Vec<Vec<u32>>,
    features: Vec<f32>,
    labels: Vec<u32>,
    community: Vec<u32>,
    entries: Vec<ShardEntry>,
    total_bytes: u64,
    /// First I/O error; the sink interface is infallible, so errors latch
    /// here and short-circuit the rest of the stream.
    err: Option<io::Error>,
}

impl StreamingWriter {
    fn new(dir: &Path, shard_nodes: usize, eff: EffectiveSpec) -> io::Result<Self> {
        let num_shards = eff.nodes.div_ceil(shard_nodes);
        let mut spills = Vec::with_capacity(num_shards);
        for s in 0..num_shards {
            spills.push(Some(BufWriter::new(File::create(spill_path(dir, s))?)));
        }
        Ok(Self {
            dir: dir.to_path_buf(),
            shard_nodes,
            total_nodes: eff.nodes,
            feat_dim: eff.feat_dim,
            spills,
            in_edge_phase: true,
            cur_shard: 0,
            adj: Vec::new(),
            features: Vec::new(),
            labels: Vec::new(),
            community: Vec::new(),
            entries: Vec::new(),
            total_bytes: 0,
            err: None,
        })
    }

    fn spill_arc(&mut self, owner: u32, neighbor: u32) -> io::Result<()> {
        let w = self.spills[owner as usize / self.shard_nodes]
            .as_mut()
            .expect("edge phase still open");
        w.write_all(&owner.to_le_bytes())?;
        w.write_all(&neighbor.to_le_bytes())
    }

    /// Close the spill writers and open the node phase on shard 0.
    fn finish_edge_phase(&mut self) -> io::Result<()> {
        for s in &mut self.spills {
            if let Some(w) = s.take() {
                w.into_inner().map_err(|e| e.into_error())?.sync_all()?;
            }
        }
        self.in_edge_phase = false;
        self.begin_shard(0)
    }

    /// Read shard `k`'s spilled arcs back into adjacency rows and reset the
    /// node-record buffers.
    fn begin_shard(&mut self, k: usize) -> io::Result<()> {
        self.cur_shard = k;
        let start = k * self.shard_nodes;
        let count = self.shard_nodes.min(self.total_nodes - start);
        self.adj.clear();
        self.adj.resize(count, Vec::new());
        self.features.clear();
        self.labels.clear();
        self.community.clear();
        let path = spill_path(&self.dir, k);
        let mut r = BufReader::new(File::open(&path)?);
        let mut rec = [0u8; 8];
        loop {
            match r.read_exact(&mut rec) {
                Ok(()) => {
                    let owner = u32::from_le_bytes(rec[0..4].try_into().unwrap());
                    let neighbor = u32::from_le_bytes(rec[4..8].try_into().unwrap());
                    self.adj[owner as usize - start].push(neighbor);
                }
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => break,
                Err(e) => return Err(e),
            }
        }
        drop(r);
        fs::remove_file(&path)
    }

    /// Sort/dedup rows, publish the `TGDS` file, record its entry.
    fn finalize_shard(&mut self) -> io::Result<()> {
        let start = self.cur_shard * self.shard_nodes;
        let count = self.adj.len();
        let mut row_ptr = Vec::with_capacity(count + 1);
        row_ptr.push(0usize);
        let mut col_idx = Vec::new();
        for row in &mut self.adj {
            // from_edges semantics: arcs are globally sorted and
            // deduplicated, which per row is exactly sort + dedup.
            row.sort_unstable();
            row.dedup();
            col_idx.extend_from_slice(row);
            row_ptr.push(col_idx.len());
        }
        let shard = Shard {
            shard_index: self.cur_shard,
            node_start: start,
            node_count: count,
            total_nodes: self.total_nodes,
            feat_dim: self.feat_dim,
            features: std::mem::take(&mut self.features),
            labels: std::mem::take(&mut self.labels),
            community: std::mem::take(&mut self.community),
            row_ptr,
            col_idx,
        };
        let mut bytes = Vec::new();
        let crc = shard.write_to(&mut bytes)?;
        let file = shard_file_name(self.cur_shard);
        frame::publish(&self.dir.join(&file), false, |w| w.write_all(&bytes))?;
        self.entries.push(ShardEntry {
            file,
            node_start: start as u64,
            node_count: count as u64,
            num_arcs: shard.col_idx.len() as u64,
            bytes: bytes.len() as u64,
            crc,
        });
        self.total_bytes += bytes.len() as u64;
        Ok(())
    }

    fn push_node(&mut self, v: u32, label: u32, community: u32, features: &[f32]) -> io::Result<()> {
        if self.in_edge_phase {
            self.finish_edge_phase()?;
        }
        let v = v as usize;
        if v / self.shard_nodes != self.cur_shard {
            self.finalize_shard()?;
            self.begin_shard(v / self.shard_nodes)?;
        }
        self.labels.push(label);
        self.community.push(community);
        self.features.extend_from_slice(features);
        Ok(())
    }

    /// Finalize the last shard and return the shard entries.
    fn finish(mut self) -> io::Result<(Vec<ShardEntry>, u64)> {
        if let Some(e) = self.err.take() {
            return Err(e);
        }
        if self.in_edge_phase {
            // Degenerate: a dataset with zero node records cannot exist
            // (effective() floors n at 256), but fail cleanly anyway.
            return Err(bad("node stream produced no records"));
        }
        self.finalize_shard()?;
        Ok((self.entries, self.total_bytes))
    }
}

impl NodeSink for StreamingWriter {
    fn edge(&mut self, u: u32, v: u32) {
        if self.err.is_some() {
            return;
        }
        let r = self.spill_arc(u, v).and_then(|()| {
            if u != v {
                self.spill_arc(v, u)
            } else {
                Ok(())
            }
        });
        if let Err(e) = r {
            self.err = Some(e);
        }
    }

    fn node(&mut self, v: u32, label: u32, community: u32, features: &[f32]) {
        if self.err.is_some() {
            return;
        }
        if let Err(e) = self.push_node(v, label, community, features) {
            self.err = Some(e);
        }
    }
}

/// Generate the node-level dataset `kind` at `scale` with `seed` into `dir`
/// as `TGDS` shards of `shard_nodes` nodes plus a `TGDM` manifest, streaming
/// throughout — the full graph is never resident. Returns the manifest and
/// its identity hash.
pub fn generate_to_dir(
    kind: DatasetKind,
    scale: f64,
    seed: u64,
    dir: &Path,
    shard_nodes: usize,
) -> io::Result<DatagenReport> {
    if shard_nodes == 0 {
        return Err(bad("shard_nodes must be >= 1"));
    }
    fs::create_dir_all(dir)?;
    let eff = kind.effective(scale);
    let mut writer = StreamingWriter::new(dir, shard_nodes, eff)?;
    let eff = kind.stream_node(scale, seed, &mut writer);
    let (entries, total_bytes) = writer.finish()?;
    let manifest = Manifest {
        format_version: MANIFEST_FORMAT_VERSION,
        kind,
        scale,
        seed,
        total_nodes: eff.nodes as u64,
        feat_dim: eff.feat_dim as u64,
        num_classes: eff.classes as u64,
        total_arcs: entries.iter().map(|e| e.num_arcs).sum(),
        shard_nodes: shard_nodes as u64,
        shards: entries,
    };
    manifest.save(&dir.join(MANIFEST_FILE))?;
    let hash = manifest.hash();
    Ok(DatagenReport { manifest, hash, effective: eff, total_bytes })
}

/// Reassemble the full in-memory [`torchgt_graph::NodeDataset`] from a
/// sharded dataset directory, verifying every shard's CRC against the
/// manifest. The inverse of [`generate_to_dir`]: the result is bit-identical
/// to `kind.generate_node(scale, seed)`. Use only when the dataset is known
/// to fit in RAM (calibration, tests, the `freeze` path); trainers should
/// stream through [`crate::ShardLoader`] instead.
pub fn load_node_dataset(dir: &Path) -> io::Result<torchgt_graph::NodeDataset> {
    use torchgt_graph::{CsrGraph, Split};
    let manifest = Manifest::load_dir(dir)?;
    // The manifest's validation bounds these by the shard entries' bytes;
    // what is left is a dataset that is honestly too large for this host.
    let size = |words: u64| usize::try_from(words).map_err(|_| bad("dataset exceeds the address space"));
    let (n, feat_dim) = (size(manifest.total_nodes)?, size(manifest.feat_dim)?);
    let feature_words =
        n.checked_mul(feat_dim).ok_or_else(|| bad("dataset exceeds the address space"))?;
    let mut features = Vec::with_capacity(feature_words);
    let mut labels = Vec::with_capacity(n);
    let mut community = Vec::with_capacity(n);
    let mut row_ptr = Vec::with_capacity(n + 1);
    row_ptr.push(0usize);
    let mut col_idx = Vec::with_capacity(size(manifest.total_arcs)?);
    for entry in &manifest.shards {
        let shard = read_verified_shard(dir, entry)?;
        if shard.node_start as u64 != entry.node_start
            || shard.node_count as u64 != entry.node_count
            || shard.feat_dim != feat_dim
            || shard.total_nodes != n
        {
            return Err(bad(format!(
                "shard {} disagrees with its manifest entry",
                entry.file
            )));
        }
        features.extend_from_slice(&shard.features);
        labels.extend_from_slice(&shard.labels);
        community.extend_from_slice(&shard.community);
        let base = col_idx.len();
        col_idx.extend_from_slice(&shard.col_idx);
        row_ptr.extend(shard.row_ptr[1..].iter().map(|&p| base + p));
    }
    let graph = CsrGraph::from_raw(row_ptr, col_idx);
    let split = Split::standard(n, manifest.seed ^ DatasetKind::SPLIT_SEED_XOR);
    Ok(torchgt_graph::NodeDataset {
        kind: manifest.kind,
        graph,
        features,
        feat_dim,
        labels,
        num_classes: manifest.num_classes as usize,
        community,
        split,
    })
}

/// Read a shard file, checking its size and whole-file CRC against the
/// manifest entry. Self-healing: see [`read_verified_shard_into`].
pub(crate) fn read_verified_shard(dir: &Path, entry: &ShardEntry) -> io::Result<Shard> {
    let mut shard = Shard::default();
    read_verified_shard_into(&mut shard, &mut Vec::new(), dir, entry, &torchgt_obs::noop(), &mut 0)?;
    Ok(shard)
}

/// Self-healing verified shard read into `shard` (whose buffers are
/// reused), through `bytes` (whose allocation is reused too):
/// [`frame::read_healing`] over a read through the shared fault plane
/// ([`torchgt_faults::read_file_into`]), then **quarantine** of whatever
/// still fails — the error is a typed [`crate::ShardQuarantined`] naming the
/// path and the underlying reason, and a `SHARD_QUARANTINED` event is
/// emitted. `retries_out` counts the ladder's retries (the loader surfaces
/// it as `LoaderStats::retries`).
pub(crate) fn read_verified_shard_into(
    shard: &mut Shard,
    bytes: &mut Vec<u8>,
    dir: &Path,
    entry: &ShardEntry,
    recorder: &torchgt_obs::RecorderHandle,
    retries_out: &mut u64,
) -> io::Result<()> {
    let path = Manifest::shard_path(dir, entry);
    frame::read_healing(&path, recorder, retries_out, || {
        read_verified_shard_once(shard, bytes, &path, entry)
    })
    .map_err(|e| {
        let quarantined = crate::ShardQuarantined {
            path: path.display().to_string(),
            reason: e.to_string(),
        };
        if recorder.enabled() {
            recorder.event(torchgt_obs::Event::shard_quarantined(
                &quarantined.path,
                &quarantined.reason,
            ));
            recorder.counter_add("shards_quarantined", 1);
        }
        io::Error::new(io::ErrorKind::InvalidData, quarantined)
    })
}

/// One verification pass: read (through the fault plane), check the size
/// against the manifest entry, verify and parse the frame, and hold the
/// whole-file CRC the parse derived against the entry's — every byte is
/// hashed once.
fn read_verified_shard_once(
    shard: &mut Shard,
    bytes: &mut Vec<u8>,
    path: &Path,
    entry: &ShardEntry,
) -> io::Result<()> {
    torchgt_faults::read_file_into(path, bytes)?;
    if bytes.len() as u64 != entry.bytes {
        return Err(bad(format!(
            "shard {} is {} bytes, manifest says {}",
            entry.file,
            bytes.len(),
            entry.bytes
        )));
    }
    if shard.read_into(bytes)? != entry.crc {
        return Err(bad(format!(
            "shard {} content CRC mismatch against the manifest",
            entry.file
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("torchgt_data_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn streamed_shards_reassemble_the_in_memory_dataset() {
        let _g = crate::test_fault_gate();
        let dir = tmpdir("roundtrip");
        let (kind, scale, seed) = (DatasetKind::OgbnArxiv, 0.005, 11);
        let report = generate_to_dir(kind, scale, seed, &dir, 200).unwrap();
        assert!(report.manifest.shards.len() >= 2, "want a multi-shard dataset");
        assert_eq!(report.manifest.total_nodes as usize, report.effective.nodes);
        // No spill files may survive generation.
        for f in fs::read_dir(&dir).unwrap() {
            let name = f.unwrap().file_name();
            let name = name.to_string_lossy();
            assert!(!name.ends_with(".tmp"), "leftover temp file {name}");
        }
        let from_disk = load_node_dataset(&dir).unwrap();
        let in_memory = kind.generate_node(scale, seed);
        assert_eq!(from_disk.graph, in_memory.graph);
        assert_eq!(from_disk.features, in_memory.features);
        assert_eq!(from_disk.labels, in_memory.labels);
        assert_eq!(from_disk.community, in_memory.community);
        assert_eq!(from_disk.split.train, in_memory.split.train);
        assert_eq!(from_disk.num_classes, in_memory.num_classes);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn entries_record_the_file_crc_and_the_reader_holds_shards_to_it() {
        let _g = crate::test_fault_gate();
        let dir = tmpdir("entry_crc");
        let report = generate_to_dir(DatasetKind::OgbnArxiv, 0.002, 5, &dir, 128).unwrap();
        // The CRC the writer derived without a second pass over the
        // payload is the CRC of the bytes on disk.
        for entry in &report.manifest.shards {
            let bytes = fs::read(Manifest::shard_path(&dir, entry)).unwrap();
            assert_eq!(torchgt_ckpt::crc32(&bytes), entry.crc, "{}", entry.file);
            assert_eq!(bytes.len() as u64, entry.bytes);
        }
        // A self-consistent shard that is not the one the manifest lists
        // (same size, valid frame) is still refused: the whole-file CRC the
        // parse derives is held against the entry's.
        let mut entry = report.manifest.shards[0].clone();
        read_verified_shard(&dir, &entry).unwrap();
        entry.crc ^= 1;
        let err = read_verified_shard(&dir, &entry).unwrap_err().to_string();
        assert!(err.contains("content CRC mismatch against the manifest"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_hash_tracks_generation_parameters() {
        let _g = crate::test_fault_gate();
        let dir_a = tmpdir("hash_a");
        let dir_b = tmpdir("hash_b");
        let a = generate_to_dir(DatasetKind::OgbnArxiv, 0.003, 1, &dir_a, 200).unwrap();
        let b = generate_to_dir(DatasetKind::OgbnArxiv, 0.003, 2, &dir_b, 200).unwrap();
        assert_ne!(a.hash, b.hash, "different seeds are different datasets");
        // Same parameters regenerate to the identical hash.
        let dir_c = tmpdir("hash_c");
        let c = generate_to_dir(DatasetKind::OgbnArxiv, 0.003, 1, &dir_c, 200).unwrap();
        assert_eq!(a.hash, c.hash);
        for d in [dir_a, dir_b, dir_c] {
            fs::remove_dir_all(&d).unwrap();
        }
    }

    #[test]
    fn tampered_shard_is_refused_by_the_verified_reader() {
        let _g = crate::test_fault_gate();
        let dir = tmpdir("tamper");
        let report = generate_to_dir(DatasetKind::OgbnArxiv, 0.002, 5, &dir, 128).unwrap();
        let entry = &report.manifest.shards[0];
        let path = Manifest::shard_path(&dir, entry);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert!(read_verified_shard(&dir, entry).is_err());
        assert!(load_node_dataset(&dir).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }
}
