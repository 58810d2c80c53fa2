//! The on-disk `TGDS` shard format: a [`torchgt_ckpt::frame`] container
//! whose manifest records the shard's node range and dimensions, and whose
//! payload is, packed LE:
//!
//! ```text
//! features   node_count * feat_dim  f32
//! labels     node_count             u32
//! community  node_count             u32
//! row_lens   node_count             u32
//! col_idx    num_arcs               u32
//! ```
//!
//! A shard holds the contiguous node range `[node_start, node_start +
//! node_count)` of one dataset: per-node features, labels, planted
//! communities, and the node's **full, sorted, deduplicated adjacency row in
//! global ids**. Concatenating every shard's rows therefore reassembles the
//! whole graph's CSR exactly (`CsrGraph::from_raw`), and any window of rows
//! yields an induced subgraph without touching other shards.
//!
//! On top of what the frame verifies, readers check the declared shapes
//! against the payload and the structural invariants (row sums, neighbor
//! bounds, sortedness), all *before* any data is handed out.

use std::io::{self, Write};
use torchgt_ckpt::crc32;
use torchgt_ckpt::frame::{self, bad, Format};

/// Current `TGDS` shard format version.
pub const SHARD_FORMAT_VERSION: u32 = 1;

/// The `TGDS` frame.
pub const FORMAT: Format =
    Format { magic: *b"TGDS", name: "shard", versions: SHARD_FORMAT_VERSION..=SHARD_FORMAT_VERSION };

torchgt_compat::json_struct! {
    /// The shard's JSON manifest (private — [`Shard`] is the public
    /// surface).
    #[derive(Clone, Debug, PartialEq)]
    struct ShardManifest {
        format_version: u32,
        shard_index: u64,
        node_start: u64,
        node_count: u64,
        total_nodes: u64,
        feat_dim: u64,
        num_arcs: u64,
        payload_len: u64,
        payload_crc: u32,
    }
}

/// One contiguous slice of a node-level dataset, self-describing and
/// independently verifiable. The default value is the empty shard — what
/// [`std::mem::take`] leaves behind, and where [`Shard::read_into`] starts.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Shard {
    /// Position of this shard in the dataset's shard sequence.
    pub shard_index: usize,
    /// Global id of the first node in the shard.
    pub node_start: usize,
    /// Nodes in the shard.
    pub node_count: usize,
    /// Total nodes in the whole dataset (for neighbor-bound validation).
    pub total_nodes: usize,
    /// Feature dimension.
    pub feat_dim: usize,
    /// Row-major `[node_count, feat_dim]` features.
    pub features: Vec<f32>,
    /// Per-node labels.
    pub labels: Vec<u32>,
    /// Per-node planted communities.
    pub community: Vec<u32>,
    /// Local CSR offsets into `col_idx`, length `node_count + 1`.
    pub row_ptr: Vec<usize>,
    /// Concatenated adjacency rows: **global** neighbor ids, sorted and
    /// deduplicated within each row.
    pub col_idx: Vec<u32>,
}

impl Shard {
    /// Arcs (directed adjacency entries) stored in the shard.
    pub fn num_arcs(&self) -> usize {
        self.col_idx.len()
    }

    /// Global neighbor ids of the shard-local node `local`.
    pub fn neighbors(&self, local: usize) -> &[u32] {
        &self.col_idx[self.row_ptr[local]..self.row_ptr[local + 1]]
    }

    /// Feature row of the shard-local node `local`.
    pub fn feature_row(&self, local: usize) -> &[f32] {
        &self.features[local * self.feat_dim..(local + 1) * self.feat_dim]
    }

    /// Serialise to a writer as one `TGDS` frame; returns the CRC-32 of the
    /// bytes written (what a `TGDM` shard entry records), the payload
    /// having been hashed once.
    pub fn write_to<W: Write>(&self, mut w: W) -> io::Result<u32> {
        let mut payload = Vec::with_capacity(
            4 * (self.features.len() + 3 * self.node_count + self.col_idx.len()),
        );
        frame::put_f32s(&mut payload, &self.features);
        frame::put_u32s(&mut payload, &self.labels);
        frame::put_u32s(&mut payload, &self.community);
        let row_lens: Vec<u32> =
            self.row_ptr.windows(2).map(|w| (w[1] - w[0]) as u32).collect();
        frame::put_u32s(&mut payload, &row_lens);
        frame::put_u32s(&mut payload, &self.col_idx);
        let manifest = ShardManifest {
            format_version: SHARD_FORMAT_VERSION,
            shard_index: self.shard_index as u64,
            node_start: self.node_start as u64,
            node_count: self.node_count as u64,
            total_nodes: self.total_nodes as u64,
            feat_dim: self.feat_dim as u64,
            num_arcs: self.col_idx.len() as u64,
            payload_len: payload.len() as u64,
            payload_crc: crc32(&payload),
        };
        FORMAT.write(&mut w, &manifest, &payload)
    }

    /// Serialise to an owned byte buffer.
    pub fn to_bytes(&self) -> io::Result<Vec<u8>> {
        let mut buf = Vec::new();
        self.write_to(&mut buf)?;
        Ok(buf)
    }

    /// Deserialise one `TGDS` frame, verifying everything the frame does,
    /// that the declared shapes tile the payload exactly, and the
    /// structural invariants (consistent row lengths, in-bounds
    /// sorted-unique neighbor rows).
    pub fn read_from(bytes: &[u8]) -> io::Result<Self> {
        let mut shard = Self::default();
        shard.read_into(bytes)?;
        Ok(shard)
    }

    /// [`Shard::read_from`] into `self`, reusing its buffers (a streaming
    /// reader parses every shard of a pass into the same one), and
    /// returning the CRC-32 of all of `bytes` ([`Format::parse_hashed`])
    /// for the caller to hold against the dataset manifest's entry. On
    /// error `self` holds no particular shard.
    pub fn read_into(&mut self, bytes: &[u8]) -> io::Result<u32> {
        let (manifest, mut payload, file_crc): (ShardManifest, _, _) =
            FORMAT.parse_hashed(bytes)?;
        let node_count = manifest.node_count as usize;
        let feat_dim = manifest.feat_dim as usize;
        let num_arcs = manifest.num_arcs as usize;
        if node_count == 0 || feat_dim == 0 {
            return Err(bad("shard declares zero nodes or zero feature dim"));
        }
        let end = manifest.node_start.checked_add(manifest.node_count);
        if end.is_none_or(|end| end > manifest.total_nodes) {
            return Err(bad(format!(
                "shard range of {} nodes from {} exceeds total nodes {}",
                manifest.node_count, manifest.node_start, manifest.total_nodes
            )));
        }
        let feature_words =
            node_count.checked_mul(feat_dim).ok_or_else(|| bad("shard shape overflows"))?;
        // Every count below is checked against the payload before the
        // buffer it sizes grows.
        fn refill<T>(
            out: &mut Vec<T>,
            payload: &mut &[u8],
            n: usize,
            decode: impl Fn([u8; 4]) -> T,
        ) -> io::Result<()> {
            out.clear();
            out.extend(frame::take_words(payload, n)?.map(decode));
            Ok(())
        }
        refill(&mut self.features, &mut payload, feature_words, f32::from_le_bytes)?;
        refill(&mut self.labels, &mut payload, node_count, u32::from_le_bytes)?;
        refill(&mut self.community, &mut payload, node_count, u32::from_le_bytes)?;
        let row_lens = frame::take_words(&mut payload, node_count)?.map(u32::from_le_bytes);
        refill(&mut self.col_idx, &mut payload, num_arcs, u32::from_le_bytes)?;
        frame::finish(payload)?;
        self.row_ptr.clear();
        self.row_ptr.reserve(node_count + 1);
        self.row_ptr.push(0);
        let mut acc = 0usize;
        for len in row_lens {
            acc += len as usize;
            self.row_ptr.push(acc);
        }
        if acc != num_arcs {
            return Err(bad(format!(
                "shard row lengths sum to {acc}, manifest declares {num_arcs} arcs"
            )));
        }
        for (local, w) in self.row_ptr.windows(2).enumerate() {
            let row = &self.col_idx[w[0]..w[1]];
            for pair in row.windows(2) {
                if pair[0] >= pair[1] {
                    return Err(bad(format!(
                        "shard row {local} is not sorted-unique"
                    )));
                }
            }
            if let Some(&last) = row.last() {
                if last as u64 >= manifest.total_nodes {
                    return Err(bad(format!(
                        "shard row {local} references node {last} >= total {}",
                        manifest.total_nodes
                    )));
                }
            }
        }
        self.shard_index = manifest.shard_index as usize;
        self.node_start = manifest.node_start as usize;
        self.node_count = node_count;
        self.total_nodes = manifest.total_nodes as usize;
        self.feat_dim = feat_dim;
        Ok(file_crc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use torchgt_compat::proptest::prelude::*;

    pub(crate) fn sample() -> Shard {
        Shard {
            shard_index: 1,
            node_start: 4,
            node_count: 3,
            total_nodes: 16,
            feat_dim: 2,
            features: vec![0.5, -1.0, 2.25, 0.0, 3.5, -0.125],
            labels: vec![1, 0, 2],
            community: vec![0, 0, 1],
            row_ptr: vec![0, 2, 2, 5],
            col_idx: vec![1, 5, 0, 4, 15],
        }
    }

    #[test]
    fn byte_round_trip() {
        let s = sample();
        let back = Shard::read_from(s.to_bytes().unwrap().as_slice()).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.neighbors(0), &[1, 5]);
        assert_eq!(back.neighbors(1), &[] as &[u32]);
        assert_eq!(back.feature_row(2), &[3.5, -0.125]);
    }

    #[test]
    fn every_single_byte_corruption_is_rejected() {
        let s = sample();
        let bytes = s.to_bytes().unwrap();
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x01;
            // A flip inside a JSON number can still decode — but then it
            // must decode to a *different* manifest, which the shape/CRC
            // cross-checks catch; everywhere else the read must fail.
            match Shard::read_from(corrupt.as_slice()) {
                Err(_) => {}
                Ok(decoded) => {
                    assert_ne!(decoded, s, "byte {i}: corruption accepted verbatim")
                }
            }
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let s = sample();
        let bytes = s.to_bytes().unwrap();
        for len in 0..bytes.len() {
            assert!(
                Shard::read_from(&bytes[..len]).is_err(),
                "truncation to {len} bytes accepted"
            );
        }
    }

    #[test]
    fn trailing_junk_is_rejected() {
        let s = sample();
        let mut bytes = s.to_bytes().unwrap();
        bytes.push(0);
        assert!(Shard::read_from(bytes.as_slice()).is_err());
    }

    #[test]
    fn future_version_is_rejected() {
        let s = sample();
        let mut bytes = s.to_bytes().unwrap();
        bytes[4] = 0xFF;
        assert!(Shard::read_from(bytes.as_slice()).is_err());
    }

    #[test]
    fn unsorted_rows_are_rejected() {
        let mut s = sample();
        s.col_idx = vec![5, 1, 0, 4, 15]; // first row descends
        assert!(Shard::read_from(s.to_bytes().unwrap().as_slice()).is_err());
    }

    #[test]
    fn out_of_bounds_neighbors_are_rejected() {
        let mut s = sample();
        s.col_idx[4] = 16; // == total_nodes
        assert!(Shard::read_from(s.to_bytes().unwrap().as_slice()).is_err());
    }

    proptest! {
        #[test]
        fn random_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..256)) {
            let _ = Shard::read_from(bytes.as_slice());
        }
    }
}
