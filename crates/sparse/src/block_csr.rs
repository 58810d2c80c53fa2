//! Block-CSR storage for the cluster-sparse attention pattern.
//!
//! The Elastic Computation Reformation produces a mask whose nonzeros are
//! organised into dense `d_b × d_b` sub-blocks. Storing that mask as plain
//! CSR throws the structure away; this block-compressed format keeps each
//! sub-block's entries contiguous in memory — the paper's "block-sparse
//! formats store data contiguously in memory, reducing storage overheads and
//! memory access" (§I, third insight). The criterion bench
//! `criterion_kernels` measures the real CPU-side locality win of gathering
//! through this format vs element-wise CSR.

use torchgt_graph::CsrGraph;

torchgt_compat::json_struct! {
    /// A boolean block-sparse matrix: `d_b × d_b` tiles, each tile a dense
    /// bitmap of which entries are active.
    #[derive(Clone, Debug)]
    pub struct BlockCsr {
        /// Tile edge length `d_b`.
        pub db: usize,
        /// Number of block rows (`⌈n / d_b⌉`).
        pub block_rows: usize,
        /// Number of block cols.
        pub block_cols: usize,
        /// CSR over blocks: `block_ptr[i]..block_ptr[i+1]` indexes `block_col`.
        block_ptr: Vec<usize>,
        /// Column (block) index of each stored tile.
        block_col: Vec<u32>,
        /// Dense bitmaps, `db*db` bits per tile packed as bytes row-major.
        bitmaps: Vec<u8>,
    }
}

impl BlockCsr {
    /// Convert a CSR mask into block-CSR with tile size `db`.
    pub fn from_mask(mask: &CsrGraph, db: usize) -> Self {
        assert!(db >= 1);
        let n = mask.num_nodes();
        let block_rows = n.div_ceil(db);
        let block_cols = block_rows;
        let bytes_per_tile = (db * db).div_ceil(8);
        let mut block_ptr = vec![0usize; block_rows + 1];
        let mut block_col: Vec<u32> = Vec::new();
        let mut bitmaps: Vec<u8> = Vec::new();
        // Scratch: block-col -> tile index in the current block row.
        let mut tile_of: Vec<isize> = vec![-1; block_cols];
        for br in 0..block_rows {
            let row_start_tile = block_col.len();
            let r0 = br * db;
            let r1 = ((br + 1) * db).min(n);
            for r in r0..r1 {
                for &c in mask.neighbors(r) {
                    let bc = c as usize / db;
                    let tile = if tile_of[bc] >= 0 {
                        tile_of[bc] as usize
                    } else {
                        let t = block_col.len();
                        block_col.push(bc as u32);
                        bitmaps.resize(bitmaps.len() + bytes_per_tile, 0);
                        tile_of[bc] = t as isize;
                        t
                    };
                    let lr = r - r0;
                    let lc = c as usize - bc * db;
                    let bit = lr * db + lc;
                    bitmaps[tile * bytes_per_tile + bit / 8] |= 1 << (bit % 8);
                }
            }
            // Sort this block row's tiles by block column for determinism.
            let row_tiles = block_col.len() - row_start_tile;
            if row_tiles > 1 {
                let mut order: Vec<usize> = (0..row_tiles).collect();
                order.sort_unstable_by_key(|&i| block_col[row_start_tile + i]);
                let cols: Vec<u32> =
                    order.iter().map(|&i| block_col[row_start_tile + i]).collect();
                let maps: Vec<u8> = order
                    .iter()
                    .flat_map(|&i| {
                        let base = (row_start_tile + i) * bytes_per_tile;
                        bitmaps[base..base + bytes_per_tile].to_vec()
                    })
                    .collect();
                block_col[row_start_tile..].copy_from_slice(&cols);
                bitmaps[row_start_tile * bytes_per_tile..].copy_from_slice(&maps);
            }
            // Reset scratch.
            for t in row_start_tile..block_col.len() {
                tile_of[block_col[t] as usize] = -1;
            }
            block_ptr[br + 1] = block_col.len();
        }
        Self { db, block_rows, block_cols, block_ptr, block_col, bitmaps }
    }

    /// Number of stored tiles.
    pub fn num_blocks(&self) -> usize {
        self.block_col.len()
    }

    /// Number of active entries across all tiles.
    pub fn nnz(&self) -> usize {
        self.bitmaps.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Whether entry `(r, c)` is active.
    pub fn contains(&self, r: usize, c: usize) -> bool {
        let db = self.db;
        let br = r / db;
        if br >= self.block_rows {
            return false;
        }
        let bc = (c / db) as u32;
        let bytes_per_tile = (db * db).div_ceil(8);
        for t in self.block_ptr[br]..self.block_ptr[br + 1] {
            if self.block_col[t] == bc {
                let bit = (r % db) * db + (c % db);
                return self.bitmaps[t * bytes_per_tile + bit / 8] & (1 << (bit % 8)) != 0;
            }
        }
        false
    }

    /// Iterate the active `(row, col)` pairs of one block row, tile by tile
    /// (the kernel traversal order: contiguous within tiles).
    pub fn block_row_entries(&self, br: usize) -> Vec<(u32, u32)> {
        let db = self.db;
        let bytes_per_tile = (db * db).div_ceil(8);
        let mut out = Vec::new();
        for t in self.block_ptr[br]..self.block_ptr[br + 1] {
            let bc = self.block_col[t] as usize;
            for bit in 0..db * db {
                if self.bitmaps[t * bytes_per_tile + bit / 8] & (1 << (bit % 8)) != 0 {
                    let r = br * db + bit / db;
                    let c = bc * db + bit % db;
                    out.push((r as u32, c as u32));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use torchgt_graph::generators::{clustered_power_law, complete_graph, path_graph, ClusteredConfig};
    use torchgt_graph::partition::{cluster_order, partition};

    #[test]
    fn roundtrip_contains_matches_csr() {
        let g = path_graph(20).with_self_loops();
        let b = BlockCsr::from_mask(&g, 4);
        for r in 0..20 {
            for c in 0..20 {
                assert_eq!(b.contains(r, c), g.has_edge(r, c), "({r},{c})");
            }
        }
        assert_eq!(b.nnz(), g.num_arcs());
    }

    #[test]
    fn complete_graph_fills_tiles() {
        let g = complete_graph(16).with_self_loops();
        let b = BlockCsr::from_mask(&g, 4);
        assert_eq!(b.num_blocks(), 16); // 4×4 block grid, all present
        assert_eq!(b.nnz(), 16 * 4 * 4); // and every tile full
    }

    #[test]
    fn reformed_masks_are_denser_per_block_than_raw() {
        let (g, _) = clustered_power_law(
            ClusteredConfig { n: 600, communities: 6, avg_degree: 8.0, intra_fraction: 0.85 },
            3,
        );
        let assign = partition(&g, 6, 1);
        let order = cluster_order(&assign, 6);
        let pg = g.permute(&order.perm).with_self_loops();
        let raw = BlockCsr::from_mask(&pg, 8);
        let reformed = crate::reform::reform(
            &pg,
            &order,
            crate::reform::ReformConfig { db: 8, beta_thre: 1.0 },
        );
        let blocked = BlockCsr::from_mask(&reformed.mask, 8);
        // Mean tile fill is `nnz / (tiles · d_b²)` — the quantity the
        // reformation maximises — so at equal `d_b`, denser means fewer
        // tiles per nonzero.
        let raw_tiles_per_nnz = raw.num_blocks() as f64 / raw.nnz() as f64;
        let ref_tiles_per_nnz = blocked.num_blocks() as f64 / blocked.nnz() as f64;
        assert!(ref_tiles_per_nnz < raw_tiles_per_nnz);
    }

    #[test]
    fn block_row_entries_cover_all_nnz() {
        let g = path_graph(13).with_self_loops();
        let b = BlockCsr::from_mask(&g, 4);
        let mut total = 0;
        for br in 0..b.block_rows {
            for (r, c) in b.block_row_entries(br) {
                assert!(g.has_edge(r as usize, c as usize));
                total += 1;
            }
        }
        assert_eq!(total, g.num_arcs());
    }

    #[test]
    fn db_one_degenerates_to_csr() {
        let g = path_graph(6);
        let b = BlockCsr::from_mask(&g, 1);
        assert_eq!(b.nnz(), g.num_arcs());
        assert_eq!(b.num_blocks(), g.num_arcs());
    }
}
