//! Set-associative cache simulator and GPU-kernel occupancy model.
//!
//! The Auto Tuner's choice of sub-block dimension `d_b` (paper §III-D,
//! Figure 6) balances two opposing effects:
//!
//! * **cache locality** — larger sub-blocks reuse the same K/V rows more, so
//!   L1/L2 hit rates *rise* with `d_b`;
//! * **workload balance** — larger sub-blocks mean fewer thread blocks for
//!   the same number of edges, so SM occupancy *falls* with `d_b`.
//!
//! The hit rates here come from an actual LRU cache simulation of the
//! sub-block indexing kernel's address trace, not a curve fit; only the
//! occupancy model is analytic.

use crate::gpu::GpuSpec;

/// A set-associative LRU cache.
#[derive(Clone, Debug)]
pub struct Cache {
    line: usize,
    sets: usize,
    ways: usize,
    /// `tags[set * ways + way]`; `u64::MAX` = invalid.
    tags: Vec<u64>,
    /// LRU stamps, larger = more recent.
    stamps: Vec<u64>,
    clock: u64,
    hits: u64,
    accesses: u64,
}

impl Cache {
    /// Construct with total `capacity` bytes, `line` bytes per line and
    /// `ways` associativity.
    pub fn new(capacity: usize, line: usize, ways: usize) -> Self {
        assert!(line.is_power_of_two() && capacity >= line * ways);
        let sets = (capacity / line / ways).max(1);
        Self {
            line,
            sets,
            ways,
            tags: vec![u64::MAX; sets * ways],
            stamps: vec![0; sets * ways],
            clock: 0,
            hits: 0,
            accesses: 0,
        }
    }

    /// Access `addr`; returns true on hit. Misses fill the line (LRU
    /// eviction).
    pub fn access(&mut self, addr: u64) -> bool {
        self.clock += 1;
        self.accesses += 1;
        let line_addr = addr / self.line as u64;
        let set = (line_addr as usize) % self.sets;
        let base = set * self.ways;
        let slots = &mut self.tags[base..base + self.ways];
        if let Some(way) = slots.iter().position(|&t| t == line_addr) {
            self.stamps[base + way] = self.clock;
            self.hits += 1;
            return true;
        }
        // Miss: evict LRU way.
        let victim = (0..self.ways)
            .min_by_key(|&w| self.stamps[base + w])
            .expect("ways >= 1");
        self.tags[base + victim] = line_addr;
        self.stamps[base + victim] = self.clock;
        false
    }

    /// Hit rate so far.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }

    /// Total accesses so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }
}

/// Result of simulating the sub-block indexing kernel at one `d_b`.
#[derive(Clone, Copy, Debug)]
pub struct KernelProfile {
    /// Sub-block dimension simulated.
    pub db: usize,
    /// L1 hit rate (0..1).
    pub l1_hit: f64,
    /// L2 hit rate among L1 misses (0..1).
    pub l2_hit: f64,
    /// SM workload-balance occupancy (0..1).
    pub occupancy: f64,
    /// Relative kernel throughput (arbitrary units; normalise externally).
    pub throughput: f64,
}

/// Memory latencies in cycles used to score a profile (typical NVIDIA
/// figures: L1 ≈ 30, L2 ≈ 200, HBM ≈ 500).
const LAT_L1: f64 = 30.0;
const LAT_L2: f64 = 200.0;
const LAT_MEM: f64 = 500.0;

/// Simulate the cluster-sparse indexing kernel for `edges` edges packed into
/// `d_b × d_b` sub-blocks over a hidden dimension `d`, on the given GPU.
///
/// The kernel reads one Q row and one K row per computed pair (row-major
/// `f32`), sub-block by sub-block; sub-block anchors stride through the
/// cluster so distinct blocks touch disjoint regions (worst case for
/// inter-block locality, as in the paper's skewed graphs).
pub fn simulate_subblock_kernel(spec: &GpuSpec, edges: usize, db: usize, d: usize) -> KernelProfile {
    let db = db.max(1);
    let mut l1 = Cache::new(spec.l1_bytes, 128, 4);
    let mut l2 = Cache::new(spec.l2_bytes, 128, 8);
    let mut l2_accesses = 0u64;
    let mut l2_hits = 0u64;
    let row_bytes = (d * 4) as u64;
    let lines_per_row = (row_bytes as usize).div_ceil(128) as u64;
    let blocks = edges.div_ceil(db * db);
    // Deterministic scattered anchors: a multiplicative-hash walk.
    let mut anchor = 0x9E3779B9u64;
    let span = 1u64 << 24; // 16M-row address space (long sequence)
    for _ in 0..blocks {
        anchor = anchor.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let r0 = anchor % span;
        let c0 = (anchor >> 24) % span;
        for dr in 0..db as u64 {
            let q_base = (r0 + dr) * row_bytes;
            for l in 0..lines_per_row {
                let addr = q_base + l * 128;
                if !l1.access(addr) {
                    l2_accesses += 1;
                    if l2.access(addr) {
                        l2_hits += 1;
                    }
                }
            }
            for dc in 0..db as u64 {
                let k_base = (c0 + dc) * row_bytes + (1 << 40); // disjoint K region
                for l in 0..lines_per_row {
                    let addr = k_base + l * 128;
                    if !l1.access(addr) {
                        l2_accesses += 1;
                        if l2.access(addr) {
                            l2_hits += 1;
                        }
                    }
                }
            }
        }
    }
    let l1_hit = l1.hit_rate();
    let l2_hit = if l2_accesses > 0 { l2_hits as f64 / l2_accesses as f64 } else { 0.0 };
    let occupancy = load_balance_occupancy(spec, edges, db);
    // Average access latency (cycles) given the hierarchy hit rates.
    let avg_lat = l1_hit * LAT_L1 + (1.0 - l1_hit) * (l2_hit * LAT_L2 + (1.0 - l2_hit) * LAT_MEM);
    // Throughput: work per unit time ∝ occupancy / latency, per pair.
    let throughput = occupancy / avg_lat;
    KernelProfile { db, l1_hit, l2_hit, occupancy, throughput }
}

/// Workload-balance occupancy: with `B = ⌈edges / d_b²⌉` thread blocks and a
/// GPU that wants several blocks resident per SM, occupancy saturates at 1
/// for many small blocks and collapses when a few huge blocks cannot fill
/// the SMs (the paper's Figure 6(a) downward trend).
fn load_balance_occupancy(spec: &GpuSpec, edges: usize, db: usize) -> f64 {
    let blocks = edges.div_ceil(db * db).max(1);
    let wanted = spec.sm_count * 4; // healthy residency target
    (blocks as f64 / wanted as f64).min(1.0)
}

/// Pick the throughput-optimal `d_b` over the paper's candidate range
/// (powers of two from 2 to 128) by simulation — the Auto Tuner's
/// "ideal d_b considers both load balance and cache hit rate".
pub fn tune_db(spec: &GpuSpec, edges: usize, d: usize) -> usize {
    let mut best = (2, f64::MIN);
    for db in [2usize, 4, 8, 16, 32, 64, 128] {
        let p = simulate_subblock_kernel(spec, edges, db, d);
        if p.throughput > best.1 {
            best = (db, p.throughput);
        }
    }
    best.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_basic_hit_miss() {
        let mut c = Cache::new(1024, 64, 2);
        assert!(!c.access(0));
        assert!(c.access(4)); // same line
        assert!(!c.access(64)); // next line
        assert!(c.access(0)); // still resident
        assert_eq!(c.accesses(), 4);
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cache_lru_eviction() {
        // 2 ways, 1 set of interest: three distinct lines mapping to set 0.
        let mut c = Cache::new(128, 64, 2); // 1 set, 2 ways
        assert!(!c.access(0));
        assert!(!c.access(64));
        assert!(!c.access(128)); // evicts line 0 (LRU)
        assert!(!c.access(0)); // miss: was evicted
        assert!(c.access(128)); // recent line survives
    }

    #[test]
    fn hit_rates_rise_with_db() {
        let spec = GpuSpec::rtx3090();
        let small = simulate_subblock_kernel(&spec, 50_000, 2, 64);
        let large = simulate_subblock_kernel(&spec, 50_000, 32, 64);
        assert!(
            large.l1_hit > small.l1_hit,
            "L1 {} vs {}",
            large.l1_hit,
            small.l1_hit
        );
    }

    #[test]
    fn occupancy_falls_with_db() {
        let spec = GpuSpec::rtx3090();
        let o2 = load_balance_occupancy(&spec, 50_000, 2);
        let o64 = load_balance_occupancy(&spec, 50_000, 64);
        assert!(o2 > o64);
        assert!(o2 <= 1.0 && o64 > 0.0);
    }

    #[test]
    fn optimal_db_is_interior() {
        // The paper fits d_b = 16 on a 3090 with d = 64: the optimum must be
        // neither the smallest nor the largest candidate.
        let spec = GpuSpec::rtx3090();
        let db = tune_db(&spec, 200_000, 64);
        assert!((4..=64).contains(&db), "db = {db}");
    }

    #[test]
    fn kernel_profile_fields_are_sane() {
        let p = simulate_subblock_kernel(&GpuSpec::a100(), 10_000, 16, 64);
        assert!((0.0..=1.0).contains(&p.l1_hit));
        assert!((0.0..=1.0).contains(&p.l2_hit));
        assert!((0.0..=1.0).contains(&p.occupancy));
        assert!(p.throughput > 0.0);
    }
}
