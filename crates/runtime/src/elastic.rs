//! Layout changes of an elastic group: how sequence ownership moves when
//! the shrink rung of [`crate::distributed::train_distributed`] or the
//! closed-loop rebalancer ([`crate::rebalance`]) re-cuts the stream. A
//! scripted permanent [`RankLoss`] forces the ladder to that rung;
//! [`cluster_token_assignment`] is the balanced cut for an arbitrary live
//! set; [`reshard_exchange`] ships ownership from one assignment to the
//! next with a real all-to-all over the survivors, and [`tokens_conserved`]
//! is the invariant every such move must keep — no token lost, none
//! duplicated.

use crate::rebalance::weighted_token_assignment;
use torchgt_comm::DeviceGroup;

/// A scripted permanent rank loss for tests and the CLI's `--lose-rank`
/// flag: global rank `rank` dies at the start of epoch `epoch` and never
/// comes back (the crash refires on every retry while the rank is live,
/// which is exactly what forces the ladder to its shrink rung).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RankLoss {
    /// Global rank id that is lost.
    pub rank: usize,
    /// Epoch at whose start the loss strikes.
    pub epoch: usize,
}

impl std::str::FromStr for RankLoss {
    type Err = String;

    /// Parse the CLI's `<rank>@<epoch>` syntax, e.g. `1@3`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (r, e) = s
            .split_once('@')
            .ok_or_else(|| format!("expected <rank>@<epoch>, got {s:?}"))?;
        Ok(RankLoss {
            rank: r.trim().parse().map_err(|err| format!("bad rank in {s:?}: {err}"))?,
            epoch: e.trim().parse().map_err(|err| format!("bad epoch in {s:?}: {err}"))?,
        })
    }
}

/// Cluster-aware balanced token assignment for an arbitrary live set:
/// [`weighted_token_assignment`] with equal weights — contiguous chunks of
/// the cluster-sorted order, one per live rank, the first `n % p` ranks
/// taking the extra token. Returns `assignment[t] = global rank id owning
/// token t`.
pub fn cluster_token_assignment(clusters: &[u32], live: &[usize]) -> Vec<u32> {
    weighted_token_assignment(clusters, live, &vec![1.0; live.len()])
}

/// What a resharding all-to-all produced.
#[derive(Clone, Debug)]
pub struct ReshardOutcome {
    /// Token ids each live rank holds after the exchange, dense-rank order,
    /// each list sorted ascending.
    pub held: Vec<Vec<u32>>,
    /// Tokens whose (live) old owner shipped them to a different new owner.
    pub moved: usize,
    /// Tokens whose old owner is dead: re-materialised by the new owner
    /// from the deterministic preprocessing pipeline instead of exchanged.
    pub reloaded: usize,
}

/// Redistribute token ownership from assignment `old` to `new` with a real
/// all-to-all over the group's live ranks. Every rank ships the token ids
/// it owns under `old` to their `new` owner; tokens stranded on a dead rank
/// are claimed (re-materialised) by their new owner directly — in this
/// simulation sequence data is a pure function of the dataset and seed, so
/// "reloading" a shard is re-indexing, exactly like re-reading it from
/// shared storage in a real deployment. `new` must only target live ranks.
/// Panics unless the exchange conserved every token ([`tokens_conserved`]):
/// that is the invariant every layout change must keep.
pub fn reshard_exchange(group: &DeviceGroup, old: &[u32], new: &[u32]) -> ReshardOutcome {
    assert_eq!(old.len(), new.len(), "assignments must cover the same tokens");
    let membership = group.membership().clone();
    let m = &membership;
    let held = group.run(|comm| {
        let me = comm.global_rank() as u32;
        let p = comm.world_size();
        let mut chunks: Vec<Vec<f32>> = (0..p).map(|_| Vec::new()).collect();
        let mut mine: Vec<u32> = Vec::new();
        for (t, (&o, &n)) in old.iter().zip(new).enumerate() {
            let dest = m
                .dense_of(n as usize)
                .expect("new assignment must target a live rank");
            if m.is_live(o as usize) {
                if o == me {
                    chunks[dest].push(token_to_wire(t as u32));
                }
            } else if n == me {
                mine.push(t as u32);
            }
        }
        for received in comm.all_to_all(chunks) {
            mine.extend(received.into_iter().map(token_from_wire));
        }
        mine.sort_unstable();
        mine
    });
    let mut moved = 0usize;
    let mut reloaded = 0usize;
    for (&o, &n) in old.iter().zip(new) {
        if m.is_live(o as usize) {
            moved += usize::from(o != n);
        } else {
            reloaded += 1;
        }
    }
    assert!(tokens_conserved(old.len(), &held), "reshard lost or duplicated tokens");
    ReshardOutcome { held, moved, reloaded }
}

/// A token id as the `f32` word the collectives carry: its bits, not its
/// value (`t as f32` is exact only up to 2²⁴). The collectives move these
/// words and never do arithmetic on them, so every `u32` round-trips.
fn token_to_wire(t: u32) -> f32 {
    f32::from_bits(t)
}

/// Inverse of [`token_to_wire`].
fn token_from_wire(word: f32) -> u32 {
    word.to_bits()
}

/// True when `held` partitions `0..n` exactly: every token appears on
/// exactly one rank, none lost, none duplicated.
pub fn tokens_conserved(n: usize, held: &[Vec<u32>]) -> bool {
    let mut seen = vec![false; n];
    let mut count = 0usize;
    for list in held {
        for &t in list {
            let t = t as usize;
            if t >= n || seen[t] {
                return false;
            }
            seen[t] = true;
            count += 1;
        }
    }
    count == n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_loss_parses_rank_at_epoch() {
        let l: RankLoss = "1@3".parse().unwrap();
        assert_eq!(l, RankLoss { rank: 1, epoch: 3 });
        let l: RankLoss = " 2 @ 0 ".parse().unwrap();
        assert_eq!(l, RankLoss { rank: 2, epoch: 0 });
        assert!("nope".parse::<RankLoss>().is_err());
        assert!("a@1".parse::<RankLoss>().is_err());
        assert!("1@b".parse::<RankLoss>().is_err());
    }

    #[test]
    fn assignment_is_balanced_and_cluster_contiguous() {
        // 10 tokens, clusters [0,0,0,1,1,1,2,2,2,2], live global ranks {0,2,3}.
        let clusters = vec![0, 0, 0, 1, 1, 1, 2, 2, 2, 2];
        let live = vec![0usize, 2, 3];
        let a = cluster_token_assignment(&clusters, &live);
        assert_eq!(a.len(), 10);
        // Balanced: 10 = 4 + 3 + 3 in live order.
        let count = |g: u32| a.iter().filter(|&&x| x == g).count();
        assert_eq!(count(0), 4);
        assert_eq!(count(2), 3);
        assert_eq!(count(3), 3);
        // Only live ranks are targeted.
        assert!(a.iter().all(|&x| live.contains(&(x as usize))));
        // Stable sort keeps cluster 0's tokens (0,1,2) together on rank 0.
        assert_eq!(&a[0..3], &[0, 0, 0]);
    }

    #[test]
    fn conservation_detects_loss_and_duplication() {
        assert!(tokens_conserved(4, &[vec![0, 2], vec![1, 3]]));
        assert!(!tokens_conserved(4, &[vec![0, 2], vec![1]]), "token 3 lost");
        assert!(!tokens_conserved(4, &[vec![0, 2], vec![1, 2, 3]]), "token 2 duplicated");
        assert!(!tokens_conserved(2, &[vec![0, 1, 2]]), "token out of range");
        assert!(tokens_conserved(0, &[]));
    }

    /// Token ids used to travel as `t as f32`, exact only up to 2²⁴ (and
    /// `reshard_exchange` refused longer streams). As bits, every id
    /// survives both the codec and a real all-to-all — including the ids
    /// whose bit patterns are subnormals, infinities and NaNs.
    #[test]
    fn token_ids_straddling_two_to_the_24_survive_the_wire() {
        let ids = [0u32, 1, (1 << 24) - 1, 1 << 24, (1 << 24) + 1, 0x7F80_0000, 0x7FC0_0001, 0xFF80_0001, u32::MAX];
        for &t in &ids {
            assert_eq!(token_from_wire(token_to_wire(t)), t, "codec, id {t:#x}");
        }
        assert_ne!(((1u32 << 24) + 1) as f32 as u32, (1 << 24) + 1, "the value cast this replaces loses the id");
        // Rank 0 owns every id and ships the odd-indexed ones to rank 1.
        let held = DeviceGroup::new(2).run(|comm| {
            let mut chunks = vec![Vec::new(), Vec::new()];
            if comm.global_rank() == 0 {
                for (i, &t) in ids.iter().enumerate() {
                    chunks[i % 2].push(token_to_wire(t));
                }
            }
            let received = comm.all_to_all(chunks);
            received.into_iter().flatten().map(token_from_wire).collect::<Vec<u32>>()
        });
        let mut all: Vec<u32> = held.concat();
        all.sort_unstable();
        let mut want = ids.to_vec();
        want.sort_unstable();
        assert_eq!(all, want, "every id arrives exactly once, bit for bit");
        assert_eq!(held[1], ids.iter().skip(1).step_by(2).copied().collect::<Vec<u32>>());
    }

    #[test]
    fn reshard_moves_shards_to_their_new_owners() {
        let mut group = DeviceGroup::new(4);
        // Initial even split of 8 tokens over 4 ranks.
        let clusters: Vec<u32> = (0..8).collect();
        let old = cluster_token_assignment(&clusters, group.membership().live_ranks());
        group.remove_rank(1).unwrap();
        let new = cluster_token_assignment(&clusters, group.membership().live_ranks());
        let out = reshard_exchange(&group, &old, &new);
        assert!(tokens_conserved(8, &out.held));
        // Rank 1's two tokens had a dead owner → re-materialised.
        assert_eq!(out.reloaded, 2);
        // held is in dense order over live ranks {0, 2, 3}; each rank holds
        // exactly the tokens `new` assigns to its global id.
        for (dense, held) in out.held.iter().enumerate() {
            let g = group.membership().global_of(dense) as u32;
            let expect: Vec<u32> =
                (0..8).filter(|&t| new[t as usize] == g).collect();
            assert_eq!(held, &expect, "dense rank {dense} (global {g})");
        }
    }
}
