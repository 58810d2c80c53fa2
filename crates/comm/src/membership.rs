//! Group membership across communicator generations.
//!
//! Real elastic NCCL jobs tear down the communicator and rebuild it over the
//! surviving ranks when a worker is declared dead (`ncclCommAbort` +
//! re-`ncclCommInitRank` with a fresh unique id). [`Membership`] models that
//! lifecycle for the simulated [`crate::DeviceGroup`]: a monotonically
//! increasing *generation* number plus the set of live **global** rank ids.
//!
//! Two rank spaces coexist after a shrink:
//!
//! * **global** ids are stable for the life of the job (`0..initial_world`)
//!   — fault plans, checkpoint layouts, and obs events speak global ids;
//! * **dense** ids are the contiguous `0..live_world` indices the
//!   collectives run over — the j-th live rank in ascending global order.
//!
//! Every message carries the generation it was produced under; a receiver
//! rejects mismatches so a stale rank (one that missed a reformation) can
//! never corrupt an exchange of the new generation.

/// Live-rank set and generation counter for one device group.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Membership {
    /// Communicator generation, bumped on every reformation.
    generation: u64,
    /// Live global rank ids, ascending.
    live: Vec<usize>,
    /// World size the group was created with.
    initial_world: usize,
}

impl Membership {
    /// A fresh membership: generation 0, all of `0..world` live.
    pub fn new(world: usize) -> Self {
        assert!(world >= 1, "membership needs at least one rank");
        Self { generation: 0, live: (0..world).collect(), initial_world: world }
    }

    /// Current communicator generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of live ranks.
    pub fn live_world(&self) -> usize {
        self.live.len()
    }

    /// World size at group creation.
    pub fn initial_world(&self) -> usize {
        self.initial_world
    }

    /// Live global rank ids, ascending.
    pub fn live_ranks(&self) -> &[usize] {
        &self.live
    }

    /// Is global rank `rank` live?
    pub fn is_live(&self, rank: usize) -> bool {
        self.live.binary_search(&rank).is_ok()
    }

    /// Dense index (0..live_world) of a live global rank.
    pub fn dense_of(&self, global: usize) -> Option<usize> {
        self.live.binary_search(&global).ok()
    }

    /// Global id of dense rank `dense`.
    pub fn global_of(&self, dense: usize) -> usize {
        self.live[dense]
    }

    /// Declare `global` permanently lost: drop it from the live set and
    /// open a new generation over the survivors. Errors when the rank is
    /// not live or when removing it would empty the group.
    pub fn remove(&mut self, global: usize) -> Result<(), MembershipError> {
        let idx = self
            .live
            .binary_search(&global)
            .map_err(|_| MembershipError::NotLive(global))?;
        if self.live.len() == 1 {
            return Err(MembershipError::WouldEmptyGroup);
        }
        self.live.remove(idx);
        self.generation += 1;
        Ok(())
    }

}

/// Why a membership transition was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MembershipError {
    /// The rank is not in the live set.
    NotLive(usize),
    /// Removing the rank would leave zero live ranks.
    WouldEmptyGroup,
}

impl std::fmt::Display for MembershipError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MembershipError::NotLive(r) => write!(f, "rank {r} is not live"),
            MembershipError::WouldEmptyGroup => write!(f, "cannot remove the last live rank"),
        }
    }
}

impl std::error::Error for MembershipError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_membership_is_generation_zero_full_world() {
        let m = Membership::new(4);
        assert_eq!(m.generation(), 0);
        assert_eq!(m.live_world(), 4);
        assert_eq!(m.live_ranks(), &[0, 1, 2, 3]);
        assert_eq!(m.initial_world(), 4);
        assert_eq!(m.dense_of(2), Some(2));
    }

    #[test]
    fn remove_bumps_generation_and_renumbers_densely() {
        let mut m = Membership::new(4);
        m.remove(1).unwrap();
        assert_eq!(m.generation(), 1);
        assert_eq!(m.live_ranks(), &[0, 2, 3]);
        // Dense ids compact around the hole; global ids stay stable.
        assert_eq!(m.dense_of(0), Some(0));
        assert_eq!(m.dense_of(2), Some(1));
        assert_eq!(m.dense_of(3), Some(2));
        assert_eq!(m.dense_of(1), None);
        assert_eq!(m.global_of(1), 2);
        assert!(!m.is_live(1));
    }

    #[test]
    fn invalid_transitions_are_rejected() {
        let mut m = Membership::new(2);
        assert_eq!(m.remove(5), Err(MembershipError::NotLive(5)));
        m.remove(0).unwrap();
        assert_eq!(m.remove(1), Err(MembershipError::WouldEmptyGroup));
        assert_eq!(m.generation(), 1, "rejected transitions must not bump the generation");
    }
}
