//! # torchgt-comm
//!
//! Simulated multi-GPU communication for the TorchGT reproduction: real
//! data-movement collectives where every rank is a thread
//! ([`collectives::DeviceGroup`]), α–β interconnect cost models matching the
//! paper's two testbeds ([`interconnect`]), volume accounting ([`stats`]),
//! deterministic fault injection — message delay, drop-with-retry, straggler
//! slowdown, and rank crashes ([`FaultPlan`]) — and elastic group membership
//! with generation-tagged collectives ([`membership`]).

pub mod collectives;
mod fault;
pub mod hierarchical;
pub mod interconnect;
pub mod membership;
pub mod stats;

pub use collectives::{Communicator, DeviceGroup, PendingCollective, RankFailure, StragglerReport};
pub use hierarchical::{hierarchical_all_to_all, hierarchical_advantage};
pub use interconnect::{ClusterTopology, Interconnect, InterconnectModel};
pub use membership::{Membership, MembershipError};
pub use stats::{CollectiveKind, CommStats};
pub use torchgt_faults::{CrashPoint, FaultPlan, RankCrash};
