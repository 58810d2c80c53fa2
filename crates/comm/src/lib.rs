//! # torchgt-comm
//!
//! Simulated multi-GPU communication for the TorchGT reproduction: real
//! data-movement collectives where every rank is a thread
//! ([`collectives::DeviceGroup`]), α–β interconnect cost models matching the
//! paper's two testbeds ([`interconnect`]), volume accounting ([`stats`]),
//! deterministic fault injection — message delay, drop-with-retry, straggler
//! slowdown, and rank crashes ([`FaultPlan`]) — and elastic group membership
//! with generation-tagged collectives ([`membership`]).
//!
//! There is one way onto the wire: every collective is a `*_begin` that
//! hands its sends to the communicator's background worker and returns a
//! [`PendingCollective`], and the blocking methods are that handle waited at
//! once. One queue per rank keeps per-peer FIFO order by construction, and
//! fault decisions are made on the issuing thread, so where a send's
//! injected latency is served never changes what is delivered.

pub mod collectives;
mod fault;
pub mod interconnect;
pub mod membership;
pub mod stats;

pub use collectives::{Communicator, DeviceGroup, PendingCollective, RankFailure, StragglerReport};
pub use interconnect::{ClusterTopology, Interconnect};
pub use membership::{Membership, MembershipError};
pub use stats::{CollectiveKind, CommStats};
pub use torchgt_faults::{CrashPoint, FaultPlan, RankCrash};
