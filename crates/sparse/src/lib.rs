//! # torchgt-sparse
//!
//! Attention-layout machinery for the TorchGT reproduction: layout
//! descriptors and memory-access profiling ([`layout`]), attention-mask
//! builders ([`mask`]), and the Elastic Computation Reformation that compacts
//! sparse clusters into dense sub-blocks ([`reform`]).

pub mod block_csr;
pub mod layout;
pub mod mask;
pub mod reform;

pub use block_csr::BlockCsr;
pub use layout::{access_profile, dense_profile, AccessProfile, LayoutKind};
pub use mask::{add_global_token, topology_mask, window_mask};
pub use reform::{
    beta_ladder, reform, reform_recorded, ReformConfig, ReformStats, ReformedLayout,
};
