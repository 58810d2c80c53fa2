//! # torchgt-sparse
//!
//! Attention-layout machinery for the TorchGT reproduction: layout
//! descriptors, memory-access profiling and the model shape a step is
//! priced at ([`layout`]), attention-mask
//! builders ([`mask`]), and the Elastic Computation Reformation that compacts
//! sparse clusters into dense sub-blocks ([`reform`]).

pub mod layout;
pub mod mask;
pub mod reform;

pub use layout::{access_profile, dense_profile, AccessProfile, LayoutKind, ModelShape};
pub use mask::{add_global_token, topology_mask, window_mask};
pub use reform::{
    beta_ladder, reform, reform_recorded, ReformConfig, ReformStats, ReformedLayout,
};
