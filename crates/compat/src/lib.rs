//! Std-only, in-workspace replacements for the external crates the
//! reproduction used to pull from crates.io. The build environment has no
//! network and no vendored registry, so every dependency here is
//! implemented against `std` alone and exposes exactly the API subset the
//! workspace consumes:
//!
//! | module        | replaces            | surface guaranteed                                   |
//! |---------------|---------------------|------------------------------------------------------|
//! | [`rng`]       | `rand` (`SmallRng`) | xoshiro256++ PRNG, `Rng`/`SeedableRng`, uniform ranges |
//! | [`par`]       | `rayon`             | `par_chunks_mut`/`par_iter_mut`/`into_par_iter` + `zip`/`enumerate`/`for_each` over scoped threads |
//! | [`sync`]      | `crossbeam-channel` | unbounded MPMC channel with clonable `Receiver`      |
//! | [`json`]      | `serde`/`serde_json`| `Value`, `json!`, writer + parser, struct/enum impl macros |
//! | [`proptest`]  | `proptest`          | seeded random-input property runner with failing-case reporting |
//!
//! Everything is deterministic where the original was (the PRNG, the
//! property-test case streams) and the shims deliberately avoid clever
//! `unsafe`: the parallel helpers are built on `std::thread::scope`.

pub mod json;
pub mod par;
pub mod proptest;
pub mod rng;
pub mod sync;
