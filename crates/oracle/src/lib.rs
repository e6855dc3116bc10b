//! Reference implementations that exist only as equivalence oracles.
//!
//! The shipped crates hold one implementation of each check and each
//! aggregate: the fused single-pass [`hv_core::Battery`] and the one-pass
//! [`hv_pipeline::AggregateIndex`]. Their predecessors live here, verbatim,
//! so tests, benches and the `hva fuzz` `battery-equivalence` oracle can
//! keep asserting that the fast paths report exactly what the obvious ones
//! do:
//!
//! * [`checkers`] — the pre-fusion battery: twenty independent
//!   full-context scans;
//! * [`aggregate`] — the per-query folds, each re-scanning the store;
//! * [`auxstudies`] — the §5.2 long-tail comparison re-checking every page
//!   of both populations, where the shipped study reads the popular side
//!   from the store.
//!
//! Only `hv-fuzz`, the benches and the root package's tests depend on this
//! crate; CI checks that no shipped library does.

pub mod aggregate;
pub mod auxstudies;
pub mod checkers;
