//! # flexsim-testkit
//!
//! Hermetic, std-only testing substrate for the FlexFlow reproduction.
//! The build environment has no crates.io access, so everything the
//! workspace needs for verification lives here, with zero external
//! dependencies:
//!
//! - [`rng`] — a deterministic [`SplitMix64`] PRNG with
//!   the small surface the simulators use (ranges, fills, shuffles).
//! - [`prop`] — a minimal property-testing harness
//!   ([`prop::check`]) with input shrinking on failure and
//!   env-overridable case count / seed / replay.
//! - [`json`] — a tiny JSON value type and byte-stable pretty emitter
//!   (insertion-ordered keys, two-space indent) so results files diff
//!   cleanly across runs.
//! - [`yardstick`] — a fixed probe of the host's speed, and pass times
//!   normalised by it, so wall times measured under other tenants' load
//!   compare.
//!
//! Everything but the yardstick is deterministic by construction: the
//! same seed always produces the same samples, shrink sequences, and
//! JSON bytes.
#![forbid(unsafe_code)]

pub mod json;
pub mod prop;
pub mod rng;
pub mod yardstick;

pub use rng::SplitMix64;
