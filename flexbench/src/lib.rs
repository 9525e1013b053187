//! # flexbench
//!
//! The benchmark of the flexsim simulators: one workload per run, set
//! up from a seed, then whole passes in a closed loop for a fixed time,
//! every pass checked bit for bit. An untraced run reports the
//! end-to-end metrics; a traced run records spans around each call
//! into the simulator's crates and reports per-layer host costs and
//! exact counts. See `README.md` for the workloads and metrics.

#![forbid(unsafe_code)]

pub mod analytic;
pub mod compare;
pub mod expected;
pub mod layers;
pub mod metrics;
pub mod network;
pub mod run;
pub mod stats;
pub mod trace;
pub mod tune;
pub mod yardstick;
