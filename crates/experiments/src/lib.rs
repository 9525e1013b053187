//! # flexsim-experiments — regenerating the FlexFlow (HPCA'17)
//! evaluation
//!
//! One module per table/figure of the paper's Section 6, each exposing
//! a unit struct implementing the [`Experiment`] trait (plus a
//! `run(&ExperimentCtx)` function). The [`experiment::REGISTRY`] lists
//! them in paper order; the `flexsim` binary (`src/main.rs`) drives
//! them through [`experiment::run_suite`], fanning each experiment's
//! (workload, architecture) units out across the `flexsim-pool` thread
//! pool:
//!
//! ```text
//! cargo run -p flexsim-experiments --release -- all
//! cargo run -p flexsim-experiments --release -- --jobs 8 fig15 table06
//! ```
//!
//! Results are merged in submission order, so the emitted tables and
//! JSON are byte-identical at every `--jobs` level.
//!
//! Paper-reported values (where the paper prints numbers rather than
//! bars) live in [`paper`] and are shown side by side with measured
//! values.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablations;
pub mod arches;
pub mod bench;
pub mod cli;
pub mod experiment;
pub mod extensions;
pub mod fig01;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod frontend;
pub mod heatmap;
pub mod lint;
pub mod paper;
pub mod profile;
pub mod prove;
pub mod report;
pub mod stats;
pub mod table03;
pub mod table04;
pub mod table06;
pub mod table07;
pub mod tune;

pub use experiment::{
    find, run_suite, sweep_set, Experiment, ExperimentCtx, SuiteConfig, SuiteReport, TaskCtx,
    REGISTRY,
};
pub use report::{ExperimentResult, Table};

/// All experiment ids, in paper ([`REGISTRY`]) order.
pub fn experiment_ids() -> Vec<&'static str> {
    REGISTRY.iter().map(|e| e.id()).collect()
}
