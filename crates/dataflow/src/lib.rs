//! # flexsim-dataflow — the loop-unrolling model of CNN dataflow
//! accelerators
//!
//! The FlexFlow paper frames every CNN accelerator as an unrolling of the
//! six-deep CONV loop nest (Section 2.2): the unrolling factor set
//! `⟨Tm, Tn, Tr, Tc, Ti, Tj⟩` ([`Unroll`]) determines which of the eight
//! processing styles ([`Style`]) an engine realizes, its computing
//! resource utilization (Equations 1–3, [`utilization`]), and its tile
//! schedule ([`loopnest`]). The [`search`] module implements the paper's
//! Section 5 "workload analyzer": choosing the factors that maximize
//! utilization under the engine-size and inter-layer (IADP) coupling
//! constraints.
//!
//! ## Example
//!
//! ```
//! use flexsim_dataflow::search;
//! use flexsim_model::workloads;
//!
//! let net = workloads::lenet5();
//! let plan = search::plan_network(&net, 16);
//! assert_eq!(plan.len(), 2);
//! for choice in &plan {
//!     assert!(choice.total_utilization() > 0.5);
//! }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod loopnest;
pub mod search;
pub mod style;
pub mod tune;
pub mod unroll;
pub mod utilization;

pub use search::{plan_network, LayerChoice};
pub use style::Style;
pub use unroll::Unroll;
