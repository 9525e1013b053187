//! # flexflow — the FlexFlow accelerator (HPCA 2017)
//!
//! A from-scratch simulator of *FlexFlow: A Flexible Dataflow Accelerator
//! Architecture for Convolutional Neural Networks* (Lu et al., HPCA
//! 2017). FlexFlow's computing engine is a `D×D` mesh of PEs whose
//! inter-PE links are removed; instead, each PE owns two small
//! random-access local stores fed by vertical (neuron) and horizontal
//! (kernel) common data buses, and the adders of each PE row form an
//! adder tree so that one row completes one output neuron. Freed from
//! fixed data direction/type/stride, the engine supports the
//! comprehensive `MFMNMS` processing style and mixes feature-map, neuron,
//! and synapse parallelism per layer ("complementary parallelism").
//!
//! Crate layout mirrors the paper:
//!
//! * [`local_store`], [`adder_tree`] — the PE micro-architecture of
//!   Section 4.1 / Fig. 7(a): the store size and address bound, and the
//!   row reduction (the array simulator holds each PE's two stores and
//!   multiplier);
//! * [`mapping`] — the Section 4.3 operand/output assignment formulas
//!   (logical groups, row/column residues — the RA/RS dataflow);
//! * [`cdb`] — DataFlow1's common data buses and their per-step
//!   write-exclusivity guard. DataFlow3's IADP/IPDR buffer layout is
//!   not stepped: flexcheck `FXC07` states its bank inequality;
//! * [`mod@array`] — the cycle-stepped functional PE-array simulator,
//!   which addresses its stores through residency slot tables sized by
//!   its [`StorePlan`](array::StorePlan) (Section 4.4's read-address FSM
//!   is not modelled; `DESIGN.md` §4 says why);
//! * [`analytic`] — the closed-form schedule model (validated against
//!   [`mod@array`]) and its row-batch step schedule;
//! * [`pooling`] — the 1-D pooling unit;
//! * [`isa`], [`compiler`], [`decoder`] — the instruction set, the
//!   Section 5 compiler ("workload analyzer" + code generation), and
//!   the protocol-checking on-chip decoder;
//! * [`engine`] — the whole accelerator: an
//!   [`flexsim_arch::Accelerator`] implementation plus a functional
//!   end-to-end `execute` path.
//!
//! ## Example
//!
//! ```
//! use flexflow::FlexFlow;
//! use flexsim_arch::Accelerator;
//! use flexsim_model::workloads;
//!
//! let mut ff = FlexFlow::paper_config(); // 16x16 PEs, Table 5 buffers
//! let summary = ff.run_network(&workloads::lenet5());
//! assert!(summary.utilization() > 0.8); // Fig. 15's headline
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod adder_tree;
pub mod analytic;
pub mod array;
pub mod cdb;
pub mod compiler;
pub mod decoder;
pub mod engine;
pub mod isa;
pub mod local_store;
pub mod mapping;
pub mod pooling;

pub use compiler::{Compiler, Program};
pub use engine::FlexFlow;
