//! # flexsim-arch — hardware-modeling substrate
//!
//! Shared hardware models for every accelerator simulator in the
//! workspace:
//!
//! * [`stats`] — event counters, per-layer results, and run summaries
//!   (cycles, MACs, utilization, on-chip traffic, energy breakdowns);
//! * [`energy`] — an event-energy model standing in for the paper's
//!   Synopsys PrimeTime power analysis (see `DESIGN.md` §1);
//! * [`area`] — a parametric area model standing in for Design
//!   Compiler/ICC layout area;
//! * [`buffer`] — the Table 5 on-chip buffer capacity and its heatmap
//!   sampling;
//! * [`dram`] — external-memory traffic estimation (Table 7's
//!   DRAM-accesses-per-operation metric);
//! * [`bandwidth`] — a DRAM bandwidth model and roofline analysis (an
//!   extension beyond the paper, see `ext_roofline`);
//! * [`accelerator`] — the [`accelerator::Accelerator`] trait every
//!   simulated architecture implements.
//!
//! ## Example
//!
//! ```
//! use flexsim_arch::energy::EnergyModel;
//! use flexsim_arch::stats::EventCounts;
//!
//! let model = EnergyModel::tsmc65();
//! let mut ev = EventCounts::default();
//! ev.macs = 1_000_000;
//! let breakdown = model.energy(&ev, 1_000_000, 0.0);
//! assert!(breakdown.compute_j() > 0.0);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod accelerator;
pub mod area;
pub mod bandwidth;
pub mod buffer;
pub mod dram;
pub mod energy;
pub mod stats;

pub use accelerator::Accelerator;
pub use area::{AreaBreakdown, AreaModel, AreaSpec, InterconnectStyle};
pub use bandwidth::DramInterface;
pub use dram::DramTraffic;
pub use energy::{EnergyBreakdown, EnergyModel};
pub use stats::{EventCounts, LayerResult, RunSummary, Traffic};

/// The clock of every simulated engine, in GHz: the paper evaluates all
/// four architectures at 1 GHz.
pub const CLOCK_GHZ: f64 = 1.0;
