//! Event-energy model.
//!
//! Stands in for the paper's Synopsys PrimeTime power analysis at TSMC
//! 65 nm: every hardware event counted by a simulator is charged a fixed
//! per-event energy, plus an area-proportional leakage term. The default
//! constants ([`EnergyModel::tsmc65`]) are calibrated so a 16×16-PE
//! FlexFlow at ~85 % utilization lands in the neighbourhood of the
//! paper's Table 6 component breakdown (Pcom ≈ 0.7–1.0 W dominated by the
//! PE array and its local stores; each on-chip buffer tens of mW). The
//! *relative* power/energy ordering of the four architectures — the
//! reproduction target — follows from the event counts, not from these
//! absolute constants.

use crate::stats::EventCounts;
use crate::CLOCK_GHZ;
use std::ops::{Add, AddAssign};

/// Per-event energy constants (picojoules) plus leakage.
///
/// # Example
///
/// ```
/// use flexsim_arch::energy::EnergyModel;
///
/// let model = EnergyModel::tsmc65();
/// assert_eq!(model.mac_pj(), 2.5);
/// // An off-chip word costs far more than an on-chip buffer access.
/// assert!(model.dram_pj() > 10.0 * model.buffer_pj());
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct EnergyModel {
    mac_pj: f64,
    local_store_pj: f64,
    buffer_pj: f64,
    bus_pj: f64,
    dram_pj: f64,
    pool_pj: f64,
    stream_pj: f64,
    idle_pe_pj: f64,
    leakage_mw_per_mm2: f64,
}

impl EnergyModel {
    /// The default 65 nm calibration (see module docs).
    pub fn tsmc65() -> Self {
        EnergyModel {
            // 16-bit multiplier + accumulator add, pipeline registers and
            // per-PE control amortized in (calibrated to Table 6's Pcom).
            mac_pj: 2.5,
            // 256 B register-file-like local store / FIFO slot access.
            local_store_pj: 0.5,
            // 32 KB banked SRAM access.
            buffer_pj: 6.0,
            // One word over a common data bus or inter-PE link.
            bus_pj: 0.6,
            // One 16-bit word from external DRAM.
            dram_pj: 200.0,
            // Pooling-unit ALU op.
            pool_pj: 0.4,
            // Per-word energy of wide sequential buffer streaming
            // (line-wide SRAM reads amortize decode/precharge).
            stream_pj: 1.2,
            // Clocking/idle overhead per clocked-but-idle PE per cycle.
            idle_pe_pj: 0.8,
            leakage_mw_per_mm2: 12.0,
        }
    }

    /// MAC energy in pJ.
    pub fn mac_pj(&self) -> f64 {
        self.mac_pj
    }

    /// Local-store access energy in pJ.
    pub fn local_store_pj(&self) -> f64 {
        self.local_store_pj
    }

    /// Buffer access energy in pJ.
    pub fn buffer_pj(&self) -> f64 {
        self.buffer_pj
    }

    /// DRAM word energy in pJ.
    pub fn dram_pj(&self) -> f64 {
        self.dram_pj
    }

    /// Wide-streaming buffer word energy in pJ.
    pub fn stream_pj(&self) -> f64 {
        self.stream_pj
    }

    /// Idle-PE clocking energy in pJ per PE-cycle.
    pub fn idle_pe_pj(&self) -> f64 {
        self.idle_pe_pj
    }

    /// Converts event counts plus duration and chip area into an energy
    /// breakdown.
    ///
    /// `cycles` at [`CLOCK_GHZ`] determine the leakage integration time;
    /// `area_mm2` scales leakage (pass `0.0` to ignore leakage, e.g. in
    /// differential comparisons).
    pub fn energy(&self, ev: &EventCounts, cycles: u64, area_mm2: f64) -> EnergyBreakdown {
        let pj = 1e-12;
        let time_s = cycles as f64 / (CLOCK_GHZ * 1e9);
        EnergyBreakdown {
            mac_j: ev.macs as f64 * self.mac_pj * pj,
            local_store_j: (ev.local_store_reads + ev.local_store_writes) as f64
                * self.local_store_pj
                * pj,
            neuron_in_buf_j: ev.neuron_in_buf as f64 * self.buffer_pj * pj,
            neuron_out_buf_j: ev.neuron_out_buf as f64 * self.buffer_pj * pj,
            kernel_buf_j: ev.kernel_buf as f64 * self.buffer_pj * pj,
            bus_j: ev.bus_words as f64 * self.bus_pj * pj,
            stream_buf_j: ev.stream_words as f64 * self.stream_pj * pj,
            idle_j: ev.idle_pe_cycles as f64 * self.idle_pe_pj * pj,
            pool_j: ev.pool_ops as f64 * self.pool_pj * pj,
            leakage_j: area_mm2 * self.leakage_mw_per_mm2 * 1e-3 * time_s,
            dram_j: (ev.dram_reads + ev.dram_writes) as f64 * self.dram_pj * pj,
        }
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel::tsmc65()
    }
}

/// Energy split by component, in joules.
///
/// `neuron_in_buf_j`, `neuron_out_buf_j` and `kernel_buf_j` correspond to
/// the paper's Table 6 columns `Pnein`, `Pneout` and `Pkerin` (after
/// dividing by time); everything else on chip is `Pcom`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// MAC (multiplier + adder) energy.
    pub mac_j: f64,
    /// Per-PE local store / FIFO / register energy.
    pub local_store_j: f64,
    /// Input-neuron buffer energy (`Pnein`).
    pub neuron_in_buf_j: f64,
    /// Output-neuron buffer energy (`Pneout`).
    pub neuron_out_buf_j: f64,
    /// Kernel buffer energy (`Pkerin`).
    pub kernel_buf_j: f64,
    /// Interconnect (bus / link) energy.
    pub bus_j: f64,
    /// Wide-streaming buffer energy.
    pub stream_buf_j: f64,
    /// Idle-PE clocking energy.
    pub idle_j: f64,
    /// Pooling-unit energy.
    pub pool_j: f64,
    /// Leakage over the run.
    pub leakage_j: f64,
    /// External DRAM energy (excluded from on-chip power).
    pub dram_j: f64,
}

impl EnergyBreakdown {
    /// Compute-engine energy: the paper's `Pcom` share (MACs, local
    /// stores, interconnect, pooling, leakage).
    pub fn compute_j(&self) -> f64 {
        self.mac_j + self.local_store_j + self.bus_j + self.idle_j + self.pool_j + self.leakage_j
    }

    /// Total on-chip energy (everything except DRAM).
    pub fn on_chip_j(&self) -> f64 {
        self.compute_j()
            + self.neuron_in_buf_j
            + self.neuron_out_buf_j
            + self.kernel_buf_j
            + self.stream_buf_j
    }

    /// Total energy including DRAM.
    pub fn total_j(&self) -> f64 {
        self.on_chip_j() + self.dram_j
    }
}

impl Add for EnergyBreakdown {
    type Output = EnergyBreakdown;
    fn add(self, rhs: EnergyBreakdown) -> EnergyBreakdown {
        EnergyBreakdown {
            mac_j: self.mac_j + rhs.mac_j,
            local_store_j: self.local_store_j + rhs.local_store_j,
            neuron_in_buf_j: self.neuron_in_buf_j + rhs.neuron_in_buf_j,
            neuron_out_buf_j: self.neuron_out_buf_j + rhs.neuron_out_buf_j,
            kernel_buf_j: self.kernel_buf_j + rhs.kernel_buf_j,
            bus_j: self.bus_j + rhs.bus_j,
            stream_buf_j: self.stream_buf_j + rhs.stream_buf_j,
            idle_j: self.idle_j + rhs.idle_j,
            pool_j: self.pool_j + rhs.pool_j,
            leakage_j: self.leakage_j + rhs.leakage_j,
            dram_j: self.dram_j + rhs.dram_j,
        }
    }
}

impl AddAssign for EnergyBreakdown {
    fn add_assign(&mut self, rhs: EnergyBreakdown) {
        *self = *self + rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn macs_dominate_compute_energy() {
        let model = EnergyModel::tsmc65();
        let ev = EventCounts {
            macs: 1_000_000,
            local_store_reads: 2_000_000,
            ..Default::default()
        };
        let e = model.energy(&ev, 0, 0.0);
        assert!(e.mac_j > 0.0);
        assert!(e.mac_j > e.local_store_j);
        assert_eq!(e.leakage_j, 0.0);
    }

    #[test]
    fn buffer_columns_map_to_table6() {
        let model = EnergyModel::tsmc65();
        let ev = EventCounts {
            neuron_in_buf: 100,
            neuron_out_buf: 200,
            kernel_buf: 50,
            ..Default::default()
        };
        let e = model.energy(&ev, 0, 0.0);
        assert!(e.neuron_out_buf_j > e.neuron_in_buf_j);
        assert!(e.neuron_in_buf_j > e.kernel_buf_j);
        assert_eq!(e.compute_j(), 0.0);
        assert!(e.on_chip_j() > 0.0);
    }

    #[test]
    fn leakage_scales_with_area_and_time() {
        let model = EnergyModel::tsmc65();
        let ev = EventCounts::default();
        let e1 = model.energy(&ev, 1_000_000_000, 1.0); // 1 s, 1 mm²
        let e2 = model.energy(&ev, 1_000_000_000, 2.0);
        assert!((e1.leakage_j - 0.012).abs() < 1e-9);
        assert!((e2.leakage_j - 2.0 * e1.leakage_j).abs() < 1e-12);
    }

    #[test]
    fn dram_excluded_from_on_chip() {
        let model = EnergyModel::tsmc65();
        let ev = EventCounts {
            dram_reads: 1000,
            ..Default::default()
        };
        let e = model.energy(&ev, 0, 0.0);
        assert_eq!(e.on_chip_j(), 0.0);
        assert!(e.total_j() > 0.0);
    }

    #[test]
    fn breakdown_addition() {
        let a = EnergyBreakdown {
            mac_j: 1.0,
            dram_j: 2.0,
            ..Default::default()
        };
        let b = a + a;
        assert_eq!(b.mac_j, 2.0);
        assert_eq!(b.total_j(), 6.0);
    }
}
