//! Event counters and simulation results.
//!
//! Every simulator produces one [`LayerResult`] per CONV layer; a
//! workload run aggregates them into a [`RunSummary`]. All of the paper's
//! evaluation metrics derive from these:
//!
//! * **utilization** (Figs. 15, 19a) = useful MAC PE-cycles / total
//!   PE-cycles,
//! * **performance** (Figs. 1, 16) = ops / time at the 1 GHz clock,
//! * **data volume** (Fig. 17) = words moved between on-chip buffers and
//!   the computing engine,
//! * **power / energy / efficiency** (Fig. 18, Table 6) from the energy
//!   breakdown.

use crate::energy::EnergyBreakdown;
use crate::CLOCK_GHZ;
use std::fmt;
use std::ops::{Add, AddAssign};

/// Words moved between the on-chip buffers and the computing engine,
/// the paper's proxy for data reusability (Fig. 17).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Traffic {
    /// Input neurons fed to the engine (words).
    pub neuron_in: u64,
    /// Output neurons (and final partial sums) written back (words).
    pub neuron_out: u64,
    /// Synapses fed to the engine (words).
    pub kernel_in: u64,
    /// Partial sums spilled to and refetched from the neuron buffers
    /// when a convolution needs multiple engine passes (words).
    pub psum: u64,
}

impl Traffic {
    /// Total words moved.
    pub fn total(&self) -> u64 {
        self.neuron_in + self.neuron_out + self.kernel_in + self.psum
    }
}

impl Add for Traffic {
    type Output = Traffic;
    fn add(self, rhs: Traffic) -> Traffic {
        Traffic {
            neuron_in: self.neuron_in + rhs.neuron_in,
            neuron_out: self.neuron_out + rhs.neuron_out,
            kernel_in: self.kernel_in + rhs.kernel_in,
            psum: self.psum + rhs.psum,
        }
    }
}

impl AddAssign for Traffic {
    fn add_assign(&mut self, rhs: Traffic) {
        *self = *self + rhs;
    }
}

/// Raw hardware event counts accumulated during a simulation.
///
/// The [`crate::energy::EnergyModel`] converts these into joules.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// Useful multiply-accumulate operations.
    pub macs: u64,
    /// Reads from per-PE local stores / operand registers / FIFOs.
    pub local_store_reads: u64,
    /// Writes to per-PE local stores / operand registers / FIFOs.
    pub local_store_writes: u64,
    /// Accesses (read + write) to the input-neuron on-chip buffer.
    pub neuron_in_buf: u64,
    /// Accesses to the output-neuron on-chip buffer.
    pub neuron_out_buf: u64,
    /// Accesses to the kernel on-chip buffer.
    pub kernel_buf: u64,
    /// Word-transfers on inter-PE links or common data buses.
    pub bus_words: u64,
    /// Words streamed from a buffer in wide sequential lines (cheaper per
    /// word than banked random access; e.g. Tiling's synapse streaming).
    pub stream_words: u64,
    /// PE-cycles spent idle (clocked but not computing) — charged a small
    /// clocking overhead by the energy model.
    pub idle_pe_cycles: u64,
    /// Words read from external DRAM.
    pub dram_reads: u64,
    /// Words written to external DRAM.
    pub dram_writes: u64,
    /// Pooling-unit ALU operations.
    pub pool_ops: u64,
}

impl Add for EventCounts {
    type Output = EventCounts;
    fn add(self, rhs: EventCounts) -> EventCounts {
        EventCounts {
            macs: self.macs + rhs.macs,
            local_store_reads: self.local_store_reads + rhs.local_store_reads,
            local_store_writes: self.local_store_writes + rhs.local_store_writes,
            neuron_in_buf: self.neuron_in_buf + rhs.neuron_in_buf,
            neuron_out_buf: self.neuron_out_buf + rhs.neuron_out_buf,
            kernel_buf: self.kernel_buf + rhs.kernel_buf,
            bus_words: self.bus_words + rhs.bus_words,
            stream_words: self.stream_words + rhs.stream_words,
            idle_pe_cycles: self.idle_pe_cycles + rhs.idle_pe_cycles,
            dram_reads: self.dram_reads + rhs.dram_reads,
            dram_writes: self.dram_writes + rhs.dram_writes,
            pool_ops: self.pool_ops + rhs.pool_ops,
        }
    }
}

impl AddAssign for EventCounts {
    fn add_assign(&mut self, rhs: EventCounts) {
        *self = *self + rhs;
    }
}

/// The result of simulating one CONV layer on one architecture.
#[derive(Clone, Debug, PartialEq)]
pub struct LayerResult {
    /// Architecture name (e.g. `"FlexFlow"`).
    pub arch: String,
    /// Layer name (e.g. `"C3"`).
    pub layer: String,
    /// Number of processing elements in the engine.
    pub pe_count: usize,
    /// Total engine cycles for the layer.
    pub cycles: u64,
    /// Useful MACs executed (equals the layer's MAC count when correct).
    pub macs: u64,
    /// Raw event counts.
    pub events: EventCounts,
    /// Buffer ↔ engine word traffic.
    pub traffic: Traffic,
    /// Energy breakdown over the layer.
    pub energy: EnergyBreakdown,
}

impl LayerResult {
    /// Computing-resource utilization: useful MAC PE-cycles over total
    /// PE-cycles (the paper's "PE cycle" metric, Section 5).
    pub fn utilization(&self) -> f64 {
        if self.cycles == 0 || self.pe_count == 0 {
            return 0.0;
        }
        self.macs as f64 / (self.cycles as f64 * self.pe_count as f64)
    }

    /// Wall-clock seconds at [`CLOCK_GHZ`].
    pub fn time_s(&self) -> f64 {
        self.cycles as f64 / (CLOCK_GHZ * 1e9)
    }

    /// Achieved performance in GOPS (2 ops per MAC, the paper's unit).
    pub fn gops(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        (2 * self.macs) as f64 / self.time_s() / 1e9
    }

    /// Nominal (peak) performance in GOPS: every PE doing one MAC per
    /// cycle.
    pub fn nominal_gops(&self) -> f64 {
        2.0 * self.pe_count as f64 * CLOCK_GHZ
    }

    /// Average on-chip power in watts (DRAM energy excluded, matching the
    /// paper's accelerator-power reporting).
    pub fn power_w(&self) -> f64 {
        let t = self.time_s();
        if t == 0.0 {
            return 0.0;
        }
        self.energy.on_chip_j() / t
    }

    /// Power efficiency in GOPS/W (Fig. 18a).
    pub fn efficiency_gops_per_w(&self) -> f64 {
        let p = self.power_w();
        if p == 0.0 {
            return 0.0;
        }
        self.gops() / p
    }

    /// DRAM accesses per operation (Table 7's `Acc/Op`).
    pub fn dram_acc_per_op(&self) -> f64 {
        if self.macs == 0 {
            return 0.0;
        }
        (self.events.dram_reads + self.events.dram_writes) as f64 / (2 * self.macs) as f64
    }
}

impl fmt::Display for LayerResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}: {} cycles, util {:.1}%, {:.1} GOPS, {:.3} W",
            self.arch,
            self.layer,
            self.cycles,
            self.utilization() * 100.0,
            self.gops(),
            self.power_w()
        )
    }
}

/// The result of running a whole workload's CONV layers on one
/// architecture.
#[derive(Clone, Debug, PartialEq)]
pub struct RunSummary {
    /// Architecture name.
    pub arch: String,
    /// Workload name.
    pub workload: String,
    /// Per-layer results, in network order.
    pub layers: Vec<LayerResult>,
}

impl RunSummary {
    /// Total cycles across layers.
    pub fn cycles(&self) -> u64 {
        self.layers.iter().map(|l| l.cycles).sum()
    }

    /// Total useful MACs across layers.
    pub fn macs(&self) -> u64 {
        self.layers.iter().map(|l| l.macs).sum()
    }

    /// Cycle-weighted utilization across the workload.
    pub fn utilization(&self) -> f64 {
        let pe_cycles: f64 = self
            .layers
            .iter()
            .map(|l| l.cycles as f64 * l.pe_count as f64)
            .sum();
        if pe_cycles == 0.0 {
            return 0.0;
        }
        self.macs() as f64 / pe_cycles
    }

    /// Total wall-clock seconds.
    pub fn time_s(&self) -> f64 {
        self.layers.iter().map(LayerResult::time_s).sum()
    }

    /// Workload-level performance in GOPS.
    pub fn gops(&self) -> f64 {
        let t = self.time_s();
        if t == 0.0 {
            return 0.0;
        }
        (2 * self.macs()) as f64 / t / 1e9
    }

    /// Total buffer ↔ engine traffic.
    pub fn traffic(&self) -> Traffic {
        self.layers
            .iter()
            .fold(Traffic::default(), |acc, l| acc + l.traffic)
    }

    /// Total event counts.
    pub fn events(&self) -> EventCounts {
        self.layers
            .iter()
            .fold(EventCounts::default(), |acc, l| acc + l.events)
    }

    /// Total energy breakdown.
    pub fn energy(&self) -> EnergyBreakdown {
        self.layers
            .iter()
            .fold(EnergyBreakdown::default(), |acc, l| acc + l.energy)
    }

    /// Time-averaged on-chip power in watts.
    pub fn power_w(&self) -> f64 {
        let t = self.time_s();
        if t == 0.0 {
            return 0.0;
        }
        self.energy().on_chip_j() / t
    }

    /// Workload power efficiency in GOPS/W.
    pub fn efficiency_gops_per_w(&self) -> f64 {
        let p = self.power_w();
        if p == 0.0 {
            return 0.0;
        }
        self.gops() / p
    }

    /// Total on-chip energy in joules.
    pub fn energy_j(&self) -> f64 {
        self.energy().on_chip_j()
    }

    /// DRAM accesses per operation across the workload.
    pub fn dram_acc_per_op(&self) -> f64 {
        let ev = self.events();
        if self.macs() == 0 {
            return 0.0;
        }
        (ev.dram_reads + ev.dram_writes) as f64 / (2 * self.macs()) as f64
    }
}

impl fmt::Display for RunSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} on {}: util {:.1}%, {:.1} GOPS, {:.3} W, {:.2} uJ",
            self.arch,
            self.workload,
            self.utilization() * 100.0,
            self.gops(),
            self.power_w(),
            self.energy_j() * 1e6
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(cycles: u64, macs: u64, pe: usize) -> LayerResult {
        LayerResult {
            arch: "test".into(),
            layer: "L".into(),
            pe_count: pe,
            cycles,
            macs,
            events: EventCounts::default(),
            traffic: Traffic::default(),
            energy: EnergyBreakdown::default(),
        }
    }

    #[test]
    fn utilization_is_macs_over_pe_cycles() {
        let r = result(100, 100 * 128, 256);
        assert!((r.utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn gops_at_1ghz() {
        let r = result(1_000, 256_000, 256);
        // 512k ops over 1 us = 512 GOPS.
        assert!((r.gops() - 512.0).abs() < 1e-9);
        assert!((r.nominal_gops() - 512.0).abs() < 1e-9);
    }

    #[test]
    fn zero_cycles_is_safe() {
        let r = result(0, 0, 256);
        assert_eq!(r.utilization(), 0.0);
        assert_eq!(r.gops(), 0.0);
        assert_eq!(r.power_w(), 0.0);
        assert_eq!(r.efficiency_gops_per_w(), 0.0);
    }

    #[test]
    fn summary_weights_by_cycles() {
        let s = RunSummary {
            arch: "a".into(),
            workload: "w".into(),
            layers: vec![result(100, 25_600, 256), result(300, 15_360, 256)],
        };
        assert_eq!(s.cycles(), 400);
        assert_eq!(s.macs(), 40_960);
        // (25600 + 15360) / (400 * 256) = 0.4
        assert!((s.utilization() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn traffic_totals_add() {
        let a = Traffic {
            neuron_in: 1,
            neuron_out: 2,
            kernel_in: 3,
            psum: 4,
        };
        let b = a + a;
        assert_eq!(b.total(), 20);
    }

    #[test]
    fn event_counts_accumulate() {
        let mut e = EventCounts {
            macs: 5,
            ..Default::default()
        };
        let f = EventCounts {
            macs: 7,
            bus_words: 1,
            ..Default::default()
        };
        e += f;
        assert_eq!(e.macs, 12);
        assert_eq!(e.bus_words, 1);
    }
}
