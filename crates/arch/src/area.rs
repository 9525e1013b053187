//! Parametric chip-area model.
//!
//! Stands in for the paper's Design Compiler / IC Compiler area numbers
//! (Section 6.2.1 and Fig. 19c). A chip is described by an [`AreaSpec`]
//! (PE count, per-PE storage, FIFOs, buffer capacity, interconnect style)
//! and the [`AreaModel`] prices each component. Interconnect is the
//! architecture-distinguishing term: FlexFlow's common data buses grow
//! near-linearly with PE count, while 2D-mesh and broadcast-tree wiring
//! grows superlinearly — the structural reason the paper gives for
//! FlexFlow's better area scalability.
//!
//! Default constants are calibrated so the four 256-PE baselines land on
//! the paper's reported totals (3.52 / 3.46 / 3.21 / 3.89 mm²) within a
//! few percent.

use std::fmt;

/// Number of PEs at which interconnect base areas are calibrated.
pub const CALIBRATION_PES: usize = 256;

/// The inter-PE communication fabric of an architecture.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InterconnectStyle {
    /// Cascaded PE rows with inter-row FIFOs (Systolic, Section 3.1).
    SystolicChain,
    /// 4-neighbour mesh links (2D-Mapping, Section 3.2).
    Mesh2d,
    /// Operand broadcast trees into every PE (Tiling, Section 3.3).
    BroadcastTree,
    /// FlexFlow's horizontal/vertical common data buses (Section 4.3).
    CommonDataBus,
}

impl InterconnectStyle {
    /// Wiring area at the 256-PE calibration point (mm²).
    pub fn base_mm2(self) -> f64 {
        match self {
            InterconnectStyle::SystolicChain => 1.30,
            InterconnectStyle::Mesh2d => 1.20,
            InterconnectStyle::BroadcastTree => 1.05,
            InterconnectStyle::CommonDataBus => 0.80,
        }
    }

    /// Growth exponent of wiring area in PE count.
    ///
    /// "Unlike radical growth in routing complexity as other baselines,
    /// the routing complexity grows much linearly with the scale of PEs"
    /// (Section 6.2.5) — hence ~1.05 for the CDB and clearly superlinear
    /// exponents for mesh/broadcast wiring.
    pub fn growth_exponent(self) -> f64 {
        match self {
            InterconnectStyle::SystolicChain => 1.15,
            InterconnectStyle::Mesh2d => 1.40,
            InterconnectStyle::BroadcastTree => 1.45,
            InterconnectStyle::CommonDataBus => 1.05,
        }
    }

    /// Wiring area for `pe_count` PEs (mm²).
    ///
    /// The CDB is affine — a fixed bus backbone plus a per-PE tap — so
    /// its *share* of the chip declines as the engine scales (the paper
    /// reports the routing share falling from 28.3 % at 16×16 to 21.3 %
    /// at 64×64). Mesh and broadcast wiring follow superlinear power
    /// laws.
    pub fn area_mm2(self, pe_count: usize) -> f64 {
        let scale = pe_count as f64 / CALIBRATION_PES as f64;
        match self {
            InterconnectStyle::CommonDataBus => 0.35 + 0.45 * scale,
            _ => self.base_mm2() * scale.powf(self.growth_exponent()),
        }
    }
}

impl fmt::Display for InterconnectStyle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InterconnectStyle::SystolicChain => "systolic chain",
            InterconnectStyle::Mesh2d => "2D mesh",
            InterconnectStyle::BroadcastTree => "broadcast tree",
            InterconnectStyle::CommonDataBus => "common data bus",
        };
        f.write_str(s)
    }
}

/// Structural description of a chip for area estimation.
#[derive(Clone, Debug, PartialEq)]
pub struct AreaSpec {
    /// Number of processing elements.
    pub pe_count: usize,
    /// Per-PE local storage in bytes (local stores, operand registers).
    pub local_store_bytes_per_pe: usize,
    /// Total FIFO storage outside PEs, in bytes (systolic inter-row
    /// FIFOs, 2D-mapping shift FIFOs).
    pub fifo_bytes_total: usize,
    /// Total on-chip buffer capacity in KB (Table 5).
    pub buffer_kb_total: usize,
    /// Inter-PE communication fabric.
    pub interconnect: InterconnectStyle,
    /// Fixed logic overhead (decoder, pooling unit, I/O) in mm².
    pub fixed_overhead_mm2: f64,
}

/// Per-component area prices (65 nm defaults).
#[derive(Clone, Debug, PartialEq)]
pub struct AreaModel {
    pe_logic_mm2: f64,
    local_store_mm2_per_byte: f64,
    sram_mm2_per_kb: f64,
}

impl AreaModel {
    /// The default 65 nm calibration (see module docs).
    pub fn tsmc65() -> Self {
        AreaModel {
            // One 16-bit multiplier + adder + control.
            pe_logic_mm2: 0.0045,
            // Register-file-style storage inside a PE.
            local_store_mm2_per_byte: 7.0e-6,
            // Banked SRAM macro.
            sram_mm2_per_kb: 0.011,
        }
    }

    /// Estimates the chip area of `spec`.
    pub fn area(&self, spec: &AreaSpec) -> AreaBreakdown {
        AreaBreakdown {
            pe_logic_mm2: spec.pe_count as f64 * self.pe_logic_mm2,
            local_store_mm2: spec.pe_count as f64
                * spec.local_store_bytes_per_pe as f64
                * self.local_store_mm2_per_byte,
            fifo_mm2: spec.fifo_bytes_total as f64 / 1024.0 * self.sram_mm2_per_kb,
            buffer_mm2: spec.buffer_kb_total as f64 * self.sram_mm2_per_kb,
            interconnect_mm2: spec.interconnect.area_mm2(spec.pe_count),
            overhead_mm2: spec.fixed_overhead_mm2,
        }
    }
}

impl Default for AreaModel {
    fn default() -> Self {
        AreaModel::tsmc65()
    }
}

/// Chip area split by component, in mm².
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AreaBreakdown {
    /// PE datapath logic.
    pub pe_logic_mm2: f64,
    /// Per-PE local stores / registers.
    pub local_store_mm2: f64,
    /// FIFO storage outside PEs.
    pub fifo_mm2: f64,
    /// On-chip SRAM buffers.
    pub buffer_mm2: f64,
    /// Inter-PE wiring.
    pub interconnect_mm2: f64,
    /// Fixed overhead (decoder, pooling, I/O).
    pub overhead_mm2: f64,
}

impl AreaBreakdown {
    /// Total chip area (mm²).
    pub fn total_mm2(&self) -> f64 {
        self.pe_logic_mm2
            + self.local_store_mm2
            + self.fifo_mm2
            + self.buffer_mm2
            + self.interconnect_mm2
            + self.overhead_mm2
    }

    /// Interconnect share of the total (the Section 6.2.5 routing-network
    /// proportion).
    pub fn interconnect_fraction(&self) -> f64 {
        let t = self.total_mm2();
        if t == 0.0 {
            return 0.0;
        }
        self.interconnect_mm2 / t
    }
}

impl fmt::Display for AreaBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.2} mm² (PE {:.2}, local {:.2}, fifo {:.2}, buf {:.2}, wire {:.2}, other {:.2})",
            self.total_mm2(),
            self.pe_logic_mm2,
            self.local_store_mm2,
            self.fifo_mm2,
            self.buffer_mm2,
            self.interconnect_mm2,
            self.overhead_mm2
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flexflow_spec(pe_count: usize) -> AreaSpec {
        AreaSpec {
            pe_count,
            local_store_bytes_per_pe: 512,
            fifo_bytes_total: 0,
            buffer_kb_total: 64,
            interconnect: InterconnectStyle::CommonDataBus,
            fixed_overhead_mm2: 0.30,
        }
    }

    #[test]
    fn flexflow_256_matches_paper() {
        let a = AreaModel::tsmc65().area(&flexflow_spec(256));
        let total = a.total_mm2();
        assert!(
            (total - 3.89).abs() / 3.89 < 0.05,
            "FlexFlow area {total:.3} should be within 5% of 3.89 mm²"
        );
    }

    #[test]
    fn interconnect_exponents_order_scaling() {
        // At 4096 PEs, the CDB must be the cheapest fabric and the
        // broadcast tree the most expensive growth.
        let cdb = InterconnectStyle::CommonDataBus.area_mm2(4096);
        let mesh = InterconnectStyle::Mesh2d.area_mm2(4096);
        let tree = InterconnectStyle::BroadcastTree.area_mm2(4096);
        assert!(cdb < mesh && mesh < tree);
    }

    #[test]
    fn interconnect_calibration_point() {
        for style in [
            InterconnectStyle::SystolicChain,
            InterconnectStyle::Mesh2d,
            InterconnectStyle::BroadcastTree,
            InterconnectStyle::CommonDataBus,
        ] {
            assert!((style.area_mm2(256) - style.base_mm2()).abs() < 1e-12);
        }
    }

    #[test]
    fn area_grows_monotonically() {
        let model = AreaModel::tsmc65();
        let mut prev = 0.0;
        for d in [8usize, 16, 32, 64] {
            let a = model.area(&flexflow_spec(d * d)).total_mm2();
            assert!(a > prev);
            prev = a;
        }
    }

    #[test]
    fn interconnect_fraction_declines_for_flexflow() {
        // Paper 6.2.5: routing share declines with scale for FlexFlow
        // (28.3% @16x16 -> 21.3% @64x64) because its other components
        // grow faster than its near-linear wiring. Our model reproduces
        // the declining direction.
        let model = AreaModel::tsmc65();
        let f16 = model.area(&flexflow_spec(256));
        let f64_ = model.area(&flexflow_spec(4096));
        assert!(f64_.interconnect_fraction() < f16.interconnect_fraction());
        // And the 16x16 share is in the paper's reported neighbourhood.
        assert!(f16.interconnect_fraction() > 0.10 && f16.interconnect_fraction() < 0.30);
    }

    #[test]
    fn display_includes_total() {
        let a = AreaModel::tsmc65().area(&flexflow_spec(256));
        let s = a.to_string();
        assert!(s.contains("mm²"));
    }
}
