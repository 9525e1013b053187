//! The 2D-Mapping baseline (ShiDiannao style, processing style `SFMNSS`).
//!
//! Section 3.2: a `Tr×Tc` PE array computes `Tr×Tc` output neurons of one
//! output feature map in place. Each of the `K²` steps broadcasts one
//! synapse to every PE while input neurons shift right-to-left /
//! down-to-up through inter-PE FIFOs; each PE accumulates its output
//! neuron locally until all partial results are complete, then the array
//! switches to the next tile.
//!
//! The functional simulator models the operand movement explicitly — a
//! sliding register window plus column/row injections, matching the
//! paper's Figure 5(b2) snapshot — and is validated bit-exactly against
//! the reference. The analytic path counts the same schedule in closed
//! form.

use crate::common::{self, cdiv};
use flexsim_arch::area::{AreaBreakdown, AreaModel, AreaSpec, InterconnectStyle};
use flexsim_arch::stats::{EventCounts, LayerResult, Traffic};
use flexsim_arch::Accelerator;
use flexsim_model::reference::apply_activation;
use flexsim_model::tensor::KernelSet;
use flexsim_model::{Acc32, ConvLayer, Tensor2, Tensor3};
use flexsim_obs::attrib::StallCause;
use flexsim_obs::cycles::{Aggregate, CycleEventKind, SinkHandle};
use flexsim_obs::spatial::CellRect;
use flexsim_obs::steps::{Pass, Step};

/// Operand-movement statistics from the explicit shift simulation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Mapping2dStats {
    /// Neurons injected at the array edges (buffer → engine words).
    pub injected_words: u64,
    /// Register-to-register hops through the inter-PE FIFOs.
    pub fifo_shifts: u64,
}

/// The 2D-Mapping baseline simulator.
///
/// # Example
///
/// ```
/// use flexsim_arch::Accelerator;
/// use flexsim_baselines::Mapping2d;
/// use flexsim_model::ConvLayer;
///
/// let mut m2d = Mapping2d::shidiannao();
/// assert_eq!(m2d.pe_count(), 256);
/// // A 10x10 output map fills only 100 of 256 PEs (Fig. 15's story).
/// let r = m2d.run_conv(&ConvLayer::new("C3", 16, 6, 10, 5));
/// assert!(r.utilization() < 0.5);
/// ```
#[derive(Clone, Debug)]
pub struct Mapping2d {
    tr: usize,
    tc: usize,
    sink: SinkHandle,
}

impl Mapping2d {
    /// Creates a `tr × tc` neuron-parallel array.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(tr: usize, tc: usize) -> Self {
        assert!(tr > 0 && tc > 0, "engine dimensions must be non-zero");
        Mapping2d {
            tr,
            tc,
            sink: SinkHandle::none(),
        }
    }

    /// The paper's configuration: `⟨Tr=16, Tc=16⟩`, 256 output neurons at
    /// a time.
    pub fn shidiannao() -> Self {
        Mapping2d::new(16, 16)
    }

    /// Row dimension `Tr`.
    pub fn tr(&self) -> usize {
        self.tr
    }

    /// Column dimension `Tc`.
    pub fn tc(&self) -> usize {
        self.tc
    }

    /// Functionally computes a CONV layer tile by tile through the
    /// shifting dataflow, bit-exact with the golden reference.
    ///
    /// # Panics
    ///
    /// Panics if the stride is not 1 or the layer is not a valid
    /// convolution.
    pub fn forward(&self, layer: &ConvLayer, input: &Tensor3, kernels: &KernelSet) -> Tensor3 {
        self.forward_with_stats(layer, input, kernels).0
    }

    /// Functionally computes a CONV layer while modeling the operand
    /// movement explicitly: each PE holds one operand register; per
    /// synapse step the whole window shifts one hop through the
    /// inter-PE FIFOs in a zigzag (right-to-left on even kernel rows,
    /// back on odd ones, up between rows — Fig. 5(b2)), with fresh
    /// neurons injected only at the array edge. Returns the output plus
    /// movement statistics.
    ///
    /// # Panics
    ///
    /// Panics if the stride is not 1 or the layer is not a valid
    /// convolution.
    pub fn forward_with_stats(
        &self,
        layer: &ConvLayer,
        input: &Tensor3,
        kernels: &KernelSet,
    ) -> (Tensor3, Mapping2dStats) {
        assert_eq!(
            layer.stride(),
            1,
            "functional 2D-mapping model requires stride 1"
        );
        assert_eq!(
            layer.dilation(),
            1,
            "functional 2D-mapping model requires dilation 1"
        );
        assert!(layer.is_valid_convolution(), "padded layers not supported");
        let (m, n, s, k) = (layer.m(), layer.n(), layer.s(), layer.k());
        let mut out = Tensor3::zeros(m, s, s);
        let mut stats = Mapping2dStats::default();
        for om in 0..m {
            for r0 in (0..s).step_by(self.tr) {
                for c0 in (0..s).step_by(self.tc) {
                    let tr = self.tr.min(s - r0);
                    let tc = self.tc.min(s - c0);
                    // Local accumulators for the tile's output neurons.
                    let mut acc: Tensor2<Acc32> = Tensor2::zeros(tr, tc);
                    for inm in 0..n {
                        // Operand registers: window[r][c] holds the
                        // neuron PE (r, c) multiplies this cycle.
                        // Initial fill for (i=0, j=0).
                        let mut window =
                            Tensor2::from_fn(tr, tc, |r, c| input[(inm, r0 + r, c0 + c)]);
                        stats.injected_words += (tr * tc) as u64;
                        let mut j = 0usize;
                        for i in 0..k {
                            let rightward = i % 2 == 0;
                            for step in 0..k {
                                if step > 0 {
                                    // One hop through the inter-PE
                                    // FIFOs; inject at the edge.
                                    if rightward {
                                        j += 1;
                                        for r in 0..tr {
                                            for c in 0..tc - 1 {
                                                window[(r, c)] = window[(r, c + 1)];
                                            }
                                            window[(r, tc - 1)] =
                                                input[(inm, r0 + r + i, c0 + tc - 1 + j)];
                                        }
                                    } else {
                                        j -= 1;
                                        for r in 0..tr {
                                            for c in (1..tc).rev() {
                                                window[(r, c)] = window[(r, c - 1)];
                                            }
                                            window[(r, 0)] = input[(inm, r0 + r + i, c0 + j)];
                                        }
                                    }
                                    stats.fifo_shifts += (tr * (tc - 1)) as u64;
                                    stats.injected_words += tr as u64;
                                }
                                let synapse = kernels[(om, inm, i, j)];
                                for r in 0..tr {
                                    for c in 0..tc {
                                        debug_assert_eq!(
                                            window[(r, c)],
                                            input[(inm, r0 + r + i, c0 + c + j)],
                                            "operand window out of sync"
                                        );
                                        acc[(r, c)].mac(synapse, window[(r, c)]);
                                    }
                                }
                            }
                            // Down-to-up shift between kernel rows; the
                            // bottom row is injected fresh.
                            if i + 1 < k {
                                for c in 0..tc {
                                    for r in 0..tr - 1 {
                                        window[(r, c)] = window[(r + 1, c)];
                                    }
                                    window[(tr - 1, c)] =
                                        input[(inm, r0 + tr - 1 + i + 1, c0 + c + j)];
                                }
                                stats.fifo_shifts += (tc * (tr - 1)) as u64;
                                stats.injected_words += tc as u64;
                            }
                        }
                    }
                    for r in 0..tr {
                        for c in 0..tc {
                            out[(om, r0 + r, c0 + c)] =
                                apply_activation(acc[(r, c)].to_fx16(), layer.activation());
                        }
                    }
                }
            }
        }
        (out, stats)
    }

    /// The on-chip events and traffic of the schedule [`Self::steps`]
    /// describes.
    fn analyze(&self, layer: &ConvLayer) -> (EventCounts, Traffic) {
        let (m, n, s, k) = (layer.m(), layer.n(), layer.s(), layer.k());
        let row_tiles = cdiv(s, self.tr);
        let col_tiles = cdiv(s, self.tc);
        // One synapse broadcast per compute cycle: K² per (m, tile, n).
        let broadcasts = (m * n * k * k * row_tiles * col_tiles) as u64;
        let macs = layer.macs();

        // Traffic: each tile reads its haloed input region once per
        // (m, n) — the paper's "input feature maps are still needed to be
        // read multiple times corresponding to different output feature
        // maps". Kernels are broadcast one synapse per compute cycle.
        let mut halo_words = 0u64;
        for rt in 0..row_tiles {
            for ct in 0..col_tiles {
                let tr = self.tr.min(s - rt * self.tr);
                let tc = self.tc.min(s - ct * self.tc);
                halo_words += ((tr + k - 1) * (tc + k - 1)) as u64;
            }
        }
        let neuron_in = (m * n) as u64 * halo_words;
        // One synapse is read from the kernel buffer and broadcast every
        // compute cycle; tiles re-read the same synapses.
        let kernel_in = broadcasts;
        let out_words = (m * s * s) as u64;
        let traffic = Traffic {
            neuron_in,
            neuron_out: out_words,
            kernel_in,
            psum: 0,
        };

        // Events: every MAC pulls its input from a neighbour FIFO (one
        // read + one write as the operand window shifts) and updates the
        // local accumulator; the synapse broadcast is one bus word per
        // compute cycle; column/row injections are bus words too.
        let events = EventCounts {
            macs,
            local_store_reads: 2 * macs,
            local_store_writes: macs,
            neuron_in_buf: neuron_in,
            neuron_out_buf: out_words,
            kernel_buf: kernel_in,
            bus_words: broadcasts + neuron_in,
            ..Default::default()
        };
        (events, traffic)
    }

    /// The step schedule: one step per spatial tile — the initial
    /// window load, then one pass covering the tile's `M·N·K²` compute
    /// cycles. Output neurons map to PEs in place, so each pass lights
    /// the top-left `Tr_eff × Tc_eff` corner of the array and edge
    /// tiles darken its right and bottom margins — the paper's
    /// "feature map smaller than computing array" waste, per cell.
    ///
    /// Loss attribution: the per-tile window load is
    /// [`StallCause::BufferBandwidthWait`] — operands inject through
    /// the array edge at buffer width, so the whole array waits `Tc`
    /// cycles for the window to arrive. The pass residue comes only
    /// from `Tr_eff·Tc_eff` edge clamping, hence
    /// [`StallCause::EdgeFragmentation`] (interior tiles have zero
    /// residue).
    pub fn steps<'a>(&'a self, layer: &'a ConvLayer) -> impl ExactSizeIterator<Item = Step> + 'a {
        let (s, col_tiles) = (layer.s(), cdiv(layer.s(), self.tc));
        let pass = (layer.m() * layer.n() * layer.k() * layer.k()) as u64;
        (0..cdiv(s, self.tr) * col_tiles).map(move |t| {
            let tr_eff = self.tr.min(s - t / col_tiles * self.tr);
            let tc_eff = self.tc.min(s - t % col_tiles * self.tc);
            Step::new(Pass {
                cause: StallCause::EdgeFragmentation,
                cycles: pass,
                macs: (tr_eff * tc_eff) as u64 * pass,
                rects: CellRect::full(tr_eff, tc_eff).into(),
            })
            .stall(StallCause::BufferBandwidthWait, self.tc as u64)
        })
    }

    fn area_spec(&self) -> AreaSpec {
        AreaSpec {
            pe_count: self.pe_count(),
            // Two small operand FIFOs per PE (Fig. 7b).
            local_store_bytes_per_pe: 32,
            fifo_bytes_total: 0,
            buffer_kb_total: 64,
            interconnect: InterconnectStyle::Mesh2d,
            fixed_overhead_mm2: 0.30,
        }
    }
}

impl Accelerator for Mapping2d {
    fn name(&self) -> &str {
        "2D-Mapping"
    }

    fn pe_count(&self) -> usize {
        self.tr * self.tc
    }

    fn run_conv(&mut self, layer: &ConvLayer) -> LayerResult {
        common::run_conv(
            self,
            &self.sink,
            layer,
            (self.tr, self.tc),
            self.steps(layer),
            |_| self.analyze(layer),
        )
    }

    fn attach_sink(&mut self, sink: SinkHandle) {
        self.sink = sink;
    }

    /// The closed-form aggregate of [`Self::steps`]: clamped tile areas
    /// sum to exactly `S²` over the tile grid.
    fn aggregate(&self, layer: &ConvLayer) -> Aggregate {
        let s = layer.s();
        let tiles = (cdiv(s, self.tr) * cdiv(s, self.tc)) as u64;
        let pass = (layer.m() * layer.n() * layer.k() * layer.k()) as u64;
        let mut agg = Aggregate::default();
        let wait = CycleEventKind::Stall(StallCause::BufferBandwidthWait);
        agg.add(wait, tiles * self.tc as u64, 0);
        let edge = CycleEventKind::Pass(StallCause::EdgeFragmentation);
        agg.add(edge, tiles * pass, (s * s) as u64 * pass);
        agg
    }

    fn area(&self) -> AreaBreakdown {
        AreaModel::tsmc65().area(&self.area_spec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsim_model::reference;
    use flexsim_model::workloads;

    #[test]
    fn functional_matches_reference_small_layer() {
        let layer = ConvLayer::new("C", 3, 2, 7, 3);
        let (input, kernels) = reference::random_layer_data(&layer, 5);
        let m2d = Mapping2d::new(4, 4);
        assert_eq!(
            m2d.forward(&layer, &input, &kernels),
            reference::conv(&layer, &input, &kernels)
        );
    }

    #[test]
    fn functional_matches_reference_lenet_c3() {
        let net = workloads::lenet5();
        let c3 = net.conv_layer("C3").unwrap();
        let (input, kernels) = reference::random_layer_data(c3, 21);
        let m2d = Mapping2d::shidiannao();
        assert_eq!(
            m2d.forward(c3, &input, &kernels),
            reference::conv(c3, &input, &kernels)
        );
    }

    #[test]
    fn shift_network_injections_match_closed_form() {
        // Per (m, n, tile): tr*tc initial fill + tr per lateral hop
        // (k*(k-1) hops) + tc per up-shift (k-1 of them).
        let layer = ConvLayer::new("C", 2, 3, 8, 4);
        let (input, kernels) = flexsim_model::reference::random_layer_data(&layer, 77);
        let m2d = Mapping2d::new(8, 8);
        let (out, stats) = m2d.forward_with_stats(&layer, &input, &kernels);
        assert_eq!(
            out,
            flexsim_model::reference::conv(&layer, &input, &kernels)
        );
        let (tr, tc, k) = (8u64, 8u64, 4u64);
        let per_pass = tr * tc + k * (k - 1) * tr + (k - 1) * tc;
        assert_eq!(stats.injected_words, 2 * 3 * per_pass);
        // Every lateral hop moves tr*(tc-1) registers, every up-shift
        // tc*(tr-1).
        let per_pass_shifts = k * (k - 1) * tr * (tc - 1) + (k - 1) * tc * (tr - 1);
        assert_eq!(stats.fifo_shifts, 2 * 3 * per_pass_shifts);
    }

    #[test]
    fn zigzag_survives_non_square_tiles() {
        // Edge tiles exercise tr != tc and 1-wide windows.
        let layer = ConvLayer::new("C", 2, 2, 9, 3);
        let (input, kernels) = flexsim_model::reference::random_layer_data(&layer, 78);
        for (tr, tc) in [(4usize, 4usize), (9, 2), (2, 9), (1, 9), (9, 1)] {
            let m2d = Mapping2d::new(tr, tc);
            assert_eq!(
                m2d.forward(&layer, &input, &kernels),
                flexsim_model::reference::conv(&layer, &input, &kernels),
                "tile {tr}x{tc}"
            );
        }
    }

    #[test]
    fn small_maps_underutilize() {
        // Paper Section 6.2.2: "the feature map size of the second or
        // later layers ... is smaller than computing array, which wastes
        // computing resources".
        let mut m2d = Mapping2d::shidiannao();
        let c3 = ConvLayer::new("C3", 16, 6, 10, 5);
        let r = m2d.run_conv(&c3);
        // 10x10 = 100 of 256 PEs.
        assert!(r.utilization() < 100.0 / 256.0 + 1e-9);
        assert!(r.utilization() > 0.30);
    }

    #[test]
    fn large_maps_utilize_well() {
        let mut m2d = Mapping2d::shidiannao();
        let c1 = ConvLayer::new("C1", 8, 1, 48, 5);
        let r = m2d.run_conv(&c1);
        assert!(r.utilization() > 0.85);
    }

    #[test]
    fn input_reread_per_output_map() {
        let mut m2d = Mapping2d::shidiannao();
        let layer = ConvLayer::new("C", 4, 2, 16, 3);
        let r = m2d.run_conv(&layer);
        // One haloed tile (18x18) per (m, n).
        assert_eq!(r.traffic.neuron_in, 4 * 2 * 18 * 18);
    }

    #[test]
    fn cycles_scale_with_kernel_area() {
        let mut m2d = Mapping2d::shidiannao();
        let k3 = m2d.run_conv(&ConvLayer::new("a", 4, 4, 16, 3)).cycles;
        let k5 = m2d.run_conv(&ConvLayer::new("b", 4, 4, 16, 5)).cycles;
        assert!(k5 > 2 * k3);
    }

    #[test]
    fn area_near_paper() {
        let total = Mapping2d::shidiannao().area().total_mm2();
        assert!(
            (total - 3.46).abs() / 3.46 < 0.08,
            "2D-Mapping area {total:.2} vs paper 3.46"
        );
    }
}
