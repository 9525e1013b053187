//! The Tiling baseline (DianNao style, processing style `MFSNSS`).
//!
//! Section 3.3: `Tm` PEs, each holding `Tn` multipliers and an adder
//! tree. Every cycle, `Tn` input neurons and `Tm×Tn` synapses are loaded
//! from the buffers — there is no local operand storage, so nothing is
//! reused ("it acquires the poorest data sharing"). Each PE accumulates a
//! single output neuron over `K²` cycles (times the `N/Tn` input tiles),
//! then switches to the next.
//!
//! The functional simulator executes the exact tile schedule (adder-tree
//! reduction per cycle); the analytic path counts the schedule in closed
//! form and charges the per-cycle operand streaming that makes this
//! architecture's data volume the largest of the four (Fig. 17).

use crate::common::{self, cdiv};
use flexsim_arch::area::{AreaBreakdown, AreaModel, AreaSpec, InterconnectStyle};
use flexsim_arch::stats::{EventCounts, LayerResult, Traffic};
use flexsim_arch::Accelerator;
use flexsim_dataflow::loopnest::grid;
use flexsim_model::reference::apply_activation;
use flexsim_model::tensor::KernelSet;
use flexsim_model::{Acc32, ConvLayer, Tensor3};
use flexsim_obs::attrib::StallCause;
use flexsim_obs::cycles::{Aggregate, CycleEventKind, SinkHandle};
use flexsim_obs::spatial::CellRect;
use flexsim_obs::steps::{Pass, Step};

/// The Tiling baseline simulator.
///
/// # Example
///
/// ```
/// use flexsim_arch::Accelerator;
/// use flexsim_baselines::TilingArray;
/// use flexsim_model::ConvLayer;
///
/// let mut tiling = TilingArray::diannao();
/// assert_eq!(tiling.pe_count(), 256);
/// // M=8, N=1: only 8 of 256 multiplier lanes ever fire (Table 3).
/// let r = tiling.run_conv(&ConvLayer::new("C1", 8, 1, 45, 6));
/// assert!(r.utilization() < 0.05);
/// ```
#[derive(Clone, Debug)]
pub struct TilingArray {
    tm: usize,
    tn: usize,
    sink: SinkHandle,
}

impl TilingArray {
    /// Creates an engine of `tm` PEs × `tn` multiplier lanes.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(tm: usize, tn: usize) -> Self {
        assert!(tm > 0 && tn > 0, "engine dimensions must be non-zero");
        TilingArray {
            tm,
            tn,
            sink: SinkHandle::none(),
        }
    }

    /// The paper's configuration: `⟨Tm=16, Tn=16⟩`.
    pub fn diannao() -> Self {
        TilingArray::new(16, 16)
    }

    /// Output feature-map parallelism `Tm`.
    pub fn tm(&self) -> usize {
        self.tm
    }

    /// Input feature-map parallelism `Tn`.
    pub fn tn(&self) -> usize {
        self.tn
    }

    /// Functionally computes a CONV layer through the tile schedule,
    /// bit-exact with the golden reference.
    ///
    /// # Panics
    ///
    /// Panics if the layer is not a valid convolution.
    pub fn forward(&self, layer: &ConvLayer, input: &Tensor3, kernels: &KernelSet) -> Tensor3 {
        assert!(layer.is_valid_convolution(), "padded layers not supported");
        let (m, n, s, k, stride) = (layer.m(), layer.n(), layer.s(), layer.k(), layer.stride());
        let (dilation, s_in, kk) = (layer.dilation(), layer.input_size(), k * k);
        let (input, kernels) = (input.as_slice(), kernels.as_slice());
        let mut out = Tensor3::zeros(m, s, s);
        // Each PE of an m-tile accumulates one output neuron; the tiles
        // take turns with one row of accumulators.
        let mut acc_row = vec![Acc32::ZERO; self.tm.min(m)];
        for r in 0..s {
            for c in 0..s {
                for m0 in (0..m).step_by(self.tm) {
                    let accs = &mut acc_row[..self.tm.min(m - m0)];
                    accs.fill(Acc32::ZERO);
                    for n0 in (0..n).step_by(self.tn) {
                        let tn = self.tn.min(n - n0);
                        for i in 0..k {
                            for j in 0..k {
                                // One engine cycle: Tn neurons fan out to
                                // Tm PEs; each PE's adder tree reduces
                                // its Tn products into the accumulator,
                                // lane by lane. The PEs take each lane
                                // in turn, so consecutive MACs update
                                // different accumulators.
                                let ir = r * stride + i * dilation;
                                let ic = c * stride + j * dilation;
                                for lane in n0..n0 + tn {
                                    let neuron = input[(lane * s_in + ir) * s_in + ic];
                                    // Synapse (m0 + pe, lane, i, j).
                                    let synapses = kernels[(m0 * n + lane) * kk + i * k + j..]
                                        .iter()
                                        .step_by(n * kk);
                                    for (acc, &synapse) in accs.iter_mut().zip(synapses) {
                                        acc.mac(synapse, neuron);
                                    }
                                }
                            }
                        }
                    }
                    for (pe, acc) in accs.iter().enumerate() {
                        out[(m0 + pe, r, c)] = apply_activation(acc.to_fx16(), layer.activation());
                    }
                }
            }
        }
        out
    }

    /// The on-chip events and traffic of the schedule [`Self::steps`]
    /// describes over the layer's `cycles`.
    fn analyze(&self, layer: &ConvLayer, cycles: u64) -> (EventCounts, Traffic) {
        let (m, n, s, k) = (layer.m(), layer.n(), layer.s(), layer.k());
        let m_tiles = cdiv(m, self.tm) as u64;
        let macs = layer.macs();

        // Per cycle: Tn neurons + Tm·Tn synapses stream from the buffers
        // with no reuse. Effective (clamped) lane counts sum to N over
        // n-tiles and M over m-tiles.
        let neuron_in = m_tiles * (n * s * s * k * k) as u64;
        let kernel_in = (m * n * s * s * k * k) as u64;
        let out_words = (m * s * s) as u64;
        let traffic = Traffic {
            neuron_in,
            neuron_out: out_words,
            kernel_in,
            psum: 0,
        };

        // Events: operands stream wide from the buffers (line reads);
        // neurons are broadcast across PEs (bus); the only local storage
        // is each PE's partial-result register.
        let events = EventCounts {
            macs,
            local_store_reads: cycles * self.tm as u64,
            local_store_writes: cycles * self.tm as u64,
            neuron_in_buf: 0,
            neuron_out_buf: out_words,
            kernel_buf: 0,
            stream_words: neuron_in + kernel_in,
            bus_words: neuron_in,
            ..Default::default()
        };
        (events, traffic)
    }

    /// The step schedule, as its step count and maximal runs of equal
    /// tiles (row-major): one pass per `(m-tile, n-tile)`, its MACs
    /// the clamped lane product. Heatmap rows are the `Tm` PEs and
    /// columns their `Tn` multiplier lanes; each pass lights the
    /// top-left `Tm_eff × Tn_eff` corner, so a starved engine (M or N
    /// below 16) shows as dark rows or lanes — Table 3's story per cell.
    ///
    /// Loss attribution per step uses the dominant residue component:
    /// an output-lane clamp (`Tm_eff < Tm`) idles whole PE rows —
    /// [`StallCause::EdgeFragmentation`] — while an input-lane clamp
    /// (`Tn_eff < Tn`) leaves every active row's `Tn`-input adder tree
    /// underfed — [`StallCause::AdderTreeContention`]. Corner tiles
    /// clamp both ways; their whole residue goes to whichever component
    /// is larger (row loss `(Tm−Tm_eff)·Tn` vs lane loss
    /// `Tm_eff·(Tn−Tn_eff)` per cycle), documented in DESIGN.md §9.
    pub fn steps(&self, layer: &ConvLayer) -> (u64, impl Iterator<Item = (Step, u64)> + '_) {
        let pass = (layer.s() * layer.s() * layer.k() * layer.k()) as u64;
        let (steps, runs) = grid([(layer.m(), self.tm), (layer.n(), self.tn)]);
        let runs = runs.map(move |([tm_eff, tn_eff], count)| {
            let step = Step::new(Pass {
                cause: self.residue_cause(tm_eff, tn_eff),
                cycles: pass,
                macs: (tm_eff * tn_eff) as u64 * pass,
                rects: CellRect::full(tm_eff, tn_eff).into(),
            });
            (step, count)
        });
        (steps, runs)
    }

    /// The cause a `Tm_eff × Tn_eff` tile's residue goes to.
    fn residue_cause(&self, tm_eff: usize, tn_eff: usize) -> StallCause {
        if tm_eff * (self.tn - tn_eff) > (self.tm - tm_eff) * self.tn {
            StallCause::AdderTreeContention
        } else {
            StallCause::EdgeFragmentation
        }
    }

    fn area_spec(&self) -> AreaSpec {
        AreaSpec {
            pe_count: self.pe_count(),
            local_store_bytes_per_pe: 4, // partial-result register only
            fifo_bytes_total: 0,
            buffer_kb_total: 64,
            interconnect: InterconnectStyle::BroadcastTree,
            fixed_overhead_mm2: 0.30,
        }
    }
}

impl Accelerator for TilingArray {
    fn name(&self) -> &str {
        "Tiling"
    }

    fn pe_count(&self) -> usize {
        self.tm * self.tn
    }

    fn run_conv(&mut self, layer: &ConvLayer) -> LayerResult {
        common::run_conv(
            self,
            &self.sink,
            layer,
            (self.tm, self.tn),
            self.steps(layer),
            |cycles| self.analyze(layer, cycles),
        )
    }

    fn attach_sink(&mut self, sink: SinkHandle) {
        self.sink = sink;
    }

    /// The closed-form aggregate of [`Self::steps`]: four tile classes
    /// cover the grid — interior, m-edge, n-edge and corner.
    fn aggregate(&self, layer: &ConvLayer) -> Aggregate {
        let (m, n) = (layer.m(), layer.n());
        let pass = (layer.s() * layer.s() * layer.k() * layer.k()) as u64;
        let (fm, rm) = ((m / self.tm) as u64, m % self.tm);
        let (fnt, rn) = ((n / self.tn) as u64, n % self.tn);
        let mut agg = Aggregate::default();
        for (count, tm_eff, tn_eff) in [
            (fm * fnt, self.tm, self.tn),
            (u64::from(rm > 0) * fnt, rm, self.tn),
            (fm * u64::from(rn > 0), self.tm, rn),
            (u64::from(rm > 0 && rn > 0), rm, rn),
        ] {
            let kind = CycleEventKind::Pass(self.residue_cause(tm_eff, tn_eff));
            agg.add(kind, count * pass, count * (tm_eff * tn_eff) as u64 * pass);
        }
        agg
    }

    fn area(&self) -> AreaBreakdown {
        AreaModel::tsmc65().area(&self.area_spec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::tests::{digest, full_scale_layer_data};
    use flexsim_model::reference;
    use flexsim_model::workloads;

    #[test]
    fn functional_matches_reference_small_layer() {
        let layer = ConvLayer::new("C", 5, 3, 6, 3);
        let (input, kernels) = reference::random_layer_data(&layer, 17);
        let t = TilingArray::new(4, 2);
        assert_eq!(
            t.forward(&layer, &input, &kernels),
            reference::conv(&layer, &input, &kernels)
        );
    }

    #[test]
    fn functional_matches_reference_lenet_c3() {
        let net = workloads::lenet5();
        let c3 = net.conv_layer("C3").unwrap();
        let (input, kernels) = reference::random_layer_data(c3, 9);
        let t = TilingArray::diannao();
        assert_eq!(
            t.forward(c3, &input, &kernels),
            reference::conv(c3, &input, &kernels)
        );
    }

    #[test]
    fn functional_handles_stride() {
        let layer = ConvLayer::new("C", 2, 2, 4, 3).with_stride(2);
        let (input, kernels) = reference::random_layer_data(&layer, 4);
        let t = TilingArray::new(2, 2);
        assert_eq!(
            t.forward(&layer, &input, &kernels),
            reference::conv(&layer, &input, &kernels)
        );
    }

    #[test]
    fn accumulation_order_is_pinned_under_saturation() {
        // Each PE sums its Tn lanes per (n-tile, i, j), not the
        // reference's (n, i, j) order, so once the accumulator
        // saturates the two disagree; the digest pins this simulator's
        // own order.
        let layer = ConvLayer::new("C", 5, 7, 4, 3).with_stride(2);
        let (input, kernels) = full_scale_layer_data(&layer, 3);
        let out = TilingArray::new(2, 3).forward(&layer, &input, &kernels);
        assert_ne!(out, reference::conv(&layer, &input, &kernels));
        assert_eq!(digest(&out), 14_272_764_172_111_384_089);
    }

    #[test]
    fn few_feature_maps_starve_the_engine() {
        // Table 3: PV C1 on C3-opt gives 8/96 = 8.3%; at the paper's
        // 16x16 configuration M=8, N=1 -> 8/256 = 3.1%.
        let mut t = TilingArray::diannao();
        let r = t.run_conv(&ConvLayer::new("C1", 8, 1, 45, 6));
        assert!((r.utilization() - 8.0 / 256.0).abs() < 1e-9);
    }

    #[test]
    fn many_feature_maps_fill_the_engine() {
        // AlexNet C5: M=192, N=256 are multiples of 16 -> full occupancy
        // (the paper's explanation for Tiling's high AlexNet/VGG
        // utilization in Fig. 15).
        let mut t = TilingArray::diannao();
        let r = t.run_conv(&ConvLayer::new("C5", 192, 256, 13, 3).with_input_size(15));
        assert!((r.utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn synapse_traffic_equals_macs() {
        // The no-reuse hallmark: one synapse word streamed per MAC.
        let mut t = TilingArray::diannao();
        let layer = ConvLayer::new("C", 16, 16, 8, 3);
        let r = t.run_conv(&layer);
        assert_eq!(r.traffic.kernel_in, layer.macs());
        assert!(r.traffic.total() > layer.macs());
    }

    #[test]
    fn area_near_paper() {
        let total = TilingArray::diannao().area().total_mm2();
        assert!(
            (total - 3.21).abs() / 3.21 < 0.08,
            "Tiling area {total:.2} vs paper 3.21"
        );
    }
}
