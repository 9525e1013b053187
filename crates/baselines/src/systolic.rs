//! The Systolic baseline (DC-CNN style, processing style `SFSNMS`).
//!
//! Section 3.1: each array is a deep convolution pipeline of `K×K` PEs.
//! Output-neuron accumulators are born at the first stage, travel through
//! every PE (crossing inter-row FIFOs of depth `W−K`), and meet synapse
//! `K(i,j)` exactly when input neuron `I(r+i, c+j)` is being broadcast —
//! one completed output neuron emerges per cycle once the pipeline is
//! full. Following the paper's Section 6.1.1 configuration, the engine is
//! 7 identical 6×6 arrays working in a tiling-like mode over output
//! feature maps (DC-CNN), or 11×11 arrays for AlexNet.
//!
//! The functional simulator ([`Systolic::forward`]) implements the
//! tagged-accumulator pipeline literally; the analytic path counts the
//! same schedule in closed form, including the pipeline fill/drain time
//! that the paper blames for Systolic's performance shortfall
//! ("Systolic needs a long initialization phase to fill its deep
//! pipeline", Section 6.2.3).

use crate::common::{self, cdiv};
use flexsim_arch::area::{AreaBreakdown, AreaModel, AreaSpec, InterconnectStyle};
use flexsim_arch::stats::{EventCounts, LayerResult, Traffic};
use flexsim_arch::Accelerator;
use flexsim_model::reference::apply_activation;
use flexsim_model::tensor::KernelSet;
use flexsim_model::{Acc32, ConvLayer, Fx16, Tensor2, Tensor3};
use flexsim_obs::attrib::StallCause;
use flexsim_obs::cycles::{Aggregate, CycleEventKind, SinkHandle};
use flexsim_obs::spatial::{CellRect, CellRects};
use flexsim_obs::steps::{Pass, Step};

/// The Systolic baseline simulator.
///
/// # Example
///
/// ```
/// use flexsim_arch::Accelerator;
/// use flexsim_baselines::Systolic;
/// use flexsim_model::ConvLayer;
///
/// let mut sys = Systolic::dc_cnn();
/// assert_eq!(sys.pe_count(), 7 * 36);
/// let r = sys.run_conv(&ConvLayer::new("C1", 6, 1, 28, 5));
/// assert!(r.utilization() < 1.0);
/// ```
#[derive(Clone, Debug)]
pub struct Systolic {
    array_k: usize,
    num_arrays: usize,
    sink: SinkHandle,
}

impl Systolic {
    /// Creates an engine of `num_arrays` arrays, each `array_k × array_k`
    /// PEs.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    pub fn new(array_k: usize, num_arrays: usize) -> Self {
        assert!(
            array_k > 0 && num_arrays > 0,
            "engine dimensions must be non-zero"
        );
        Systolic {
            array_k,
            num_arrays,
            sink: SinkHandle::none(),
        }
    }

    /// The paper's default configuration: 7 identical 6×6 arrays
    /// (`⟨Ti=6, Tj=6⟩`, DC-CNN).
    pub fn dc_cnn() -> Self {
        Systolic::new(6, 7)
    }

    /// The paper's AlexNet configuration (`⟨Ti=11, Tj=11⟩`); two arrays
    /// keep the engine at the ~256-PE scale.
    pub fn alexnet_config() -> Self {
        Systolic::new(11, 2)
    }

    /// Scales the engine to approximately `pe_budget` PEs while keeping
    /// the array geometry (Fig. 19 scalability sweeps).
    pub fn scaled_to(array_k: usize, pe_budget: usize) -> Self {
        let arrays = (pe_budget / (array_k * array_k)).max(1);
        Systolic::new(array_k, arrays)
    }

    /// Side length of each array.
    pub fn array_k(&self) -> usize {
        self.array_k
    }

    /// Number of arrays.
    pub fn num_arrays(&self) -> usize {
        self.num_arrays
    }

    /// Sub-kernel passes per `(m, n)` pair — a kernel wider than the
    /// array decomposes into `⌈K/ak⌉²` sub-kernels, each its own pass
    /// over the input — and each pass's pipeline depth, `(ak−1)·W + ak`
    /// chain cells.
    fn passes_and_depth(&self, layer: &ConvLayer) -> (u64, u64) {
        let (ak, w) = (self.array_k, layer.input_size());
        let pk = cdiv(layer.k(), ak) * cdiv(layer.k(), ak);
        (pk as u64, ((ak - 1) * w + ak) as u64)
    }

    /// Functionally computes a CONV layer through the systolic pipeline,
    /// bit-exact with the golden reference.
    ///
    /// # Panics
    ///
    /// Panics if the layer's kernel exceeds the array (`K > array_k`),
    /// the stride is not 1, or the layer is not a valid convolution —
    /// the functional model covers the paper's small workloads.
    pub fn forward(&self, layer: &ConvLayer, input: &Tensor3, kernels: &KernelSet) -> Tensor3 {
        assert!(
            layer.k() <= self.array_k,
            "functional systolic model requires K <= array size"
        );
        assert_eq!(
            layer.stride(),
            1,
            "functional systolic model requires stride 1"
        );
        assert_eq!(
            layer.dilation(),
            1,
            "functional systolic model requires dilation 1"
        );
        assert!(layer.is_valid_convolution(), "padded layers not supported");
        let (m, n, s) = (layer.m(), layer.n(), layer.s());
        let mut out = Tensor3::zeros(m, s, s);
        for om in 0..m {
            let mut acc_map: Tensor2<Acc32> = Tensor2::zeros(s, s);
            for inm in 0..n {
                self.pipeline_pass(layer, om, inm, input, kernels, &mut acc_map);
            }
            for r in 0..s {
                for c in 0..s {
                    out[(om, r, c)] =
                        apply_activation(acc_map[(r, c)].to_fx16(), layer.activation());
                }
            }
        }
        out
    }

    /// One (m, n) pipeline pass: streams the whole input map and drains.
    ///
    /// The chain is a ring buffer: a shift is a step of the head index,
    /// not a move of every cell, and chain position `p` lives at slot
    /// `(head + p) mod len`. The `k²` PE taps (chain offset and
    /// resident synapse) are fixed for the pass.
    fn pipeline_pass(
        &self,
        layer: &ConvLayer,
        om: usize,
        inm: usize,
        input: &Tensor3,
        kernels: &KernelSet,
        acc_map: &mut Tensor2<Acc32>,
    ) {
        let w = layer.input_size();
        let k = layer.k();
        let s = layer.s();
        // Chain cells: position p = i*w + j; PE cells are those with
        // (j < k && i < k); others are FIFO slots. Length (k-1)*w + k.
        let chain_len = (k - 1) * w + k;
        let mut chain: Vec<Option<(Acc32, usize, usize)>> = vec![None; chain_len];
        let mut head = 0;
        let taps: Vec<(usize, Fx16)> = (0..k)
            .flat_map(|i| (0..k).map(move |j| (i, j)))
            .map(|(i, j)| (i * w + j, kernels[(om, inm, i, j)]))
            .collect();
        let total_cycles = w * w + chain_len;
        for t in 0..total_cycles {
            let x = if t < w * w {
                input[(inm, t / w, t % w)]
            } else {
                Fx16::ZERO
            };
            // Shift: the exit stage (position len−1) becomes the new
            // position 0, after its accumulator leaves.
            head = if head == 0 { chain_len - 1 } else { head - 1 };
            if let Some((acc, r, c)) = chain[head].take() {
                if r < s && c < s {
                    acc_map[(r, c)] += acc;
                }
            }
            // Birth a new accumulator tagged with the current raster
            // position (only while streaming).
            if t < w * w {
                chain[head] = Some((Acc32::ZERO, t / w, t % w));
            }
            // Every PE cell accumulates k(i,j) * x into its resident
            // accumulator.
            for &(offset, weight) in &taps {
                let mut p = head + offset;
                if p >= chain_len {
                    p -= chain_len;
                }
                if let Some((acc, _, _)) = chain[p].as_mut() {
                    acc.mac(weight, x);
                }
            }
        }
        debug_assert!(chain.iter().all(Option::is_none), "pipeline fully drained");
    }

    /// The on-chip events and traffic of the schedule [`Self::steps`]
    /// describes.
    fn analyze(&self, layer: &ConvLayer) -> (EventCounts, Traffic) {
        let (m, n, k, s) = (layer.m(), layer.n(), layer.k(), layer.s());
        let w = layer.input_size();
        let (pk, depth) = self.passes_and_depth(layer);
        // Arrays parallelize over output feature maps (DC-CNN mode).
        let passes = (cdiv(m, self.num_arrays) * n) as u64 * pk;
        let cycles_per_pass = (w * w) as u64 + depth;
        let macs = layer.macs();

        // Traffic: input broadcast is shared by all arrays in a group;
        // each array holds its own kernel for the whole pass; outputs
        // integrate across (n, sub-kernel) passes via the output buffer.
        let neuron_in = passes * (w * w) as u64;
        let kernel_in = layer.synapses();
        let out_words = (m * s * s) as u64;
        let integration_passes = n as u64 * pk;
        let psum = if integration_passes > 1 {
            out_words * 2 * (integration_passes - 1)
        } else {
            0
        };
        let traffic = Traffic {
            neuron_in,
            neuron_out: out_words,
            kernel_in,
            psum,
        };

        // Events: each MAC reads its synapse register and updates the
        // accumulator register; each of the (K−1) inter-row FIFOs does
        // one push and one pop per busy cycle (circular-buffer FIFOs);
        // the input broadcast is one bus word per cycle.
        let busy_array_cycles = (m * n) as u64 * pk * cycles_per_pass;
        let fifos_per_array = (k.min(self.array_k) - 1) as u64;
        let events = EventCounts {
            macs,
            local_store_reads: 2 * macs + busy_array_cycles * fifos_per_array,
            local_store_writes: macs + busy_array_cycles * fifos_per_array,
            neuron_in_buf: neuron_in,
            neuron_out_buf: out_words + psum,
            kernel_buf: kernel_in,
            bus_words: neuron_in,
            ..Default::default()
        };
        (events, traffic)
    }

    /// The step schedule: one step per `(m-group, input map)` —
    /// sub-kernel passes merged — with the chain bubble split into
    /// ramp-in/ramp-out stalls and the streaming window as one pass on
    /// the active arrays. The heatmap lays the engine out as
    /// `num_arrays` stacked `array_k × array_k` tiles (rows
    /// `a·ak..a·ak+ak` are array `a`), each pass lighting the
    /// `K_eff × K_eff` kernel footprint of its busy arrays, so the
    /// `K² < ak²` array waste shows as dark cells.
    ///
    /// Loss attribution: the chain bubble divides evenly into
    /// [`StallCause::PipelineFill`] (no output emerges until the chain
    /// primes) and [`StallCause::PipelineDrain`] (accumulators still in
    /// flight after the last input). The pass residue is
    /// [`StallCause::MappingResidueIdle`] on full m-groups (`K² < ak²`
    /// array waste, window overscan) and
    /// [`StallCause::EdgeFragmentation`] on the final partial group
    /// (`M mod num_arrays` arrays idle — edge-dominated, so the whole
    /// residue of that step is attributed there).
    pub fn steps<'a>(&'a self, layer: &'a ConvLayer) -> impl ExactSizeIterator<Item = Step> + 'a {
        let (m, n, k, s) = (layer.m(), layer.n(), layer.k(), layer.s());
        let w = layer.input_size();
        let ak = self.array_k;
        let (pk, depth) = self.passes_and_depth(layer);
        let bubble = pk * depth;
        let footprint = CellRect::full(k.min(ak), k.min(ak));
        (0..cdiv(m, self.num_arrays) * n).map(move |i| {
            let arrays = self.num_arrays.min(m - i / n * self.num_arrays);
            let cause = if arrays < self.num_arrays {
                StallCause::EdgeFragmentation
            } else {
                StallCause::MappingResidueIdle
            };
            Step::new(Pass {
                cause,
                cycles: pk * (w * w) as u64,
                macs: (arrays * s * s * k * k) as u64,
                rects: CellRects::stacked(footprint, arrays, ak),
            })
            .stall(StallCause::PipelineFill, bubble.div_ceil(2))
            .stall(StallCause::PipelineDrain, bubble / 2)
        })
    }

    fn area_spec(&self) -> AreaSpec {
        let w_provisioned = 64; // provisioned FIFO depth per row crossing
        AreaSpec {
            pe_count: self.pe_count(),
            local_store_bytes_per_pe: 4, // synapse + partial-result regs
            fifo_bytes_total: self.num_arrays * (self.array_k - 1) * w_provisioned * 2,
            buffer_kb_total: 64,
            interconnect: InterconnectStyle::SystolicChain,
            fixed_overhead_mm2: 0.30,
        }
    }
}

impl Accelerator for Systolic {
    fn name(&self) -> &str {
        "Systolic"
    }

    fn pe_count(&self) -> usize {
        self.num_arrays * self.array_k * self.array_k
    }

    fn run_conv(&mut self, layer: &ConvLayer) -> LayerResult {
        common::run_conv(
            self,
            &self.sink,
            layer,
            (self.num_arrays * self.array_k, self.array_k),
            self.steps(layer),
            |_| self.analyze(layer),
        )
    }

    fn attach_sink(&mut self, sink: SinkHandle) {
        self.sink = sink;
    }

    /// The closed-form aggregate of [`Self::steps`]: full m-groups keep
    /// every array busy (mapping-residue loss only), the final partial
    /// group idles `M mod num_arrays` arrays (edge fragmentation).
    fn aggregate(&self, layer: &ConvLayer) -> Aggregate {
        let (m, n, k, s) = (layer.m(), layer.n(), layer.k(), layer.s());
        let w = layer.input_size();
        let (pk, depth) = self.passes_and_depth(layer);
        let bubble = pk * depth;
        let pass = pk * (w * w) as u64;
        let steps = (cdiv(m, self.num_arrays) * n) as u64;
        let (full, edge) = ((m / self.num_arrays) as u64, (m % self.num_arrays) as u64);
        let (n, per_array) = (n as u64, (s * s * k * k) as u64);
        let mut agg = Aggregate::default();
        let fill = CycleEventKind::Stall(StallCause::PipelineFill);
        agg.add(fill, steps * bubble.div_ceil(2), 0);
        let drain = CycleEventKind::Stall(StallCause::PipelineDrain);
        agg.add(drain, steps * (bubble / 2), 0);
        agg.add(
            CycleEventKind::Pass(StallCause::MappingResidueIdle),
            full * n * pass,
            full * n * self.num_arrays as u64 * per_array,
        );
        agg.add(
            CycleEventKind::Pass(StallCause::EdgeFragmentation),
            u64::from(edge > 0) * n * pass,
            n * edge * per_array,
        );
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
        let layer = ConvLayer::new("C", 3, 2, 6, 3);
        let (input, kernels) = reference::random_layer_data(&layer, 11);
        let sys = Systolic::dc_cnn();
        let got = sys.forward(&layer, &input, &kernels);
        let want = reference::conv(&layer, &input, &kernels);
        assert_eq!(got, want);
    }

    #[test]
    fn functional_matches_reference_lenet_c1() {
        let net = workloads::lenet5();
        let c1 = net.conv_layer("C1").unwrap();
        let (input, kernels) = reference::random_layer_data(c1, 7);
        let sys = Systolic::dc_cnn();
        let got = sys.forward(c1, &input, &kernels);
        let want = reference::conv(c1, &input, &kernels);
        assert_eq!(got, want);
    }

    #[test]
    fn functional_matches_reference_k_equals_array() {
        // PV C1 has K=6, exactly the array size.
        let net = workloads::pv();
        let c1 = net.conv_layer("C1").unwrap();
        let (input, kernels) = reference::random_layer_data(c1, 3);
        let sys = Systolic::dc_cnn();
        assert_eq!(
            sys.forward(c1, &input, &kernels),
            reference::conv(c1, &input, &kernels)
        );
    }

    #[test]
    fn ring_buffer_edge_cases_bit_exact() {
        let cases = [
            // K = 1: a one-cell chain, the head never leaves slot 0.
            (Systolic::dc_cnn(), ConvLayer::new("C", 3, 2, 5, 1)),
            // W = K: one output per map (S = 1); every other birth
            // falls outside the map.
            (Systolic::dc_cnn(), ConvLayer::new("C", 2, 3, 1, 4)),
            // K = array_k on a small array: every PE cell is a tap.
            (Systolic::new(3, 2), ConvLayer::new("C", 3, 2, 4, 3)),
            // W ≫ K: long FIFO stretches between the chain's PE rows.
            (Systolic::dc_cnn(), ConvLayer::new("C", 2, 2, 62, 3)),
        ];
        for (seed, (sys, layer)) in (51..).zip(&cases) {
            let (input, kernels) = reference::random_layer_data(layer, seed);
            assert_eq!(
                sys.forward(layer, &input, &kernels),
                reference::conv(layer, &input, &kernels),
                "{layer:?} on {k}x{k} arrays",
                k = sys.array_k()
            );
        }
    }

    #[test]
    #[should_panic(expected = "K <= array size")]
    fn oversized_kernel_rejected_functionally() {
        let layer = ConvLayer::new("C", 1, 1, 4, 7);
        let (input, kernels) = reference::random_layer_data(&layer, 0);
        let _ = Systolic::dc_cnn().forward(&layer, &input, &kernels);
    }

    #[test]
    fn small_kernels_waste_pes() {
        // Table 3's premise: a K=3 layer on a 6x6 array uses 9/36 = 25%
        // of each array at best.
        let layer = ConvLayer::new("C3", 12, 8, 20, 3);
        let mut sys = Systolic::dc_cnn();
        let r = sys.run_conv(&layer);
        assert!(r.utilization() < 0.25);
        assert_eq!(r.macs, layer.macs());
    }

    #[test]
    fn pipeline_fill_penalizes_small_maps() {
        // Same MACs, smaller maps -> worse utilization because the
        // fill/drain overhead amortizes over fewer outputs.
        let big = ConvLayer::new("big", 4, 4, 40, 5);
        let small = ConvLayer::new("small", 64, 4, 10, 5);
        let mut sys = Systolic::dc_cnn();
        let ub = sys.run_conv(&big).utilization();
        let us = sys.run_conv(&small).utilization();
        assert!(ub > us);
    }

    #[test]
    fn kernel_decomposition_multiplies_passes() {
        let layer = ConvLayer::new("C", 1, 1, 20, 7); // K=7 > 6
        let mut sys = Systolic::dc_cnn();
        let r7 = sys.run_conv(&layer);
        let layer6 = ConvLayer::new("C", 1, 1, 20, 6).with_input_size(26);
        let r6 = sys.run_conv(&layer6);
        // 4 sub-kernel passes vs 1.
        assert!(r7.cycles > 3 * r6.cycles);
    }

    #[test]
    fn traffic_shares_input_across_arrays() {
        // 7 output maps in one group: the input is streamed once.
        let layer = ConvLayer::new("C", 7, 1, 23, 6);
        let mut sys = Systolic::dc_cnn();
        let r = sys.run_conv(&layer);
        assert_eq!(r.traffic.neuron_in, (28 * 28) as u64);
        assert_eq!(r.traffic.kernel_in, layer.synapses());
    }

    #[test]
    fn area_near_paper() {
        let sys = Systolic::dc_cnn();
        let total = sys.area().total_mm2();
        assert!(
            (total - 3.52).abs() / 3.52 < 0.08,
            "Systolic area {total:.2} vs paper 3.52"
        );
    }

    #[test]
    fn scaled_engines_grow() {
        let s8 = Systolic::scaled_to(6, 64);
        let s64 = Systolic::scaled_to(6, 4096);
        assert!(s8.pe_count() <= 64);
        assert!(s64.pe_count() > 100 * 8);
    }
}
