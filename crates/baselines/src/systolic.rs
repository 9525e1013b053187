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
//! The functional simulator ([`Systolic::forward`]) runs that pipeline
//! PE-major: the accumulator born at raster slot `b` meets tap `(i, j)`
//! at cycle `b + i·W + j`, with operand `x[b + i·W + j]`, so each tap's
//! whole stream of (accumulator, operand) pairs is known before the pass
//! starts, and one straight sweep per tap replaces the cycle-by-cycle
//! shift of the chain. Every accumulator still takes its taps in the
//! order the chain presents them, so the outputs are bit-exact with the
//! stepped chain even where `Acc32` saturates. The analytic path counts
//! the same schedule in closed form, including the pipeline fill/drain
//! time that the paper blames for Systolic's performance shortfall
//! ("Systolic needs a long initialization phase to fill its deep
//! pipeline", Section 6.2.3).

use crate::common::{self, cdiv};
use flexsim_arch::area::{AreaBreakdown, AreaModel, AreaSpec, InterconnectStyle};
use flexsim_arch::stats::{EventCounts, LayerResult, Traffic};
use flexsim_arch::Accelerator;
use flexsim_dataflow::loopnest::grid;
use flexsim_model::reference::apply_activation;
use flexsim_model::tensor::KernelSet;
use flexsim_model::{Acc32, ConvLayer, Fx16, Tensor3};
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

    /// Functionally computes a CONV layer through the systolic pipeline:
    /// one pass per `(m, n)` pair, an output map's passes in `n` order.
    /// Each pass runs PE-major, tap by tap over the accumulators the
    /// chain births (see the module docs), which hands every accumulator
    /// its MACs in the chain's order: the output is bit-identical to the
    /// cycle-stepped chain even where `Acc32` saturates, and to the
    /// golden reference wherever no accumulator saturates.
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
        let (m, n, s, w) = (layer.m(), layer.n(), layer.s(), layer.input_size());
        let mut out = Tensor3::zeros(m, s, s);
        let mut births = vec![Acc32::ZERO; w * w];
        let mut acc_map = vec![Acc32::ZERO; s * s];
        for om in 0..m {
            acc_map.fill(Acc32::ZERO);
            for inm in 0..n {
                let (kernel, x) = (kernels.kernel_slice(om, inm), input.map_slice(inm));
                pass(layer, kernel, x, &mut births, &mut acc_map);
            }
            for (r, row) in acc_map.chunks_exact(s).enumerate() {
                for (c, acc) in row.iter().enumerate() {
                    out[(om, r, c)] = apply_activation(acc.to_fx16(), layer.activation());
                }
            }
        }
        out
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

    /// The step schedule, as its step count and at most two maximal runs
    /// (full m-groups, then the partial one): one step per
    /// `(m-group, input map)` —
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
    pub fn steps(&self, layer: &ConvLayer) -> (u64, impl Iterator<Item = (Step, u64)>) {
        let (k, s, w) = (layer.k(), layer.s(), layer.input_size());
        let (num_arrays, ak) = (self.num_arrays, self.array_k);
        let (pk, depth) = self.passes_and_depth(layer);
        let bubble = pk * depth;
        let footprint = CellRect::full(k.min(ak), k.min(ak));
        let (steps, runs) = grid([(layer.m(), num_arrays), (layer.n(), 1)]);
        let runs = runs.map(move |([arrays, _], count)| {
            let cause = if arrays < num_arrays {
                StallCause::EdgeFragmentation
            } else {
                StallCause::MappingResidueIdle
            };
            let step = Step::new(Pass {
                cause,
                cycles: pk * (w * w) as u64,
                macs: (arrays * s * s * k * k) as u64,
                rects: CellRects::stacked(footprint, arrays, ak),
            })
            .stall(StallCause::PipelineFill, bubble.div_ceil(2))
            .stall(StallCause::PipelineDrain, bubble / 2);
            (step, count)
        });
        (steps, runs)
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

/// One `(m, n)` pass of a systolic array's pipeline, PE-major.
///
/// The stepped chain is `(K−1)·W + K` cells long and streams the map in
/// `W² + (K−1)·W + K` cycles: it births the accumulator of raster slot
/// `b` at cycle `b`, and tap `(i, j)`, at chain offset `off = i·W + j`,
/// holds it at cycle `b + off`, when `x[b + off]` is on the broadcast
/// bus. So tap `(i, j)` is live (sees a streamed operand) for cycles
/// `off .. W² + off` and sweeps births `0 .. W² − off` in order; after
/// that it sees drain cycles, whose zero operand adds nothing. Visiting
/// the taps in increasing `off` hands every accumulator its MACs in the
/// chain's order, so `births` ends each pass as the chain's exit stage
/// would see it. The `S²` in-map births (raster slots of `r, c < S`)
/// are then added into `acc_map`; the overscan ones are computed and
/// dropped, as the chain drops them.
///
/// `kernel` is the `K×K` kernel in `(i, j)` order, `x` the `W×W` input
/// map and `births` a `W²`-word scratch buffer.
fn pass(
    layer: &ConvLayer,
    kernel: &[Fx16],
    x: &[Fx16],
    births: &mut [Acc32],
    acc_map: &mut [Acc32],
) {
    let (k, s, w) = (layer.k(), layer.s(), layer.input_size());
    births.fill(Acc32::ZERO);
    for (i, row) in kernel.chunks_exact(k).enumerate() {
        for (j, &weight) in row.iter().enumerate() {
            for (acc, &operand) in births.iter_mut().zip(&x[i * w + j..]) {
                acc.mac(weight, operand);
            }
        }
    }
    for (out_row, born) in acc_map.chunks_exact_mut(s).zip(births.chunks_exact(w)) {
        for (out, &acc) in out_row.iter_mut().zip(born) {
            *out += acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::tests::{digest, full_scale_layer_data};
    use flexsim_model::reference;
    use flexsim_model::workloads;
    use flexsim_model::Tensor2;
    use flexsim_testkit::prop::{self, filter};
    use flexsim_testkit::prop_assert_eq;

    /// The cycle-stepped chain the PE-major [`pass`] replaces, kept as
    /// its oracle: one systolic array's deep pipeline, reused by every
    /// (m, n) pass.
    struct Pipeline {
        /// Chain cells: position p = i*w + j; PE cells are those with
        /// (j < k && i < k); others are FIFO slots. Length (k-1)*w + k.
        /// Every pass drains the chain, so the next one starts empty.
        chain: Vec<Option<(Acc32, usize, usize)>>,
        /// The `k²` PE taps: chain offset and resident synapse.
        taps: Vec<(usize, Fx16)>,
    }

    impl Pipeline {
        /// An empty pipeline for `layer`'s input width and kernel.
        fn new(layer: &ConvLayer) -> Self {
            let k = layer.k();
            Pipeline {
                chain: vec![None; (k - 1) * layer.input_size() + k],
                taps: Vec::with_capacity(k * k),
            }
        }

        /// One (m, n) pipeline pass: streams the whole input map and drains.
        ///
        /// The chain is a ring buffer: a shift is a step of the head index,
        /// not a move of every cell, and chain position `p` lives at slot
        /// `(head + p) mod len`. The taps are fixed for the pass.
        fn pass(
            &mut self,
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
            let Pipeline { chain, taps } = self;
            let chain_len = chain.len();
            let mut head = 0;
            taps.clear();
            taps.extend(
                (0..k)
                    .flat_map(|i| (0..k).map(move |j| (i, j)))
                    .map(|(i, j)| (i * w + j, kernels[(om, inm, i, j)])),
            );
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
                for &(offset, weight) in taps.iter() {
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
    }

    /// [`Systolic::forward`] through the stepped [`Pipeline`].
    fn ring_forward(layer: &ConvLayer, input: &Tensor3, kernels: &KernelSet) -> Tensor3 {
        let (m, n, s) = (layer.m(), layer.n(), layer.s());
        let mut out = Tensor3::zeros(m, s, s);
        let mut pipeline = Pipeline::new(layer);
        for om in 0..m {
            let mut acc_map: Tensor2<Acc32> = Tensor2::zeros(s, s);
            for inm in 0..n {
                pipeline.pass(layer, om, inm, input, kernels, &mut acc_map);
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
            // K = 1: a one-cell chain, one tap at offset 0.
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
    fn accumulation_order_is_pinned_under_saturation() {
        // Each (m, n) pass sums its K² taps in a fresh accumulator that
        // the chain's exit stage then adds into the output map, unlike
        // the reference's one (n, i, j) sum, so once the accumulators
        // saturate the two disagree; the digest pins this simulator's
        // own order.
        let layer = ConvLayer::new("C", 5, 7, 4, 3);
        let (input, kernels) = full_scale_layer_data(&layer, 3);
        let out = Systolic::dc_cnn().forward(&layer, &input, &kernels);
        assert_ne!(out, reference::conv(&layer, &input, &kernels));
        assert_eq!(digest(&out), 5_182_152_941_920_624_799);
    }

    #[test]
    fn pe_major_pass_matches_the_stepped_chain_under_saturation() {
        // Full-scale operands saturate the accumulators, so only the
        // chain's own MAC order reproduces its outputs; W runs to
        // 3·array_k + 8 for long FIFO stretches between PE rows.
        prop::check(
            "pe_major_pass_matches_the_stepped_chain_under_saturation",
            96,
            filter(
                (
                    1usize..=6,
                    1usize..=6,
                    1usize..=26,
                    1usize..=4,
                    1usize..=3,
                    0u64..=999,
                ),
                |&(ak, k, w, ..)| k <= ak && k <= w && w <= 3 * ak + 8,
            ),
            |&(ak, k, w, n, m, seed)| {
                let layer = ConvLayer::new("C", m, n, w - k + 1, k);
                let (input, kernels) = full_scale_layer_data(&layer, seed);
                prop_assert_eq!(
                    Systolic::new(ak, 1).forward(&layer, &input, &kernels),
                    ring_forward(&layer, &input, &kernels)
                );
                Ok(())
            },
        );
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
