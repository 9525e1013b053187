//! External-memory (DRAM) traffic estimation.
//!
//! Table 7 compares accelerators by DRAM accesses per operation. DRAM
//! traffic depends on the layer's working set versus the on-chip buffer
//! capacities (Table 5): when a layer's inputs and kernels both fit, every
//! word crosses the DRAM boundary exactly once; when they don't, one
//! operand class must be re-streamed. The estimator considers both loop
//! orders — keep a group of kernels resident and re-stream inputs, or
//! keep an input tile resident and re-stream kernels — and takes the
//! cheaper one, which is what a layer-wise tiling compiler would do.

use flexsim_model::ConvLayer;
use std::ops::{Add, AddAssign};

/// Words moved across the DRAM boundary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DramTraffic {
    /// Words read from DRAM.
    pub reads: u64,
    /// Words written to DRAM.
    pub writes: u64,
}

impl DramTraffic {
    /// Total accesses.
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }

    /// DRAM accesses per arithmetic operation for `macs` useful MACs.
    pub fn per_op(&self, macs: u64) -> f64 {
        if macs == 0 {
            return 0.0;
        }
        self.total() as f64 / (2 * macs) as f64
    }
}

impl Add for DramTraffic {
    type Output = DramTraffic;
    fn add(self, rhs: DramTraffic) -> DramTraffic {
        DramTraffic {
            reads: self.reads + rhs.reads,
            writes: self.writes + rhs.writes,
        }
    }
}

impl AddAssign for DramTraffic {
    fn add_assign(&mut self, rhs: DramTraffic) {
        *self = *self + rhs;
    }
}

/// Estimates the DRAM traffic of one CONV layer given the neuron and
/// kernel buffer capacities in 16-bit words.
///
/// # Panics
///
/// Panics if either buffer capacity is zero.
///
/// # Example
///
/// ```
/// use flexsim_arch::dram::conv_layer_traffic;
/// use flexsim_model::ConvLayer;
///
/// // Everything fits: each word crosses DRAM exactly once.
/// let layer = ConvLayer::new("C1", 6, 1, 28, 5);
/// let t = conv_layer_traffic(&layer, 16 * 1024, 16 * 1024);
/// assert_eq!(t.reads, layer.input_neurons() + layer.synapses());
/// assert_eq!(t.writes, layer.output_neurons());
/// ```
pub fn conv_layer_traffic(
    layer: &ConvLayer,
    neuron_buf_words: u64,
    kernel_buf_words: u64,
) -> DramTraffic {
    let (input_reads, kernel_reads) =
        conv_read_components(layer, neuron_buf_words, kernel_buf_words);
    DramTraffic {
        reads: input_reads + kernel_reads,
        writes: layer.output_neurons(),
    }
}

/// Splits a layer's per-frame DRAM reads into (activation, kernel)
/// words under the cheaper of the two tiling orders.
///
/// # Panics
///
/// Panics if either buffer capacity is zero.
pub fn conv_read_components(
    layer: &ConvLayer,
    neuron_buf_words: u64,
    kernel_buf_words: u64,
) -> (u64, u64) {
    assert!(
        neuron_buf_words > 0 && kernel_buf_words > 0,
        "buffer capacities must be non-zero"
    );
    let input_words = layer.input_neurons();
    let kernel_words = layer.synapses();
    let kernel_words_per_out_map = (layer.n() * layer.k() * layer.k()) as u64;

    if input_words <= neuron_buf_words && kernel_words <= kernel_buf_words {
        // Everything resident: single pass.
        return (input_words, kernel_words);
    }
    // Order A: keep groups of output maps' kernels resident and
    // re-stream the whole input per group.
    let maps_per_group = (kernel_buf_words / kernel_words_per_out_map).max(1);
    let groups = (layer.m() as u64).div_ceil(maps_per_group);
    let input_passes = if input_words <= neuron_buf_words {
        1
    } else {
        groups
    };
    let order_a = (input_words * input_passes, kernel_words);

    // Order B: keep input tiles resident and re-stream all kernels
    // per tile.
    let tiles = input_words.div_ceil(neuron_buf_words);
    let kernel_passes = if kernel_words <= kernel_buf_words {
        1
    } else {
        tiles
    };
    let order_b = (input_words, kernel_words * kernel_passes);

    if order_a.0 + order_a.1 <= order_b.0 + order_b.1 {
        order_a
    } else {
        order_b
    }
}

/// Estimates DRAM traffic for a *batch* of `batch` inferences of one
/// CONV layer.
///
/// Activations (inputs/outputs) scale with the batch; kernels are read
/// once per batch when they fit the kernel buffer, or re-streamed per
/// frame otherwise — the standard weight-amortization that makes small
/// CNNs compute-bound again (see the `ext_batching` experiment).
///
/// # Panics
///
/// Panics if `batch` is zero or either buffer capacity is zero.
pub fn conv_layer_traffic_batched(
    layer: &ConvLayer,
    neuron_buf_words: u64,
    kernel_buf_words: u64,
    batch: u64,
) -> DramTraffic {
    assert!(batch > 0, "batch must be non-zero");
    let (activation_reads, per_frame_kernel_reads) =
        conv_read_components(layer, neuron_buf_words, kernel_buf_words);
    let kernel_reads = if layer.synapses() <= kernel_buf_words {
        // Weights stay resident across the batch.
        per_frame_kernel_reads
    } else {
        per_frame_kernel_reads * batch
    };
    DramTraffic {
        reads: activation_reads * batch + kernel_reads,
        writes: layer.output_neurons() * batch,
    }
}

/// Estimates DRAM traffic for `batch` inferences of a whole network
/// under *layer fusion*: intermediate activations that fit the neuron
/// buffer ping-pong on chip (exactly what FlexFlow's two neuron buffers
/// are for) and never cross the DRAM boundary; weights amortize across
/// the batch when they fit the kernel buffer.
///
/// # Panics
///
/// Panics if `batch` is zero or either buffer capacity is zero.
pub fn network_traffic_fused(
    net: &flexsim_model::Network,
    neuron_buf_words: u64,
    kernel_buf_words: u64,
    batch: u64,
) -> DramTraffic {
    assert!(batch > 0, "batch must be non-zero");
    let convs: Vec<&ConvLayer> = net.conv_layers().collect();
    let mut reads = 0u64;
    let mut writes = 0u64;
    // Whether the previous layer's output is resident in a neuron
    // buffer (the first layer's input always comes from DRAM).
    let mut input_resident = false;
    for (i, layer) in convs.iter().enumerate() {
        let (activation_reads, kernel_reads_frame) =
            conv_read_components(layer, neuron_buf_words, kernel_buf_words);
        if !input_resident {
            reads += activation_reads * batch;
        }
        reads += if layer.synapses() <= kernel_buf_words {
            kernel_reads_frame
        } else {
            kernel_reads_frame * batch
        };
        let output_fits = layer.output_neurons() <= neuron_buf_words;
        let is_last = i + 1 == convs.len();
        if is_last || !output_fits {
            writes += layer.output_neurons() * batch;
        }
        input_resident = output_fits && !is_last;
    }
    DramTraffic { reads, writes }
}

/// Sums [`conv_layer_traffic`] over every CONV layer of a network.
pub fn network_traffic(
    net: &flexsim_model::Network,
    neuron_buf_words: u64,
    kernel_buf_words: u64,
) -> DramTraffic {
    net.conv_layers()
        .map(|l| conv_layer_traffic(l, neuron_buf_words, kernel_buf_words))
        .fold(DramTraffic::default(), |acc, t| acc + t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsim_model::workloads;

    #[test]
    fn small_layer_single_pass() {
        let layer = ConvLayer::new("C", 4, 2, 8, 3);
        let t = conv_layer_traffic(&layer, 1 << 20, 1 << 20);
        assert_eq!(t.reads, layer.input_neurons() + layer.synapses());
        assert_eq!(t.writes, layer.output_neurons());
    }

    #[test]
    fn oversized_kernels_trigger_grouping() {
        // Kernels larger than the buffer: inputs get re-streamed.
        let layer = ConvLayer::new("C", 64, 16, 8, 3); // 9216 kernel words
        let t = conv_layer_traffic(&layer, 1 << 20, 1024);
        // Inputs fit, so still a single input pass under order A.
        assert_eq!(t.reads, layer.input_neurons() + layer.synapses());
    }

    #[test]
    fn nothing_fits_picks_cheaper_order() {
        let layer = ConvLayer::new("C", 32, 32, 16, 3);
        let small = conv_layer_traffic(&layer, 512, 512);
        let big = conv_layer_traffic(&layer, 1 << 20, 1 << 20);
        assert!(small.reads > big.reads, "restreaming must add traffic");
        // But never worse than both naive orders.
        let input_words = layer.input_neurons();
        let kernel_words = layer.synapses();
        assert!(small.reads <= input_words * 32 + kernel_words);
    }

    #[test]
    fn alexnet_acc_per_op_near_paper() {
        // Table 7 reports 0.0049 Acc/Op for FlexFlow with 32 KB + 32 KB
        // buffers; our tiled estimate must land in the same regime
        // (same order of magnitude, < 0.01).
        let net = workloads::alexnet();
        let t = network_traffic(&net, 16 * 1024, 16 * 1024);
        let per_op = t.per_op(net.conv_macs());
        assert!(
            per_op > 0.001 && per_op < 0.010,
            "AlexNet DRAM acc/op {per_op:.4} out of the paper's regime"
        );
    }

    #[test]
    fn traffic_adds() {
        let a = DramTraffic {
            reads: 3,
            writes: 4,
        };
        let b = a + a;
        assert_eq!(b.total(), 14);
        assert!((b.per_op(7) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_buffer_rejected() {
        let layer = ConvLayer::new("C", 1, 1, 4, 3);
        let _ = conv_layer_traffic(&layer, 0, 16);
    }

    #[test]
    fn batching_amortizes_resident_weights() {
        // LeNet-5 C3's kernels fit the 32 KB buffer: a batch of 16 pays
        // for them once.
        let layer = ConvLayer::new("C3", 16, 6, 10, 5).with_input_size(14);
        let b1 = conv_layer_traffic_batched(&layer, 16 * 1024, 16 * 1024, 1);
        let b16 = conv_layer_traffic_batched(&layer, 16 * 1024, 16 * 1024, 16);
        assert_eq!(b1, conv_layer_traffic(&layer, 16 * 1024, 16 * 1024));
        let activations = layer.input_neurons();
        assert_eq!(b16.reads, activations * 16 + layer.synapses());
        assert_eq!(b16.writes, layer.output_neurons() * 16);
        // Per-frame cost strictly drops with batch.
        assert!(b16.total() < 16 * b1.total());
    }

    #[test]
    fn oversized_weights_do_not_amortize() {
        // Kernels bigger than the buffer re-stream every frame.
        let layer = ConvLayer::new("C", 64, 64, 8, 3); // 36864 kernel words
        let b1 = conv_layer_traffic_batched(&layer, 16 * 1024, 16 * 1024, 1);
        let b4 = conv_layer_traffic_batched(&layer, 16 * 1024, 16 * 1024, 4);
        assert_eq!(b4.reads, b1.reads * 4);
    }

    #[test]
    fn fused_chain_keeps_small_intermediates_on_chip() {
        // LeNet-5: every intermediate fits the 32 KB neuron buffer, so
        // fused traffic is input + weights + final output only.
        let net = workloads::lenet5();
        let fused = network_traffic_fused(&net, 16 * 1024, 16 * 1024, 1);
        let unfused = network_traffic(&net, 16 * 1024, 16 * 1024);
        assert!(fused.total() < unfused.total());
        let c1 = net.conv_layer("C1").unwrap();
        let c3 = net.conv_layer("C3").unwrap();
        assert_eq!(
            fused.reads,
            c1.input_neurons() + c1.synapses() + c3.synapses()
        );
        assert_eq!(fused.writes, c3.output_neurons());
    }

    #[test]
    fn fused_batch_amortizes_weights_only_once() {
        let net = workloads::lenet5();
        let b1 = network_traffic_fused(&net, 16 * 1024, 16 * 1024, 1);
        let b8 = network_traffic_fused(&net, 16 * 1024, 16 * 1024, 8);
        let weights: u64 = net
            .conv_layers()
            .map(flexsim_model::ConvLayer::synapses)
            .sum();
        assert_eq!(b8.reads, (b1.reads - weights) * 8 + weights);
    }

    #[test]
    fn components_sum_to_reads() {
        for layer in [
            ConvLayer::new("a", 4, 2, 8, 3),
            ConvLayer::new("b", 64, 64, 16, 3),
            ConvLayer::new("c", 512, 256, 6, 3),
        ] {
            let (a, k) = conv_read_components(&layer, 4096, 4096);
            let t = conv_layer_traffic(&layer, 4096, 4096);
            assert_eq!(a + k, t.reads, "{}", layer.name());
        }
    }
}
