//! The Table 5 on-chip buffers, as the spatial probe samples them.
//!
//! Table 5 gives every architecture 32 KB on-chip buffers for neurons
//! and kernels. Bank parallelism (one word per bank per cycle) is not
//! stepped here: flexcheck FXC07 states it as an inequality on the
//! planned factors, and [`sample_buffers`] draws each buffer's
//! occupancy into the heatmap.

use flexsim_model::ConvLayer;
use flexsim_obs::spatial::HeatmapBuilder;

/// Table 5 capacity of each on-chip buffer, in words (32 KB).
pub const BUFFER_WORDS: u64 = 16 * 1024;

/// Samples the three Table 5 buffers into a layer's heatmap: each holds
/// its share of the layer's working set, clamped at capacity, for all
/// `cycles` of the layer, so every bank covers exactly the layer's
/// cycles, as flexcheck FXC13's dropped-sample check requires.
pub fn sample_buffers(hb: &mut HeatmapBuilder, layer: &ConvLayer, cycles: u64) {
    for (bank, words) in [
        ("neuron-in", layer.input_neurons()),
        ("kernel", layer.synapses()),
        ("neuron-out", layer.output_neurons()),
    ] {
        hb.bank_sample(bank, BUFFER_WORDS, words.min(BUFFER_WORDS), cycles);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_buffer_dimensions() {
        // 32 KB of 16-bit words; a working set past it is clamped.
        assert_eq!(BUFFER_WORDS * 2, 32 * 1024);
        let layer = ConvLayer::new("C", 64, 64, 8, 3).with_input_size(10);
        let mut hb = HeatmapBuilder::new("arch", "C", 1, 1, 50);
        sample_buffers(&mut hb, &layer, 50);
        let spatial = hb.finish();
        let words: Vec<_> = spatial
            .banks
            .iter()
            .map(|b| (b.bank.as_str(), b.high_water_words, b.sampled_cycles))
            .collect();
        assert_eq!(
            words,
            [
                ("neuron-in", 64 * 10 * 10, 50),
                ("kernel", BUFFER_WORDS, 50), // 64·64·9 = 36864 words
                ("neuron-out", 64 * 8 * 8, 50),
            ]
        );
        assert!(spatial
            .banks
            .iter()
            .all(|b| b.capacity_words == BUFFER_WORDS));
    }
}
