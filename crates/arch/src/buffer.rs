//! D-banked on-chip SRAM buffer model.
//!
//! Table 5 equips every baseline with a 32 KB neuron buffer and a 32 KB
//! kernel buffer (FlexFlow has two neuron buffers used ping-pong, see
//! `flexflow::buffers`). A [`BankedBuffer`] tracks capacity, counts
//! accesses (for the energy model and Fig. 17/Table 6), and models bank
//! parallelism: at most one word per bank per cycle, which is what makes
//! the paper's In-Advanced Data Placement (IADP) necessary — data must be
//! laid out so each cycle's `D` reads hit `D` distinct banks.

use flexsim_model::ConvLayer;
use flexsim_obs::spatial::HeatmapBuilder;
use std::fmt;

/// Bytes per buffer word (16-bit fixed point).
pub const WORD_BYTES: usize = 2;

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

/// A banked, word-addressed on-chip SRAM buffer.
///
/// # Example
///
/// ```
/// use flexsim_arch::buffer::BankedBuffer;
///
/// let mut buf = BankedBuffer::new("neuron", 32 * 1024, 16);
/// assert_eq!(buf.words_per_bank(), 1024);
/// buf.read(0);
/// buf.write(5);
/// assert_eq!(buf.reads(), 1);
/// assert_eq!(buf.writes(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct BankedBuffer {
    name: String,
    capacity_bytes: usize,
    banks: usize,
    reads: u64,
    writes: u64,
}

impl BankedBuffer {
    /// Creates a buffer of `capacity_bytes` split into `banks` equal
    /// banks.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero or the capacity doesn't divide evenly
    /// into word-aligned banks.
    pub fn new(name: impl Into<String>, capacity_bytes: usize, banks: usize) -> Self {
        assert!(banks > 0, "buffer must have at least one bank");
        assert!(
            capacity_bytes.is_multiple_of(banks * WORD_BYTES),
            "capacity must divide into word-aligned banks"
        );
        BankedBuffer {
            name: name.into(),
            capacity_bytes,
            banks,
            reads: 0,
            writes: 0,
        }
    }

    /// Buffer name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Total capacity in 16-bit words.
    pub fn capacity_words(&self) -> usize {
        self.capacity_bytes / WORD_BYTES
    }

    /// Number of banks.
    pub fn banks(&self) -> usize {
        self.banks
    }

    /// Words per bank.
    pub fn words_per_bank(&self) -> usize {
        self.capacity_words() / self.banks
    }

    /// Records one word read from `bank`.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn read(&mut self, bank: usize) {
        assert!(bank < self.banks, "bank index out of range");
        self.reads += 1;
    }

    /// Records `words` reads spread across banks (bulk accounting for
    /// analytic simulators; assumes IADP-style conflict-free placement).
    pub fn read_bulk(&mut self, words: u64) {
        self.reads += words;
    }

    /// Records one word written to `bank`.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn write(&mut self, bank: usize) {
        assert!(bank < self.banks, "bank index out of range");
        self.writes += 1;
    }

    /// Records `words` writes spread across banks.
    pub fn write_bulk(&mut self, words: u64) {
        self.writes += words;
    }

    /// Number of reads so far.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Number of writes so far.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Total accesses (reads + writes).
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Resets the access counters (capacity/banking unchanged).
    pub fn reset_counters(&mut self) {
        self.reads = 0;
        self.writes = 0;
    }

    /// Minimum cycles to stream `words` words out of this buffer, limited
    /// by bank parallelism: with conflict-free placement the buffer
    /// yields `banks` words per cycle.
    pub fn stream_cycles(&self, words: u64) -> u64 {
        words.div_ceil(self.banks as u64)
    }

    /// Whether `words` words fit in the buffer.
    pub fn fits_words(&self, words: u64) -> bool {
        words <= self.capacity_words() as u64
    }
}

impl fmt::Display for BankedBuffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} KB x{} banks ({} reads, {} writes)",
            self.name,
            self.capacity_bytes / 1024,
            self.banks,
            self.reads,
            self.writes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_buffer_dimensions() {
        let buf = BankedBuffer::new("kernel", 32 * 1024, 16);
        assert_eq!(buf.capacity_words(), 16 * 1024);
        assert_eq!(buf.words_per_bank(), 1024);
        assert!(buf.fits_words(16 * 1024));
        assert!(!buf.fits_words(16 * 1024 + 1));
    }

    #[test]
    fn stream_cycles_respects_bank_parallelism() {
        let buf = BankedBuffer::new("b", 32 * 1024, 16);
        assert_eq!(buf.stream_cycles(16), 1);
        assert_eq!(buf.stream_cycles(17), 2);
        assert_eq!(buf.stream_cycles(0), 0);
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let mut buf = BankedBuffer::new("b", 1024, 4);
        buf.read(3);
        buf.read_bulk(10);
        buf.write(0);
        buf.write_bulk(5);
        assert_eq!(buf.reads(), 11);
        assert_eq!(buf.writes(), 6);
        assert_eq!(buf.accesses(), 17);
        buf.reset_counters();
        assert_eq!(buf.accesses(), 0);
    }

    #[test]
    #[should_panic(expected = "bank index out of range")]
    fn oob_bank_rejected() {
        let mut buf = BankedBuffer::new("b", 1024, 4);
        buf.read(4);
    }

    #[test]
    #[should_panic(expected = "word-aligned banks")]
    fn misaligned_capacity_rejected() {
        let _ = BankedBuffer::new("b", 1023, 4);
    }
}
