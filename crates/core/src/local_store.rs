//! The per-PE random-access local store (Section 4.1, Table 5: 256 B
//! neuron store + 256 B kernel store per PE).
//!
//! Unlike the FIFOs of prior architectures, FlexFlow's local stores are
//! randomly addressable — the property that lets Relax Alignment reorder
//! synapse accesses and Relax Synchronization consume preloaded data
//! asynchronously. The store tracks read/write counters for the energy
//! model and enforces its capacity.

use flexsim_model::Fx16;

/// Capacity of each local store in 16-bit words (256 B).
pub const STORE_WORDS: usize = 128;

/// Panics unless `addr` is a word of a `words`-word store: the bound
/// every store access checks, in release builds too.
#[inline]
pub(crate) fn check_address(addr: usize, words: usize) {
    assert!(
        addr < words,
        "local store address out of range (statically provable: flexcheck FXC04 fsm-bounds)"
    );
}

/// A word-addressed per-PE store with access counters.
///
/// # Example
///
/// ```
/// use flexflow::local_store::LocalStore;
/// use flexsim_model::Fx16;
///
/// let mut ls = LocalStore::new(8);
/// ls.write(3, Fx16::ONE);
/// assert_eq!(ls.read(3), Fx16::ONE);
/// assert_eq!(ls.reads(), 1);
/// assert_eq!(ls.writes(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct LocalStore {
    data: Vec<Fx16>,
    reads: u64,
    writes: u64,
}

impl LocalStore {
    /// Creates a zero-initialized store of `words` entries.
    ///
    /// # Panics
    ///
    /// Panics if `words` is zero or exceeds [`STORE_WORDS`].
    pub fn new(words: usize) -> Self {
        assert!(
            words > 0 && words <= STORE_WORDS,
            "local store capacity must be 1..={STORE_WORDS} words \
             (statically provable: flexcheck FXC01 ls-capacity)"
        );
        LocalStore {
            data: vec![Fx16::ZERO; words],
            reads: 0,
            writes: 0,
        }
    }

    /// A full-size (256 B) store.
    pub fn full() -> Self {
        LocalStore::new(STORE_WORDS)
    }

    /// Capacity in words.
    pub fn capacity(&self) -> usize {
        self.data.len()
    }

    /// Reads the word at `addr` (counted).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    pub fn read(&mut self, addr: usize) -> Fx16 {
        check_address(addr, self.data.len());
        self.reads += 1;
        self.data[addr]
    }

    /// Writes `value` at `addr` (counted).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    pub fn write(&mut self, addr: usize, value: Fx16) {
        check_address(addr, self.data.len());
        self.writes += 1;
        self.data[addr] = value;
    }

    /// Number of reads performed.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Number of writes performed.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Resets the access counters (contents unchanged).
    pub fn reset_counters(&mut self) {
        self.reads = 0;
        self.writes = 0;
    }
}

impl Default for LocalStore {
    fn default() -> Self {
        LocalStore::full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_matches_table5() {
        let ls = LocalStore::full();
        assert_eq!(ls.capacity() * 2, 256); // 256 bytes
    }

    #[test]
    fn random_access_any_order() {
        let mut ls = LocalStore::new(16);
        // Write in one order, read in a scrambled one (what RA needs).
        for i in 0..16 {
            ls.write(i, Fx16::from_raw(i as i16));
        }
        for &i in &[7usize, 0, 15, 3, 3, 9] {
            assert_eq!(ls.read(i), Fx16::from_raw(i as i16));
        }
        assert_eq!(ls.reads(), 6);
        assert_eq!(ls.writes(), 16);
    }

    #[test]
    #[should_panic(expected = "address out of range")]
    fn oob_read_panics() {
        let mut ls = LocalStore::new(4);
        let _ = ls.read(4);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn oversized_store_rejected() {
        let _ = LocalStore::new(STORE_WORDS + 1);
    }

    #[test]
    fn counter_reset() {
        let mut ls = LocalStore::new(4);
        ls.write(0, Fx16::ONE);
        ls.reset_counters();
        assert_eq!(ls.writes(), 0);
        assert_eq!(ls.read(0), Fx16::ONE);
    }
}
