//! The per-PE random-access local store (Section 4.1, Table 5: 256 B
//! neuron store + 256 B kernel store per PE).
//!
//! Unlike the FIFOs of prior architectures, FlexFlow's local stores are
//! randomly addressable — the property that lets Relax Alignment reorder
//! synapse accesses and Relax Synchronization consume preloaded data
//! asynchronously. The stores themselves live in
//! [`PeArray`](crate::array::PeArray), which counts their reads and
//! writes and checks every access with [`check_address`].

/// Capacity of each local store in 16-bit words (256 B).
pub const STORE_WORDS: usize = 128;

/// Panics unless `addr` is a word of a `words`-word store: the bound
/// every store access checks, in release builds too.
#[inline]
pub fn check_address(addr: usize, words: usize) {
    assert!(
        addr < words,
        "local store address out of range (statically provable: flexcheck FXC01 ls-capacity)"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_matches_table5() {
        assert_eq!(STORE_WORDS * 2, 256); // 256 bytes of 16-bit words
    }

    #[test]
    #[should_panic(expected = "address out of range")]
    fn oob_read_panics() {
        check_address(4, 4);
    }
}
