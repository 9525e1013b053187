//! DataFlow3: on-chip buffer organization (Section 4.5, Figs. 12–13).
//!
//! FlexFlow has three D-banked buffers (Table 5): two 32 KB neuron
//! buffers used ping-pong (one layer's outputs are written in the layout
//! the *next* layer reads — the reason Section 5 couples consecutive
//! layers' factors) and one 32 KB kernel buffer.
//!
//! * **IADP** (In-Advanced Data Placement) pre-arranges data across
//!   banks: the kernel buffer is split into `Tm` groups × `Tr`
//!   sub-groups × `Tc` banks; a neuron buffer into `Tn` groups × `Ti`
//!   sub-groups × `Tj` banks, with each feature map concentrated in one
//!   group and each neuron row in one sub-group — so `D` words stream
//!   conflict-free every cycle.
//! * **IPDR** (In-Place Data Replication) replicates each kernel word
//!   read by the reading controller `Tr·Tc` times onto the free
//!   horizontal-bus bandwidth, so one buffer read feeds a whole logical
//!   group without dedicated wiring.

use flexsim_arch::buffer::BankedBuffer;

/// Bytes per neuron/kernel buffer (Table 5: 32 KB).
pub const BUFFER_BYTES: usize = 32 * 1024;

/// The IADP bank layout of a *neuron* buffer under factors
/// `⟨Tn, Ti, Tj⟩`.
///
/// # Example
///
/// ```
/// use flexflow::buffers::NeuronLayout;
///
/// let layout = NeuronLayout::new(2, 1, 4, 16);
/// // Feature map n=1, neuron row 5, column 2 lands in group 1,
/// // sub-group 0, bank 2.
/// assert_eq!(layout.bank_of(1, 5, 2), layout.bank_index(1, 0, 2));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NeuronLayout {
    tn: usize,
    ti: usize,
    tj: usize,
    banks: usize,
}

impl NeuronLayout {
    /// Creates a layout of `Tn` groups × `Ti` sub-groups × `Tj` banks on
    /// a buffer with `banks` physical banks.
    ///
    /// # Panics
    ///
    /// Panics if the factor product exceeds the bank count or any factor
    /// is zero.
    pub fn new(tn: usize, ti: usize, tj: usize, banks: usize) -> Self {
        assert!(tn > 0 && ti > 0 && tj > 0, "factors must be non-zero");
        assert!(
            tn * ti * tj <= banks,
            "IADP factor product must fit the physical banks (statically provable: flexcheck FXC07 bank-conflict)"
        );
        NeuronLayout { tn, ti, tj, banks }
    }

    /// Physical bank index of logical `(group, sub_group, lane)`.
    pub fn bank_index(&self, group: usize, sub_group: usize, lane: usize) -> usize {
        (group * self.ti + sub_group) * self.tj + lane
    }

    /// Bank holding neuron `I^(n)_(r,c)`: group `n mod Tn`, sub-group
    /// `r mod Ti`, lane `c mod Tj`.
    pub fn bank_of(&self, n: usize, r: usize, c: usize) -> usize {
        self.bank_index(n % self.tn, r % self.ti, c % self.tj)
    }

    /// Number of banks actually used (`Tn·Ti·Tj`).
    pub fn banks_used(&self) -> usize {
        self.tn * self.ti * self.tj
    }

    /// Total physical banks.
    pub fn banks(&self) -> usize {
        self.banks
    }
}

/// The IADP bank layout of the *kernel* buffer under factors
/// `⟨Tm, Tr, Tc⟩` (Fig. 12a).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KernelLayout {
    tm: usize,
    tr: usize,
    tc: usize,
    banks: usize,
}

impl KernelLayout {
    /// Creates a layout of `Tm` groups × `Tr` sub-groups × `Tc` banks.
    ///
    /// # Panics
    ///
    /// Panics if the factor product exceeds the bank count or any factor
    /// is zero.
    pub fn new(tm: usize, tr: usize, tc: usize, banks: usize) -> Self {
        assert!(tm > 0 && tr > 0 && tc > 0, "factors must be non-zero");
        assert!(
            tm * tr * tc <= banks,
            "IADP factor product must fit the physical banks (statically provable: flexcheck FXC07 bank-conflict)"
        );
        KernelLayout { tm, tr, tc, banks }
    }

    /// Bank group holding kernel `K^(m,·)`: `m mod Tm`.
    pub fn group_of(&self, m: usize) -> usize {
        m % self.tm
    }

    /// Number of banks used (`Tm·Tr·Tc`).
    pub fn banks_used(&self) -> usize {
        self.tm * self.tr * self.tc
    }

    /// IPDR replication factor: each word read by the controller is
    /// replicated `Tr·Tc` times onto the horizontal buses (Fig. 12b).
    pub fn replication(&self) -> usize {
        self.tr * self.tc
    }
}

/// The ping-pong pair of neuron buffers plus the kernel buffer.
///
/// One neuron buffer holds the current layer's inputs (laid out by this
/// layer's `⟨Tn, Ti, Tj⟩`); the other receives its outputs in the *next*
/// layer's layout (`⟨Tm, Tr, Tc⟩` of this layer = `⟨Tn, Ti, Tj⟩` of the
/// next). [`BufferSet::swap`] flips the roles between layers.
#[derive(Clone, Debug)]
pub struct BufferSet {
    neuron_a: BankedBuffer,
    neuron_b: BankedBuffer,
    kernel: BankedBuffer,
    a_is_input: bool,
}

impl BufferSet {
    /// Creates the Table 5 buffer set for a `d`-banked engine.
    ///
    /// # Panics
    ///
    /// Panics if `d` is zero or 32 KB doesn't divide into `d` banks.
    pub fn new(d: usize) -> Self {
        BufferSet {
            neuron_a: BankedBuffer::new("neuron-A", BUFFER_BYTES, d),
            neuron_b: BankedBuffer::new("neuron-B", BUFFER_BYTES, d),
            kernel: BankedBuffer::new("kernel", BUFFER_BYTES, d),
            a_is_input: true,
        }
    }

    /// The buffer currently feeding the engine.
    pub fn input(&mut self) -> &mut BankedBuffer {
        if self.a_is_input {
            &mut self.neuron_a
        } else {
            &mut self.neuron_b
        }
    }

    /// The buffer currently collecting outputs.
    pub fn output(&mut self) -> &mut BankedBuffer {
        if self.a_is_input {
            &mut self.neuron_b
        } else {
            &mut self.neuron_a
        }
    }

    /// The kernel buffer.
    pub fn kernel(&mut self) -> &mut BankedBuffer {
        &mut self.kernel
    }

    /// Flips the ping-pong roles (end of a layer).
    pub fn swap(&mut self) {
        self.a_is_input = !self.a_is_input;
    }

    /// Total accesses on the buffer currently in the input role.
    pub fn input_accesses(&mut self) -> u64 {
        self.input().accesses()
    }

    /// Resets all counters.
    pub fn reset_counters(&mut self) {
        self.neuron_a.reset_counters();
        self.neuron_b.reset_counters();
        self.kernel.reset_counters();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn one_cycles_reads_hit_distinct_banks() {
        // IADP's purpose: the Tn·Ti·Tj words needed in one cycle map to
        // distinct banks.
        let layout = NeuronLayout::new(2, 2, 3, 16);
        let mut seen = HashSet::new();
        // One chunk: (dn, di, dj) operand offsets for output (r, c) =
        // (4, 9), chunk origin (i0, j0) = (0, 0).
        for dn in 0..2 {
            for di in 0..2 {
                for dj in 0..3 {
                    assert!(seen.insert(layout.bank_of(dn, 4 + di, 9 + dj)));
                }
            }
        }
        assert_eq!(seen.len(), layout.banks_used());
    }

    #[test]
    fn kernel_groups_follow_fig12() {
        let layout = KernelLayout::new(4, 1, 2, 16);
        assert_eq!(layout.group_of(0), 0);
        assert_eq!(layout.group_of(5), 1);
        assert_eq!(layout.replication(), 2);
        assert_eq!(layout.banks_used(), 8);
    }

    #[test]
    #[should_panic(expected = "fit the physical banks")]
    fn oversubscribed_layout_rejected() {
        let _ = NeuronLayout::new(4, 4, 4, 16);
    }

    #[test]
    fn ping_pong_swaps_roles() {
        let mut bufs = BufferSet::new(16);
        bufs.input().read_bulk(10);
        assert_eq!(bufs.input_accesses(), 10);
        bufs.swap();
        // The old input (10 accesses) is now the output buffer.
        assert_eq!(bufs.input_accesses(), 0);
        assert_eq!(bufs.output().accesses(), 10);
    }

    #[test]
    fn table5_capacities() {
        let mut bufs = BufferSet::new(16);
        assert_eq!(bufs.input().capacity_words(), 16 * 1024);
        assert_eq!(bufs.kernel().capacity_words(), 16 * 1024);
    }
}
