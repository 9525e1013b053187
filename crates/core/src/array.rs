//! Cycle-stepped functional simulation of the FlexFlow PE array.
//!
//! Executes the [`crate::analytic`] schedule on real data: every cycle,
//! every active PE reads one neuron and one synapse from its local
//! stores, multiplies, and its row's adder tree accumulates — exactly
//! the Section 4 dataflow. Operands are delivered lazily over the
//! vertical (neuron) and horizontal (kernel) buses into the per-PE local
//! stores, with per-stripe persistence so the Relax-Synchronization
//! preloading and column-sharing reuse are measured, not assumed.
//!
//! The simulator asserts the Relax-Alignment property as it runs: within
//! one cycle, the operands of every active row land on *distinct* PE
//! columns (no bus or store port conflict).
//!
//! # Scratch state
//!
//! The per-MAC loop allocates only while a PE's address table grows to
//! the layer's working set. Its bookkeeping is scratch state reused
//! across cycles, sized by what the layer touches:
//!
//! - each PE store's id → address table (`AddrTable`) starts empty and
//!   grows on first use, to at most twice the store's 128 words, so PEs
//!   a layer never touches cost no memory;
//! - the broadcast memory — which neurons (per stripe) and synapses (per
//!   kernel residency epoch) already crossed a bus — is one dense bit
//!   set per id space (`BitSet`), `n·s_in²` and `m·n·k²` bits;
//! - one products buffer, reduced in place by [`adder_tree::reduce`];
//! - one accumulator per PE row, and one [`StepClaims`] set for the
//!   Relax-Alignment check, reset per output cell.

use crate::adder_tree;
use crate::analytic::{schedule_default, Schedule};
use crate::cdb::{BusBundle, CdbFabric, StepClaims};
use crate::local_store::STORE_WORDS;
use crate::mapping::Mapping;
use crate::pe::Pe;
use flexsim_dataflow::utilization::ceil_div;
use flexsim_dataflow::Unroll;
use flexsim_model::reference::apply_activation;
use flexsim_model::tensor::KernelSet;
use flexsim_model::{Acc32, ConvLayer, Tensor3};

/// What one functional layer run measured.
#[derive(Clone, Debug, PartialEq)]
pub struct FunctionalReport {
    /// The computed output feature maps.
    pub output: Tensor3,
    /// Engine cycles (compute + per-segment writeback).
    pub cycles: u64,
    /// PE-active compute steps: cycles in which the engine issued a
    /// tile of MACs (total cycles minus pipeline fill and segment
    /// stalls). `macs / (compute_steps · D²)` is the simulated
    /// occupancy the unrolling model's `Ut` predicts.
    pub compute_steps: u64,
    /// MACs executed.
    pub macs: u64,
    /// Words broadcast on the vertical (neuron) buses.
    pub vertical_bus_words: u64,
    /// Words broadcast on the horizontal (kernel) buses.
    pub horizontal_bus_words: u64,
    /// Words on the busiest vertical bus (bandwidth hot spot).
    pub max_vertical_bus_words: u64,
    /// Words on the busiest horizontal bus.
    pub max_horizontal_bus_words: u64,
    /// Local-store reads across all PEs.
    pub store_reads: u64,
    /// Local-store writes across all PEs.
    pub store_writes: u64,
    /// Adder-tree additions.
    pub adder_tree_adds: u64,
}

/// Which operand ids sit at which addresses of one PE local store.
///
/// Addresses are handed out in order; when the store is full the next
/// delivery wraps to address 0 and forgets every resident id. The index
/// is open-addressed with linear probing at load factor at most ½, so
/// it never holds more than `2·STORE_WORDS` one-byte slots, and it is
/// allocated on the first delivery, not up front.
#[derive(Clone, Debug, Default)]
struct AddrTable {
    /// Resident ids by address; the length is the next free address.
    ids: Vec<usize>,
    /// `address + 1` of the id probed to this slot, 0 when empty. Its
    /// length is zero or a power of two.
    slots: Vec<u8>,
}

impl AddrTable {
    /// Forgets every resident id, keeping the allocation.
    fn clear(&mut self) {
        self.ids.clear();
        self.slots.fill(0);
    }

    /// First probe slot of `id`: Fibonacci hashing, which spreads the
    /// dense, consecutive ids of one layer over the table.
    fn home(&self, id: usize) -> usize {
        let bits = self.slots.len().trailing_zeros();
        ((id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (u64::BITS - bits)) as usize
    }

    /// The address `id` is resident at.
    fn get(&self, id: usize) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut h = self.home(id);
        loop {
            match usize::from(self.slots[h]) {
                0 => return None,
                a if self.ids[a - 1] == id => return Some(a - 1),
                _ => h = (h + 1) & mask,
            }
        }
    }

    /// Makes `id`, which is not resident, resident at the next free
    /// address — wrapping to 0 and forgetting the store's contents when
    /// it is full — and returns that address.
    fn insert(&mut self, id: usize) -> usize {
        if self.ids.len() >= STORE_WORDS {
            self.clear();
        }
        if 2 * (self.ids.len() + 1) > self.slots.len() {
            self.slots = vec![0; (2 * self.slots.len()).max(16)];
            for addr in 0..self.ids.len() {
                self.place(addr);
            }
        }
        self.ids.push(id);
        self.place(self.ids.len() - 1);
        self.ids.len() - 1
    }

    /// Indexes the id at `addr` in the first free slot from its home.
    fn place(&mut self, addr: usize) {
        let mask = self.slots.len() - 1;
        let mut h = self.home(self.ids[addr]);
        while self.slots[h] != 0 {
            h = (h + 1) & mask;
        }
        self.slots[h] = u8::try_from(addr + 1).expect("store addresses fit a slot");
    }
}

/// A dense set over an operand id space, one bit per id: which operands
/// a bus already broadcast.
#[derive(Clone, Debug)]
struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// An empty set over ids `0..len`.
    fn new(len: usize) -> Self {
        BitSet {
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Adds `id`; true when it was not in the set.
    fn insert(&mut self, id: usize) -> bool {
        let (word, bit) = (&mut self.words[id / 64], 1u64 << (id % 64));
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    /// Empties the set.
    fn clear(&mut self) {
        self.words.fill(0);
    }
}

/// Lazy operand delivery: the store address of operand `id`, which
/// `table` indexes. A non-resident operand crosses bus `bus_index` of
/// `bus` unless the broadcast memory `seen` shows it already did — a
/// later PE on the bus picks up the same broadcast — and `load` writes
/// it to the address it gets.
fn deliver(
    table: &mut AddrTable,
    id: usize,
    seen: &mut BitSet,
    bus: &mut BusBundle,
    bus_index: usize,
    load: impl FnOnce(usize),
) -> usize {
    if let Some(addr) = table.get(id) {
        return addr;
    }
    if seen.insert(id) {
        bus.broadcast(bus_index);
    }
    let addr = table.insert(id);
    load(addr);
    addr
}

/// Per-PE operand residency bookkeeping on top of the raw [`Pe`].
#[derive(Clone, Debug, Default)]
struct PeState {
    pe: Pe,
    neurons: AddrTable,
    kernels: AddrTable,
}

/// The `D×D` PE array.
///
/// # Example
///
/// ```
/// use flexflow::array::PeArray;
/// use flexsim_dataflow::Unroll;
/// use flexsim_model::{reference, ConvLayer};
///
/// let layer = ConvLayer::new("C1", 2, 1, 8, 4);
/// let (input, kernels) = reference::random_layer_data(&layer, 1);
/// let mut array = PeArray::new(4);
/// // The paper's Fig. 8 unrolling for this layer.
/// let report = array.run_layer(&layer, Unroll::new(2, 1, 1, 2, 1, 4), &input, &kernels);
/// assert_eq!(report.output, reference::conv(&layer, &input, &kernels));
/// ```
#[derive(Clone, Debug)]
pub struct PeArray {
    d: usize,
    pes: Vec<PeState>,
}

impl PeArray {
    /// Creates a `d×d` array.
    ///
    /// # Panics
    ///
    /// Panics if `d` is zero.
    pub fn new(d: usize) -> Self {
        assert!(d > 0, "array side must be non-zero");
        PeArray {
            d,
            pes: vec![PeState::default(); d * d],
        }
    }

    /// Engine side `D`.
    pub fn d(&self) -> usize {
        self.d
    }

    /// Number of PEs.
    pub fn pe_count(&self) -> usize {
        self.d * self.d
    }

    /// Functionally executes one CONV layer under unrolling `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` violates the engine bounds, or the layer is not a
    /// valid convolution (the functional model needs real operands for
    /// every window position).
    pub fn run_layer(
        &mut self,
        layer: &ConvLayer,
        u: Unroll,
        input: &Tensor3,
        kernels: &KernelSet,
    ) -> FunctionalReport {
        assert!(
            u.cols_used() <= self.d && u.rows_used() <= self.d,
            "unrolling exceeds the engine"
        );
        assert!(layer.is_valid_convolution(), "padded layers not supported");
        let sch: Schedule = schedule_default(layer, u, self.d);
        let mapping = Mapping::new(u);
        let (m, n, s, k) = (layer.m(), layer.n(), layer.s(), layer.k());
        let stride = layer.stride();
        let dilation = layer.dilation();
        let s_in = layer.input_size();
        let kernels_persist = sch.m_groups.saturating_mul(sch.chunks) <= STORE_WORDS as u64;

        for st in self.pes.iter_mut() {
            st.neurons.clear();
            st.kernels.clear();
            st.pe.reset_counters();
        }

        let mut out = Tensor3::zeros(m, s, s);
        let mut cycles = 0u64;
        let mut macs = 0u64;
        let mut fabric = CdbFabric::new(self.d);
        let mut tree_adds = 0u64;

        // Per-stripe neuron broadcast memory (RS persistence along the
        // column-tile walk); per-residency-epoch kernel broadcast memory.
        let mut neuron_broadcast = BitSet::new(n * s_in * s_in);
        let mut kernel_broadcast = BitSet::new(m * n * k * k);
        let mut products: Vec<Acc32> = Vec::with_capacity(u.cols_used());
        let mut accs = vec![Acc32::ZERO; u.rows_used()];
        let mut claims = StepClaims::new(self.d);

        let n_chunks = ceil_div(n, u.tn);
        let i_chunks = ceil_div(k, u.ti);
        let j_chunks = ceil_div(k, u.tj);

        for r0 in (0..s).step_by(u.tr) {
            let tr_eff = u.tr.min(s - r0);
            neuron_broadcast.clear();
            for st in self.pes.iter_mut() {
                st.neurons.clear();
            }
            for c0 in (0..s).step_by(u.tc) {
                let tc_eff = u.tc.min(s - c0);
                if !kernels_persist {
                    kernel_broadcast.clear();
                    for st in self.pes.iter_mut() {
                        st.kernels.clear();
                    }
                }
                for m0 in (0..m).step_by(u.tm) {
                    let tm_eff = u.tm.min(m - m0);
                    // One row-batch: accumulators per active row.
                    accs.fill(Acc32::ZERO);
                    for n0_idx in 0..n_chunks {
                        for i0_idx in 0..i_chunks {
                            for j0_idx in 0..j_chunks {
                                cycles += 1;
                                let n0 = n0_idx * u.tn;
                                let i0 = i0_idx * u.ti;
                                let j0 = j0_idx * u.tj;
                                let tn_eff = u.tn.min(n - n0);
                                let ti_eff = u.ti.min(k - i0);
                                let tj_eff = u.tj.min(k - j0);
                                for dm in 0..tm_eff {
                                    for dr in 0..tr_eff {
                                        for dc in 0..tc_eff {
                                            let (om, r, c) = (m0 + dm, r0 + dr, c0 + dc);
                                            let row = mapping.output_row(om, r, c);
                                            products.clear();
                                            claims.next_step();
                                            for dn in 0..tn_eff {
                                                for di in 0..ti_eff {
                                                    for dj in 0..tj_eff {
                                                        let (inm, i, j) =
                                                            (n0 + dn, i0 + di, j0 + dj);
                                                        let col = mapping.operand_col(
                                                            inm, r, c, i, j, stride, dilation,
                                                        );
                                                        // RA property: one
                                                        // column per operand
                                                        // (flexcheck FXC02).
                                                        claims.claim(col);
                                                        let (ir, ic) = (
                                                            r * stride + i * dilation,
                                                            c * stride + j * dilation,
                                                        );
                                                        let st = &mut self.pes[row * self.d + col];
                                                        let naddr = deliver(
                                                            &mut st.neurons,
                                                            (inm * s_in + ir) * s_in + ic,
                                                            &mut neuron_broadcast,
                                                            &mut fabric.vertical,
                                                            col,
                                                            |a| {
                                                                st.pe.load_neuron(
                                                                    a,
                                                                    input[(inm, ir, ic)],
                                                                );
                                                            },
                                                        );
                                                        // IPDR replica.
                                                        let kaddr = deliver(
                                                            &mut st.kernels,
                                                            ((om * n + inm) * k + i) * k + j,
                                                            &mut kernel_broadcast,
                                                            &mut fabric.horizontal,
                                                            row,
                                                            |a| {
                                                                st.pe.load_kernel(
                                                                    a,
                                                                    kernels[(om, inm, i, j)],
                                                                );
                                                            },
                                                        );
                                                        products.push(st.pe.multiply(naddr, kaddr));
                                                        macs += 1;
                                                    }
                                                }
                                            }
                                            let red = adder_tree::reduce(&mut products);
                                            tree_adds += red.adds;
                                            accs[row] = accs[row].saturating_add(red.sum);
                                            tree_adds += 1; // row accumulator add
                                        }
                                    }
                                }
                            }
                        }
                    }
                    // Writeback is pipelined under the next batch; only
                    // segment-boundary spills stall (added after the
                    // loop, mirroring the analytic model).
                    for dm in 0..tm_eff {
                        for dr in 0..tr_eff {
                            for dc in 0..tc_eff {
                                let (om, r, c) = (m0 + dm, r0 + dr, c0 + dc);
                                let acc = accs[mapping.output_row(om, r, c)];
                                out[(om, r, c)] =
                                    apply_activation(acc.to_fx16(), layer.activation());
                            }
                        }
                    }
                }
            }
        }

        let compute_steps = cycles;
        cycles += sch.row_batches * (sch.segments - 1) * crate::analytic::SEGMENT_STALL_CYCLES
            + crate::analytic::PIPELINE_FILL_CYCLES;
        let store_reads: u64 = self.pes.iter().map(|s| s.pe.store_reads()).sum();
        let store_writes: u64 = self.pes.iter().map(|s| s.pe.store_writes()).sum();
        FunctionalReport {
            output: out,
            cycles,
            compute_steps,
            macs,
            vertical_bus_words: fabric.vertical.total_words(),
            horizontal_bus_words: fabric.horizontal.total_words(),
            max_vertical_bus_words: fabric.vertical.max_bus_words(),
            max_horizontal_bus_words: fabric.horizontal.max_bus_words(),
            store_reads,
            store_writes,
            adder_tree_adds: tree_adds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsim_dataflow::search;
    use flexsim_model::{reference, workloads};

    fn check_layer(layer: &ConvLayer, u: Unroll, d: usize, seed: u64) -> FunctionalReport {
        let (input, kernels) = reference::random_layer_data(layer, seed);
        let mut array = PeArray::new(d);
        let report = array.run_layer(layer, u, &input, &kernels);
        assert_eq!(
            report.output,
            reference::conv(layer, &input, &kernels),
            "functional output mismatch for {} under {u}",
            layer.name()
        );
        report
    }

    #[test]
    fn paper_example_c1_bit_exact() {
        let net = workloads::paper_example();
        let c1 = net.conv_layer("C1").unwrap();
        check_layer(c1, Unroll::new(2, 1, 1, 2, 1, 4), 4, 42);
    }

    #[test]
    fn paper_example_c2_bit_exact() {
        let net = workloads::paper_example();
        let c2 = net.conv_layer("C2").unwrap();
        check_layer(c2, Unroll::new(2, 2, 1, 2, 1, 2), 4, 43);
    }

    #[test]
    fn lenet_c3_with_planned_factors_bit_exact() {
        let net = workloads::lenet5();
        let plan = search::plan_network(&net, 16);
        for (layer, choice) in net.conv_layers().zip(&plan) {
            check_layer(layer, choice.unroll, 16, 7);
        }
    }

    #[test]
    fn cycles_match_analytic_schedule() {
        let layer = ConvLayer::new("C", 5, 3, 9, 3);
        for u in [
            Unroll::new(2, 3, 1, 3, 1, 3),
            Unroll::new(5, 1, 2, 1, 3, 3),
            Unroll::scalar(),
        ] {
            let report = check_layer(&layer, u, 16, 3);
            let sch = schedule_default(&layer, u, 16);
            assert_eq!(report.cycles, sch.cycles, "cycle mismatch under {u}");
            assert_eq!(report.macs, sch.macs);
        }
    }

    #[test]
    fn bus_words_match_analytic_traffic_when_resident() {
        // Small layer, everything fits: functional bus counts equal the
        // closed-form traffic model exactly.
        let layer = ConvLayer::new("C", 4, 2, 8, 3);
        let u = Unroll::new(4, 2, 1, 4, 1, 3);
        let report = check_layer(&layer, u, 16, 9);
        let sch = schedule_default(&layer, u, 16);
        assert_eq!(report.vertical_bus_words, sch.traffic.neuron_in);
        assert_eq!(report.horizontal_bus_words, sch.traffic.kernel_in);
    }

    #[test]
    fn store_reads_are_two_per_mac() {
        let layer = ConvLayer::new("C", 2, 2, 4, 2);
        let u = Unroll::new(2, 2, 1, 2, 2, 2);
        let report = check_layer(&layer, u, 16, 5);
        assert_eq!(report.store_reads, 2 * report.macs);
    }

    #[test]
    fn odd_unrollings_still_bit_exact() {
        // Factors that don't divide the layer dimensions exercise the
        // edge-clamping paths.
        let layer = ConvLayer::new("C", 5, 3, 7, 4);
        for u in [
            Unroll::new(3, 2, 2, 2, 2, 2),
            Unroll::new(4, 3, 1, 2, 2, 2),
            Unroll::new(1, 1, 3, 3, 1, 1),
        ] {
            check_layer(&layer, u, 16, 13);
        }
    }

    #[test]
    fn bus_load_is_balanced_across_columns() {
        // The residue mapping spreads neuron broadcasts across the
        // occupied vertical buses: the busiest bus carries no more than
        // a small multiple of the average.
        let layer = ConvLayer::new("C", 4, 2, 8, 3);
        let u = Unroll::new(4, 2, 1, 4, 1, 3);
        let (input, kernels) = reference::random_layer_data(&layer, 23);
        let mut array = PeArray::new(16);
        let report = array.run_layer(&layer, u, &input, &kernels);
        let avg = report.vertical_bus_words as f64 / u.cols_used() as f64;
        assert!(
            (report.max_vertical_bus_words as f64) < 3.0 * avg,
            "max {} vs avg {avg:.1}",
            report.max_vertical_bus_words
        );
    }

    #[test]
    fn strided_layer_bit_exact() {
        let layer = ConvLayer::new("C", 3, 2, 5, 3).with_stride(2);
        check_layer(&layer, Unroll::new(3, 2, 1, 5, 1, 3), 16, 15);
    }

    #[test]
    fn dilated_layer_bit_exact() {
        // dilation=2 with Ti=Tj=3 (coprime, so RA columns stay
        // distinct) and with the trivial Ti=Tj=1 mapping.
        let layer = ConvLayer::new("C", 3, 2, 5, 3).with_dilation(2);
        check_layer(&layer, Unroll::new(2, 1, 1, 2, 3, 3), 16, 15);
        check_layer(&layer, Unroll::new(2, 2, 2, 2, 1, 1), 16, 16);
    }

    /// Every counter of a [`FunctionalReport`] except the output, in
    /// field order.
    fn counters(r: &FunctionalReport) -> [u64; 10] {
        [
            r.cycles,
            r.compute_steps,
            r.macs,
            r.vertical_bus_words,
            r.horizontal_bus_words,
            r.max_vertical_bus_words,
            r.max_horizontal_bus_words,
            r.store_reads,
            r.store_writes,
            r.adder_tree_adds,
        ]
    }

    #[test]
    fn every_counter_is_pinned_per_regime() {
        // [cycles, compute_steps, macs, vertical, horizontal, max
        // vertical, max horizontal, store reads, store writes, tree
        // adds], measured before the loop's scratch state was rewritten.
        let cases = [
            (
                "kernels resident",
                ConvLayer::new("C", 4, 2, 8, 3),
                Unroll::new(4, 2, 1, 4, 1, 3),
                16,
                9,
                [56, 48, 4608, 480, 72, 96, 18, 9216, 5184, 4608],
            ),
            (
                // 16 map groups × 24 chunks > 128 store words.
                "kernel store overflow",
                ConvLayer::new("C", 16, 8, 4, 3),
                Unroll::new(1, 1, 1, 4, 1, 3),
                16,
                21,
                [1544, 1536, 18432, 576, 4608, 192, 4608, 36864, 19584, 18432],
            ),
            (
                // One PE sees 4 maps × 3 rows × 12 columns = 144 > 128
                // neurons per stripe, so its neuron store wraps.
                "neuron store wrap",
                ConvLayer::new("C", 2, 4, 10, 3),
                Unroll::scalar(),
                4,
                31,
                [7208, 7200, 7200, 1440, 72, 1440, 72, 14400, 1832, 7200],
            ),
            (
                "stride",
                ConvLayer::new("C", 3, 2, 5, 3).with_stride(2),
                Unroll::new(3, 2, 1, 5, 1, 3),
                16,
                15,
                [23, 15, 1350, 330, 54, 60, 18, 2700, 1620, 1350],
            ),
            (
                "dilation",
                ConvLayer::new("C", 3, 2, 5, 3).with_dilation(2),
                Unroll::new(2, 1, 1, 2, 3, 3),
                16,
                15,
                [68, 60, 1350, 270, 54, 30, 36, 2700, 1350, 1350],
            ),
            (
                "edge tiles",
                ConvLayer::new("C", 5, 3, 7, 4),
                Unroll::new(3, 2, 2, 2, 2, 2),
                16,
                13,
                [264, 256, 11760, 570, 240, 110, 96, 23520, 5496, 11760],
            ),
        ];
        for (regime, layer, u, d, seed, want) in cases {
            let sch = schedule_default(&layer, u, d);
            let persist = sch.m_groups * sch.chunks <= STORE_WORDS as u64;
            assert_eq!(persist, regime != "kernel store overflow", "{regime}");
            let report = check_layer(&layer, u, d, seed);
            assert_eq!(counters(&report), want, "{regime}");
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "FXC02"))]
    fn ra_column_conflict_is_caught_in_debug_builds() {
        // Dilation 2 with Ti = 2 folds both kernel rows onto one
        // column residue (gcd(2, 2) ≠ 1): two operands of one row claim
        // the same column in one cycle. Release builds compute on.
        let layer = ConvLayer::new("C", 1, 1, 3, 2).with_dilation(2);
        check_layer(&layer, Unroll::new(1, 1, 1, 1, 2, 1), 4, 3);
    }

    #[test]
    fn addr_table_wraps_when_the_store_is_full() {
        let mut t = AddrTable::default();
        assert_eq!(t.get(7), None);
        for id in 0..STORE_WORDS {
            assert_eq!(t.insert(1000 + 3 * id), id);
        }
        assert_eq!(t.slots.len(), 2 * STORE_WORDS);
        assert_eq!(t.get(1000 + 3 * 5), Some(5));
        assert_eq!(t.get(1001), None);
        // The 129th delivery wraps to address 0 and forgets the rest.
        assert_eq!(t.insert(1), 0);
        assert_eq!(t.get(1), Some(0));
        assert_eq!(t.get(1000), None);
        t.clear();
        assert_eq!(t.get(1), None);
    }

    #[test]
    fn strided_dilated_layer_bit_exact() {
        let layer = ConvLayer::new("C", 2, 1, 4, 3)
            .with_stride(2)
            .with_dilation(3);
        check_layer(&layer, Unroll::new(2, 1, 2, 2, 2, 2), 16, 17);
    }
}
