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
//! The simulator asserts the Relax-Alignment property in debug builds:
//! within one cycle, the operands of every active row land on *distinct*
//! PE columns (no bus or store port conflict). An unrolling whose `Ti`
//! or `Tj` shares a factor with the dilation would break it, and
//! [`PeArray::run_layer`] rejects one up front, in every build.
//!
//! # Scratch state
//!
//! The mapping fixes every operand's PE from the loop indices, because
//! each tile origin `m0`, `r0`, `c0` is a multiple of `Tm`, `Tr`, `Tc`:
//! output cell `(dm, dr, dc)` sits on PE row `(dm·Tr + dr)·Tc + dc`, and
//! operand `(dn, ir, ic)` on PE column
//! `(dn·Ti + ir mod Ti)·Tj + ic mod Tj`. So the per-MAC loop finds each
//! store address by direct indexing — no hash probe and no modulo — in
//! scratch state that [`PeArray`] owns. It grows to the largest layer
//! the array has run and is reused across calls, so a call allocates
//! only its output tensor once the array has seen a layer as large. A
//! [`StorePlan`] sizes the stores of each layer:
//!
//! - the store words of every PE and store, as many per store as the
//!   layer can fill between resets, at most [`STORE_WORDS`];
//! - one slot per (PE, operand) pair holding the operand's address + 1,
//!   0 when it is not resident. A neuron's id fixes its column, so its
//!   slot is keyed by (stripe-local neuron id, PE row). A PE's row fixes
//!   `om mod Tm` and its column `inm mod Tn`, so a synapse's slot is
//!   keyed by (PE, `((m group·n chunks + n chunk)·k + i)·k + j`);
//! - per PE, the slots it made resident in address order, so that a
//!   wrap to address 0 on the 129th word, the per-stripe neuron reset
//!   and the per-epoch kernel reset clear only the slots that PE set;
//! - the broadcast memory — which neurons (per stripe) and synapses (per
//!   kernel residency epoch) already crossed a bus — as one dense bit
//!   set per store;
//! - the gather plan (below), built once per call; where the rows of the
//!   current replica class (below) hold each operand's neuron; one
//!   products buffer, reduced in place by [`adder_tree::reduce`]; one
//!   accumulator per PE row; and the bus counters.
//!
//! # Gather plan
//!
//! One cycle of a row-batch takes input-map chunk `n0..n0 + Tn` and
//! synapse block `i0..i0 + Ti` × `j0..j0 + Tj`; its operands, in
//! `(dn, di, dj)` order, are the same at every output position up to
//! bases. Operand `(n0 + dn, i, j)` of position `(r, c)` reads input
//! neuron `(n0 + dn, r·stride + i·dilation, c·stride + j·dilation)`, so
//! its stripe-local neuron id, flat input index, kernel-store key and
//! synapse id are each a base of the position, chunk or output map plus
//! an offset of `(dn, i, j)` alone. Its column depends on the position
//! only through the residue class `((r·stride) mod Ti, (c·stride) mod
//! Tj)`. So the plan holds, per synapse block, each operand's four
//! 32-bit offsets, and per block and residue class each operand's
//! 16-bit column; a partial last chunk walks a prefix of its block. A
//! position adds its bases and walks its block's entry in its class, in
//! `(dn, di, dj)` order, so each lookup, delivery, write, read and
//! counter sees the operand it would if the ids were computed in place.
//!
//! The simulator checks the Relax-Alignment property (flexcheck FXC02)
//! on each plan entry as it builds it, in debug builds: every position
//! of a class uses the entry's columns, so one check covers them all.
//! Debug builds also check every operand's column against [`Mapping`]
//! and its ids against their definitions from `(inm, ir, ic)`.
//!
//! # Replica classes
//!
//! The map rows `dm` of one output position are sent the same neurons
//! in the same order in every map group they are active in, so they
//! fall into at most two classes whose neuron stores match address for
//! address: `dm < tm_last`, active in every group, and
//! `tm_last ≤ dm < min(Tm, m)`, idle in a partial last group
//! (`tm_last = m − (m groups − 1)·Tm`). The lowest row of a class keeps
//! the neuron residency slots and looks each neuron up, and the rows
//! after it in the class take the address it found. Every row writes a
//! delivered neuron at that address in its own store and reads it
//! there, operand by operand, so every store sees, and every counter
//! counts, what a per-row lookup would.
//! Kernel lookups stay per PE: the map rows of a position take
//! different synapses, and the `Tr·Tc` copies of one synapse (IPDR)
//! sit on columns set by each position's residues.
//!
//! [`Mapping`] stays the reference for the row and column, checked in
//! debug builds.

use crate::adder_tree;
use crate::analytic::{schedule_default, Schedule};
use crate::cdb::{BusBundle, CdbFabric, StepClaims};
use crate::local_store::{check_address, STORE_WORDS};
use crate::mapping::Mapping;
use flexsim_dataflow::unroll::dilation_legal;
use flexsim_dataflow::utilization::{ceil_div, saturating_product};
use flexsim_dataflow::Unroll;
use flexsim_model::reference::apply_activation;
use flexsim_model::tensor::KernelSet;
use flexsim_model::{Acc32, ConvLayer, Fx16, Tensor3};

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

/// Adds `id` to the bit set `bits`; true when it was not in the set.
fn insert_bit(bits: &mut [u64], id: usize) -> bool {
    let (word, bit) = (&mut bits[id / 64], 1u64 << (id % 64));
    let fresh = *word & bit == 0;
    *word |= bit;
    fresh
}

/// Sets `v` to `len` copies of `fill`, reallocating only when it is too
/// small, and then without copying the old contents.
fn refill<T: Clone>(v: &mut Vec<T>, len: usize, fill: T) {
    v.clear();
    if v.capacity() < len {
        *v = Vec::with_capacity(len);
    }
    v.resize(len, fill);
}

/// The buffers of one kind of local store (neuron or kernel) across the
/// array's PEs, reused from call to call. [`OperandStores`] works on
/// them.
#[derive(Clone, Debug, Default)]
struct StoreScratch {
    words: Vec<Fx16>,
    slots: Vec<u8>,
    resident: Vec<u32>,
    next: Vec<u8>,
    broadcast: Vec<u64>,
}

impl StoreScratch {
    /// The stores over these buffers as they are.
    fn stores(&mut self) -> OperandStores<'_> {
        OperandStores {
            words: &mut self.words,
            slots: &mut self.slots,
            resident: &mut self.resident,
            next: &mut self.next,
            broadcast: &mut self.broadcast,
            reads: 0,
            writes: 0,
        }
    }

    /// Empty stores for `pes` PEs sized by `sizes`, growing the buffers
    /// as needed.
    ///
    /// # Panics
    ///
    /// Panics if the slots do not fit 32-bit indices
    /// ([`StoreSizes::fits_slot_index`]).
    fn prepare(&mut self, pes: usize, sizes: &StoreSizes) -> OperandStores<'_> {
        assert!(
            sizes.fits_slot_index(),
            "{} operand slots exceed the PE array's 32-bit slot index \
             (statically flagged: flexcheck FXC04 fsm-bounds)",
            sizes.slots
        );
        let slots = sizes.slots as usize;
        self.stores().forget_all();
        refill(&mut self.words, pes * sizes.depth, Fx16::ZERO);
        refill(&mut self.resident, pes * sizes.depth, 0);
        refill(&mut self.next, pes, 0);
        refill(&mut self.broadcast, (sizes.ids as usize).div_ceil(64), 0);
        if self.slots.len() < slots {
            // Free the old slots before the new ones are allocated, so
            // the two never coexist.
            self.slots = Vec::new();
            self.slots = vec![0; slots];
        }
        self.stores()
    }
}

/// One kind of local store (neuron or kernel) across the array's PEs:
/// the words, which operand sits at which address, and which operands
/// a bus already broadcast. It borrows its buffers as slices, which the
/// per-MAC loop keeps in registers.
///
/// Word `a` of PE `p` of `P`, and the slot resident there, sit at index
/// `a·P + p`: the PEs of a row fill their stores in step, so one cycle's
/// accesses share cache lines. Addresses are handed out in order; when
/// a PE's store is full its next delivery wraps to address 0 and
/// forgets every operand it held.
struct OperandStores<'a> {
    /// Store words of every PE, address-major.
    words: &'a mut [Fx16],
    /// `address + 1` of the operand keyed to each slot, 0 when it is
    /// not resident. Every slot is 0 between calls.
    slots: &'a mut [u8],
    /// Each PE's resident slots, by address (address-major).
    resident: &'a mut [u32],
    /// Each PE's next free address: how many of its resident slots are
    /// live.
    next: &'a mut [u8],
    /// Broadcast memory: one bit per bus id.
    broadcast: &'a mut [u64],
    reads: u64,
    writes: u64,
}

impl OperandStores<'_> {
    /// Forgets PE `pe`'s resident operands.
    fn forget(&mut self, pe: usize) {
        let live = usize::from(std::mem::take(&mut self.next[pe]));
        let pes = self.next.len();
        for addr in 0..live {
            self.slots[self.resident[addr * pes + pe] as usize] = 0;
        }
    }

    /// Forgets every resident operand and every broadcast: a stripe
    /// (neurons) or residency-epoch (kernels) reset.
    fn forget_all(&mut self) {
        for pe in 0..self.next.len() {
            self.forget(pe);
        }
        self.broadcast.fill(0);
    }

    /// [`OperandStores::place`], writing a delivered operand.
    #[inline]
    fn address(
        &mut self,
        pe: usize,
        slot: usize,
        id: usize,
        bus: &mut BusBundle,
        bus_index: usize,
        value: impl FnOnce() -> Fx16,
    ) -> usize {
        let placed = self.place(pe, slot, id, bus, bus_index, value);
        if let Some(word) = placed.fresh {
            self.write(pe, placed.addr, word);
        }
        placed.addr
    }

    /// Lazy operand delivery: where PE `pe`'s store holds the operand
    /// keyed to `slot`. A non-resident operand crosses bus `bus_index`
    /// of `bus` unless the broadcast memory shows that bus id `id`
    /// already did — a later PE on the bus picks up the same broadcast
    /// — and is given the PE's next free address, for the caller to
    /// write; a full store wraps to address 0 and forgets its contents.
    #[inline]
    fn place(
        &mut self,
        pe: usize,
        slot: usize,
        id: usize,
        bus: &mut BusBundle,
        bus_index: usize,
        value: impl FnOnce() -> Fx16,
    ) -> Placed {
        let resident = self.slots[slot];
        if resident != 0 {
            return Placed {
                addr: usize::from(resident - 1),
                fresh: None,
            };
        }
        if insert_bit(self.broadcast, id) {
            bus.broadcast(bus_index);
        }
        if usize::from(self.next[pe]) == STORE_WORDS {
            self.forget(pe);
        }
        let addr = usize::from(self.next[pe]);
        self.resident[addr * self.next.len() + pe] = slot as u32;
        self.next[pe] += 1;
        self.slots[slot] = self.next[pe];
        Placed {
            addr,
            fresh: Some(value()),
        }
    }

    /// Writes word `addr` of PE `pe`'s store (counted).
    #[inline]
    fn write(&mut self, pe: usize, addr: usize, value: Fx16) {
        check_address(addr, STORE_WORDS);
        self.writes += 1;
        self.words[addr * self.next.len() + pe] = value;
    }

    /// Word `addr` of PE `pe`'s store. The caller counts the read in
    /// `reads`.
    #[inline]
    fn word(&self, pe: usize, addr: usize) -> Fx16 {
        check_address(addr, STORE_WORDS);
        self.words[addr * self.next.len() + pe]
    }
}

/// Where a PE's store holds an operand: its address, and the operand's
/// word when the lookup has just delivered it, still to be written.
#[derive(Clone, Copy, Debug, Default)]
struct Placed {
    addr: usize,
    fresh: Option<Fx16>,
}

/// One operand of a synapse block: its offsets from the bases of the
/// output position, cycle and output map it serves (module docs,
/// "Gather plan").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct GatherOffsets {
    /// From the stripe-local neuron id of the position's first operand.
    neuron: u32,
    /// From the flat input index of the position's first operand.
    input: u32,
    /// From the cycle's first kernel-store key.
    key: u32,
    /// From the map row's first synapse id in the cycle's chunk.
    synapse: u32,
}

/// What is fixed per layer about the operands of one output position in
/// one cycle (module docs, "Gather plan"): per synapse block, each
/// operand's offsets, and per block and position residue class, each
/// operand's PE column. Operands run `dn`, then `di`, then `dj`, so a
/// partial input-map chunk takes a prefix of its block.
#[derive(Clone, Debug, Default)]
struct GatherPlan {
    /// Where each synapse block's operands start in `offsets`, plus the
    /// end of the last block.
    starts: Vec<usize>,
    offsets: Vec<GatherOffsets>,
    /// Operand `o` of block `b`, in residue class `q`, is on column
    /// `columns[starts[b]·classes + q·len + o]`, `len` being the
    /// block's operand count.
    columns: Vec<u16>,
    /// `Ti·Tj` residue classes `((r·stride) mod Ti, (c·stride) mod Tj)`.
    classes: usize,
}

impl GatherPlan {
    /// Plans `layer` under `u` with row stripes `span` input rows deep,
    /// checking each entry's columns for the Relax-Alignment property
    /// (flexcheck FXC02) on `claims`.
    ///
    /// # Panics
    ///
    /// Panics if an offset needs more than 32 bits or a column more than
    /// 16.
    fn build(&mut self, layer: &ConvLayer, u: Unroll, span: usize, claims: &mut StepClaims) {
        let (n, k, dilation, s_in) = (layer.n(), layer.k(), layer.dilation(), layer.input_size());
        let fit = |x: usize| u32::try_from(x).expect("a gather-plan offset exceeds 32 bits");
        self.starts.clear();
        self.offsets.clear();
        self.columns.clear();
        self.classes = u.ti * u.tj;
        for i0 in (0..k).step_by(u.ti) {
            let ti_eff = u.ti.min(k - i0);
            for j0 in (0..k).step_by(u.tj) {
                let tj_eff = u.tj.min(k - j0);
                self.starts.push(self.offsets.len());
                let taps = || {
                    (0..u.tn.min(n)).flat_map(move |dn| {
                        (i0..i0 + ti_eff)
                            .flat_map(move |i| (j0..j0 + tj_eff).map(move |j| (dn, i, j)))
                    })
                };
                self.offsets.extend(taps().map(|(dn, i, j)| GatherOffsets {
                    neuron: fit((dn * span + i * dilation) * s_in + j * dilation),
                    input: fit((dn * s_in + i * dilation) * s_in + j * dilation),
                    key: fit(i * k + j),
                    synapse: fit((dn * k + i) * k + j),
                }));
                for q in 0..self.classes {
                    let (rr, rc) = (q / u.tj, q % u.tj);
                    claims.next_step();
                    for (dn, i, j) in taps() {
                        let col = (dn * u.ti + (rr + i * dilation) % u.ti) * u.tj
                            + (rc + j * dilation) % u.tj;
                        // RA property: one column per operand (flexcheck
                        // FXC02).
                        claims.claim(col);
                        self.columns
                            .push(u16::try_from(col).expect("a PE column exceeds 16 bits"));
                    }
                }
            }
        }
        self.starts.push(self.offsets.len());
    }
}

/// The sizes of one kind of local store (neuron or kernel) across the
/// PEs of a [`StorePlan`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreSizes {
    /// Words of each PE's store in use: as many operands as the PE can
    /// be sent between resets, at most [`STORE_WORDS`]. Words past that
    /// depth are never used.
    pub depth: usize,
    /// Residency slots, one per (PE, operand) pair, saturating at
    /// `u64::MAX`.
    pub slots: u64,
    /// Bus ids the broadcast memory tracks.
    pub ids: u64,
}

impl StoreSizes {
    /// Whether every slot has a 32-bit index, as each PE's resident
    /// list stores it. [`PeArray::run_layer`] panics when it does not;
    /// flexcheck `FXC04` warns of it statically.
    pub fn fits_slot_index(&self) -> bool {
        self.slots <= u64::from(u32::MAX)
    }
}

/// How [`PeArray::run_layer`] sizes its local stores and residency slot
/// tables for one layer under one unrolling (module docs, "Scratch
/// state").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StorePlan {
    /// Input rows one row stripe reads:
    /// `(Tr − 1)·stride + (K − 1)·dilation + 1`. A stripe's neurons are
    /// keyed by (map, row within the stripe, column).
    pub span: usize,
    /// Neuron stores: a slot per (stripe neuron, PE row); the bus ids
    /// are the stripe's `N·span·S_in` neurons.
    pub neuron: StoreSizes,
    /// Kernel stores: a slot per (PE, (m group, n chunk, i, j)); the
    /// bus ids are the layer's `M·N·K²` synapses.
    pub kernel: StoreSizes,
    /// Whether the kernel slices of every map group fit one kernel
    /// store together, so kernels stay resident for the whole layer
    /// rather than for one column tile.
    pub kernels_persist: bool,
}

impl StorePlan {
    /// The plan for `layer` under `u`. Every count is a saturating
    /// product, so a plan exists for any layer shape.
    pub fn new(layer: &ConvLayer, u: Unroll) -> StorePlan {
        let (m, n, k) = (layer.m(), layer.n(), layer.k());
        let s_in = layer.input_size();
        let (rows, cols) = (u.rows_used(), u.cols_used());
        let (n_chunks, m_groups) = (ceil_div(n, u.tn), ceil_div(m, u.tm));
        let span = (u.tr - 1) * layer.stride() + (k - 1) * layer.dilation() + 1;
        let words = |count: u64| count.min(STORE_WORDS as u64) as usize;
        // A PE's column fixes `inm mod Tn`, `ir mod Ti` and `ic mod Tj`,
        // so a stripe brings it at most this many distinct neurons.
        let pe_neurons = saturating_product(&[n_chunks, span.div_ceil(u.ti), s_in.div_ceil(u.tj)]);
        let pe_kernels = saturating_product(&[m_groups, n_chunks, k, k]);
        let stripe_neurons = saturating_product(&[n, span, s_in]);
        StorePlan {
            span,
            neuron: StoreSizes {
                depth: words(pe_neurons),
                slots: stripe_neurons.saturating_mul(rows as u64),
                ids: stripe_neurons,
            },
            kernel: StoreSizes {
                depth: words(pe_kernels),
                slots: pe_kernels.saturating_mul(saturating_product(&[rows, cols])),
                ids: saturating_product(&[m, n, k, k]),
            },
            kernels_persist: saturating_product(&[
                m_groups,
                n_chunks,
                k.div_ceil(u.ti),
                k.div_ceil(u.tj),
            ]) <= STORE_WORDS as u64,
        }
    }
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
    neuron_scratch: StoreScratch,
    kernel_scratch: StoreScratch,
    fabric: CdbFabric,
    claims: StepClaims,
    /// `R[x] = (x mod Ti)·Tj` for every input row `x`.
    row_residue: Vec<usize>,
    /// `C[x] = x mod Tj` for every input column `x`.
    col_residue: Vec<usize>,
    gather: GatherPlan,
    /// Where the rows of the current replica class hold each operand's
    /// neuron.
    placed: Vec<Placed>,
    products: Vec<Acc32>,
    accs: Vec<Acc32>,
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
            neuron_scratch: StoreScratch::default(),
            kernel_scratch: StoreScratch::default(),
            fabric: CdbFabric::new(d),
            claims: StepClaims::new(d),
            row_residue: Vec::new(),
            col_residue: Vec::new(),
            gather: GatherPlan::default(),
            placed: Vec::new(),
            products: Vec::new(),
            accs: Vec::new(),
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
    /// Panics if `u` violates the engine bounds, if `Ti` or `Tj` shares a
    /// factor with the layer's dilation (Relax Alignment would put two
    /// operands of one output on one PE column), if the layer is not a
    /// valid convolution (the functional model needs real operands for
    /// every window position), if a slot table of its [`StorePlan`]
    /// needs more than 32-bit slot indices, or if its gather plan needs
    /// an operand offset past 32 bits (only an input or kernel set of
    /// over 2³² words does) or a PE column past 16 bits.
    pub fn run_layer(
        &mut self,
        layer: &ConvLayer,
        u: Unroll,
        input: &Tensor3,
        kernels: &KernelSet,
    ) -> FunctionalReport {
        let dilation = layer.dilation();
        assert!(
            u.cols_used() <= self.d
                && u.rows_used() <= self.d
                && dilation_legal(dilation, u.ti)
                && dilation_legal(dilation, u.tj),
            "unrolling {u} exceeds the {d}x{d} engine or shares a factor with dilation \
             {dilation} (statically provable: flexcheck FXC06 unroll-bounds)",
            d = self.d
        );
        assert!(layer.is_valid_convolution(), "padded layers not supported");
        let sch: Schedule = schedule_default(layer, u, self.d);
        let mapping = Mapping::new(u);
        let (m, n, s, k) = (layer.m(), layer.n(), layer.s(), layer.k());
        let stride = layer.stride();
        let s_in = layer.input_size();
        let plan = StorePlan::new(layer, u);
        let (span, kernels_persist) = (plan.span, plan.kernels_persist);

        let n_chunks = ceil_div(n, u.tn);
        let m_groups = ceil_div(m, u.tm);
        let (rows, cols) = (u.rows_used(), u.cols_used());
        let pes = rows * cols;

        let PeArray {
            neuron_scratch,
            kernel_scratch,
            fabric,
            claims,
            row_residue,
            col_residue,
            gather,
            placed,
            products,
            accs,
            ..
        } = self;
        // PE `row·cols + col`; the broadcast memories are keyed by
        // stripe-local neuron id and by global synapse id.
        let mut neuron_stores = neuron_scratch.prepare(pes, &plan.neuron);
        let mut kernel_stores = kernel_scratch.prepare(pes, &plan.kernel);
        gather.build(layer, u, span, claims);
        row_residue.clear();
        row_residue.extend((0..s_in).map(|x| (x % u.ti) * u.tj));
        col_residue.clear();
        col_residue.extend((0..s_in).map(|x| x % u.tj));
        fabric.vertical.reset();
        fabric.horizontal.reset();
        accs.clear();
        accs.resize(rows, Acc32::ZERO);
        refill(products, u.tn * u.ti * u.tj, Acc32::ZERO);
        refill(placed, u.tn * u.ti * u.tj, Placed::default());
        // Map rows `0..tm_last` and `tm_last..` of a position are the two
        // replica classes (module docs).
        let tm_last = m - (m_groups - 1) * u.tm;
        let (input_words, kernel_words) = (input.as_slice(), kernels.as_slice());

        let mut out = Tensor3::zeros(m, s, s);
        let mut cycles = 0u64;
        let mut macs = 0u64;
        let mut tree_adds = 0u64;

        for r0 in (0..s).step_by(u.tr) {
            let tr_eff = u.tr.min(s - r0);
            // Per-stripe neuron residency (RS persistence along the
            // column-tile walk).
            neuron_stores.forget_all();
            for c0 in (0..s).step_by(u.tc) {
                let tc_eff = u.tc.min(s - c0);
                if !kernels_persist {
                    // Per-residency-epoch kernel residency.
                    kernel_stores.forget_all();
                }
                for (m_group, m0) in (0..m).step_by(u.tm).enumerate() {
                    let tm_eff = u.tm.min(m - m0);
                    // One row-batch: accumulators per active row.
                    accs.fill(Acc32::ZERO);
                    for n_chunk in 0..n_chunks {
                        let n0 = n_chunk * u.tn;
                        let tn_eff = u.tn.min(n - n0);
                        let key0 = (m_group * n_chunks + n_chunk) * k * k;
                        for block in 0..gather.starts.len() - 1 {
                            let start = gather.starts[block];
                            let len = gather.starts[block + 1] - start;
                            // The chunk's operands of the block.
                            let ops = len / u.tn.min(n) * tn_eff;
                            let offsets = &gather.offsets[start..start + ops];
                            let gathered = &mut products[..ops];
                            let placed = &mut placed[..ops];
                            cycles += 1;
                            // Cells are walked by output position, then
                            // output map: each PE still sees its own
                            // deliveries in order, and no synapse serves
                            // two output maps.
                            for dr in 0..tr_eff {
                                let r = r0 + dr;
                                for dc in 0..tc_eff {
                                    let c = c0 + dc;
                                    // The position's operands, shared by
                                    // its map rows, which use the same
                                    // columns.
                                    let class = row_residue[r * stride] + col_residue[c * stride];
                                    let columns = &gather.columns
                                        [start * gather.classes + class * len..][..ops];
                                    let neuron0 = (n0 * span + dr * stride) * s_in + c * stride;
                                    let input0 = (n0 * s_in + r * stride) * s_in + c * stride;
                                    // `Mapping` and the ids' definitions
                                    // stay the reference.
                                    #[cfg(debug_assertions)]
                                    for (o, (&col, off)) in columns.iter().zip(offsets).enumerate()
                                    {
                                        let j_blocks = ceil_div(k, u.tj);
                                        let (i0, j0) =
                                            (block / j_blocks * u.ti, block % j_blocks * u.tj);
                                        let (ti_eff, tj_eff) = (u.ti.min(k - i0), u.tj.min(k - j0));
                                        let inm = n0 + o / (ti_eff * tj_eff);
                                        let (i, j) = (i0 + o / tj_eff % ti_eff, j0 + o % tj_eff);
                                        let (ir, ic) =
                                            (r * stride + i * dilation, c * stride + j * dilation);
                                        assert_eq!(
                                            col as usize,
                                            mapping.operand_col(inm, r, c, i, j, stride, dilation)
                                        );
                                        assert_eq!(
                                            neuron0 + off.neuron as usize,
                                            (inm * span + ir - r0 * stride) * s_in + ic
                                        );
                                        assert_eq!(
                                            input0 + off.input as usize,
                                            (inm * s_in + ir) * s_in + ic
                                        );
                                        assert_eq!(
                                            key0 + off.key as usize,
                                            ((m_group * n_chunks + n_chunk) * k + i) * k + j
                                        );
                                        assert_eq!(
                                            off.synapse as usize,
                                            ((inm - n0) * k + i) * k + j
                                        );
                                    }
                                    for dm in 0..tm_eff {
                                        let om = m0 + dm;
                                        // The lowest row of a replica class
                                        // looks the neurons up; the rows
                                        // after it take its addresses.
                                        let lead = dm == 0 || dm == tm_last;
                                        let row = (dm * u.tr + dr) * u.tc + dc;
                                        debug_assert_eq!(row, mapping.output_row(om, r, c));
                                        let synapse0 = (om * n + n0) * k * k;
                                        for (((product, at), &col), off) in gathered
                                            .iter_mut()
                                            .zip(placed.iter_mut())
                                            .zip(columns)
                                            .zip(offsets)
                                        {
                                            let col = col as usize;
                                            let pe = row * cols + col;
                                            if lead {
                                                let neuron = neuron0 + off.neuron as usize;
                                                *at = neuron_stores.place(
                                                    pe,
                                                    neuron * rows + row,
                                                    neuron,
                                                    &mut fabric.vertical,
                                                    col,
                                                    || input_words[input0 + off.input as usize],
                                                );
                                            }
                                            // A delivered neuron lands in
                                            // the row's own store at its
                                            // class's address.
                                            if let Some(word) = at.fresh {
                                                neuron_stores.write(pe, at.addr, word);
                                            }
                                            // IPDR replica.
                                            let synapse = synapse0 + off.synapse as usize;
                                            let kaddr = kernel_stores.address(
                                                pe,
                                                (key0 + off.key as usize) * pes + pe,
                                                synapse,
                                                &mut fabric.horizontal,
                                                row,
                                                || kernel_words[synapse],
                                            );
                                            let x = neuron_stores.word(pe, at.addr);
                                            let w = kernel_stores.word(pe, kaddr);
                                            *product = x.widening_mul(w);
                                        }
                                        // Every row reads both operands
                                        // of each MAC from its own
                                        // stores.
                                        let reads = gathered.len() as u64;
                                        neuron_stores.reads += reads;
                                        kernel_stores.reads += reads;
                                        macs += reads;
                                        let red = adder_tree::reduce(gathered);
                                        tree_adds += red.adds;
                                        accs[row] = accs[row].saturating_add(red.sum);
                                        tree_adds += 1; // row accumulator add
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
                                let acc = accs[(dm * u.tr + dr) * u.tc + dc];
                                out[(m0 + dm, r0 + dr, c0 + dc)] =
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
        FunctionalReport {
            output: out,
            cycles,
            compute_steps,
            macs,
            vertical_bus_words: fabric.vertical.total_words(),
            horizontal_bus_words: fabric.horizontal.total_words(),
            max_vertical_bus_words: fabric.vertical.max_bus_words(),
            max_horizontal_bus_words: fabric.horizontal.max_bus_words(),
            store_reads: neuron_stores.reads + kernel_stores.reads,
            store_writes: neuron_stores.writes + kernel_stores.writes,
            adder_tree_adds: tree_adds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsim_dataflow::search;
    use flexsim_model::{reference, workloads};
    use flexsim_testkit::prop::{self, filter};
    use flexsim_testkit::prop_assert_eq;

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
            (
                // 3 maps under Tm = 2: row 1 of each position idles in
                // the last map group while 4 maps × 3 rows × 12 columns
                // = 144 neurons wrap each PE's store, so its store drifts
                // from row 0's.
                "neuron store wrap, partial last map group",
                ConvLayer::new("C", 3, 4, 10, 3),
                Unroll::new(2, 1, 1, 1, 1, 1),
                4,
                5,
                [7208, 7200, 10800, 1440, 108, 1440, 72, 21600, 3538, 10800],
            ),
            (
                // The same with Tr = 2 and 8 input maps: 2 map groups ×
                // 72 chunks > 128 store words as well.
                "kernel store overflow, neuron store wrap, partial last map group",
                ConvLayer::new("C", 3, 8, 9, 3),
                Unroll::new(2, 1, 2, 1, 1, 1),
                4,
                5,
                [
                    6488, 6480, 17496, 1672, 9720, 1672, 6480, 34992, 24102, 17496,
                ],
            ),
        ];
        for (regime, layer, u, d, seed, want) in cases {
            let sch = schedule_default(&layer, u, d);
            let persist = sch.m_groups * sch.chunks <= STORE_WORDS as u64;
            assert_eq!(
                persist,
                !regime.starts_with("kernel store overflow"),
                "{regime}"
            );
            let report = check_layer(&layer, u, d, seed);
            assert_eq!(counters(&report), want, "{regime}");
        }
    }

    /// The most distinct neurons one PE of the first output position
    /// sees in the first row stripe: more than [`STORE_WORDS`] means
    /// its neuron store wraps.
    fn first_stripe_pe_neurons(layer: &ConvLayer, u: Unroll) -> usize {
        let mut seen = vec![std::collections::BTreeSet::new(); u.cols_used()];
        for c in (0..layer.s()).step_by(u.tc) {
            for inm in 0..layer.n() {
                for i in 0..layer.k() {
                    let ir = i * layer.dilation();
                    for j in 0..layer.k() {
                        let ic = c * layer.stride() + j * layer.dilation();
                        let col = ((inm % u.tn) * u.ti + ir % u.ti) * u.tj + ic % u.tj;
                        seen[col].insert((inm, ir, ic));
                    }
                }
            }
        }
        seen.iter()
            .map(std::collections::BTreeSet::len)
            .max()
            .unwrap_or(0)
    }

    /// `(m, n, s, k, stride)` and `(Tm, Tn, Tr, Tc, Ti, Tj)` of a layer
    /// at d = 4.
    type WrapParams = (
        (usize, usize, usize, usize, usize),
        (usize, usize, usize, usize, usize, usize),
    );

    fn wrap_case(
        ((m, n, s, k, stride), (tm, tn, tr, tc, ti, tj)): WrapParams,
    ) -> (ConvLayer, Unroll) {
        let layer =
            ConvLayer::new(format!("C{m}x{n}x{s}x{k}s{stride}"), m, n, s, k).with_stride(stride);
        (layer, Unroll::new(tm, tn, tr, tc, ti, tj))
    }

    #[test]
    fn map_rows_idle_in_a_partial_last_group_keep_their_own_stores() {
        // Random layers at d = 4 whose neuron store wraps and whose last
        // map group is partial (m mod Tm ≠ 0): the rows idle in that
        // group see fewer neurons than the rows below them, so the two
        // kinds of row hold different words at the same address.
        let strategy = filter(
            (
                (2usize..=7, 1usize..=8, 3usize..=10, 1usize..=4, 1usize..=2),
                (
                    2usize..=4,
                    1usize..=2,
                    1usize..=2,
                    1usize..=2,
                    1usize..=2,
                    1usize..=2,
                ),
            ),
            |&params| {
                let (layer, u) = wrap_case(params);
                u.rows_used() <= 4
                    && u.cols_used() <= 4
                    && u.tm <= layer.m()
                    && layer.m() % u.tm != 0
                    && u.tn <= layer.n()
                    && u.tr.max(u.tc) <= layer.s()
                    && u.ti.max(u.tj) <= layer.k()
                    && first_stripe_pe_neurons(&layer, u) > STORE_WORDS
            },
        );
        prop::check(
            "map_rows_idle_in_a_partial_last_group_keep_their_own_stores",
            24,
            (strategy, 0u64..=9_999),
            |&(params, seed)| {
                let (layer, u) = wrap_case(params);
                let (input, kernels) = reference::random_layer_data(&layer, seed);
                let report = PeArray::new(4).run_layer(&layer, u, &input, &kernels);
                prop_assert_eq!(
                    report.output,
                    reference::conv(&layer, &input, &kernels),
                    "{} under {u}",
                    layer.name()
                );
                prop_assert_eq!(report.store_reads, 2 * report.macs, "{}", layer.name());
                Ok(())
            },
        );
    }

    #[test]
    #[should_panic(
        expected = "shares a factor with dilation 2 (statically provable: flexcheck FXC06"
    )]
    fn ra_column_conflict_is_rejected_in_every_build() {
        // Dilation 2 with Tj = 2 folds both kernel columns onto one
        // column residue (gcd(2, 2) ≠ 1): two operands of one output
        // would claim the same PE column in one cycle.
        let layer = ConvLayer::new("C", 8, 8, 3, 4)
            .with_stride(2)
            .with_dilation(2);
        check_layer(&layer, Unroll::new(1, 1, 1, 1, 1, 2), 4, 3);
    }

    #[test]
    fn addr_table_wraps_when_the_store_is_full() {
        // One PE, 200 operand slots, each its own bus id.
        let mut scratch = StoreScratch::default();
        let sizes = StoreSizes {
            depth: STORE_WORDS,
            slots: 200,
            ids: 200,
        };
        let mut stores = scratch.prepare(1, &sizes);
        let mut bus = BusBundle::new("v", 1);
        let deliver = |stores: &mut OperandStores, bus: &mut BusBundle, slot: usize| {
            stores.address(0, slot, slot, bus, 0, || Fx16::from_raw(slot as i16))
        };
        for slot in 0..STORE_WORDS {
            assert_eq!(deliver(&mut stores, &mut bus, slot), slot);
        }
        assert_eq!(
            deliver(&mut stores, &mut bus, 5),
            5,
            "resident: no second delivery"
        );
        assert_eq!(stores.writes, STORE_WORDS as u64);
        assert_eq!(stores.word(0, 5), Fx16::from_raw(5));
        // The 129th delivery wraps to address 0 and forgets the rest.
        assert_eq!(deliver(&mut stores, &mut bus, 150), 0);
        assert_eq!(stores.word(0, 0), Fx16::from_raw(150));
        assert_eq!(stores.slots[150], 1);
        assert!(stores.slots[..STORE_WORDS].iter().all(|&a| a == 0));
        // A forgotten operand is delivered again without a second
        // broadcast: the bus already carried it.
        assert_eq!(deliver(&mut stores, &mut bus, 0), 1);
        assert_eq!(bus.total_words(), STORE_WORDS as u64 + 1);
        assert_eq!(stores.writes, STORE_WORDS as u64 + 2);
        stores.forget_all();
        assert!(stores.slots.iter().all(|&a| a == 0));
        assert_eq!(deliver(&mut stores, &mut bus, 0), 0);
        assert_eq!(bus.total_words(), STORE_WORDS as u64 + 2);
    }

    #[test]
    fn store_plan_flags_slot_tables_past_the_32_bit_index() {
        // 16 maps of 8,388,613², one 6×6 conv to 16 maps, under the
        // planned unroll: 16 PE rows × 16·6·8,388,613 stripe neurons.
        // Sized without allocating a slot.
        let layer = ConvLayer::new("mid", 16, 16, 8_388_608, 6);
        let plan = StorePlan::new(&layer, Unroll::new(16, 16, 1, 1, 1, 1));
        assert_eq!(plan.span, 6);
        assert_eq!(plan.neuron.slots, 12_884_909_568);
        assert!(!plan.neuron.fits_slot_index());
        assert_eq!(plan.kernel.slots, 16 * 16 * 36);
        assert!(plan.kernel.fits_slot_index());
        // A count past u64 saturates and stays over the bound.
        let huge = ConvLayer::new("huge", 1 << 33, 1 << 33, 1, 1);
        let plan = StorePlan::new(&huge, Unroll::scalar());
        assert_eq!(plan.kernel.slots, u64::MAX);
        assert!(!plan.kernel.fits_slot_index());
    }

    #[test]
    fn scratch_is_reused_across_layers() {
        // One array runs a kernel-overflow layer, a resident layer with
        // a larger id space, a strided layer and a tiny layer back to
        // back; each report equals a fresh array's.
        let cases = [
            (
                ConvLayer::new("C", 16, 8, 4, 3),
                Unroll::new(1, 1, 1, 4, 1, 3),
            ),
            (
                ConvLayer::new("C", 4, 12, 12, 3),
                Unroll::new(4, 4, 1, 4, 1, 3),
            ),
            (
                ConvLayer::new("C", 3, 2, 5, 3).with_stride(2),
                Unroll::new(3, 2, 1, 5, 1, 3),
            ),
            (ConvLayer::new("C", 1, 1, 2, 1), Unroll::scalar()),
        ];
        let persists = |(layer, u): &(ConvLayer, Unroll)| {
            let sch = schedule_default(layer, *u, 16);
            let persists = sch.m_groups * sch.chunks <= STORE_WORDS as u64;
            assert_eq!(StorePlan::new(layer, *u).kernels_persist, persists);
            persists
        };
        assert!(!persists(&cases[0]) && persists(&cases[1]));
        let mut array = PeArray::new(16);
        for (seed, (layer, u)) in (50..).zip(cases) {
            let (input, kernels) = reference::random_layer_data(&layer, seed);
            let reused = array.run_layer(&layer, u, &input, &kernels);
            let fresh = PeArray::new(16).run_layer(&layer, u, &input, &kernels);
            assert_eq!(reused, fresh, "{} under {u}", layer.name());
            assert_eq!(reused.output, reference::conv(&layer, &input, &kernels));
        }
    }

    #[test]
    fn accumulation_order_is_pinned_under_saturation() {
        // Operands of at least 3/4 full scale, signs mixed: an adder
        // tree's partial sums and each row's accumulator saturate, so
        // the output differs from the reference's and pins the order in
        // which the array gathers, reduces and accumulates products.
        let layer = ConvLayer::new("C", 5, 3, 6, 3).with_stride(2);
        let mut rng = flexsim_testkit::SplitMix64::seed_from_u64(7);
        let mut word = || {
            let magnitude = rng.gen_range(24_576i16..=32_767);
            Fx16::from_raw(if rng.gen_bool() {
                magnitude
            } else {
                -magnitude
            })
        };
        let s_in = layer.input_size();
        let input = Tensor3::from_fn(layer.n(), s_in, s_in, |_, _, _| word());
        let kernels = KernelSet::from_fn(layer.m(), layer.n(), layer.k(), |_, _, _, _| word());
        let report =
            PeArray::new(8).run_layer(&layer, Unroll::new(2, 3, 1, 2, 1, 2), &input, &kernels);
        assert_ne!(report.output, reference::conv(&layer, &input, &kernels));
        let bytes: Vec<u8> = report
            .output
            .as_slice()
            .iter()
            .flat_map(|v| v.raw().to_le_bytes())
            .collect();
        assert_eq!(
            flexsim_testkit::prop::fnv1a(&bytes),
            8_049_120_507_504_403_428
        );
    }

    #[test]
    fn gather_plan_stays_compact_on_the_large_table_1_layers() {
        // Pinned to the byte, so a layout change shows here before it
        // shows in peak RSS. The plan holds one entry per operand of a
        // synapse block, not per input-map chunk: 16 bytes of offsets
        // plus a 2-byte column per residue class. AlexNet C1 (Ti = Tj =
        // 4): 121 operands in 9 blocks, 16 classes. VGG-11 C12 (Tn =
        // 16): 144 operands in 9 blocks, 1 class; keyed per cycle, its
        // 32 chunks of 16 maps would hold 32 times as many offsets.
        for (net, name, bytes) in [
            (workloads::alexnet(), "C1", 10 * 8 + 121 * 16 + 121 * 16 * 2),
            (workloads::vgg11(), "C12", 10 * 8 + 144 * 16 + 144 * 2),
        ] {
            let layer = net.conv_layer(name).unwrap();
            let u = search::best_unroll(layer, 16, None).unroll;
            let mut gather = GatherPlan::default();
            gather.build(
                layer,
                u,
                StorePlan::new(layer, u).span,
                &mut StepClaims::new(16),
            );
            let table_bytes = std::mem::size_of_val(gather.starts.as_slice())
                + std::mem::size_of_val(gather.offsets.as_slice())
                + std::mem::size_of_val(gather.columns.as_slice());
            assert_eq!(table_bytes, bytes, "{} {name} under {u}", net.name());
        }
    }

    #[test]
    fn strided_dilated_layer_bit_exact() {
        let layer = ConvLayer::new("C", 2, 1, 4, 3)
            .with_stride(2)
            .with_dilation(3);
        check_layer(&layer, Unroll::new(2, 1, 2, 2, 2, 2), 16, 17);
    }
}
