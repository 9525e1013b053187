//! Closed-form schedule model of the FlexFlow engine.
//!
//! Given a CONV layer and an unrolling, the engine executes
//! **row-batches** (one per `⟨m, r, c⟩` tile): each batch assigns
//! `Tm·Tr·Tc` output neurons to PE rows and walks
//! `chunks = ⌈N/Tn⌉·⌈K/Ti⌉·⌈K/Tj⌉` operand chunks, one chunk per cycle,
//! every active PE contributing one product to its row's adder tree.
//!
//! The model also captures two capacity effects of the 256 B local
//! stores (Table 5):
//!
//! * when a pass needs more than 128 operand words per PE, the batch is
//!   **segmented** — partial sums spill to the output neuron buffer and
//!   return (the paper's "the data written back are partial results"
//!   case, Fig. 13f);
//! * kernel residency decides the loop order: keep neurons and re-stream
//!   kernels, or keep kernels and re-read neurons. The planner picks the
//!   cheaper order (what IADP's pre-layout accomplishes).
//!
//! The cycle-stepped functional simulator ([`crate::array`]) follows this
//! same schedule; integration tests hold the two consistent.

use crate::local_store::STORE_WORDS;
use flexsim_arch::stats::Traffic;
use flexsim_dataflow::loopnest::grid;
use flexsim_dataflow::utilization::ceil_div;
use flexsim_dataflow::Unroll;
use flexsim_model::ConvLayer;
use flexsim_obs::attrib::StallCause;
use flexsim_obs::cycles::{Aggregate, CycleEventKind};
use flexsim_obs::spatial::CellRect;
use flexsim_obs::steps::{maximal, Pass, Step};

/// One-off pipeline fill latency per layer (operand preload + adder-tree
/// depth before the first writeback).
pub const PIPELINE_FILL_CYCLES: u64 = 8;

/// Stall cycles at each partial-sum segment boundary (spill the row
/// accumulators to the output buffer and read them back).
pub const SEGMENT_STALL_CYCLES: u64 = 2;

/// Energy-equivalent of one stalled engine cycle in buffer words, used
/// to trade residency strategies off against each other (an idle `D×D`
/// array burns roughly this many word-accesses' worth of energy).
pub const STALL_WORD_EQUIVALENT: u64 = 64;

/// Loop-order choice for operand residency.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoopOrder {
    /// Spatial tiles outer, output-map groups inner: input neurons are
    /// loaded once per spatial tile and shared across map groups.
    SpatialOuter,
    /// Output-map groups outer, spatial tiles inner: kernels are loaded
    /// once per map group and inputs re-read per group.
    MapOuter,
    /// Segment the operand-chunk walk so every group's kernel slice
    /// co-resides; partial sums spill to the output buffer between
    /// segments (the paper's Fig. 13f flow).
    SegmentedPsum,
}

/// The engine schedule for one layer under one unrolling.
#[derive(Clone, Debug, PartialEq)]
pub struct Schedule {
    /// The unrolling being executed.
    pub unroll: Unroll,
    /// Engine side `D`.
    pub d: usize,
    /// Operand chunks per row-batch (compute cycles per pass).
    pub chunks: u64,
    /// Segments per row-batch (1 = no partial-sum spill).
    pub segments: u64,
    /// Output-map groups (`⌈M/Tm⌉`).
    pub m_groups: u64,
    /// Spatial tiles (`⌈S/Tr⌉·⌈S/Tc⌉`).
    pub spatial_tiles: u64,
    /// Total row-batches (`m_groups · spatial_tiles`).
    pub row_batches: u64,
    /// Chosen loop order.
    pub order: LoopOrder,
    /// Total engine cycles: the cycles of [`aggregate`] (the fill,
    /// compute, and per-segment writeback).
    pub cycles: u64,
    /// Useful MACs.
    pub macs: u64,
    /// Buffer ↔ engine word traffic.
    pub traffic: Traffic,
}

impl Schedule {
    /// Measured utilization: MACs over PE-cycles.
    pub fn utilization(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.macs as f64 / (self.cycles as f64 * (self.d * self.d) as f64)
    }
}

/// Builds the schedule for `layer` under `u` on a `d×d` engine with
/// `store_words`-deep local stores.
///
/// # Panics
///
/// Panics if `d` or `store_words` is zero, or `u` violates the engine
/// occupancy bounds (`Tn·Ti·Tj ≤ d`, `Tm·Tr·Tc ≤ d`).
pub fn schedule(layer: &ConvLayer, u: Unroll, d: usize, store_words: usize) -> Schedule {
    assert!(
        d > 0 && store_words > 0,
        "engine parameters must be non-zero"
    );
    assert!(
        u.cols_used() <= d && u.rows_used() <= d,
        "unrolling exceeds the {d}x{d} engine (statically provable: flexcheck FXC06 unroll-bounds)"
    );
    let (m, n, s, k) = (layer.m(), layer.n(), layer.s(), layer.k());
    let stride = layer.stride();
    let s_in = layer.input_size();

    let chunks = (ceil_div(n, u.tn) * ceil_div(k, u.ti) * ceil_div(k, u.tj)) as u64;
    let m_groups = ceil_div(m, u.tm) as u64;
    let stripes = ceil_div(s, u.tr) as u64;
    let ctiles = ceil_div(s, u.tc) as u64;
    let spatial_tiles = stripes * ctiles;
    let row_batches = m_groups * spatial_tiles;
    let macs = layer.macs();

    // Input words per stripe: every input row a stripe's windows touch,
    // across the full input width (loaded progressively along the
    // column-tile walk; RS preloading hides the latency, the words still
    // cross the vertical buses once).
    let stripe_words: u64 = grid([(s, u.tr)])
        .1
        .map(|([tr_eff], n)| n * ((tr_eff - 1) * stride + k) as u64)
        .sum::<u64>()
        * s_in as u64;
    let neuron_in_once = n as u64 * stripe_words;

    // Kernel residency: per-PE slice per map group is `chunks` words.
    // Three candidate residency strategies (the planner's IADP choice):
    //
    // A `SpatialOuter` — spatial tiles outer, map groups inner: neurons
    //   read once; kernels resident only if *all* groups' slices fit,
    //   otherwise re-streamed every spatial tile.
    // B `MapOuter` — map groups outer: kernels read once (if one
    //   group's slice fits); neurons re-read per group.
    // C `SegmentedPsum` — segment the operand-chunk walk so every
    //   resident working set (across all map groups) fits the stores:
    //   neurons and kernels each read once, but partial sums spill to
    //   the output buffer and return at every segment boundary
    //   (Fig. 13f).
    let kernel_words = layer.synapses();
    let out_words = (m * s * s) as u64;
    let cap = store_words as u64;
    let all_groups_fit = m_groups.saturating_mul(chunks) <= cap;

    // (order, neuron_in, kernel_in, psum, segments)
    let (candidates, count) = if all_groups_fit {
        let a = (LoopOrder::SpatialOuter, neuron_in_once, kernel_words, 0, 1);
        ([a; 3], 1)
    } else {
        // A: kernels re-stream per spatial tile. When even one
        // group's slice overflows, passes are additionally
        // segmented with psum spills.
        let seg_a = chunks.div_ceil(cap);
        let psum_a = 2 * (seg_a - 1) * out_words;
        let a = (
            LoopOrder::SpatialOuter,
            neuron_in_once,
            kernel_words * spatial_tiles,
            psum_a,
            seg_a,
        );
        // B: neurons re-read per map group; oversized passes also
        // segment within each group.
        let seg_b = chunks.div_ceil(cap);
        let b = (
            LoopOrder::MapOuter,
            neuron_in_once * m_groups,
            kernel_words,
            2 * (seg_b - 1) * out_words,
            seg_b,
        );
        // C: slice the chunk walk so all groups' slices co-reside.
        let slice = (cap / m_groups).max(1);
        let seg_c = chunks.div_ceil(slice);
        let c = (
            LoopOrder::SegmentedPsum,
            neuron_in_once,
            kernel_words,
            2 * (seg_c - 1) * out_words,
            seg_c,
        );
        ([a, b, c], 3)
    };
    // Pick the strategy minimizing total cost: buffer words moved plus
    // the engine-time cost of segment-boundary stalls (a stalled cycle
    // idles the whole array, worth roughly STALL_WORD_EQUIVALENT buffer
    // words of energy).
    let (order, neuron_in, kernel_in, psum, segments) = candidates[..count]
        .iter()
        .copied()
        .min_by_key(|&(_, n_in, k_in, ps, seg)| {
            let stalls = row_batches * (seg - 1) * SEGMENT_STALL_CYCLES;
            n_in + k_in + ps + stalls * STALL_WORD_EQUIVALENT
        })
        .expect("at least one residency strategy");

    let mut sch = Schedule {
        unroll: u,
        d,
        chunks,
        segments,
        m_groups,
        spatial_tiles,
        row_batches,
        order,
        cycles: 0,
        macs,
        traffic: Traffic {
            neuron_in,
            neuron_out: out_words,
            kernel_in,
            psum,
        },
    };
    sch.cycles = aggregate(&sch).cycles();
    sch
}

/// Convenience: schedule with the paper's 256 B (128-word) local stores.
pub fn schedule_default(layer: &ConvLayer, u: Unroll, d: usize) -> Schedule {
    schedule(layer, u, d, STORE_WORDS)
}

/// The engine's step schedule as maximal runs `(step, count)` of equal
/// row-batches, in the order [`crate::array::PeArray::run_layer`]
/// computes them: row stripes outer, column tiles, then output-map
/// groups. Each batch's pass is `chunks` cycles on the `Ur × Uc` active
/// rectangle and carries its own tile's `tr·tc·tm·N·K²` MACs, plus the
/// one-off pipeline fill on the first batch and each batch's partial-sum
/// spill stalls.
///
/// The batches are the runs of [`grid`] over `(S, Tr) × (S, Tc) ×
/// (M, Tm)`, so a layer costs O(runs), nothing per compute cycle.
///
/// Loss attribution: the fill is [`StallCause::PipelineFill`] (operand
/// preload + adder-tree depth before the first writeback); segment
/// boundaries are [`StallCause::PsumSpillRoundTrip`] (row accumulators
/// written to the output buffer and read back); the pass residue — PEs
/// left idle by `Ur·Uc < D²` unrolling and edge tiles — is
/// [`StallCause::MappingResidueIdle`]. Adder-tree row-port conflicts
/// are statically excluded by flexcheck FXC03, so that bucket is
/// structurally zero here.
pub fn steps<'a>(
    layer: &'a ConvLayer,
    sch: &'a Schedule,
) -> impl Iterator<Item = (Step, u64)> + 'a {
    let u = sch.unroll;
    let rects = CellRect::full(u.rows_used(), u.cols_used()).into();
    let spill = (sch.segments - 1) * SEGMENT_STALL_CYCLES;
    let nk2 = (layer.n() * layer.k() * layer.k()) as u64;
    let (s, m) = (layer.s(), layer.m());
    let (_, batches) = grid([(s, u.tr), (s, u.tc), (m, u.tm)]);
    maximal(
        batches
            .enumerate()
            .flat_map(move |(run, ([tr, tc, tm], count))| {
                let step = Step::new(Pass {
                    cause: StallCause::MappingResidueIdle,
                    cycles: sch.chunks,
                    macs: (tr * tc * tm) as u64 * nk2,
                    rects,
                })
                .stall(StallCause::PsumSpillRoundTrip, spill);
                let fill = u64::from(run == 0);
                [
                    (
                        step.stall(StallCause::PipelineFill, PIPELINE_FILL_CYCLES),
                        fill,
                    ),
                    (step, count - fill),
                ]
            }),
    )
}

/// The closed-form [`Aggregate`] of [`steps`]: the fill, one compute
/// pass carrying every useful MAC, and the total partial-sum spill.
/// Output writeback is pipelined under the next batch's compute; only
/// partial-sum spills at segment boundaries stall the array, plus the
/// one-off pipeline fill.
pub fn aggregate(sch: &Schedule) -> Aggregate {
    let mut agg = Aggregate::default();
    agg.add(
        CycleEventKind::Stall(StallCause::PipelineFill),
        PIPELINE_FILL_CYCLES,
        0,
    );
    agg.add(
        CycleEventKind::Pass(StallCause::MappingResidueIdle),
        sch.row_batches * sch.chunks,
        sch.macs,
    );
    agg.add(
        CycleEventKind::Stall(StallCause::PsumSpillRoundTrip),
        sch.row_batches * (sch.segments - 1) * SEGMENT_STALL_CYCLES,
        0,
    );
    agg
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsim_dataflow::search;
    use flexsim_dataflow::utilization::total_utilization;
    use flexsim_model::workloads;

    #[test]
    fn utilization_tracks_closed_form() {
        // With one segment, measured utilization equals Eq. 2/3's Ut up
        // to the one-off pipeline fill.
        let layer = ConvLayer::new("C3", 16, 6, 10, 5);
        let u = Unroll::new(16, 3, 1, 1, 1, 5);
        let sch = schedule_default(&layer, u, 16);
        assert_eq!(sch.segments, 1);
        let ut = total_utilization(&layer, &u, 16);
        let expect = sch.macs as f64
            / ((sch.row_batches * sch.chunks + PIPELINE_FILL_CYCLES) as f64 * 256.0);
        assert!((sch.utilization() - expect).abs() < 1e-12);
        assert!((sch.utilization() - ut).abs() < 0.01);
    }

    #[test]
    fn planned_lenet_utilization_above_80_percent() {
        let net = workloads::lenet5();
        let plan = search::plan_network(&net, 16);
        let mut macs = 0u64;
        let mut pe_cycles = 0u64;
        for (layer, choice) in net.conv_layers().zip(&plan) {
            let sch = schedule_default(layer, choice.unroll, 16);
            macs += sch.macs;
            pe_cycles += sch.cycles * 256;
        }
        let util = macs as f64 / pe_cycles as f64;
        assert!(util > 0.8, "LeNet-5 planned utilization {util:.2}");
    }

    #[test]
    fn segmentation_kicks_in_on_deep_layers() {
        // AlexNet C5 has N=256; any unrolling with small Tn needs more
        // than 128 chunk words per PE.
        let layer = ConvLayer::new("C5", 192, 256, 13, 3).with_input_size(13);
        let u = Unroll::new(1, 1, 1, 13, 1, 3); // chunks = 256*3*1 = 768
        let sch = schedule_default(&layer, u, 16);
        assert!(sch.segments > 1);
        assert!(sch.traffic.psum > 0);
        // Psum spills both ways, (segments-1) times.
        assert_eq!(
            sch.traffic.psum,
            2 * (sch.segments - 1) * layer.output_neurons()
        );
    }

    #[test]
    fn loop_order_prefers_cheaper_operand_restream() {
        // Many map groups + tiny spatial tiling: re-streaming kernels
        // per tile is cheaper than re-reading neurons per group.
        let layer = ConvLayer::new("C", 512, 8, 6, 3);
        let u = Unroll::new(2, 2, 1, 6, 1, 3);
        let sch = schedule_default(&layer, u, 16);
        // 256 map groups make re-reading neurons per group (MapOuter)
        // far more expensive than re-streaming kernels per tile.
        assert_eq!(sch.order, LoopOrder::SpatialOuter);
        // Neurons once per stripe: 6 stripes x 3 input rows x 8 cols x
        // 8 maps.
        assert_eq!(sch.traffic.neuron_in, 8 * 6 * 3 * 8);
        assert_eq!(sch.traffic.kernel_in, layer.synapses() * sch.spatial_tiles);
    }

    #[test]
    fn flexflow_traffic_beats_tiling_shape() {
        // Fig. 17's headline on a mid-size layer: FlexFlow's traffic is
        // a small fraction of the layer's MAC count; Tiling's synapse
        // traffic alone equals the MAC count.
        let layer = ConvLayer::new("C3", 12, 8, 20, 3).with_input_size(22);
        let choice = search::best_unroll(&layer, 16, None);
        let sch = schedule_default(&layer, choice.unroll, 16);
        assert!(sch.traffic.total() < layer.macs() / 5);
    }

    #[test]
    fn ledger_events_tile_the_schedule_exactly() {
        for (layer, u) in [
            (
                ConvLayer::new("C3", 16, 6, 10, 5),
                Unroll::new(16, 3, 1, 1, 1, 5),
            ),
            (
                // Segmented: the spill stall event appears.
                ConvLayer::new("C5", 192, 256, 13, 3).with_input_size(13),
                Unroll::new(1, 1, 1, 13, 1, 3),
            ),
        ] {
            let sch = schedule_default(&layer, u, 16);
            let agg = aggregate(&sch);
            let mut stepped = Aggregate::default();
            for (step, n) in steps(&layer, &sch) {
                step.for_each_span(|kind, cycles, macs| stepped.add(kind, cycles * n, macs * n));
            }
            assert_eq!(agg, stepped);
            let events: Vec<_> = agg.events(0).collect();
            let mut cursor = 0u64;
            let mut macs = 0u64;
            for ev in &events {
                assert_eq!(ev.start_cycle, cursor, "events must tile back to back");
                cursor = ev.end_cycle();
                macs += ev.macs;
            }
            assert_eq!(cursor, sch.cycles);
            assert_eq!(macs, sch.macs);
            assert_eq!(events.len(), if sch.segments > 1 { 3 } else { 2 });
        }
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_unroll_rejected() {
        let layer = ConvLayer::new("C", 4, 4, 8, 3);
        let _ = schedule_default(&layer, Unroll::new(4, 4, 2, 4, 3, 3), 16);
    }
}
