//! Cycle-domain records.
//!
//! Simulators describe what happens *inside* a layer — tile passes,
//! pipeline fills, stalls, partial-sum spills — as [`CycleEvent`]s
//! timestamped in simulated engine cycles. Every event carries a
//! [`StallCause`] naming *why* its idle PE-cycles were lost, so the
//! per-layer [`crate::attrib::LossLedger`] can attribute utilization
//! exactly.
//!
//! A simulator holds one [`SinkHandle`], an optional shared
//! [`Recorder`]. With none attached it checks one `Option` per layer
//! and builds nothing. With one attached, [`crate::steps::fold`] hands
//! the recorder each layer once: the finished [`LayerTimeline`], then
//! the layer's [`LayerSpatial`] when the recorder keeps them.
//! [`Coalescer`] merges runs of fine-grained steps (tiles, passes) down
//! to a bounded number of events per layer while preserving exact cycle
//! and MAC totals.

use crate::attrib::StallCause;
use crate::occupancy::OccupancyTimeline;
use crate::spatial::LayerSpatial;
use crate::steps::Step;
use std::sync::{Arc, Mutex};

/// Identity of a recorded layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LayerCtx {
    /// Architecture name (`"FlexFlow"`, `"Systolic"`, …).
    pub arch: String,
    /// Layer name (`"C3"`).
    pub layer: String,
    /// Total PEs in the engine (the occupancy denominator).
    pub pe_count: u32,
    /// Id of the experiment this layer ran under (empty when the run
    /// is not part of an experiment sweep). Stamped by a
    /// [`Recorder::tagged`] recorder so multi-experiment traces stay
    /// attributable.
    pub experiment: String,
}

impl LayerCtx {
    /// Builds a context (no experiment attribution).
    pub fn new(arch: impl Into<String>, layer: impl Into<String>, pe_count: u32) -> LayerCtx {
        LayerCtx {
            arch: arch.into(),
            layer: layer.into(),
            pe_count,
            experiment: String::new(),
        }
    }

    /// A context for an engine of `rows × cols` PEs.
    ///
    /// # Panics
    ///
    /// Panics, naming the architecture, the layer and the geometry, when
    /// the engine has more PEs than the `u32` PE count holds.
    pub fn for_engine(arch: &str, layer: &str, rows: usize, cols: usize) -> LayerCtx {
        let pes = rows
            .checked_mul(cols)
            .and_then(|pes| u32::try_from(pes).ok())
            .unwrap_or_else(|| {
                panic!("{arch}/{layer}: a {rows}×{cols} engine has more PEs than a u32 counts")
            });
        LayerCtx::new(arch, layer, pes)
    }
}

/// What a cycle-domain event represents. Both variants carry the
/// [`StallCause`] that their lost PE-cycles are attributed to:
///
/// * a `Stall` loses its *entire* `cycles × pe_count` budget;
/// * a `Pass` computes, and only its idle remainder
///   (`cycles × pe_count − macs`) is attributed to the cause — e.g. a
///   pass over an edge tile carries [`StallCause::EdgeFragmentation`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CycleEventKind {
    /// A compute pass over one or more tiles/row-batches; the cause
    /// labels the pass's idle PE remainder.
    Pass(StallCause),
    /// A zero-MAC span (fill, drain, spill, wait); the cause labels the
    /// whole span.
    Stall(StallCause),
}

impl CycleEventKind {
    /// Number of distinct kinds (2 shapes × [`StallCause::COUNT`]).
    pub const COUNT: usize = 2 * StallCause::COUNT;

    /// Short display name — `"pass"` for compute spans, the cause's
    /// kebab-case name for stalls (so a Chrome trace reads
    /// `pipeline-fill`/`psum-spill` directly).
    pub fn name(&self) -> &'static str {
        match self {
            CycleEventKind::Pass(_) => "pass",
            CycleEventKind::Stall(cause) => cause.name(),
        }
    }

    /// The cause this event's lost PE-cycles are attributed to.
    pub fn cause(&self) -> StallCause {
        match self {
            CycleEventKind::Pass(cause) | CycleEventKind::Stall(cause) => *cause,
        }
    }

    /// Dense index in `[0, CycleEventKind::COUNT)` — passes first, then
    /// stalls, cause order within each.
    pub fn index(&self) -> usize {
        match self {
            CycleEventKind::Pass(cause) => cause.index(),
            CycleEventKind::Stall(cause) => StallCause::COUNT + cause.index(),
        }
    }
}

/// One cycle-domain event: a half-open span of simulated time,
/// `[start_cycle, start_cycle + cycles)`, during which `macs` useful
/// MACs executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CycleEvent {
    /// Event kind (shape + loss cause).
    pub kind: CycleEventKind,
    /// First cycle of the span.
    pub start_cycle: u64,
    /// Span length in cycles.
    pub cycles: u64,
    /// Useful MACs executed during the span (0 for stalls).
    pub macs: u64,
}

impl CycleEvent {
    /// Builds an event.
    pub fn new(kind: CycleEventKind, start_cycle: u64, cycles: u64, macs: u64) -> CycleEvent {
        CycleEvent {
            kind,
            start_cycle,
            cycles,
            macs,
        }
    }

    /// One-past-the-last cycle of the span.
    pub fn end_cycle(&self) -> u64 {
        self.start_cycle + self.cycles
    }
}

/// The complete event stream of one simulated layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LayerTimeline {
    /// Which layer, on which architecture.
    pub ctx: LayerCtx,
    /// Events in emission order (non-decreasing `start_cycle`).
    pub events: Vec<CycleEvent>,
}

impl LayerTimeline {
    /// Total simulated cycles covered (the max event end).
    pub fn total_cycles(&self) -> u64 {
        self.events
            .iter()
            .map(CycleEvent::end_cycle)
            .max()
            .unwrap_or(0)
    }

    /// Total useful MACs across events.
    pub fn macs(&self) -> u64 {
        self.events.iter().map(|e| e.macs).sum()
    }

    /// Builds the run-length-encoded occupancy timeline (gaps between
    /// events count as idle).
    pub fn occupancy(&self) -> OccupancyTimeline {
        let pe = f64::from(self.ctx.pe_count.max(1));
        let mut segments: Vec<(u64, f64)> = Vec::with_capacity(self.events.len());
        let mut cursor = 0u64;
        for ev in &self.events {
            if ev.start_cycle > cursor {
                segments.push((ev.start_cycle - cursor, 0.0));
            }
            if ev.cycles > 0 {
                let frac = ev.macs as f64 / (ev.cycles as f64 * pe);
                segments.push((ev.cycles, frac));
            }
            cursor = cursor.max(ev.end_cycle());
        }
        OccupancyTimeline::from_segments(self.ctx.pe_count, segments)
    }
}

#[derive(Debug, Default)]
struct Records {
    timelines: Vec<LayerTimeline>,
    spatial: Vec<LayerSpatial>,
}

/// The observer: receives each simulated layer once, as a finished
/// [`LayerTimeline`] and, when built with [`Recorder::with_spatial`],
/// its [`LayerSpatial`], and keeps both in submission order.
///
/// Every call stores a whole layer, so simulators on several threads
/// may share one recorder: their layers never interleave.
#[derive(Debug, Default)]
pub struct Recorder {
    records: Mutex<Records>,
    spatial: bool,
    experiment: Option<String>,
}

impl Recorder {
    /// Creates an empty recorder of cycle timelines only.
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// Creates an empty recorder that also asks for, and keeps, one
    /// spatial record per layer (the `flexsim heatmap` path).
    pub fn with_spatial() -> Recorder {
        Recorder {
            spatial: true,
            ..Recorder::default()
        }
    }

    /// Returns the recorder stamping `experiment` onto the
    /// [`LayerCtx`] of every timeline it records, so cycle records
    /// from a multi-experiment sweep stay attributable.
    pub fn tagged(mut self, experiment: &str) -> Recorder {
        self.experiment = Some(experiment.to_owned());
        self
    }

    /// Whether simulators should build a spatial record per layer.
    pub fn keeps_spatial(&self) -> bool {
        self.spatial
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Records> {
        self.records
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Records one finished layer timeline.
    pub fn record(&self, mut timeline: LayerTimeline) {
        if let Some(id) = &self.experiment {
            timeline.ctx.experiment.clone_from(id);
        }
        self.lock().timelines.push(timeline);
    }

    /// Records finished layer timelines, in order: how a recorder
    /// merges another's [`Recorder::take`].
    pub fn record_all(&self, timelines: Vec<LayerTimeline>) {
        timelines.into_iter().for_each(|tl| self.record(tl));
    }

    /// Records one finished per-layer spatial record.
    pub fn record_spatial(&self, layer: LayerSpatial) {
        self.lock().spatial.push(layer);
    }

    /// Drains every recorded layer timeline.
    pub fn take(&self) -> Vec<LayerTimeline> {
        std::mem::take(&mut self.lock().timelines)
    }

    /// Drains every spatial record, in submission order.
    pub fn take_spatial(&self) -> Vec<LayerSpatial> {
        std::mem::take(&mut self.lock().spatial)
    }
}

/// The field every simulator stores: an optional shared [`Recorder`].
/// Attached means recording; the default handle records nothing, and
/// a simulator checks it once per layer.
#[derive(Clone, Debug, Default)]
pub struct SinkHandle(Option<Arc<Recorder>>);

impl SinkHandle {
    /// An unattached handle.
    pub fn none() -> SinkHandle {
        SinkHandle(None)
    }

    /// A handle recording into `recorder`.
    pub fn new(recorder: Arc<Recorder>) -> SinkHandle {
        SinkHandle(Some(recorder))
    }

    /// The attached recorder, if any.
    pub fn recorder(&self) -> Option<&Recorder> {
        self.0.as_deref()
    }
}

/// Target number of events a [`Coalescer`] flushes per layer.
pub const MAX_EVENTS_PER_LAYER: usize = 256;

/// Per-kind cycle and MAC totals of one layer: the closed-form
/// aggregate of a step schedule, and what a [`Coalescer`] buffers
/// between flushes. Two streams with equal aggregates fold to equal
/// [`crate::attrib::LossLedger`]s.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Aggregate([(u64, u64); CycleEventKind::COUNT]);

impl Aggregate {
    /// Adds `cycles` and `macs` under `kind`.
    pub fn add(&mut self, kind: CycleEventKind, cycles: u64, macs: u64) {
        let (c, m) = &mut self.0[kind.index()];
        *c += cycles;
        *m += macs;
    }

    /// Total cycles over all kinds.
    pub fn cycles(&self) -> u64 {
        self.0.iter().map(|&(c, _)| c).sum()
    }

    /// Total useful MACs over all kinds.
    pub fn macs(&self) -> u64 {
        self.0.iter().map(|&(_, m)| m).sum()
    }

    /// Lost PE-cycles on a `pes`-PE array: per kind, `cycles × pes`
    /// less the kind's useful MACs. This is the arithmetic
    /// [`crate::attrib::LossLedger::from_timeline`] applies to the
    /// [`Aggregate::timeline`] events, so it equals that ledger's
    /// `attributed_lost()` without building the timeline.
    pub fn lost_pe_cycles(&self, pes: u64) -> u64 {
        self.0
            .iter()
            .map(|&(cycles, macs)| (cycles * pes).saturating_sub(macs))
            .sum()
    }

    /// The non-empty kinds as back-to-back events in [`KIND_ORDER`],
    /// the first starting at `start`.
    pub fn events(&self, start: u64) -> impl Iterator<Item = CycleEvent> + '_ {
        let mut cursor = start;
        KIND_ORDER.into_iter().filter_map(move |kind| {
            let (cycles, macs) = self.0[kind.index()];
            (cycles > 0).then(|| {
                cursor += cycles;
                CycleEvent::new(kind, cursor - cycles, cycles, macs)
            })
        })
    }

    /// The aggregate as one layer's timeline.
    pub fn timeline(&self, ctx: LayerCtx) -> LayerTimeline {
        LayerTimeline {
            ctx,
            events: self.events(0).collect(),
        }
    }
}

/// Merges fine-grained emission into at most ~[`MAX_EVENTS_PER_LAYER`]
/// flushes while preserving exact per-kind cycle and MAC totals.
///
/// Callers stream runs of identical logical steps via
/// [`Coalescer::push`]; the coalescer buffers per-kind totals and
/// flushes a merged burst every `ceil(total_steps /
/// MAX_EVENTS_PER_LAYER)` steps, splitting a run where a flush group
/// ends. The totals are linear in the steps, so a run of `n` folds
/// exactly like `n` copies of its step, at the cost of one per flush
/// group it touches. Each `(shape, cause)` kind keeps its own
/// accumulator slot, so losses with different causes never blur
/// together. Within a merged burst the kinds are emitted back to back
/// in [`KIND_ORDER`] (an idealization: real interleaving below the
/// flush granularity is not preserved, but per-kind cycle and MAC
/// totals are exact).
pub struct Coalescer {
    events: Vec<CycleEvent>,
    every: u64,
    steps_in_group: u64,
    cursor: u64,
    acc: Aggregate,
}

/// Deterministic flush order within one merged burst: leading stalls
/// (fill, operand wait), then compute passes, then trailing stalls
/// (spill, drain, residual causes).
pub const KIND_ORDER: [CycleEventKind; CycleEventKind::COUNT] = [
    CycleEventKind::Stall(StallCause::PipelineFill),
    CycleEventKind::Stall(StallCause::BufferBandwidthWait),
    CycleEventKind::Pass(StallCause::PipelineFill),
    CycleEventKind::Pass(StallCause::PipelineDrain),
    CycleEventKind::Pass(StallCause::EdgeFragmentation),
    CycleEventKind::Pass(StallCause::AdderTreeContention),
    CycleEventKind::Pass(StallCause::BufferBandwidthWait),
    CycleEventKind::Pass(StallCause::PsumSpillRoundTrip),
    CycleEventKind::Pass(StallCause::MappingResidueIdle),
    CycleEventKind::Stall(StallCause::PsumSpillRoundTrip),
    CycleEventKind::Stall(StallCause::PipelineDrain),
    CycleEventKind::Stall(StallCause::EdgeFragmentation),
    CycleEventKind::Stall(StallCause::AdderTreeContention),
    CycleEventKind::Stall(StallCause::MappingResidueIdle),
];

impl Coalescer {
    /// Creates a coalescer expecting `total_steps` logical steps.
    pub fn new(total_steps: u64) -> Coalescer {
        Coalescer {
            events: Vec::new(),
            every: total_steps.div_ceil(MAX_EVENTS_PER_LAYER as u64).max(1),
            steps_in_group: 0,
            cursor: 0,
            acc: Aggregate::default(),
        }
    }

    /// Accumulates `n` copies of `step`, flushing at every group
    /// boundary the run reaches.
    pub fn push(&mut self, step: &Step, n: u64) {
        let mut one = Aggregate::default();
        step.for_each_span(|kind, cycles, macs| one.add(kind, cycles, macs));
        let mut left = n;
        while left > 0 {
            let take = left.min(self.every - self.steps_in_group);
            for (acc, &(cycles, macs)) in self.acc.0.iter_mut().zip(&one.0) {
                acc.0 += cycles * take;
                acc.1 += macs * take;
            }
            self.steps_in_group += take;
            left -= take;
            if self.steps_in_group == self.every {
                self.flush();
            }
        }
    }

    fn flush(&mut self) {
        self.events.extend(self.acc.events(self.cursor));
        self.cursor += self.acc.cycles();
        self.acc = Aggregate::default();
        self.steps_in_group = 0;
    }

    /// Flushes any buffered remainder and returns the layer's events,
    /// back to back from cycle 0.
    pub fn finish(mut self) -> Vec<CycleEvent> {
        self.flush();
        self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spatial::CellRect;
    use crate::steps::Pass;

    fn timeline(layer: &str, events: Vec<CycleEvent>) -> LayerTimeline {
        LayerTimeline {
            ctx: LayerCtx::new("FlexFlow", layer, 256),
            events,
        }
    }

    /// A step: an optional whole-array stall, then a pass of `cause`.
    fn step(
        stall: Option<(StallCause, u64)>,
        (cause, cycles, macs): (StallCause, u64, u64),
    ) -> Step {
        let step = Step::new(Pass {
            cause,
            cycles,
            macs,
            rects: CellRect::full(1, 1).into(),
        });
        match stall {
            Some((cause, cycles)) => step.stall(cause, cycles),
            None => step,
        }
    }

    fn coalesced(total_steps: u64, runs: &[(Step, u64)]) -> Vec<CycleEvent> {
        let mut co = Coalescer::new(total_steps);
        for (step, n) in runs {
            co.push(step, *n);
        }
        co.finish()
    }

    #[test]
    fn default_handle_is_disabled() {
        let sink = SinkHandle::default();
        assert!(sink.recorder().is_none());
        assert!(SinkHandle::none().recorder().is_none());
        let rec = Arc::new(Recorder::new());
        assert!(SinkHandle::new(rec).recorder().is_some());
    }

    #[test]
    fn kind_indices_cover_kind_order_bijectively() {
        let mut seen = [false; CycleEventKind::COUNT];
        for kind in KIND_ORDER {
            assert!(!seen[kind.index()], "{kind:?} index collides");
            seen[kind.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(
            CycleEventKind::Stall(StallCause::PipelineFill).name(),
            "pipeline-fill"
        );
        assert_eq!(
            CycleEventKind::Pass(StallCause::EdgeFragmentation).name(),
            "pass"
        );
        assert_eq!(
            CycleEventKind::Pass(StallCause::EdgeFragmentation).cause(),
            StallCause::EdgeFragmentation
        );
    }

    #[test]
    fn recorder_collects_per_layer() {
        let rec = Recorder::new();
        assert!(!rec.keeps_spatial());
        rec.record(timeline(
            "C1",
            vec![
                CycleEvent::new(CycleEventKind::Stall(StallCause::PipelineFill), 0, 8, 0),
                CycleEvent::new(
                    CycleEventKind::Pass(StallCause::MappingResidueIdle),
                    8,
                    100,
                    20_000,
                ),
            ],
        ));
        rec.record(timeline(
            "C3",
            vec![CycleEvent::new(
                CycleEventKind::Pass(StallCause::MappingResidueIdle),
                0,
                10,
                2_000,
            )],
        ));
        let tl = rec.take();
        assert_eq!(tl.len(), 2);
        assert_eq!(tl[0].ctx.layer, "C1");
        assert_eq!(tl[0].ctx.experiment, "");
        assert_eq!(tl[0].total_cycles(), 108);
        assert_eq!(tl[0].macs(), 20_000);
        assert!(rec.take().is_empty());
    }

    #[test]
    fn timeline_occupancy_fills_gaps_as_idle() {
        let pass = CycleEventKind::Pass(StallCause::EdgeFragmentation);
        let tl = LayerTimeline {
            ctx: LayerCtx::new("a", "l", 4),
            events: vec![
                CycleEvent::new(pass, 0, 10, 40), // full
                CycleEvent::new(pass, 20, 10, 0), // idle
            ],
        };
        let occ = tl.occupancy();
        assert_eq!(occ.cycles(), 30);
        // 10 full cycles of 30.
        assert!((occ.utilization() - 10.0 / 30.0).abs() < 1e-12);
    }

    #[test]
    fn coalescer_preserves_totals_and_caps_events() {
        let steps = 10_000u64;
        let one = step(
            Some((StallCause::PipelineFill, 2)),
            (StallCause::MappingResidueIdle, 5, 37),
        );
        let events = coalesced(steps, &[(one, steps)]);
        // A run folds exactly like its copies.
        let copies: Vec<_> = std::iter::repeat_n((one, 1), steps as usize).collect();
        assert_eq!(events, coalesced(steps, &copies));
        let tl = timeline("l", events);
        assert!(tl.events.len() <= 2 * MAX_EVENTS_PER_LAYER + 2);
        assert_eq!(tl.total_cycles(), steps * 7);
        assert_eq!(tl.macs(), steps * 37);
        // Events tile the timeline with no overlap.
        let mut cursor = 0;
        for ev in &tl.events {
            assert_eq!(ev.start_cycle, cursor);
            cursor = ev.end_cycle();
        }
    }

    #[test]
    fn coalescer_splits_runs_at_flush_group_boundaries() {
        // 10 steps over 256 target events flush every step, so a run
        // of 3 is three bursts and the next run starts a fresh one.
        let a = step(None, (StallCause::EdgeFragmentation, 2, 1));
        let b = step(
            Some((StallCause::PipelineFill, 1)),
            (StallCause::EdgeFragmentation, 3, 2),
        );
        let runs = coalesced(10, &[(a, 3), (b, 7)]);
        let copies = coalesced(
            10,
            &[(a, 1), (a, 1), (a, 1)]
                .into_iter()
                .chain([(b, 1); 7])
                .collect::<Vec<_>>(),
        );
        assert_eq!(runs, copies);
        assert_eq!(runs.len(), 3 + 2 * 7);
        // Over 1000 steps (flush every 4) the run of 3 shares its
        // group with the first step of the next.
        let runs = coalesced(1000, &[(a, 3), (b, 997)]);
        let copies: Vec<_> = [(a, 1); 3].into_iter().chain([(b, 1); 997]).collect();
        assert_eq!(runs, coalesced(1000, &copies));
        assert_eq!(
            runs[0].kind,
            CycleEventKind::Stall(StallCause::PipelineFill)
        );
        assert_eq!(runs[1].cycles, 3 * 2 + 3);
    }

    #[test]
    fn coalescer_flushes_the_remainder_at_the_layer_boundary() {
        // 1000 expected steps → flush every 4; push only 2, so the
        // whole layer sits buffered until `finish`.
        let events = coalesced(
            1000,
            &[
                (step(None, (StallCause::MappingResidueIdle, 5, 9)), 1),
                (
                    step(
                        Some((StallCause::PipelineFill, 3)),
                        (StallCause::MappingResidueIdle, 0, 0),
                    ),
                    1,
                ),
            ],
        );
        let tl = timeline("L1", events);
        assert_eq!(tl.total_cycles(), 8);
        assert_eq!(tl.macs(), 9);
        // A single boundary flush in KIND_ORDER: had an intermediate
        // flush happened, the pass (step 1) would precede the stall.
        assert_eq!(tl.events.len(), 2);
        assert_eq!(
            tl.events[0].kind,
            CycleEventKind::Stall(StallCause::PipelineFill)
        );
        assert_eq!(tl.events[0].start_cycle, 0);
        assert_eq!(
            tl.events[1].kind,
            CycleEventKind::Pass(StallCause::MappingResidueIdle)
        );
        assert_eq!(tl.events[1].start_cycle, 3);

        // The next layer's coalescer starts a fresh cursor at 0.
        let events = coalesced(
            1000,
            &[(step(None, (StallCause::EdgeFragmentation, 7, 7)), 1)],
        );
        assert_eq!(events[0].start_cycle, 0);
        assert_eq!(timeline("L2", events).total_cycles(), 7);
    }

    #[test]
    fn coalescer_keeps_causes_in_separate_events() {
        let events = coalesced(
            2,
            &[
                (step(None, (StallCause::EdgeFragmentation, 10, 30)), 1),
                (step(None, (StallCause::AdderTreeContention, 10, 35)), 1),
            ],
        );
        let tl = timeline("l", events);
        assert_eq!(tl.total_cycles(), 20);
        assert_eq!(tl.macs(), 65);
        let causes: Vec<StallCause> = tl.events.iter().map(|e| e.kind.cause()).collect();
        assert_eq!(
            causes,
            vec![
                StallCause::EdgeFragmentation,
                StallCause::AdderTreeContention
            ]
        );
    }

    #[test]
    fn tagged_handle_stamps_experiment_on_layer_ctx() {
        let rec = Recorder::new().tagged("fig15");
        rec.record(timeline(
            "C1",
            vec![CycleEvent::new(
                CycleEventKind::Pass(StallCause::MappingResidueIdle),
                0,
                10,
                100,
            )],
        ));
        let tl = rec.take();
        assert_eq!(tl.len(), 1);
        assert_eq!(tl[0].ctx.experiment, "fig15");
        assert_eq!(tl[0].ctx.layer, "C1");
        assert_eq!(tl[0].macs(), 100);
    }
}
