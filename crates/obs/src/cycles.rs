//! Cycle-domain event sinks.
//!
//! Simulators emit what happens *inside* a layer — tile passes,
//! pipeline fills, stalls, partial-sum spills — as [`CycleEvent`]s
//! timestamped in simulated engine cycles. Every event carries a
//! [`StallCause`] naming *why* its idle PE-cycles were lost, so the
//! per-layer [`crate::attrib::LossLedger`] can attribute utilization
//! exactly. The [`CycleSink`] trait has no-op defaults and simulators
//! hold it behind a [`SinkHandle`] whose unattached state is a single
//! `Option` check, so instrumentation costs nothing when tracing is
//! disabled.
//!
//! The same sink also receives the per-layer spatial record
//! ([`LayerSpatial`]) when it asks for one, so a simulator holds one
//! observer, attached once.
//!
//! [`CycleRecorder`] collects events into per-layer timelines for
//! occupancy analysis and Chrome trace export. [`Coalescer`] merges
//! fine-grained emission (one event per tile/pass) down to a bounded
//! number of events per layer while preserving exact cycle and MAC
//! totals.

use crate::attrib::StallCause;
use crate::occupancy::OccupancyTimeline;
use crate::spatial::LayerSpatial;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Identity of the layer a sink is currently receiving events for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LayerCtx {
    /// Architecture name (`"FlexFlow"`, `"Systolic"`, …).
    pub arch: String,
    /// Layer name (`"C3"`).
    pub layer: String,
    /// Total PEs in the engine (the occupancy denominator).
    pub pe_count: u32,
    /// Id of the experiment this layer ran under (empty when the run
    /// is not part of an experiment sweep). Stamped by
    /// [`SinkHandle::tagged`] so multi-experiment traces stay
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

    /// Returns the context re-tagged with an owning experiment id.
    pub fn for_experiment(mut self, experiment: impl Into<String>) -> LayerCtx {
        self.experiment = experiment.into();
        self
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

/// A receiver of cycle-domain events. Every method is a no-op by
/// default and [`CycleSink::enabled`] defaults to `false`, so a unit
/// implementation is a valid do-nothing sink and simulators can skip
/// event synthesis entirely when nothing is listening.
pub trait CycleSink: Send + Sync {
    /// Whether the sink wants events at all. Simulators must check this
    /// before doing any per-tile work.
    fn enabled(&self) -> bool {
        false
    }
    /// A layer's event stream is starting.
    fn begin_layer(&self, _ctx: &LayerCtx) {}
    /// One event within the current layer.
    fn emit(&self, _ev: &CycleEvent) {}
    /// The current layer's event stream is complete.
    fn end_layer(&self) {}
    /// Whether the sink wants one [`LayerSpatial`] per layer.
    /// Simulators build no heatmap when this is false.
    fn wants_spatial(&self) -> bool {
        false
    }
    /// One finished per-layer spatial record.
    fn record_spatial(&self, _layer: LayerSpatial) {}
}

/// A cloneable, optionally-attached handle to a shared sink — the field
/// every simulator stores. The default (unattached) handle makes all
/// operations no-ops.
#[derive(Clone, Default)]
pub struct SinkHandle(Option<Arc<dyn CycleSink>>);

impl fmt::Debug for SinkHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.0.is_some() {
            "SinkHandle(attached)"
        } else {
            "SinkHandle(none)"
        })
    }
}

impl SinkHandle {
    /// An unattached handle (all operations no-ops).
    pub fn none() -> SinkHandle {
        SinkHandle(None)
    }

    /// Wraps a shared sink.
    pub fn new(sink: Arc<dyn CycleSink>) -> SinkHandle {
        SinkHandle(Some(sink))
    }

    /// Whether a sink is attached (it may still be disabled).
    pub fn is_attached(&self) -> bool {
        self.0.is_some()
    }

    /// Whether events should be synthesized and emitted.
    pub fn enabled(&self) -> bool {
        self.0.as_ref().is_some_and(|s| s.enabled())
    }

    /// Forwards to the sink, if attached.
    pub fn begin_layer(&self, ctx: &LayerCtx) {
        if let Some(sink) = &self.0 {
            sink.begin_layer(ctx);
        }
    }

    /// Forwards to the sink, if attached.
    pub fn emit(&self, ev: &CycleEvent) {
        if let Some(sink) = &self.0 {
            sink.emit(ev);
        }
    }

    /// Forwards to the sink, if attached.
    pub fn end_layer(&self) {
        if let Some(sink) = &self.0 {
            sink.end_layer();
        }
    }

    /// Whether a spatial record should be built and submitted.
    pub fn wants_spatial(&self) -> bool {
        self.0.as_ref().is_some_and(|s| s.wants_spatial())
    }

    /// Forwards to the sink, if attached.
    pub fn record_spatial(&self, layer: LayerSpatial) {
        if let Some(sink) = &self.0 {
            sink.record_spatial(layer);
        }
    }

    /// Returns a handle that stamps `experiment` onto the
    /// [`LayerCtx`] of every `begin_layer` it forwards, so cycle
    /// records from a multi-experiment sweep remain attributable to
    /// their owning experiment. An unattached handle stays unattached
    /// (still free when tracing is off).
    pub fn tagged(&self, experiment: &str) -> SinkHandle {
        match &self.0 {
            None => SinkHandle(None),
            Some(inner) => SinkHandle(Some(Arc::new(ExperimentTag {
                experiment: experiment.to_owned(),
                inner: Arc::clone(inner),
            }))),
        }
    }
}

/// A pass-through sink that stamps an experiment id onto layer
/// contexts (see [`SinkHandle::tagged`]).
struct ExperimentTag {
    experiment: String,
    inner: Arc<dyn CycleSink>,
}

impl CycleSink for ExperimentTag {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn begin_layer(&self, ctx: &LayerCtx) {
        self.inner
            .begin_layer(&ctx.clone().for_experiment(self.experiment.clone()));
    }

    fn emit(&self, ev: &CycleEvent) {
        self.inner.emit(ev);
    }

    fn end_layer(&self) {
        self.inner.end_layer();
    }

    fn wants_spatial(&self) -> bool {
        self.inner.wants_spatial()
    }

    fn record_spatial(&self, layer: LayerSpatial) {
        self.inner.record_spatial(layer);
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
struct RecorderInner {
    done: Vec<LayerTimeline>,
    open: Vec<LayerTimeline>,
    spatial: Vec<LayerSpatial>,
}

/// A [`CycleSink`] that records every event into per-layer timelines
/// and, when built with [`CycleRecorder::with_spatial`], every
/// per-layer spatial record.
///
/// `begin_layer`/`end_layer` pairs nest as a stack, matching the
/// single-threaded emission discipline of the simulators.
#[derive(Debug, Default)]
pub struct CycleRecorder {
    inner: Mutex<RecorderInner>,
    spatial: bool,
}

impl CycleRecorder {
    /// Creates an empty recorder of cycle events only.
    pub fn new() -> CycleRecorder {
        CycleRecorder::default()
    }

    /// Creates an empty recorder that also asks for, and keeps, one
    /// spatial record per layer (the `flexsim heatmap` path).
    pub fn with_spatial() -> CycleRecorder {
        CycleRecorder {
            spatial: true,
            ..CycleRecorder::default()
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RecorderInner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Copies out every completed layer timeline.
    pub fn timelines(&self) -> Vec<LayerTimeline> {
        self.lock().done.clone()
    }

    /// Drains every completed layer timeline.
    pub fn take(&self) -> Vec<LayerTimeline> {
        std::mem::take(&mut self.lock().done)
    }

    /// Drains every spatial record, in submission order.
    pub fn take_spatial(&self) -> Vec<LayerSpatial> {
        std::mem::take(&mut self.lock().spatial)
    }
}

impl CycleSink for CycleRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn begin_layer(&self, ctx: &LayerCtx) {
        self.lock().open.push(LayerTimeline {
            ctx: ctx.clone(),
            events: Vec::new(),
        });
    }

    fn emit(&self, ev: &CycleEvent) {
        if let Some(current) = self.lock().open.last_mut() {
            current.events.push(*ev);
        }
    }

    fn end_layer(&self) {
        let mut inner = self.lock();
        if let Some(done) = inner.open.pop() {
            inner.done.push(done);
        }
    }

    fn wants_spatial(&self) -> bool {
        self.spatial
    }

    fn record_spatial(&self, layer: LayerSpatial) {
        self.lock().spatial.push(layer);
    }
}

/// Target number of events a [`Coalescer`] flushes per layer.
pub const MAX_EVENTS_PER_LAYER: usize = 256;

/// Exact totals accumulated by a [`Coalescer`] over one layer, returned
/// by [`Coalescer::finish`] so the step fold ([`crate::steps::fold`])
/// can `debug_assert` the stream against the schedule (the dynamic
/// half of flexcheck's FXC08/FXC09 guards).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoalescerTotals {
    /// Total cycles emitted (the final timeline cursor).
    pub cycles: u64,
    /// Total useful MACs emitted.
    pub macs: u64,
}

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
/// Callers stream logical steps via [`Coalescer::push`] (one or more
/// pushes per step, then [`Coalescer::step`]); the coalescer buffers
/// per-kind totals and flushes a merged burst every
/// `ceil(total_steps / MAX_EVENTS_PER_LAYER)` steps. Each
/// `(shape, cause)` kind keeps its own accumulator slot, so losses with
/// different causes never blur together. Within a merged burst the
/// kinds are emitted back to back in [`KIND_ORDER`] (an idealization:
/// real interleaving below the flush granularity is not preserved, but
/// per-kind cycle and MAC totals are exact).
pub struct Coalescer<'a> {
    sink: &'a SinkHandle,
    every: u64,
    steps_in_group: u64,
    totals: CoalescerTotals,
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

impl<'a> Coalescer<'a> {
    /// Creates a coalescer expecting `total_steps` logical steps.
    pub fn new(sink: &'a SinkHandle, total_steps: u64) -> Coalescer<'a> {
        Coalescer {
            sink,
            every: total_steps.div_ceil(MAX_EVENTS_PER_LAYER as u64).max(1),
            steps_in_group: 0,
            totals: CoalescerTotals::default(),
            cursor: 0,
            acc: Aggregate::default(),
        }
    }

    /// Accumulates `cycles`/`macs` under `kind` for the current step.
    pub fn push(&mut self, kind: CycleEventKind, cycles: u64, macs: u64) {
        self.acc.add(kind, cycles, macs);
        self.totals.cycles += cycles;
        self.totals.macs += macs;
    }

    /// Marks the end of one logical step, flushing if the group is full.
    pub fn step(&mut self) {
        self.steps_in_group += 1;
        if self.steps_in_group >= self.every {
            self.flush();
        }
    }

    fn flush(&mut self) {
        for ev in self.acc.events(self.cursor) {
            self.sink.emit(&ev);
        }
        self.cursor += self.acc.cycles();
        self.acc = Aggregate::default();
        self.steps_in_group = 0;
    }

    /// Flushes any buffered remainder and returns the exact cycle and
    /// MAC totals emitted, for the caller's schedule-consistency
    /// `debug_assert`s.
    pub fn finish(mut self) -> CoalescerTotals {
        self.flush();
        debug_assert_eq!(
            self.totals.cycles, self.cursor,
            "coalescer cursor diverged from pushed cycle total"
        );
        self.totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_sink_is_a_noop() {
        struct Unit;
        impl CycleSink for Unit {}
        let sink = SinkHandle::new(Arc::new(Unit));
        assert!(sink.is_attached());
        assert!(!sink.enabled());
        // No panic on forwarding.
        sink.begin_layer(&LayerCtx::new("a", "b", 1));
        sink.emit(&CycleEvent::new(
            CycleEventKind::Pass(StallCause::MappingResidueIdle),
            0,
            1,
            1,
        ));
        sink.end_layer();
    }

    #[test]
    fn default_handle_is_disabled() {
        let sink = SinkHandle::default();
        assert!(!sink.is_attached());
        assert!(!sink.enabled());
        assert_eq!(format!("{sink:?}"), "SinkHandle(none)");
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
        let rec = Arc::new(CycleRecorder::new());
        let sink = SinkHandle::new(rec.clone());
        assert!(sink.enabled());
        sink.begin_layer(&LayerCtx::new("FlexFlow", "C1", 256));
        sink.emit(&CycleEvent::new(
            CycleEventKind::Stall(StallCause::PipelineFill),
            0,
            8,
            0,
        ));
        sink.emit(&CycleEvent::new(
            CycleEventKind::Pass(StallCause::MappingResidueIdle),
            8,
            100,
            20_000,
        ));
        sink.end_layer();
        sink.begin_layer(&LayerCtx::new("FlexFlow", "C3", 256));
        sink.emit(&CycleEvent::new(
            CycleEventKind::Pass(StallCause::MappingResidueIdle),
            0,
            10,
            2_000,
        ));
        sink.end_layer();
        let tl = rec.take();
        assert_eq!(tl.len(), 2);
        assert_eq!(tl[0].ctx.layer, "C1");
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
        let rec = Arc::new(CycleRecorder::new());
        let sink = SinkHandle::new(rec.clone());
        sink.begin_layer(&LayerCtx::new("a", "l", 16));
        let steps = 10_000u64;
        let mut co = Coalescer::new(&sink, steps);
        for _ in 0..steps {
            co.push(CycleEventKind::Stall(StallCause::PipelineFill), 2, 0);
            co.push(CycleEventKind::Pass(StallCause::MappingResidueIdle), 5, 37);
            co.step();
        }
        let totals = co.finish();
        sink.end_layer();
        assert_eq!(totals.cycles, steps * 7);
        assert_eq!(totals.macs, steps * 37);
        let tl = rec.take();
        assert_eq!(tl.len(), 1);
        assert!(tl[0].events.len() <= 2 * MAX_EVENTS_PER_LAYER + 2);
        assert_eq!(tl[0].total_cycles(), steps * 7);
        assert_eq!(tl[0].macs(), steps * 37);
        // Events tile the timeline with no overlap.
        let mut cursor = 0;
        for ev in &tl[0].events {
            assert_eq!(ev.start_cycle, cursor);
            cursor = ev.end_cycle();
        }
    }

    #[test]
    fn coalescer_flushes_the_remainder_at_the_layer_boundary() {
        let rec = Arc::new(CycleRecorder::new());
        let sink = SinkHandle::new(rec.clone());
        sink.begin_layer(&LayerCtx::new("a", "L1", 4));
        // 1000 expected steps → flush every 4; push only 2, so the
        // whole layer sits buffered until `finish`.
        let mut co = Coalescer::new(&sink, 1000);
        co.push(CycleEventKind::Pass(StallCause::MappingResidueIdle), 5, 9);
        co.step();
        co.push(CycleEventKind::Stall(StallCause::PipelineFill), 3, 0);
        co.step();
        let totals = co.finish();
        sink.end_layer();
        assert_eq!(totals, CoalescerTotals { cycles: 8, macs: 9 });
        let tls = rec.take();
        assert_eq!(tls.len(), 1);
        let tl = &tls[0];
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
        sink.begin_layer(&LayerCtx::new("a", "L2", 4));
        let mut co = Coalescer::new(&sink, 1000);
        co.push(CycleEventKind::Pass(StallCause::EdgeFragmentation), 7, 7);
        co.step();
        co.finish();
        sink.end_layer();
        let tls = rec.take();
        assert_eq!(tls.len(), 1);
        assert_eq!(tls[0].events[0].start_cycle, 0);
        assert_eq!(tls[0].total_cycles(), 7);
    }

    #[test]
    fn coalescer_keeps_causes_in_separate_events() {
        let rec = Arc::new(CycleRecorder::new());
        let sink = SinkHandle::new(rec.clone());
        sink.begin_layer(&LayerCtx::new("a", "l", 4));
        let mut co = Coalescer::new(&sink, 2);
        co.push(CycleEventKind::Pass(StallCause::EdgeFragmentation), 10, 30);
        co.step();
        co.push(
            CycleEventKind::Pass(StallCause::AdderTreeContention),
            10,
            35,
        );
        co.step();
        let totals = co.finish();
        sink.end_layer();
        assert_eq!(totals.cycles, 20);
        assert_eq!(totals.macs, 65);
        let tl = rec.take();
        let causes: Vec<StallCause> = tl[0].events.iter().map(|e| e.kind.cause()).collect();
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
        let rec = Arc::new(CycleRecorder::new());
        let sink = SinkHandle::new(rec.clone()).tagged("fig15");
        assert!(sink.enabled());
        sink.begin_layer(&LayerCtx::new("FlexFlow", "C1", 256));
        sink.emit(&CycleEvent::new(
            CycleEventKind::Pass(StallCause::MappingResidueIdle),
            0,
            10,
            100,
        ));
        sink.end_layer();
        let tl = rec.take();
        assert_eq!(tl.len(), 1);
        assert_eq!(tl[0].ctx.experiment, "fig15");
        assert_eq!(tl[0].ctx.layer, "C1");
        assert_eq!(tl[0].macs(), 100);
        // Tagging an unattached handle stays unattached.
        assert!(!SinkHandle::none().tagged("fig15").is_attached());
    }
}
