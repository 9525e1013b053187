//! # flexsim-obs — observability for the FlexFlow simulators
//!
//! A zero-external-dependency observability substrate shared by all four
//! architecture simulators (FlexFlow, Systolic, 2D-Mapping, Tiling) and
//! the experiment harness. It separates two time domains:
//!
//! * **host time** — wall-clock spans around the simulators themselves
//!   (experiment → workload → layer → engine pass), for profiling the
//!   simulator as it grows toward production scale;
//! * **simulated time** — cycle-domain events (tile passes, pipeline
//!   fills, partial-sum spills) emitted by the simulators into a
//!   [`cycles::CycleSink`], for seeing *when inside a layer* a dataflow
//!   loses PEs or spills partial sums.
//!
//! The pieces:
//!
//! * [`filter`] — a `FLEXSIM_LOG`-style env filter and leveled stderr
//!   logging (`FLEXSIM_LOG=debug`, `FLEXSIM_LOG=layer=trace,info`);
//! * [`mod@span`] — hierarchical host-wall-time spans with an optional
//!   global recorder (the `flexsim --trace` path);
//! * [`metrics`] — a labeled counter/gauge registry with
//!   snapshot-and-diff; the simulators mirror every
//!   `EventCounts`/`Traffic` field into it so aggregate stats and live
//!   metrics can never disagree;
//! * [`cycles`] — the cycle-domain event sink trait (no-op by default,
//!   so instrumentation costs nothing when disabled), an in-memory
//!   recorder, and an event coalescer that caps per-layer event counts;
//! * [`attrib`] — the [`attrib::StallCause`] loss taxonomy and per-layer
//!   [`attrib::LossLedger`] with the exactness invariant
//!   `busy + Σ attributed_lost == total_cycles × num_pes`;
//! * [`roofline`] — arithmetic-intensity classification of layers as
//!   compute- vs bandwidth-bound (pure numbers; the hardware parameters
//!   stay in `flexsim-arch`);
//! * [`occupancy`] — run-length-encoded per-layer occupancy timelines,
//!   built from any architecture's cycle timeline;
//! * [`chrome`] — Chrome trace-event JSON export (loadable in Perfetto)
//!   combining host spans, simulated-cycle timelines, and a metrics
//!   snapshot, streamed through any `io::Write` sink;
//! * [`hist`] — HDR-style log-bucketed latency histograms with exact
//!   counts and byte-stable JSON/Prometheus emission;
//! * [`spatial`] — per-PE utilization heatmaps with per-cause loss
//!   planes, buffer-bank occupancy watermarks, and contention
//!   matrices, exactness-gated against the loss ledgers (flexcheck
//!   FXC13);
//! * [`steps`] — the per-architecture step schedule and the one fold
//!   that turns it into the cycle timeline and the heatmap;
//! * [`telemetry`] — host-side runtime telemetry: the wall-clock phase
//!   profiler (parse → flexcheck → schedule → simulate → verify →
//!   export), pool/scheduler worker stats, latency histograms, and the
//!   bounded flight recorder behind `flexsim stats`.
//!
//! ## Example
//!
//! ```
//! use flexsim_obs::attrib::{LossLedger, StallCause};
//! use flexsim_obs::cycles::{CycleEvent, CycleEventKind, CycleRecorder, LayerCtx, SinkHandle};
//! use std::sync::Arc;
//!
//! let recorder = Arc::new(CycleRecorder::new());
//! let sink = SinkHandle::new(recorder.clone());
//! assert!(sink.enabled());
//! sink.begin_layer(&LayerCtx::new("FlexFlow", "C1", 256));
//! sink.emit(&CycleEvent::new(
//!     CycleEventKind::Pass(StallCause::MappingResidueIdle),
//!     0,
//!     100,
//!     12_800,
//! ));
//! sink.end_layer();
//! let timelines = recorder.take();
//! assert_eq!(timelines.len(), 1);
//! assert!((timelines[0].occupancy().utilization() - 0.5).abs() < 1e-12);
//! let ledger = LossLedger::from_timeline(&timelines[0]);
//! assert!(ledger.is_exact());
//! assert_eq!(ledger.lost(StallCause::MappingResidueIdle), 100 * 256 - 12_800);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod attrib;
pub mod chrome;
pub mod cycles;
pub mod filter;
pub mod hist;
pub mod metrics;
pub mod occupancy;
pub mod roofline;
pub mod span;
pub mod spatial;
pub mod steps;
pub mod telemetry;

pub use attrib::{LossDelta, LossLedger, StallCause};
pub use cycles::{
    Aggregate, CycleEvent, CycleEventKind, CycleRecorder, CycleSink, LayerCtx, SinkHandle,
};
pub use filter::Level;
pub use hist::Histogram;
pub use metrics::{Registry, Snapshot};
pub use occupancy::OccupancyTimeline;
pub use span::{span, SpanGuard, SpanRecord};
pub use spatial::{BankWatermark, CellRects, ContentionMatrix, HeatmapBuilder, LayerSpatial};
pub use steps::{LayerFrame, Pass, Step};
pub use telemetry::{Phase, PhaseTimer, TelemetrySnapshot, WorkerTotals};
