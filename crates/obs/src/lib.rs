//! # flexsim-obs — observability for the FlexFlow simulators
//!
//! A zero-external-dependency observability substrate shared by all four
//! architecture simulators (FlexFlow, Systolic, 2D-Mapping, Tiling) and
//! the experiment harness. It separates two time domains:
//!
//! * **host time** — wall-clock spans around the simulators themselves
//!   (experiment → workload → layer → engine pass), for profiling the
//!   simulator as it grows toward production scale;
//! * **simulated time** — per-layer cycle timelines (tile passes,
//!   pipeline fills, partial-sum spills) handed once per layer to a
//!   [`cycles::Recorder`], for seeing *when inside a layer* a dataflow
//!   loses PEs or spills partial sums.
//!
//! The pieces:
//!
//! * [`filter`] — a `FLEXSIM_LOG`-style env filter and leveled stderr
//!   logging (`FLEXSIM_LOG=debug`, `FLEXSIM_LOG=layer=trace,info`);
//! * [`mod@span`] — hierarchical host-wall-time spans with an optional
//!   global recorder, read by `flexsim --trace` and by [`telemetry`];
//! * [`metrics`] — a labeled counter/gauge registry with
//!   snapshot-and-diff, for the pool's counters and the loss-ledger and
//!   spatial series that traced, profiled and heatmapped layers mirror
//!   into it (the simulators themselves write nothing there);
//! * [`cycles`] — cycle-domain events and timelines, the one
//!   [`cycles::Recorder`] observer (behind an optional
//!   [`cycles::SinkHandle`], so an unobserved run builds nothing), and
//!   an event coalescer that caps per-layer event counts;
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
//! * [`telemetry`] — host-side runtime telemetry behind `flexsim
//!   stats`: the phase profile (parse → flexcheck → schedule →
//!   simulate → verify → export), per-worker pool stats, latency
//!   histograms and the flight dump, each a fold over the span
//!   records — the recorder is the only store of host wall time.
//!
//! ## Example
//!
//! ```
//! use flexsim_obs::attrib::{LossLedger, StallCause};
//! use flexsim_obs::cycles::{Recorder, SinkHandle};
//! use flexsim_obs::spatial::CellRect;
//! use flexsim_obs::steps::{self, LayerFrame, Pass, Step};
//! use std::sync::Arc;
//!
//! let recorder = Arc::new(Recorder::new());
//! let sink = SinkHandle::new(recorder.clone());
//! // A run of ten 10-cycle passes over a 16×16 array, half their
//! // PE-cycles useful.
//! let pass = Pass {
//!     cause: StallCause::MappingResidueIdle,
//!     cycles: 10,
//!     macs: 1_280,
//!     rects: CellRect::full(16, 16).into(),
//! };
//! let frame = LayerFrame {
//!     arch: "FlexFlow",
//!     layer: "C1",
//!     rows: 16,
//!     cols: 16,
//!     cycles: 100,
//!     macs: 12_800,
//!     steps: 10,
//! };
//! steps::fold(&sink, &frame, [(Step::new(pass), 10)], |_| {});
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
pub use cycles::{Aggregate, CycleEvent, CycleEventKind, LayerCtx, Recorder, SinkHandle};
pub use filter::Level;
pub use hist::Histogram;
pub use metrics::{Registry, Snapshot};
pub use occupancy::OccupancyTimeline;
pub use span::{span, SpanGuard, SpanRecord};
pub use spatial::{BankWatermark, CellRects, ContentionMatrix, HeatmapBuilder, LayerSpatial};
pub use steps::{LayerFrame, Pass, Step};
pub use telemetry::{Phase, TelemetrySnapshot, WorkerTotals};
