//! Host-side runtime telemetry: the simulator measuring *itself*.
//!
//! Everything else in this crate observes the simulated machine; this
//! module observes the simulator. It is the substrate behind
//! `flexsim stats` and `flexsim --telemetry`, and it keeps no clock of
//! its own: the span recorder ([`mod@crate::span`]) is the only store of
//! host wall time, and a [`TelemetrySnapshot`] is a fold over its
//! records ([`snapshot`]).
//!
//! * **Phase profiler** — [`phase`] opens a `phase` span over one step
//!   of the host pipeline ([`Phase`]: parse → flexcheck → schedule →
//!   simulate → export). A phase's *self* time is its span's
//!   duration minus the `phase` spans nested directly inside it on the
//!   same thread, so no instant is charged to two phases on one thread.
//! * **Scheduler telemetry** — `flexsim-pool` opens one `worker` span
//!   per executor, named by its index, and one `task` span per task.
//!   A worker's busy time and task count come from the outermost
//!   `task` spans inside its `worker` spans; idle is wall minus busy.
//!   The pool reports its queue depth on each submit
//!   ([`raise_queue_depth`]); the high-water since [`reset`] is the one
//!   telemetry fact no span records.
//! * **Latency histograms** — log-bucketed [`Histogram`]s of the
//!   `experiment`, `layer` and `task` span durations.
//! * **Flight recorder** — the last [`flight::CAPACITY`] completed
//!   spans, dumped to `flight-<ts>.json` with the panic as a final
//!   event when a task panics ([`flight`]).
//!
//! Telemetry is **off by default**: without a recorder a probe costs
//! one relaxed atomic load plus the `FLEXSIM_LOG` silence check.
//! Enabling it never changes simulation results — only wall-clock
//! observations are recorded — and the `integration_telemetry` suite
//! proves byte-identical simulation output with telemetry on vs. off
//! at every `--jobs` level.

use crate::hist::Histogram;
use crate::span::{self, SpanGuard, SpanRecord};
use flexsim_testkit::json::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// One phase of the host pipeline, in pipeline order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Workload / experiment resolution and network construction.
    Parse,
    /// Static schedule verification (the flexcheck gate and sweeps).
    Flexcheck,
    /// Mapping / unrolling planning (`best_unroll`, `plan_network`,
    /// the baselines' closed-form schedule analysis).
    Schedule,
    /// Cycle simulation proper (the `run_conv` paths).
    Simulate,
    /// Rendering and writing outputs (tables, JSON, traces).
    Export,
}

impl Phase {
    /// Every phase, in pipeline order.
    pub const ALL: [Phase; 5] = [
        Phase::Parse,
        Phase::Flexcheck,
        Phase::Schedule,
        Phase::Simulate,
        Phase::Export,
    ];

    /// Stable lower-case name (the `phase` span's name, and the label
    /// in snapshots and the Prometheus export).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::Flexcheck => "flexcheck",
            Phase::Schedule => "schedule",
            Phase::Simulate => "simulate",
            Phase::Export => "export",
        }
    }
}

/// The pool's queue-depth high-water: raised on submit
/// ([`raise_queue_depth`]), zeroed by [`reset`]. A statistic that
/// publishes no other data, so every access is `Relaxed`.
static QUEUE_HIGH_WATER: AtomicU64 = AtomicU64::new(0);

fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Turns telemetry collection on: starts the span recorder, keeping
/// the records of one that `--trace` already installed.
pub fn enable() {
    span::resume_recorder();
}

/// Turns telemetry collection off; the records are kept (see
/// [`reset`]).
pub fn disable() {
    span::pause_recorder();
}

/// Whether telemetry is being collected (the span recorder is on).
pub fn enabled() -> bool {
    span::recording()
}

/// Clears every retained span record and zeroes the queue-depth
/// high-water (the enable/disable state is untouched).
pub fn reset() {
    span::clear_records();
    QUEUE_HIGH_WATER.store(0, Ordering::Relaxed);
}

/// Raises the queue-depth high-water to `depth` if it is higher — the
/// pool calls this on every submit.
pub fn raise_queue_depth(depth: u64) {
    QUEUE_HIGH_WATER.fetch_max(depth, Ordering::Relaxed);
}

/// Opens a `phase` span for `p`. Inert — one relaxed atomic load plus
/// the `FLEXSIM_LOG` silence check — when nothing records or logs.
pub fn phase(p: Phase) -> SpanGuard {
    span::span("phase", p.name())
}

/// Accumulated per-worker totals (summed over every `worker` span with
/// the same index).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerTotals {
    /// Wall time the worker existed (spawn→exit for spawned workers;
    /// time inside `Pool::run` for the calling thread, index 0).
    pub wall_us: u64,
    /// Time spent in outermost tasks.
    pub busy_us: u64,
    /// Wall minus busy (waiting on an empty queue).
    pub idle_us: u64,
    /// Outermost tasks this worker executed.
    pub tasks: u64,
}

/// The bounded flight recorder: the newest completed spans.
pub mod flight {
    use super::{enabled, locked, Json};
    use crate::span;
    use std::path::{Path, PathBuf};
    use std::sync::Mutex;

    /// Dump capacity: the newest [`CAPACITY`] span records are kept,
    /// older ones are counted as dropped.
    pub const CAPACITY: usize = 256;

    static DIR: Mutex<Option<PathBuf>> = Mutex::new(None);

    /// Directs panic/shutdown dumps into `dir` (`None` disables
    /// automatic dumping — the default, so library users and tests
    /// never find surprise files in their working directory).
    pub fn set_dir(dir: Option<&Path>) {
        *locked(&DIR) = dir.map(Path::to_path_buf);
    }

    fn event(ts_us: u64, cat: &str, msg: &str) -> Json {
        Json::obj([
            ("ts_us", Json::Int(ts_us as i64)),
            ("cat", Json::str(cat)),
            ("msg", Json::str(msg)),
        ])
    }

    fn document(panic: Option<Json>) -> Json {
        let spans = span::records();
        let dropped = spans.len().saturating_sub(CAPACITY);
        let events = spans[dropped..].iter().map(|s| {
            let msg = format!("{} ({} us)", s.name, s.dur_us);
            event(s.start_us + s.dur_us, s.cat, &msg)
        });
        Json::obj([
            ("flexsim_flight", Json::Int(1)),
            ("dropped", Json::Int(dropped as i64)),
            ("events", Json::arr(events.chain(panic))),
        ])
    }

    /// The dump document: `{"flexsim_flight": 1, "dropped": n,
    /// "events": [{"ts_us", "cat", "msg"}, …]}`, one event per retained
    /// span (stamped at its end, in completion order).
    pub fn to_json() -> Json {
        document(None)
    }

    /// Writes `doc` to `flight-<unix-seconds>.json` in the configured
    /// directory. `None` when telemetry is disabled, no directory is
    /// configured, or the write fails (a failing dump must never mask
    /// the original panic).
    fn write(doc: impl FnOnce() -> Json) -> Option<PathBuf> {
        if !enabled() {
            return None;
        }
        let dir = locked(&DIR).clone()?;
        let ts = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let mut path = dir.join(format!("flight-{ts}.json"));
        // A burst of panics within one second must not clobber the
        // first dump.
        let mut n = 1;
        while path.exists() {
            path = dir.join(format!("flight-{ts}-{n}.json"));
            n += 1;
        }
        let mut text = doc().pretty();
        text.push('\n');
        std::fs::write(&path, text).ok()?;
        Some(path)
    }

    /// Writes the dump now (see [`to_json`]).
    pub fn dump_now() -> Option<PathBuf> {
        write(to_json)
    }

    /// The panic hook: dumps the retained spans plus one `task-panic`
    /// event. Called from the pool's `catch_unwind` arm and the suite
    /// runner.
    pub fn record_panic(label: &str, message: &str) -> Option<PathBuf> {
        write(|| {
            let msg = format!("{label}: {message}");
            document(Some(event(span::now_us(), "task-panic", &msg)))
        })
    }
}

/// A point-in-time copy of every telemetry accumulator.
#[derive(Clone, Debug)]
pub struct TelemetrySnapshot {
    /// Per-phase `(phase, calls, exclusive wall µs)`, pipeline order,
    /// every declared phase present (zeroes included).
    pub phases: Vec<(Phase, u64, u64)>,
    /// Per-worker totals, worker-index order.
    pub workers: Vec<(usize, WorkerTotals)>,
    /// Pool queue-depth high-water mark.
    pub queue_high_water: u64,
    /// Per-experiment wall-time histogram (µs).
    pub experiment_wall: Histogram,
    /// Per-layer-simulation wall-time histogram (µs).
    pub layer_sim_wall: Histogram,
    /// Per-task latency histogram (µs).
    pub task_wall: Histogram,
    /// Retained flight events.
    pub flight_events: u64,
    /// Flight events that fell off the ring.
    pub flight_dropped: u64,
}

/// Folds the retained span records and the queue-depth high-water
/// since [`reset`] into a snapshot.
pub fn snapshot() -> TelemetrySnapshot {
    fold(&span::records(), QUEUE_HIGH_WATER.load(Ordering::Relaxed))
}

/// The parent of every record: the next record to complete on the same
/// thread at a lower depth (spans nest strictly per thread, so a parent
/// always completes after its children). `None` when no ancestor was
/// recorded.
fn parents(spans: &[SpanRecord]) -> Vec<Option<usize>> {
    let mut parent = vec![None; spans.len()];
    // Per thread: completed records still awaiting a parent, depths
    // non-decreasing from bottom to top.
    let mut waiting: BTreeMap<u64, Vec<(u32, usize)>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let stack = waiting.entry(s.tid).or_default();
        while let Some(&(_, child)) = stack.last().filter(|&&(d, _)| d > s.depth) {
            parent[child] = Some(i);
            stack.pop();
        }
        stack.push((s.depth, i));
    }
    parent
}

/// Folds span records (in completion order, as the recorder keeps
/// them) and the queue-depth high-water into a [`TelemetrySnapshot`].
fn fold(spans: &[SpanRecord], queue_high_water: u64) -> TelemetrySnapshot {
    let parent = parents(spans);
    let up = |i: usize| std::iter::successors(parent[i], |&p| parent[p]);
    let slot = |name: &str| Phase::ALL.iter().position(|p| p.name() == name);
    let mut phases = [(0u64, 0i64); Phase::ALL.len()];
    let mut workers: BTreeMap<usize, WorkerTotals> = BTreeMap::new();
    let (mut experiment_wall, mut layer_sim_wall, mut task_wall) =
        (Histogram::new(), Histogram::new(), Histogram::new());
    for (i, s) in spans.iter().enumerate() {
        match s.cat {
            "phase" => {
                if let Some(k) = slot(&s.name) {
                    phases[k].0 += 1;
                    phases[k].1 += s.dur_us as i64;
                }
                // Exclusive time: the enclosing phase loses this span.
                let outer = up(i).find(|&p| spans[p].cat == "phase");
                if let Some(k) = outer.and_then(|p| slot(&spans[p].name)) {
                    phases[k].1 -= s.dur_us as i64;
                }
            }
            "experiment" => experiment_wall.observe(s.dur_us),
            "layer" => layer_sim_wall.observe(s.dur_us),
            "task" => {
                task_wall.observe(s.dur_us);
                // A task nested in another task's body (a nested
                // `Pool::run`) is already that task's busy time.
                let owner = up(i).find(|&p| matches!(spans[p].cat, "task" | "worker"));
                let index = owner.and_then(|p| (spans[p].cat == "worker").then_some(p));
                if let Some(w) = index.and_then(|p| spans[p].name.parse().ok()) {
                    let totals = workers.entry(w).or_default();
                    totals.busy_us += s.dur_us;
                    totals.tasks += 1;
                }
            }
            "worker" => {
                if let Ok(w) = s.name.parse() {
                    workers.entry(w).or_default().wall_us += s.dur_us;
                }
            }
            _ => {}
        }
    }
    for w in workers.values_mut() {
        // Idle is wall minus busy *by construction*, so busy + idle ==
        // wall holds exactly per worker.
        w.idle_us = w.wall_us.saturating_sub(w.busy_us);
    }
    let kept = spans.len().min(flight::CAPACITY);
    TelemetrySnapshot {
        phases: Phase::ALL
            .iter()
            .zip(phases)
            .map(|(&p, (calls, us))| (p, calls, us.max(0) as u64))
            .collect(),
        workers: workers.into_iter().collect(),
        queue_high_water,
        experiment_wall,
        layer_sim_wall,
        task_wall,
        flight_events: kept as u64,
        flight_dropped: (spans.len() - kept) as u64,
    }
}

impl TelemetrySnapshot {
    /// Exclusive wall microseconds charged to `p`.
    pub fn phase_us(&self, p: Phase) -> u64 {
        self.phases
            .iter()
            .find(|(q, _, _)| *q == p)
            .map_or(0, |&(_, _, us)| us)
    }

    /// Number of completed `p` scopes.
    pub fn phase_calls(&self, p: Phase) -> u64 {
        self.phases
            .iter()
            .find(|(q, _, _)| *q == p)
            .map_or(0, |&(_, calls, _)| calls)
    }

    /// Byte-stable JSON: fixed keys in fixed order; every declared
    /// phase appears even at zero.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "phases",
                Json::arr(self.phases.iter().map(|&(p, calls, us)| {
                    Json::obj([
                        ("phase", Json::str(p.name())),
                        ("calls", Json::Int(calls as i64)),
                        ("self_us", Json::Int(us as i64)),
                    ])
                })),
            ),
            (
                "pool",
                Json::obj([
                    (
                        "queue_depth_high_water",
                        Json::Int(self.queue_high_water as i64),
                    ),
                    (
                        "workers",
                        Json::arr(self.workers.iter().map(|(i, w)| {
                            Json::obj([
                                ("worker", Json::Int(*i as i64)),
                                ("wall_us", Json::Int(w.wall_us as i64)),
                                ("busy_us", Json::Int(w.busy_us as i64)),
                                ("idle_us", Json::Int(w.idle_us as i64)),
                                ("tasks", Json::Int(w.tasks as i64)),
                            ])
                        })),
                    ),
                ]),
            ),
            (
                "histograms",
                Json::obj([
                    ("experiment_wall_us", self.experiment_wall.to_json()),
                    ("layer_sim_wall_us", self.layer_sim_wall.to_json()),
                    ("task_wall_us", self.task_wall.to_json()),
                ]),
            ),
            (
                "flight",
                Json::obj([
                    ("events", Json::Int(self.flight_events as i64)),
                    ("dropped", Json::Int(self.flight_dropped as i64)),
                ]),
            ),
        ])
    }

    /// Prometheus text-format rendering: phase counters, per-worker
    /// gauges, and the three latency histograms.
    pub fn to_prom(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# TYPE flexsim_phase_self_us_total counter");
        for &(p, _, us) in &self.phases {
            let _ = writeln!(
                out,
                "flexsim_phase_self_us_total{{phase=\"{}\"}} {us}",
                p.name()
            );
        }
        let _ = writeln!(out, "# TYPE flexsim_phase_calls_total counter");
        for &(p, calls, _) in &self.phases {
            let _ = writeln!(
                out,
                "flexsim_phase_calls_total{{phase=\"{}\"}} {calls}",
                p.name()
            );
        }
        let _ = writeln!(out, "# TYPE flexsim_pool_queue_depth_high_water gauge");
        let _ = writeln!(
            out,
            "flexsim_pool_queue_depth_high_water {}",
            self.queue_high_water
        );
        for (metric, pick) in [
            ("wall_us", 0usize),
            ("busy_us", 1),
            ("idle_us", 2),
            ("tasks", 3),
        ] {
            let _ = writeln!(out, "# TYPE flexsim_pool_worker_{metric} counter");
            for (i, w) in &self.workers {
                let v = [w.wall_us, w.busy_us, w.idle_us, w.tasks][pick];
                let _ = writeln!(out, "flexsim_pool_worker_{metric}{{worker=\"{i}\"}} {v}");
            }
        }
        out.push_str(
            &self
                .experiment_wall
                .prom_lines("flexsim_experiment_wall_us"),
        );
        out.push_str(&self.layer_sim_wall.prom_lines("flexsim_layer_sim_wall_us"));
        out.push_str(&self.task_wall.prom_lines("flexsim_task_wall_us"));
        let _ = writeln!(out, "# TYPE flexsim_flight_events gauge");
        let _ = writeln!(out, "flexsim_flight_events {}", self.flight_events);
        let _ = writeln!(out, "flexsim_flight_events_dropped {}", self.flight_dropped);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// Telemetry reads the process-global span recorder; serialize on
    /// the span tests' lock.
    fn serial() -> MutexGuard<'static, ()> {
        crate::span::tests::serial()
    }

    #[test]
    fn disabled_instrumentation_is_inert() {
        let _g = serial();
        disable();
        reset();
        {
            let _p = phase(Phase::Simulate);
            let _e = span::span("experiment", "x");
            let _t = span::span("task", "y");
        }
        let snap = snapshot();
        assert_eq!(snap.phase_calls(Phase::Simulate), 0);
        assert!(snap.experiment_wall.is_empty());
        assert!(snap.task_wall.is_empty());
        assert_eq!(snap.queue_high_water, 0);
        assert_eq!(snap.flight_events, 0);
    }

    #[test]
    fn nested_phases_attribute_exclusive_time() {
        let _g = serial();
        enable();
        reset();
        {
            let _outer = phase(Phase::Simulate);
            spin_for_us(2_000);
            {
                let _inner = phase(Phase::Schedule);
                spin_for_us(2_000);
            }
            spin_for_us(2_000);
        }
        let snap = snapshot();
        disable();
        assert_eq!(snap.phase_calls(Phase::Simulate), 1);
        assert_eq!(snap.phase_calls(Phase::Schedule), 1);
        let sim = snap.phase_us(Phase::Simulate);
        let sch = snap.phase_us(Phase::Schedule);
        // Each phase got its own busy-wait; exclusive accounting means
        // the inner 2ms is charged to Schedule, not double-counted.
        assert!(sim >= 3_000, "simulate {sim}us");
        assert!(sch >= 1_500, "schedule {sch}us");
        assert!(
            sch < 2_000 * 3,
            "schedule {sch}us should exclude outer time"
        );
    }

    #[test]
    fn every_declared_phase_appears_in_the_snapshot() {
        let _g = serial();
        let snap = snapshot();
        let names: Vec<&str> = snap.phases.iter().map(|&(p, _, _)| p.name()).collect();
        assert_eq!(
            names,
            ["parse", "flexcheck", "schedule", "simulate", "export"]
        );
        let json = snap.to_json().compact();
        let prom = snap.to_prom();
        for p in Phase::ALL {
            assert!(json.contains(p.name()), "{} missing in json", p.name());
            assert!(prom.contains(p.name()), "{} missing in prom", p.name());
        }
    }

    /// A hand-built completion-order record on thread 0.
    fn rec(cat: &'static str, name: &str, start_us: u64, dur_us: u64, depth: u32) -> SpanRecord {
        SpanRecord {
            cat,
            name: name.to_owned(),
            start_us,
            dur_us,
            depth,
            tid: 0,
        }
    }

    #[test]
    fn worker_merge_accumulates_by_index_and_preserves_the_identity() {
        // Two `worker` spans for index 1 (two pools): 3 tasks busy for
        // 60us of 100us, then 2 tasks busy for 20us of 50us. The second
        // pool's first task runs a nested batch whose task is not
        // counted again.
        let spans = [
            rec("task", "a", 0, 20, 1),
            rec("task", "b", 20, 20, 1),
            rec("task", "c", 40, 20, 1),
            rec("worker", "1", 0, 100, 0),
            rec("task", "inner", 101, 5, 2),
            rec("task", "d", 100, 10, 1),
            rec("task", "e", 110, 10, 1),
            rec("worker", "1", 100, 50, 0),
        ];
        let snap = fold(&spans, 0);
        let (idx, w) = &snap.workers[0];
        assert_eq!(*idx, 1);
        assert_eq!(w.wall_us, 150);
        assert_eq!(w.busy_us, 80);
        assert_eq!(w.idle_us, 70);
        // busy + idle == wall survives accumulation.
        assert_eq!(w.busy_us + w.idle_us, w.wall_us);
        assert_eq!(w.tasks, 5);
        assert_eq!(snap.task_wall.count(), 6);
    }

    #[test]
    fn phase_self_time_excludes_directly_nested_phases_only() {
        // simulate ⊃ layer ⊃ schedule ⊃ export: schedule is simulate's
        // direct phase child even under a non-phase span; export is
        // schedule's, not simulate's.
        let spans = [
            rec("phase", "export", 20, 10, 3),
            rec("phase", "schedule", 10, 40, 2),
            rec("layer", "C1", 5, 60, 1),
            rec("phase", "simulate", 0, 100, 0),
        ];
        let snap = fold(&spans, 0);
        assert_eq!(snap.phase_us(Phase::Simulate), 60);
        assert_eq!(snap.phase_us(Phase::Schedule), 30);
        assert_eq!(snap.phase_us(Phase::Export), 10);
        assert_eq!(snap.layer_sim_wall.count(), 1);
    }

    #[test]
    fn flight_ring_is_bounded_and_dumps_where_told() {
        let _g = serial();
        enable();
        reset();
        for i in 0..(flight::CAPACITY + 10) {
            drop(span::span("test", format!("event {i}")));
        }
        let Json::Obj(doc) = flight::to_json() else {
            panic!("flight dump is not an object");
        };
        let field = |k: &str| doc.iter().find(|(key, _)| key == k).map(|(_, v)| v);
        assert_eq!(field("dropped"), Some(&Json::Int(10)));
        let Some(Json::Arr(events)) = field("events") else {
            panic!("no events array");
        };
        assert_eq!(events.len(), flight::CAPACITY);
        // Oldest retained.
        assert!(events[0].compact().contains("event 10"), "{:?}", events[0]);
        // No dir configured: no dump.
        flight::set_dir(None);
        assert_eq!(flight::dump_now(), None);
        // Configured dir: a dump appears and parses.
        let dir = std::env::temp_dir().join("flexsim_flight_test");
        std::fs::create_dir_all(&dir).unwrap();
        flight::set_dir(Some(&dir));
        let path = flight::record_panic("boom", "injected").expect("dump written");
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = Json::parse(&text).unwrap();
        assert!(text.contains("task-panic"), "{text}");
        assert!(matches!(doc, Json::Obj(_)));
        flight::set_dir(None);
        disable();
        reset();
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_dir(dir);
    }

    #[test]
    fn queue_depth_keeps_its_high_water_until_reset() {
        let _g = serial();
        reset();
        raise_queue_depth(5);
        raise_queue_depth(3);
        assert_eq!(snapshot().queue_high_water, 5);
        reset();
        assert_eq!(snapshot().queue_high_water, 0);
    }

    #[test]
    fn snapshot_json_is_byte_stable() {
        let _g = serial();
        let a = snapshot().to_json().compact();
        let b = snapshot().to_json().compact();
        assert_eq!(a, b);
        assert!(a.contains("queue_depth_high_water"), "{a}");
    }

    /// Busy-waits on the monotonic clock (sleep granularity is too
    /// coarse on loaded CI machines for sub-ms assertions).
    fn spin_for_us(us: u128) {
        let start = Instant::now();
        while start.elapsed().as_micros() < us {
            std::hint::spin_loop();
        }
    }
}
