//! Host-side runtime telemetry: the simulator measuring *itself*.
//!
//! Everything else in this crate observes the simulated machine; this
//! module observes the simulator. It is the substrate behind
//! `flexsim stats` and `flexsim --telemetry`:
//!
//! * **Phase profiler** — scoped wall-clock timers over the host
//!   pipeline ([`Phase`]: parse → flexcheck → schedule → simulate →
//!   verify → export). Phases nest; time is attributed *exclusively*
//!   to the innermost active phase on each thread, so phase totals
//!   never double-count and sum to at most the process wall time.
//!   Every [`phase`] guard also opens a `phase`-category
//!   [`crate::span()`], nesting host-phase timing under the existing
//!   span hierarchy (and into Chrome traces).
//! * **Scheduler telemetry** — `flexsim-pool` reports per-worker
//!   busy/idle/wall time, steal counts, task counts, and per-task
//!   latency through [`merge_worker`]; workers buffer locally and the
//!   pool merges in worker-index order at drop, so the merge is
//!   deterministic.
//! * **Latency histograms** — log-bucketed [`Histogram`]s
//!   ([`observe_task_us`], [`observe_layer_sim_since`],
//!   [`observe_experiment_us`]) with exact counts and p50/p90/p99.
//! * **Flight recorder** — a bounded ring buffer of recent host
//!   events ([`flight`]), dumped to `flight-<ts>.json` on a task
//!   panic (via the pool's `catch_unwind` hook) or on demand at
//!   shutdown.
//!
//! Telemetry is **off by default** and costs one relaxed atomic load
//! per instrumentation point when disabled. Enabling it never changes
//! simulation results — only wall-clock observations are recorded —
//! and the `integration_telemetry` suite proves byte-identical
//! simulation output with telemetry on vs. off at every `--jobs`
//! level.
//!
//! Monotonic-clock discipline: every duration is measured with
//! [`Instant`] (never `SystemTime`), so NTP steps cannot produce
//! negative or wildly wrong phase times. The only wall-clock read is
//! the flight-dump filename timestamp.

use crate::hist::Histogram;
use flexsim_testkit::json::Json;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

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
    /// Result verification (ledger exactness checks, attribution
    /// mirroring, tuner re-verification).
    Verify,
    /// Rendering and writing outputs (tables, JSON, traces).
    Export,
}

impl Phase {
    /// Every phase, in pipeline order.
    pub const ALL: [Phase; 6] = [
        Phase::Parse,
        Phase::Flexcheck,
        Phase::Schedule,
        Phase::Simulate,
        Phase::Verify,
        Phase::Export,
    ];

    /// Stable lower-case name (used in snapshots and metrics labels).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::Flexcheck => "flexcheck",
            Phase::Schedule => "schedule",
            Phase::Simulate => "simulate",
            Phase::Verify => "verify",
            Phase::Export => "export",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::Parse => 0,
            Phase::Flexcheck => 1,
            Phase::Schedule => 2,
            Phase::Simulate => 3,
            Phase::Verify => 4,
            Phase::Export => 5,
        }
    }
}

const PHASES: usize = Phase::ALL.len();

static ENABLED: AtomicBool = AtomicBool::new(false);
static PHASE_SELF_US: [AtomicU64; PHASES] = [const { AtomicU64::new(0) }; PHASES];
static PHASE_CALLS: [AtomicU64; PHASES] = [const { AtomicU64::new(0) }; PHASES];
static QUEUE_HIGH_WATER: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The per-thread phase stack: (phase index, start of the current
    /// *segment* — reset whenever a child phase pauses this one).
    static PHASE_STACK: RefCell<Vec<(usize, Instant)>> = const { RefCell::new(Vec::new()) };
}

/// Turns telemetry collection on. Idempotent; also anchors the flight
/// recorder's epoch on first use.
pub fn enable() {
    epoch();
    ENABLED.store(true, Ordering::Release);
}

/// Turns telemetry collection off (accumulated data is kept; see
/// [`reset`]).
pub fn disable() {
    ENABLED.store(false, Ordering::Release);
}

/// Whether telemetry is being collected. One relaxed load — this is
/// the only cost every instrumentation point pays when telemetry is
/// off.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clears every accumulated phase total, histogram, worker stat, and
/// flight event (the enable/disable state is untouched).
pub fn reset() {
    for i in 0..PHASES {
        PHASE_SELF_US[i].store(0, Ordering::Relaxed);
        PHASE_CALLS[i].store(0, Ordering::Relaxed);
    }
    QUEUE_HIGH_WATER.store(0, Ordering::Relaxed);
    let mut st = lock_state();
    st.experiment_wall = Histogram::new();
    st.layer_sim_wall = Histogram::new();
    st.task_wall = Histogram::new();
    st.workers.clear();
    st.flight.clear();
    st.flight_dropped = 0;
}

/// The monotonic epoch flight-event timestamps are relative to (set
/// once, at first [`enable`]).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Accumulated per-worker totals (merged across pools by worker
/// index).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerTotals {
    /// Wall time the worker existed (spawn→join for spawned workers;
    /// time inside `Pool::run` for the calling thread, index 0).
    pub wall_us: u64,
    /// Time spent executing tasks.
    pub busy_us: u64,
    /// Wall minus busy (parked or stealing-and-failing).
    pub idle_us: u64,
    /// Tasks this worker executed.
    pub tasks: u64,
    /// Tasks this worker stole from a sibling's deque.
    pub steals: u64,
}

/// Mutex-protected collection state (histograms, workers, flight
/// ring). Phase totals stay in atomics so the per-layer hot path never
/// takes this lock.
struct State {
    experiment_wall: Histogram,
    layer_sim_wall: Histogram,
    task_wall: Histogram,
    workers: BTreeMap<usize, WorkerTotals>,
    flight: std::collections::VecDeque<FlightEvent>,
    flight_dropped: u64,
    flight_dir: Option<std::path::PathBuf>,
}

fn state() -> &'static Mutex<State> {
    static STATE: OnceLock<Mutex<State>> = OnceLock::new();
    STATE.get_or_init(|| {
        Mutex::new(State {
            experiment_wall: Histogram::new(),
            layer_sim_wall: Histogram::new(),
            task_wall: Histogram::new(),
            workers: BTreeMap::new(),
            flight: std::collections::VecDeque::new(),
            flight_dropped: 0,
            flight_dir: None,
        })
    })
}

fn lock_state() -> MutexGuard<'static, State> {
    state().lock().unwrap_or_else(PoisonError::into_inner)
}

fn charge(phase_idx: usize, us: u64) {
    PHASE_SELF_US[phase_idx].fetch_add(us, Ordering::Relaxed);
}

fn dur_us(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from)
        .as_micros()
        .min(u128::from(u64::MAX)) as u64
}

/// A live phase timer; settles its accounts on drop.
#[must_use = "a phase timer measures the scope it is alive in"]
pub struct PhaseTimer {
    active: bool,
    _span: Option<crate::span::SpanGuard>,
}

/// Opens a scoped timer for `p`. While this guard is alive, wall time
/// on the current thread is charged to `p`; a nested [`phase`] call
/// pauses it (time is attributed to the innermost phase only). Inert —
/// one relaxed atomic load — when telemetry is disabled.
pub fn phase(p: Phase) -> PhaseTimer {
    if !enabled() {
        return PhaseTimer {
            active: false,
            _span: None,
        };
    }
    let now = Instant::now();
    PHASE_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        if let Some(top) = stack.last_mut() {
            charge(top.0, dur_us(top.1, now));
            top.1 = now;
        }
        stack.push((p.index(), now));
    });
    PhaseTimer {
        active: true,
        _span: Some(crate::span::span("phase", p.name())),
    }
}

impl Drop for PhaseTimer {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let now = Instant::now();
        PHASE_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some((idx, seg_start)) = stack.pop() {
                charge(idx, dur_us(seg_start, now));
                PHASE_CALLS[idx].fetch_add(1, Ordering::Relaxed);
            }
            if let Some(top) = stack.last_mut() {
                top.1 = now; // resume the parent's segment
            }
        });
    }
}

/// `Some(Instant::now())` when telemetry is enabled — the cheap idiom
/// for optional latency sampling at instrumentation points.
pub fn now_if_enabled() -> Option<Instant> {
    enabled().then(Instant::now)
}

/// Records one per-layer-simulation wall-time sample, measured from
/// `start` (a [`now_if_enabled`] result; `None` is a no-op).
pub fn observe_layer_sim_since(start: Option<Instant>) {
    if let Some(t) = start {
        let us = dur_us(t, Instant::now());
        lock_state().layer_sim_wall.observe(us);
    }
}

/// Records one per-experiment wall-time sample in microseconds.
pub fn observe_experiment_us(us: u64) {
    if enabled() {
        lock_state().experiment_wall.observe(us);
    }
}

/// Records one task-latency sample in microseconds (normally via
/// [`merge_worker`]'s histogram; this entry point exists for serial
/// executors).
pub fn observe_task_us(us: u64) {
    if enabled() {
        lock_state().task_wall.observe(us);
    }
}

/// Raises the pool queue-depth high-water mark to at least `depth`.
pub fn pool_queue_depth(depth: u64) {
    if enabled() {
        QUEUE_HIGH_WATER.fetch_max(depth, Ordering::Relaxed);
    }
}

/// Merges one worker's totals (plus its locally-buffered task-latency
/// histogram) into the global accumulators. Called by the pool at
/// drop, in worker-index order, so the merge is deterministic.
pub fn merge_worker(index: usize, totals: &WorkerTotals, task_hist: &Histogram) {
    if !enabled() {
        return;
    }
    let mut st = lock_state();
    let slot = st.workers.entry(index).or_default();
    slot.wall_us += totals.wall_us;
    slot.busy_us += totals.busy_us;
    slot.idle_us += totals.idle_us;
    slot.tasks += totals.tasks;
    slot.steals += totals.steals;
    st.task_wall.merge(task_hist);
}

/// One flight-recorder entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// Microseconds since the telemetry epoch (first [`enable`]).
    pub ts_us: u64,
    /// Short category (`"experiment"`, `"task-panic"`, `"pool"`, …).
    pub cat: &'static str,
    /// Human-readable description.
    pub msg: String,
}

/// The bounded ring-buffer flight recorder of recent host events.
pub mod flight {
    use super::{dur_us, enabled, epoch, lock_state, FlightEvent, Json};
    use std::path::{Path, PathBuf};
    use std::time::Instant;

    /// Ring capacity: newest [`CAPACITY`] events are kept, older ones
    /// are counted as dropped.
    pub const CAPACITY: usize = 256;

    /// Records one event (no-op when telemetry is disabled).
    pub fn record(cat: &'static str, msg: impl Into<String>) {
        if !enabled() {
            return;
        }
        let ts_us = dur_us(epoch(), Instant::now());
        let mut st = lock_state();
        if st.flight.len() == CAPACITY {
            st.flight.pop_front();
            st.flight_dropped += 1;
        }
        st.flight.push_back(FlightEvent {
            ts_us,
            cat,
            msg: msg.into(),
        });
    }

    /// Directs panic/shutdown dumps into `dir` (`None` disables
    /// automatic dumping — the default, so library users and tests
    /// never find surprise files in their working directory).
    pub fn set_dir(dir: Option<&Path>) {
        lock_state().flight_dir = dir.map(Path::to_path_buf);
    }

    /// A snapshot of the ring: the retained events plus the count of
    /// older events that fell off.
    pub fn events() -> (Vec<FlightEvent>, u64) {
        let st = lock_state();
        (st.flight.iter().cloned().collect(), st.flight_dropped)
    }

    /// The dump document: `{"flexsim_flight": 1, "dropped": n,
    /// "events": [{"ts_us", "cat", "msg"}, …]}` (byte-stable ordering).
    pub fn to_json() -> Json {
        let (events, dropped) = events();
        Json::obj([
            ("flexsim_flight", Json::Int(1)),
            ("dropped", Json::Int(dropped as i64)),
            (
                "events",
                Json::arr(events.iter().map(|e| {
                    Json::obj([
                        ("ts_us", Json::Int(e.ts_us as i64)),
                        ("cat", Json::str(e.cat)),
                        ("msg", Json::str(&e.msg)),
                    ])
                })),
            ),
        ])
    }

    /// Writes the flight dump to `flight-<unix-seconds>.json` in the
    /// configured directory. Returns the path, or `None` when
    /// telemetry is disabled, no directory is configured, or the
    /// write fails (a failing dump must never mask the original
    /// panic).
    pub fn dump_now() -> Option<PathBuf> {
        if !enabled() {
            return None;
        }
        let dir = lock_state().flight_dir.clone()?;
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
        let mut text = to_json().pretty();
        text.push('\n');
        std::fs::write(&path, text).ok()?;
        Some(path)
    }

    /// The panic hook: records the failure and dumps the ring. Called
    /// from the pool's `catch_unwind` arm and the suite runner.
    pub fn record_panic(label: &str, message: &str) -> Option<PathBuf> {
        record("task-panic", format!("{label}: {message}"));
        dump_now()
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

/// Takes a snapshot of every accumulator.
pub fn snapshot() -> TelemetrySnapshot {
    let st = lock_state();
    TelemetrySnapshot {
        phases: Phase::ALL
            .iter()
            .map(|&p| {
                (
                    p,
                    PHASE_CALLS[p.index()].load(Ordering::Relaxed),
                    PHASE_SELF_US[p.index()].load(Ordering::Relaxed),
                )
            })
            .collect(),
        workers: st.workers.iter().map(|(&i, w)| (i, w.clone())).collect(),
        queue_high_water: QUEUE_HIGH_WATER.load(Ordering::Relaxed),
        experiment_wall: st.experiment_wall.clone(),
        layer_sim_wall: st.layer_sim_wall.clone(),
        task_wall: st.task_wall.clone(),
        flight_events: st.flight.len() as u64,
        flight_dropped: st.flight_dropped,
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
                                ("steals", Json::Int(w.steals as i64)),
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
            ("steals", 4),
        ] {
            let _ = writeln!(out, "# TYPE flexsim_pool_worker_{metric} counter");
            for (i, w) in &self.workers {
                let v = [w.wall_us, w.busy_us, w.idle_us, w.tasks, w.steals][pick];
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

    /// Telemetry state is process-global; serialize the tests that
    /// flip it (same discipline as the span-recorder tests).
    fn serial() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn disabled_instrumentation_is_inert() {
        let _g = serial();
        disable();
        reset();
        {
            let _p = phase(Phase::Simulate);
            observe_experiment_us(100);
            observe_task_us(5);
            pool_queue_depth(9);
            flight::record("x", "y");
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
            [
                "parse",
                "flexcheck",
                "schedule",
                "simulate",
                "verify",
                "export"
            ]
        );
        let json = snap.to_json().compact();
        let prom = snap.to_prom();
        for p in Phase::ALL {
            assert!(json.contains(p.name()), "{} missing in json", p.name());
            assert!(prom.contains(p.name()), "{} missing in prom", p.name());
        }
    }

    #[test]
    fn worker_merge_accumulates_by_index_and_preserves_the_identity() {
        let _g = serial();
        enable();
        reset();
        let mut hist = Histogram::new();
        hist.observe(10);
        merge_worker(
            1,
            &WorkerTotals {
                wall_us: 100,
                busy_us: 60,
                idle_us: 40,
                tasks: 3,
                steals: 1,
            },
            &hist,
        );
        merge_worker(
            1,
            &WorkerTotals {
                wall_us: 50,
                busy_us: 20,
                idle_us: 30,
                tasks: 2,
                steals: 0,
            },
            &Histogram::new(),
        );
        let snap = snapshot();
        disable();
        let (idx, w) = &snap.workers[0];
        assert_eq!(*idx, 1);
        assert_eq!(w.wall_us, 150);
        assert_eq!(w.busy_us, 80);
        assert_eq!(w.idle_us, 70);
        // busy + idle == wall survives accumulation.
        assert_eq!(w.busy_us + w.idle_us, w.wall_us);
        assert_eq!(w.tasks, 5);
        assert_eq!(w.steals, 1);
        assert_eq!(snap.task_wall.count(), 1);
    }

    #[test]
    fn flight_ring_is_bounded_and_dumps_where_told() {
        let _g = serial();
        enable();
        reset();
        for i in 0..(flight::CAPACITY + 10) {
            flight::record("test", format!("event {i}"));
        }
        let (events, dropped) = flight::events();
        assert_eq!(events.len(), flight::CAPACITY);
        assert_eq!(dropped, 10);
        assert_eq!(events[0].msg, "event 10"); // oldest retained
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
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_dir(dir);
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
    fn spin_for_us(us: u64) {
        let start = Instant::now();
        while dur_us(start, Instant::now()) < us {
            std::hint::spin_loop();
        }
    }
}
