//! Hierarchical host-wall-time spans.
//!
//! A [`span`] guard measures the wall time of a scope and, when the
//! global recorder is installed ([`install_recorder`]), records it for
//! later export as Chrome trace events. Spans nest: the guard tracks a
//! per-thread depth so a child span's record carries `depth = parent +
//! 1`. When the recorder is not installed and `FLEXSIM_LOG` does not
//! enable `debug` for the span's category, creating a span does no work
//! at all (one relaxed atomic load) — instrumentation is free when
//! observability is off.
//!
//! The conventional hierarchy in this workspace:
//! `experiment` → `workload` → `layer` → `engine`, with `phase` spans
//! over the host pipeline steps and the pool's `worker` and `task`
//! spans. The recorder is the only store of host wall time:
//! [`crate::telemetry`] folds its records instead of keeping a clock
//! of its own.

use crate::filter::{self, Level};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One completed span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Category (`"experiment"`, `"workload"`, `"layer"`, `"engine"`).
    pub cat: &'static str,
    /// Human-readable name (experiment id, workload name, layer name…).
    pub name: String,
    /// Start offset from recorder installation, in microseconds.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Nesting depth on the owning thread (0 = outermost).
    pub depth: u32,
    /// Small per-thread id (assigned in first-span order).
    pub tid: u64,
}

static RECORDING: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static DEPTH: Cell<u32> = const { Cell::new(0) };
    static TID: Cell<Option<u64>> = const { Cell::new(None) };
}

struct RecorderState {
    epoch: Instant,
    spans: Vec<SpanRecord>,
    /// Thread labels, kept only while the recorder is installed: a
    /// process that spawns pool after pool with no recorder stores none.
    labels: BTreeMap<u64, String>,
}

impl RecorderState {
    fn new() -> RecorderState {
        RecorderState {
            epoch: Instant::now(),
            spans: Vec::new(),
            labels: BTreeMap::new(),
        }
    }
}

fn state() -> &'static Mutex<Option<RecorderState>> {
    static STATE: OnceLock<Mutex<Option<RecorderState>>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(None))
}

fn lock_state() -> std::sync::MutexGuard<'static, Option<RecorderState>> {
    state()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn thread_tid() -> u64 {
    TID.with(|t| match t.get() {
        Some(tid) => tid,
        None => {
            let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            t.set(Some(tid));
            tid
        }
    })
}

/// Registers a human-readable label for the *current* thread's span
/// tid (e.g. `"flexsim-pool-2"`) while the recorder is installed. The
/// pool workers call this at spawn so Chrome-trace `thread_name` rows
/// reflect real workers instead of anonymous host tids. Without a
/// recorder it stores nothing. Idempotent per thread; the latest label
/// wins.
pub fn set_thread_label(label: impl Into<String>) {
    if let Some(rec) = lock_state().as_mut() {
        rec.labels.insert(thread_tid(), label.into());
    }
}

/// Every `(tid, label)` pair registered since the recorder was
/// installed, in tid order (none without a recorder).
pub fn thread_labels() -> Vec<(u64, String)> {
    lock_state().as_ref().map_or_else(Vec::new, |rec| {
        rec.labels
            .iter()
            .map(|(&tid, l)| (tid, l.clone()))
            .collect()
    })
}

/// Installs (or resets) the global span recorder, with no records and
/// no thread labels. Spans created after this call are recorded until
/// [`take_records`] is called.
pub fn install_recorder() {
    let mut st = lock_state();
    *st = Some(RecorderState::new());
    RECORDING.store(true, Ordering::Release);
}

/// Whether the global recorder is installed and not paused.
pub fn recording() -> bool {
    RECORDING.load(Ordering::Acquire)
}

/// Starts recording, keeping any records and the epoch of a recorder
/// that is already installed (installs one otherwise).
pub fn resume_recorder() {
    let mut st = lock_state();
    st.get_or_insert_with(RecorderState::new);
    RECORDING.store(true, Ordering::Release);
}

/// Stops recording; the records are kept until the recorder is
/// reinstalled, cleared or drained.
pub fn pause_recorder() {
    RECORDING.store(false, Ordering::Release);
}

/// Drops every retained record; the recorder keeps its epoch and its
/// on/off state.
pub fn clear_records() {
    if let Some(rec) = lock_state().as_mut() {
        rec.spans.clear();
    }
}

/// A copy of every retained record, in completion order. Recording
/// continues.
pub fn records() -> Vec<SpanRecord> {
    lock_state()
        .as_ref()
        .map(|s| s.spans.clone())
        .unwrap_or_default()
}

/// Microseconds since the recorder was installed (0 without one): the
/// timestamp a span completing now would end at.
pub fn now_us() -> u64 {
    lock_state()
        .as_ref()
        .map_or(0, |rec| micros(rec.epoch.elapsed()))
}

/// Stops recording, uninstalls the recorder (its thread labels go with
/// it) and returns every span recorded since [`install_recorder`], in
/// completion order.
pub fn take_records() -> Vec<SpanRecord> {
    RECORDING.store(false, Ordering::Release);
    let mut st = lock_state();
    st.take().map(|s| s.spans).unwrap_or_default()
}

fn micros(d: std::time::Duration) -> u64 {
    d.as_micros().min(u128::from(u64::MAX)) as u64
}

/// An in-flight span; records itself on drop.
#[must_use = "a span measures the scope it is alive in"]
pub struct SpanGuard {
    live: Option<LiveSpan>,
}

struct LiveSpan {
    cat: &'static str,
    name: String,
    start: Instant,
    depth: u32,
    record: bool,
    log: bool,
}

/// Opens a span of category `cat` named `name`.
///
/// The name is only materialized when the span is live (recorder
/// installed or `FLEXSIM_LOG` enabling `debug` for `cat`), so passing a
/// `&str` costs nothing on the disabled path.
pub fn span(cat: &'static str, name: impl Into<String>) -> SpanGuard {
    let record = RECORDING.load(Ordering::Relaxed);
    let log = filter::enabled(Level::Debug, cat);
    if !record && !log {
        return SpanGuard { live: None };
    }
    let name = name.into();
    let depth = DEPTH.with(|d| {
        let depth = d.get();
        d.set(depth + 1);
        depth
    });
    if log {
        filter::log(Level::Debug, cat, format_args!("begin {name}"));
    }
    SpanGuard {
        live: Some(LiveSpan {
            cat,
            name,
            start: Instant::now(),
            depth,
            record,
            log,
        }),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else {
            return;
        };
        let dur = live.start.elapsed();
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        if live.log {
            filter::log(
                Level::Debug,
                live.cat,
                format_args!("end   {} ({:.3} ms)", live.name, dur.as_secs_f64() * 1e3),
            );
        }
        if live.record {
            let mut st = lock_state();
            if let Some(rec) = st.as_mut() {
                rec.spans.push(SpanRecord {
                    cat: live.cat,
                    name: live.name,
                    start_us: micros(live.start.saturating_duration_since(rec.epoch)),
                    dur_us: micros(dur),
                    depth: live.depth,
                    tid: thread_tid(),
                });
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    // Span and telemetry tests share the process-global recorder;
    // serialize them.
    pub(crate) fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _g = serial();
        let _ = take_records();
        assert!(!recording());
        {
            let _sp = span("workload", "noop");
        }
        assert!(take_records().is_empty());
    }

    #[test]
    fn recorded_spans_nest() {
        let _g = serial();
        install_recorder();
        {
            let _outer = span("workload", "LeNet-5");
            let _inner = span("layer", "C1");
        }
        let records = take_records();
        assert_eq!(records.len(), 2);
        // Inner completes first.
        assert_eq!(records[0].name, "C1");
        assert_eq!(records[0].depth, 1);
        assert_eq!(records[1].name, "LeNet-5");
        assert_eq!(records[1].depth, 0);
        assert_eq!(records[0].tid, records[1].tid);
        assert!(records[1].start_us <= records[0].start_us);
    }

    #[test]
    fn take_records_stops_recording() {
        let _g = serial();
        install_recorder();
        drop(span("layer", "a"));
        assert_eq!(take_records().len(), 1);
        drop(span("layer", "b"));
        assert!(take_records().is_empty());
    }
}
