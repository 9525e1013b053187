//! # flexsim-pool — a hermetic, std-only work-stealing thread pool
//!
//! The experiment sweep is embarrassingly parallel (workloads ×
//! architectures × layer simulations), and this crate is the scheduler
//! behind `flexsim --jobs N`. It follows the workspace's no-external-deps
//! discipline: no crossbeam, no rayon — just `std::thread` plus
//! `Mutex`/`Condvar`-guarded deques.
//!
//! Properties the experiment harness depends on:
//!
//! * **Deterministic result ordering.** Every task carries its
//!   submission index; [`Pool::run`] returns outcomes in submission
//!   order no matter which worker finished first. A sweep's tables are
//!   therefore byte-identical at any `--jobs` level.
//! * **Per-task panic isolation.** A panicking task is caught with
//!   [`std::panic::catch_unwind`] and reported as a structured
//!   [`TaskFailure`]; the batch always completes and the pool survives.
//! * **Serial fidelity.** A pool built with `jobs = 1` spawns no worker
//!   threads at all: the submitting thread drains its own queue in
//!   submission order, so `--jobs 1` reproduces single-threaded
//!   behaviour exactly (same thread, same ordering, same span nesting).
//! * **Observability.** Each task runs inside a `task`-category
//!   [`flexsim_obs::span()`], and the pool mirrors queue depth, steal
//!   counts, and task totals into the global metrics registry
//!   (`pool_queue_depth`, `pool_steals_total`, `pool_tasks_total`,
//!   `pool_tasks_panicked_total`, `pool_workers`). When
//!   [`flexsim_obs::telemetry`] is enabled the pool additionally keeps
//!   per-worker busy/idle wall time, steal counts, task counts, and a
//!   task-latency histogram in per-worker buffers (each worker touches
//!   only its own `Mutex` slot — "lock-free enough": the lock is never
//!   contended on the hot path) and merges them into the global
//!   telemetry in worker-index order when the pool is dropped, so the
//!   merged stats are deterministic. Workers register
//!   `flexsim-pool-{i}` thread labels so Chrome-trace thread names
//!   reflect real workers, and a task panic is recorded into the
//!   telemetry flight ring (triggering a flight dump when a dump
//!   directory is configured).
//!
//! ## Scheduling
//!
//! The pool owns one `Mutex<VecDeque<Job>>` per executor. Submission
//! round-robins jobs across the deques; an executor pops from the
//! *front* of its own deque and, when empty, steals from the *back* of
//! a sibling's. Idle workers park on a `Condvar` and are woken on
//! submission. The thread that calls [`Pool::run`] is itself an
//! executor while it waits — a pool with `jobs = N` therefore runs at
//! most `N` tasks concurrently using `N - 1` spawned threads, and
//! nested `run` calls from inside a task cannot deadlock (the waiting
//! caller keeps draining work).
//!
//! ```
//! use flexsim_pool::{Outcome, Pool, Task};
//!
//! let pool = Pool::new(4);
//! let tasks = (0..8)
//!     .map(|i| Task::new(format!("square/{i}"), move || i * i))
//!     .collect();
//! let results = pool.run(tasks);
//! assert_eq!(results.len(), 8);
//! for (i, r) in results.into_iter().enumerate() {
//!     assert_eq!(r, Outcome::Done(i * i));
//! }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use flexsim_obs::hist::Histogram;
use flexsim_obs::span::{set_thread_label, span};
use flexsim_obs::{metrics, telemetry};
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

thread_local! {
    /// The executor index of the current thread while it is running
    /// pool work (spawned workers set it for their lifetime; the
    /// calling thread is executor 0 while inside [`Pool::run`]).
    static CURRENT_WORKER: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The executor index of the calling thread, when it is a pool
/// executor (spawned worker, or the submitting thread inside
/// [`Pool::run`]). Task bodies can call this to learn which worker is
/// running them.
pub fn current_worker() -> Option<usize> {
    CURRENT_WORKER.with(Cell::get)
}

/// A unit of work: a label (for spans and failure reports) plus the
/// closure to run.
pub struct Task<T> {
    label: String,
    work: Box<dyn FnOnce() -> T + Send>,
}

impl<T> Task<T> {
    /// Packages `work` under `label`. The label names the task in
    /// `task`-category trace spans and in [`TaskFailure`] reports; the
    /// convention in this workspace is `experiment/workload/arch`.
    pub fn new(label: impl Into<String>, work: impl FnOnce() -> T + Send + 'static) -> Task<T> {
        Task {
            label: label.into(),
            work: Box::new(work),
        }
    }

    /// The task's label.
    pub fn label(&self) -> &str {
        &self.label
    }
}

/// A structured report of a task that panicked.
#[derive(Clone, Debug)]
pub struct TaskFailure {
    /// The label of the task that panicked.
    pub label: String,
    /// The panic payload, rendered to text.
    pub message: String,
    /// The executor index the task was running on (0 = the submitting
    /// thread). Advisory scheduling detail: deliberately excluded from
    /// equality and from [`std::fmt::Display`], because which worker
    /// ran a task varies run-to-run while the failure's *identity*
    /// (label + message) — and therefore all rendered output — must
    /// stay byte-identical at every `--jobs` level.
    pub worker: usize,
}

impl PartialEq for TaskFailure {
    fn eq(&self, other: &TaskFailure) -> bool {
        self.label == other.label && self.message == other.message
    }
}

impl Eq for TaskFailure {}

impl std::fmt::Display for TaskFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task '{}' panicked: {}", self.label, self.message)
    }
}

/// What became of one task.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome<T> {
    /// The task ran to completion.
    Done(T),
    /// The task panicked; the panic was contained to this task.
    Panicked(TaskFailure),
}

impl<T> Outcome<T> {
    /// The completed value, if any.
    pub fn done(self) -> Option<T> {
        match self {
            Outcome::Done(v) => Some(v),
            Outcome::Panicked(_) => None,
        }
    }

    /// The failure report, if the task panicked.
    pub fn failure(&self) -> Option<&TaskFailure> {
        match self {
            Outcome::Done(_) => None,
            Outcome::Panicked(f) => Some(f),
        }
    }
}

/// The number of executors [`Pool::new`] uses for `jobs = 0`:
/// `std::thread::available_parallelism()`, or 1 when unknown.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

type Job = Box<dyn FnOnce() + Send>;

/// Per-worker telemetry buffer. Each executor touches only its own
/// slot, so the `Mutex` around it is uncontended on the hot path; the
/// pool reads every slot once, in index order, at drop.
#[derive(Default)]
struct WorkerStats {
    /// Wall microseconds the executor existed (spawn → loop exit for
    /// workers; accumulated time inside [`Pool::run`] for executor 0).
    wall_us: u64,
    /// Microseconds spent executing task bodies.
    busy_us: u64,
    /// Tasks executed.
    tasks: u64,
    /// Tasks stolen from a sibling's deque.
    steals: u64,
    /// Per-task execution latency.
    hist: Histogram,
}

/// State shared between the submitting thread and the workers.
struct Shared {
    /// One work deque per executor (workers + the submitting thread).
    deques: Vec<Mutex<VecDeque<Job>>>,
    /// One telemetry buffer per executor.
    stats: Vec<Mutex<WorkerStats>>,
    /// Queued-but-unstarted jobs; checked before parking so a submit
    /// that lands between "deques empty" and "wait" is never missed.
    queued: AtomicUsize,
    /// Pairs with `work_cv`; holds no data, only the park protocol.
    idle: Mutex<()>,
    work_cv: Condvar,
    shutdown: AtomicBool,
}

fn locked<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    // Invariant: jobs never panic while holding a pool lock (panics are
    // caught inside the job body), so poisoning is unreachable; recover
    // anyway rather than propagate.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    /// Pops a job, preferring the front of `own`'s deque and stealing
    /// from the back of siblings otherwise.
    fn grab(&self, own: usize) -> Option<Job> {
        if let Some(job) = locked(&self.deques[own]).pop_front() {
            self.queued.fetch_sub(1, Ordering::AcqRel);
            self.depth_gauge();
            return Some(job);
        }
        let n = self.deques.len();
        for off in 1..n {
            let victim = (own + off) % n;
            if let Some(job) = locked(&self.deques[victim]).pop_back() {
                self.queued.fetch_sub(1, Ordering::AcqRel);
                metrics::global().add("pool_steals_total", &[], 1);
                if telemetry::enabled() {
                    locked(&self.stats[own]).steals += 1;
                }
                self.depth_gauge();
                return Some(job);
            }
        }
        None
    }

    fn depth_gauge(&self) {
        metrics::global().set(
            "pool_queue_depth",
            &[],
            self.queued.load(Ordering::Acquire) as u64,
        );
    }

    /// Runs one job as executor `me`, charging its wall time to `me`'s
    /// telemetry buffer (one relaxed load when telemetry is off).
    fn run_job(&self, me: usize, job: Job) {
        let start = telemetry::now_if_enabled();
        job();
        if let Some(t0) = start {
            let us = t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
            let mut st = locked(&self.stats[me]);
            st.busy_us += us;
            st.tasks += 1;
            st.hist.observe(us);
        }
    }
}

fn worker_loop(shared: &Shared, me: usize) {
    set_thread_label(format!("flexsim-pool-{me}"));
    CURRENT_WORKER.with(|w| w.set(Some(me)));
    let birth = Instant::now();
    loop {
        if let Some(job) = shared.grab(me) {
            shared.run_job(me, job);
            continue;
        }
        let guard = locked(&shared.idle);
        if shared.shutdown.load(Ordering::Acquire) {
            drop(guard);
            locked(&shared.stats[me]).wall_us =
                birth.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
            return;
        }
        if shared.queued.load(Ordering::Acquire) > 0 {
            continue; // a submit raced our emptiness check; retry
        }
        // Submitters bump `queued` before taking `idle` to notify, so a
        // wakeup can't slip between the recheck above and this wait.
        drop(
            shared
                .work_cv
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner),
        );
    }
}

/// Bookkeeping for one [`Pool::run`] batch.
struct Batch {
    remaining: Mutex<usize>,
    done_cv: Condvar,
}

/// A work-stealing thread pool. See the crate docs for the full
/// contract; dropping the pool shuts the workers down and joins them.
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    jobs: usize,
    next_deque: AtomicUsize,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool").field("jobs", &self.jobs).finish()
    }
}

impl Pool {
    /// Creates a pool that runs at most `jobs` tasks concurrently
    /// (`jobs = 0` means [`available_parallelism`]). `jobs - 1` worker
    /// threads are spawned; the thread calling [`Pool::run`] is the
    /// remaining executor. With `jobs = 1` no threads exist and tasks
    /// run on the submitting thread in submission order.
    pub fn new(jobs: usize) -> Pool {
        let jobs = if jobs == 0 {
            available_parallelism()
        } else {
            jobs
        };
        let shared = Arc::new(Shared {
            deques: (0..jobs).map(|_| Mutex::new(VecDeque::new())).collect(),
            stats: (0..jobs)
                .map(|_| Mutex::new(WorkerStats::default()))
                .collect(),
            queued: AtomicUsize::new(0),
            idle: Mutex::new(()),
            work_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (1..jobs)
            .map(|me| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("flexsim-pool-{me}"))
                    .spawn(move || worker_loop(&shared, me))
                    .expect("spawning a pool worker thread")
            })
            .collect();
        metrics::global().set("pool_workers", &[], jobs as u64);
        Pool {
            shared,
            workers,
            jobs,
            next_deque: AtomicUsize::new(0),
        }
    }

    /// The maximum number of concurrently running tasks.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs a batch of tasks to completion and returns one [`Outcome`]
    /// per task **in submission order**, regardless of completion
    /// order. The calling thread participates in execution while it
    /// waits, so nested `run` calls from inside a task make progress
    /// instead of deadlocking.
    pub fn run<T: Send + 'static>(&self, tasks: Vec<Task<T>>) -> Vec<Outcome<T>> {
        let n = tasks.len();
        if n == 0 {
            return Vec::new();
        }
        let slots: Arc<Mutex<Vec<Option<Outcome<T>>>>> =
            Arc::new(Mutex::new((0..n).map(|_| None).collect()));
        let batch = Arc::new(Batch {
            remaining: Mutex::new(n),
            done_cv: Condvar::new(),
        });
        for (seq, task) in tasks.into_iter().enumerate() {
            let slots = Arc::clone(&slots);
            let batch = Arc::clone(&batch);
            self.submit(Box::new(move || {
                let outcome = run_one(task);
                locked(&slots)[seq] = Some(outcome);
                let mut remaining = locked(&batch.remaining);
                *remaining -= 1;
                if *remaining == 0 {
                    batch.done_cv.notify_all();
                }
            }));
        }
        // Help drain the pool until this batch is complete. The calling
        // thread is executor 0 for the duration (unless it already *is*
        // a worker — a nested `run` from inside a task keeps the outer
        // identity, and its drain time is already counted as that
        // task's busy time).
        let outer_worker = current_worker();
        let wall_start = outer_worker.is_none().then(Instant::now);
        if outer_worker.is_none() {
            CURRENT_WORKER.with(|w| w.set(Some(0)));
        }
        loop {
            if *locked(&batch.remaining) == 0 {
                break;
            }
            if let Some(job) = self.shared.grab(0) {
                self.shared.run_job(current_worker().unwrap_or(0), job);
                continue;
            }
            let remaining = locked(&batch.remaining);
            if *remaining == 0 {
                break;
            }
            drop(
                batch
                    .done_cv
                    .wait(remaining)
                    .unwrap_or_else(PoisonError::into_inner),
            );
        }
        if let Some(t0) = wall_start {
            CURRENT_WORKER.with(|w| w.set(None));
            locked(&self.shared.stats[0]).wall_us +=
                t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        }
        let outcomes = locked(&slots)
            .iter_mut()
            .map(|slot| {
                // Invariant: `remaining` only reaches 0 after every job
                // has filled its slot, so no result can be lost.
                slot.take().expect("batch complete but a result slot empty")
            })
            .collect();
        outcomes
    }

    fn submit(&self, job: Job) {
        let target = self.next_deque.fetch_add(1, Ordering::Relaxed) % self.shared.deques.len();
        let depth = self.shared.queued.fetch_add(1, Ordering::AcqRel) + 1;
        telemetry::pool_queue_depth(depth as u64);
        locked(&self.shared.deques[target]).push_back(job);
        self.shared.depth_gauge();
        let _guard = locked(&self.shared.idle);
        self.shared.work_cv.notify_all();
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _guard = locked(&self.shared.idle);
            self.shared.work_cv.notify_all();
        }
        for worker in self.workers.drain(..) {
            // A worker that panicked outside a job is a pool bug; the
            // join error is ignored rather than double-panicked so Drop
            // stays well-behaved during unwinding.
            let _ = worker.join();
        }
        // Every worker has exited, so the per-worker buffers are
        // quiescent: merge them into the global telemetry in worker
        // index order — a deterministic merge no matter how the batch
        // was scheduled.
        if telemetry::enabled() {
            for (index, slot) in self.shared.stats.iter().enumerate() {
                let st = locked(slot);
                if st.wall_us == 0 && st.tasks == 0 && st.steals == 0 {
                    continue; // executor never participated
                }
                let totals = telemetry::WorkerTotals {
                    wall_us: st.wall_us,
                    busy_us: st.busy_us,
                    // Idle is wall minus busy *by construction*, so
                    // busy + idle == wall holds exactly per worker.
                    idle_us: st.wall_us.saturating_sub(st.busy_us),
                    tasks: st.tasks,
                    steals: st.steals,
                };
                telemetry::merge_worker(index, &totals, &st.hist);
            }
        }
    }
}

/// Runs one task under a `task` span with panic containment, mirroring
/// the totals into the metrics registry.
fn run_one<T>(task: Task<T>) -> Outcome<T> {
    let Task { label, work } = task;
    let result = {
        let _span = span("task", label.clone());
        catch_unwind(AssertUnwindSafe(work))
    };
    metrics::global().add("pool_tasks_total", &[], 1);
    match result {
        Ok(value) => Outcome::Done(value),
        Err(payload) => {
            metrics::global().add("pool_tasks_panicked_total", &[], 1);
            let message = panic_message(payload.as_ref());
            // The flight recorder captures the failure and dumps the
            // ring while the rest of the batch keeps running (no-op
            // when telemetry is off or no dump dir is configured).
            let _ = telemetry::flight::record_panic(&label, &message);
            Outcome::Panicked(TaskFailure {
                label,
                message,
                worker: current_worker().unwrap_or(0),
            })
        }
    }
}

/// Renders a panic payload to text (`&str` and `String` payloads cover
/// every `panic!` in this workspace).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn squares(pool: &Pool, n: usize) -> Vec<Outcome<usize>> {
        pool.run(
            (0..n)
                .map(|i| Task::new(format!("sq/{i}"), move || i * i))
                .collect(),
        )
    }

    #[test]
    fn results_arrive_in_submission_order() {
        for jobs in [1, 2, 4, 8] {
            let pool = Pool::new(jobs);
            let results = squares(&pool, 100);
            for (i, r) in results.into_iter().enumerate() {
                assert_eq!(r, Outcome::Done(i * i), "jobs={jobs}");
            }
        }
    }

    #[test]
    fn serial_pool_spawns_no_threads_and_runs_in_order() {
        let pool = Pool::new(1);
        assert!(pool.workers.is_empty());
        let caller = std::thread::current().id();
        let order = Arc::new(Mutex::new(Vec::new()));
        let results = pool.run(
            (0..10)
                .map(|i| {
                    let order = Arc::clone(&order);
                    Task::new(format!("t/{i}"), move || {
                        locked(&order).push(i);
                        std::thread::current().id()
                    })
                })
                .collect(),
        );
        assert_eq!(*locked(&order), (0..10).collect::<Vec<_>>());
        for r in results {
            assert_eq!(r.done(), Some(caller));
        }
    }

    #[test]
    fn zero_jobs_means_available_parallelism() {
        let pool = Pool::new(0);
        assert_eq!(pool.jobs(), available_parallelism());
    }

    #[test]
    fn a_panicking_task_is_isolated() {
        let pool = Pool::new(4);
        let results = pool.run(vec![
            Task::new("ok/0", || 1),
            Task::new("boom", || -> i32 { panic!("injected failure") }),
            Task::new("ok/2", || 3),
        ]);
        assert_eq!(results[0], Outcome::Done(1));
        let failure = results[1].failure().expect("task 1 panicked");
        assert_eq!(failure.label, "boom");
        assert_eq!(failure.message, "injected failure");
        assert_eq!(
            failure.to_string(),
            "task 'boom' panicked: injected failure"
        );
        assert_eq!(results[2], Outcome::Done(3));
        // The pool survives a panic and keeps serving batches.
        assert_eq!(squares(&pool, 4).len(), 4);
    }

    #[test]
    fn empty_batch_returns_immediately() {
        let pool = Pool::new(2);
        assert!(pool.run::<()>(Vec::new()).is_empty());
    }

    #[test]
    fn pool_is_reusable_across_batches() {
        let pool = Pool::new(3);
        for round in 0..20 {
            let results = squares(&pool, round);
            assert_eq!(results.len(), round);
        }
    }

    #[test]
    fn nested_runs_do_not_deadlock() {
        let pool = Arc::new(Pool::new(2));
        let inner_pool = Arc::clone(&pool);
        let results = pool.run(vec![Task::new("outer", move || {
            let inner = inner_pool.run(vec![
                Task::new("inner/0", || 10),
                Task::new("inner/1", || 20),
            ]);
            inner.into_iter().filter_map(Outcome::done).sum::<i32>()
        })]);
        assert_eq!(results, vec![Outcome::Done(30)]);
    }

    #[test]
    fn dropped_pool_merges_worker_stats_into_telemetry() {
        telemetry::enable();
        {
            let pool = Pool::new(3);
            drop(squares(&pool, 32));
        } // drop merges, in worker-index order
        let snap = telemetry::snapshot();
        telemetry::disable();
        assert!(!snap.workers.is_empty());
        let tasks: u64 = snap.workers.iter().map(|(_, w)| w.tasks).sum();
        // Other tests may run pools concurrently while telemetry is
        // enabled, so assert at-least rather than exactly.
        assert!(tasks >= 32, "merged {tasks} tasks");
        for (i, w) in &snap.workers {
            assert_eq!(w.busy_us + w.idle_us, w.wall_us, "worker {i}");
        }
        assert!(snap.task_wall.count() >= 32);
    }

    #[test]
    fn failures_report_a_worker_but_compare_by_identity() {
        let a = TaskFailure {
            label: "t".into(),
            message: "m".into(),
            worker: 0,
        };
        let b = TaskFailure {
            label: "t".into(),
            message: "m".into(),
            worker: 3,
        };
        // Same identity on different workers: equal, and rendered
        // identically (worker placement must never leak into output).
        assert_eq!(a, b);
        assert_eq!(a.to_string(), b.to_string());
    }

    #[test]
    fn task_totals_are_mirrored_into_metrics() {
        let before = metrics::global().snapshot();
        let pool = Pool::new(2);
        drop(squares(&pool, 10));
        let grown = metrics::global().snapshot().diff(&before);
        assert!(grown.get("pool_tasks_total", &[]) >= 10);
    }
}
