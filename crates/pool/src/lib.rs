//! # flexsim-pool — a hermetic, std-only thread pool with one FIFO queue
//!
//! The experiment sweep is embarrassingly parallel (workloads ×
//! architectures × layer simulations), and this crate is the scheduler
//! behind `flexsim --jobs N`. It follows the workspace's no-external-deps
//! discipline: no crossbeam, no rayon — just `std::thread` plus one
//! `Mutex`-guarded queue and one `Condvar`.
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
//!   threads at all: the submitting thread drains the queue in
//!   submission order, so `--jobs 1` reproduces single-threaded
//!   behaviour exactly (same thread, same ordering, same span nesting).
//! * **Observability.** Each executor runs inside a `worker`-category
//!   [`flexsim_obs::span()`] named by its index (a spawned worker for
//!   its lifetime, the calling thread for each outermost [`Pool::run`])
//!   and each task inside a `task` span; [`flexsim_obs::telemetry`]
//!   folds per-worker wall, busy, idle and task counts and the task
//!   latency histogram from those spans, and each submit reports the
//!   queue depth to [`flexsim_obs::telemetry::raise_queue_depth`].
//!   Workers register `flexsim-pool-{i}` thread labels so Chrome-trace
//!   thread names reflect real workers, and a task panic triggers a
//!   flight dump when a dump directory is configured.
//!
//! ## Scheduling
//!
//! [`Pool::run`] appends its batch to the back of the one shared queue
//! and every executor pops from the front. Idle workers wait on the
//! `Condvar`, which is signalled on submission, on batch completion and
//! on shutdown. The thread that calls [`Pool::run`] is itself an
//! executor while its batch is outstanding — a pool with `jobs = N`
//! therefore runs at most `N` tasks concurrently using `N - 1` spawned
//! threads, and nested `run` calls from inside a task cannot deadlock
//! (the waiting caller keeps draining the queue).
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

use flexsim_obs::span::{set_thread_label, span};
use flexsim_obs::telemetry;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

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

/// The jobs not yet started, in submission order, and the flag that
/// tells spawned workers to exit.
#[derive(Default)]
struct Queue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

/// State shared between the submitting thread and the workers.
#[derive(Default)]
struct Shared {
    queue: Mutex<Queue>,
    /// Signalled when jobs arrive, when a batch completes and on
    /// shutdown; every waiter rechecks its own condition.
    changed: Condvar,
}

fn locked<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    // Invariant: jobs never panic while holding a pool lock (panics are
    // caught inside the job body), so poisoning is unreachable; recover
    // anyway rather than propagate.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    /// Pops and runs jobs until `stop` holds, waiting while the queue
    /// is empty. `stop` is checked under the queue lock, so a change
    /// followed by [`Shared::notify`] is never missed.
    fn drain(&self, mut stop: impl FnMut(&Queue) -> bool) {
        let mut queue = locked(&self.queue);
        while !stop(&queue) {
            if let Some(job) = queue.jobs.pop_front() {
                drop(queue);
                job();
                queue = locked(&self.queue);
            } else {
                queue = self
                    .changed
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    /// Wakes every waiter. The lock orders the wakeup after any waiter's
    /// check, so it cannot slip in between that check and the wait.
    fn notify(&self) {
        let _queue = locked(&self.queue);
        self.changed.notify_all();
    }
}

fn worker_loop(shared: &Shared, me: usize) {
    set_thread_label(format!("flexsim-pool-{me}"));
    CURRENT_WORKER.with(|w| w.set(Some(me)));
    let _worker = span("worker", me.to_string());
    shared.drain(|queue| queue.jobs.is_empty() && queue.shutdown);
}

/// One [`Pool::run`] batch: an outcome slot per task, and how many are
/// still empty.
struct Batch<T> {
    outcomes: Vec<Option<Outcome<T>>>,
    remaining: usize,
}

/// A thread pool whose executors share one FIFO queue. See the crate
/// docs for the full contract; dropping the pool shuts the workers down
/// and joins them.
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    jobs: usize,
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
        let shared = Arc::new(Shared::default());
        let workers = (1..jobs)
            .map(|me| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("flexsim-pool-{me}"))
                    .spawn(move || worker_loop(&shared, me))
                    .expect("spawning a pool worker thread")
            })
            .collect();
        Pool {
            shared,
            workers,
            jobs,
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
        let batch = Arc::new(Mutex::new(Batch {
            outcomes: (0..n).map(|_| None).collect(),
            remaining: n,
        }));
        let jobs = tasks.into_iter().enumerate().map(|(seq, task)| {
            let batch = Arc::clone(&batch);
            let shared = Arc::clone(&self.shared);
            Box::new(move || {
                let outcome = run_one(task);
                let done = {
                    let mut batch = locked(&batch);
                    batch.outcomes[seq] = Some(outcome);
                    batch.remaining -= 1;
                    batch.remaining == 0
                };
                if done {
                    shared.notify();
                }
            }) as Job
        });
        {
            let mut queue = locked(&self.shared.queue);
            queue.jobs.extend(jobs);
            telemetry::raise_queue_depth(queue.jobs.len() as u64);
            self.shared.changed.notify_all();
        }
        // Help drain the queue until this batch is complete. The calling
        // thread is executor 0 for the duration (unless it already *is*
        // a worker — a nested `run` from inside a task keeps the outer
        // identity, and the tasks it drains nest inside that task's
        // span, whose duration is already the worker's busy time).
        let outermost = current_worker().is_none();
        let worker = outermost.then(|| {
            CURRENT_WORKER.with(|w| w.set(Some(0)));
            span("worker", "0")
        });
        self.shared.drain(|_| locked(&batch).remaining == 0);
        drop(worker);
        if outermost {
            CURRENT_WORKER.with(|w| w.set(None));
        }
        let outcomes = std::mem::take(&mut locked(&batch).outcomes);
        outcomes
            .into_iter()
            .map(|slot| {
                // Invariant: `remaining` only reaches 0 after every job
                // has filled its slot, so no result can be lost.
                slot.expect("batch complete but a result slot empty")
            })
            .collect()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        locked(&self.shared.queue).shutdown = true;
        self.shared.changed.notify_all();
        for worker in self.workers.drain(..) {
            // A worker that panicked outside a job is a pool bug; the
            // join error is ignored rather than double-panicked so Drop
            // stays well-behaved during unwinding.
            let _ = worker.join();
        }
    }
}

/// Runs one task under a `task` span with panic containment.
fn run_one<T>(task: Task<T>) -> Outcome<T> {
    let Task { label, work } = task;
    let result = {
        let _span = span("task", label.clone());
        catch_unwind(AssertUnwindSafe(work))
    };
    match result {
        Ok(value) => Outcome::Done(value),
        Err(payload) => {
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

    /// Telemetry reads the process-global span recorder; the tests
    /// that switch it on and off serialize on this lock.
    fn telemetry_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        locked(&LOCK)
    }

    #[test]
    fn dropped_pool_merges_worker_stats_into_telemetry() {
        let _g = telemetry_lock();
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
    fn nested_run_keeps_busy_plus_idle_equal_to_wall() {
        let _g = telemetry_lock();
        telemetry::enable();
        telemetry::reset();
        let nap = || std::thread::sleep(std::time::Duration::from_millis(20));
        {
            let pool = Arc::new(Pool::new(2));
            let inner_pool = Arc::clone(&pool);
            let results = pool.run(vec![Task::new("outer", move || {
                nap();
                inner_pool.run(vec![Task::new("inner/0", nap), Task::new("inner/1", nap)]);
                nap();
            })]);
            assert_eq!(results, vec![Outcome::Done(())]);
        }
        let snap = telemetry::snapshot();
        telemetry::disable();
        assert!(!snap.workers.is_empty());
        for (i, w) in &snap.workers {
            // The inner tasks drained by the outer task's thread are
            // part of the outer task's busy time, not added to it.
            assert_eq!(w.busy_us + w.idle_us, w.wall_us, "worker {i}: {w:?}");
        }
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
}
