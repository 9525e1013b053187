//! The [`Experiment`] trait, the static registry, and the parallel
//! suite runner.
//!
//! This module is the seam between the paper's experiments and the
//! `flexsim-pool` scheduler:
//!
//! * [`Experiment`] — an object-safe trait (`id`/`title`/`run`)
//!   replacing the old string-`match` dispatch; [`REGISTRY`] lists
//!   every experiment in paper order.
//! * [`ExperimentCtx`] — what an experiment runs *inside*: a shared
//!   thread pool plus the run's cycle-sink wiring. Experiments fan
//!   their independent (workload, architecture) units out through
//!   [`ExperimentCtx::map`]; results come back in submission order, so
//!   emitted tables and JSON are byte-identical at any `--jobs` level.
//! * [`run_suite`] — drives a list of experiments serially (one at a
//!   time, each parallel inside) with per-experiment panic isolation:
//!   a failing experiment becomes a structured [`SuiteFailure`] and a
//!   placeholder result; the rest of the sweep still runs.
//!
//! Cycle-domain tracing never goes through process-global state: the
//! run's one [`Recorder`] is threaded through the context, each
//! parallel task records into its own private recorder (tagged with
//! the owning experiment id), and completed timelines are merged back
//! in task order — deterministic and attributable.

use crate::arches::ARCH_NAMES;
use crate::report::{ExperimentResult, Table};
use flexsim_model::Network;
use flexsim_obs::cycles::{LayerTimeline, Recorder, SinkHandle};
use flexsim_obs::telemetry;
use flexsim_pool::{Outcome, Pool, Task};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// One experiment of the evaluation: a stable id, a human title, and a
/// run method. Implementations are unit structs registered in
/// [`REGISTRY`]; the trait is object-safe so the registry, the CLI,
/// and the suite runner all work with `&dyn Experiment`.
pub trait Experiment: Sync {
    /// Stable identifier (`"fig15"`, `"table06"`, `"ablation_styles"`).
    fn id(&self) -> &'static str;

    /// One-line human-readable title.
    fn title(&self) -> &'static str;

    /// Alternative ids accepted by lookup (`"fig1"` for `"fig01"`).
    fn aliases(&self) -> &'static [&'static str] {
        &[]
    }

    /// Whether the experiment is part of the `all` sweep (the
    /// `profile` diagnostic opts out).
    fn in_sweep(&self) -> bool {
        true
    }

    /// Runs the experiment inside `ctx`.
    fn run(&self, ctx: &ExperimentCtx) -> ExperimentResult;
}

/// Every experiment, in paper order (extensions and diagnostics last).
pub static REGISTRY: &[&dyn Experiment] = &[
    &crate::fig01::Fig01,
    &crate::table03::Table03,
    &crate::table04::Table04,
    &crate::fig15::Fig15,
    &crate::fig16::Fig16,
    &crate::fig17::Fig17,
    &crate::fig18::Fig18,
    &crate::table06::Table06,
    &crate::fig19::Fig19,
    &crate::table07::Table07,
    &crate::ablations::AblationStyles,
    &crate::ablations::AblationStore,
    &crate::ablations::AblationCoupling,
    &crate::ablations::AblationRcBound,
    &crate::extensions::ExtRoofline,
    &crate::extensions::ExtBatching,
    &crate::extensions::ExtRoutingShare,
    &crate::profile::Profile,
    &crate::tune::Tune,
];

/// The `all` sweep: every [`Experiment::in_sweep`] experiment, in
/// paper order.
pub fn sweep_set() -> Vec<&'static dyn Experiment> {
    REGISTRY.iter().filter(|e| e.in_sweep()).copied().collect()
}

/// Looks an experiment up by id or alias.
pub fn find(id: &str) -> Option<&'static dyn Experiment> {
    REGISTRY
        .iter()
        .find(|e| e.id() == id || e.aliases().contains(&id))
        .copied()
}

/// Everything an [`Experiment::run`] needs from its surroundings: the
/// experiment's own id, a shared thread pool, and the sink
/// wiring for cycle-domain tracing.
pub struct ExperimentCtx {
    id: String,
    pool: Arc<Pool>,
    /// The `--trace` path: per-task private recorders merged into this
    /// untagged recorder in task order (`None`: unattached sinks
    /// everywhere).
    trace: Option<Arc<Recorder>>,
}

/// The per-task view handed to [`ExperimentCtx::map`] closures. The
/// default is untraced.
#[derive(Default)]
pub struct TaskCtx {
    sink: SinkHandle,
}

impl TaskCtx {
    /// The observer this task should attach to simulators it builds:
    /// a private recorder already tagged with the owning experiment id,
    /// or unattached when tracing is off.
    pub fn sink(&self) -> SinkHandle {
        self.sink.clone()
    }
}

impl ExperimentCtx {
    /// A serial context (one-thread pool, no tracing) — what tests and
    /// benches use to run a single experiment the old way.
    pub fn serial(id: &str) -> ExperimentCtx {
        ExperimentCtx::parallel(id, 1)
    }

    /// An untraced context fanning tasks over `jobs` pool threads —
    /// what every `flexsim` command outside a suite run uses.
    pub fn parallel(id: &str, jobs: usize) -> ExperimentCtx {
        ExperimentCtx {
            id: id.to_owned(),
            pool: Arc::new(Pool::new(jobs)),
            trace: None,
        }
    }

    /// The context merging every task's cycle timelines into `trace`,
    /// which stays untagged so each timeline keeps its task's tag.
    pub fn traced(mut self, trace: Arc<Recorder>) -> ExperimentCtx {
        self.trace = Some(trace);
        self
    }

    /// The context for one experiment of a suite run.
    fn for_suite(id: &str, pool: &Arc<Pool>, trace: Option<&Arc<Recorder>>) -> ExperimentCtx {
        ExperimentCtx {
            id: id.to_owned(),
            pool: Arc::clone(pool),
            trace: trace.cloned(),
        }
    }

    /// The id of the experiment this context belongs to.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Fans `items` out across the pool and returns `work`'s results
    /// **in item order**, independent of completion order and of the
    /// pool's `--jobs` level. Each task runs under a
    /// `task`-category span labelled `experiment-id/label(item)`, gets
    /// a [`TaskCtx`] whose sink records into a private per-task
    /// recorder (merged into the context's recorder in task
    /// order), and is panic-isolated: if any task panics, the batch
    /// still completes and this method then panics with every failed
    /// task's label and message (so [`run_suite`] reports one
    /// structured failure for the experiment while the rest of the
    /// suite keeps going).
    pub fn map<I, T>(
        &self,
        items: Vec<I>,
        label: impl Fn(&I) -> String,
        work: impl Fn(&TaskCtx, I) -> T + Send + Sync + 'static,
    ) -> Vec<T>
    where
        I: Send + 'static,
        T: Send + 'static,
    {
        let work = Arc::new(work);
        let tasks = items
            .into_iter()
            .map(|item| {
                let label = format!("{}/{}", self.id, label(&item));
                let work = Arc::clone(&work);
                let traced = self.trace.is_some();
                let id = self.id.clone();
                Task::new(label, move || {
                    if !traced {
                        let sink = SinkHandle::none();
                        return (work(&TaskCtx { sink }, item), Vec::new());
                    }
                    let rec = Arc::new(Recorder::new().tagged(&id));
                    let sink = SinkHandle::new(rec.clone());
                    let value = work(&TaskCtx { sink }, item);
                    (value, rec.take())
                })
            })
            .collect();
        let outcomes = self.pool.run(tasks);
        let mut values = Vec::with_capacity(outcomes.len());
        let mut failures = Vec::new();
        for outcome in outcomes {
            match outcome {
                Outcome::Done((value, timelines)) => {
                    if let Some(trace) = &self.trace {
                        trace.record_all(timelines);
                    }
                    values.push(value);
                }
                Outcome::Panicked(failure) => failures.push(failure),
            }
        }
        if !failures.is_empty() {
            let rendered: Vec<String> = failures.iter().map(ToString::to_string).collect();
            panic!(
                "{} of {} tasks failed: {}",
                failures.len(),
                failures.len() + values.len(),
                rendered.join("; ")
            );
        }
        values
    }

    /// [`ExperimentCtx::map`] over every (network, architecture) pair
    /// of `nets` × `arches` (indices into [`ARCH_NAMES`]),
    /// network-major, each task labelled `workload/arch` — the fan-out
    /// behind every multi-pair command and figure.
    pub fn map_pairs<T>(
        &self,
        nets: &[Network],
        arches: &[usize],
        work: impl Fn(&TaskCtx, &Network, usize) -> T + Send + Sync + 'static,
    ) -> Vec<T>
    where
        T: Send + 'static,
    {
        let pairs: Vec<(Network, usize)> = nets
            .iter()
            .flat_map(|net| arches.iter().map(move |&idx| (net.clone(), idx)))
            .collect();
        self.map(
            pairs,
            |(net, idx)| format!("{}/{}", net.name(), ARCH_NAMES[*idx]),
            move |tctx, (net, idx)| work(tctx, &net, idx),
        )
    }
}

/// Configuration of one suite run.
#[derive(Clone, Debug)]
pub struct SuiteConfig {
    /// Maximum concurrently running tasks (0 = available parallelism).
    pub jobs: usize,
    /// Collect cycle-domain timelines (the `--trace` path).
    pub trace: bool,
}

impl Default for SuiteConfig {
    fn default() -> SuiteConfig {
        SuiteConfig {
            jobs: 1,
            trace: false,
        }
    }
}

/// An experiment that panicked during a suite run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SuiteFailure {
    /// The experiment's id.
    pub id: String,
    /// The rendered panic message.
    pub message: String,
}

/// What [`run_suite`] returns: one result per experiment (failed ones
/// get a placeholder), the failures, and any collected timelines.
pub struct SuiteReport {
    /// One result per experiment, in input order.
    pub results: Vec<ExperimentResult>,
    /// Experiments that panicked (empty on a healthy run).
    pub failures: Vec<SuiteFailure>,
    /// Collected cycle timelines (empty unless `trace` was set).
    pub timelines: Vec<LayerTimeline>,
}

/// Runs `experiments` in order. Experiments themselves run one at a
/// time (output order is trivially deterministic); each parallelizes
/// internally over the shared pool via [`ExperimentCtx::map`]. A
/// panicking experiment is caught, reported as a [`SuiteFailure`] plus
/// a placeholder result, and the remaining experiments still run.
pub fn run_suite(experiments: &[&dyn Experiment], config: &SuiteConfig) -> SuiteReport {
    let pool = Arc::new(Pool::new(config.jobs));
    let trace = config.trace.then(|| Arc::new(Recorder::new()));
    let mut results = Vec::with_capacity(experiments.len());
    let mut failures = Vec::new();
    for exp in experiments {
        let ctx = ExperimentCtx::for_suite(exp.id(), &pool, trace.as_ref());
        let outcome = {
            let _span = flexsim_obs::span::span("experiment", exp.id());
            catch_unwind(AssertUnwindSafe(|| exp.run(&ctx)))
        };
        match outcome {
            Ok(result) => results.push(result),
            Err(payload) => {
                let message = panic_text(payload.as_ref());
                // The pool already flight-dumped task panics; an
                // experiment panicking outside any task is recorded
                // (and dumped) here instead.
                let _ = telemetry::flight::record_panic(exp.id(), &message);
                failures.push(SuiteFailure {
                    id: exp.id().to_owned(),
                    message: message.clone(),
                });
                let mut table = Table::new(["status"]);
                table.push_row(["FAILED".to_owned()]);
                results.push(ExperimentResult {
                    id: exp.id().into(),
                    title: exp.title().into(),
                    notes: vec![format!("FAILED: {message}")],
                    table,
                });
            }
        }
    }
    SuiteReport {
        results,
        failures,
        timelines: trace.map(|t| t.take()).unwrap_or_default(),
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
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
    use flexsim_obs::attrib::StallCause;
    use flexsim_obs::cycles::{CycleEvent, CycleEventKind, LayerCtx};

    #[test]
    fn registry_ids_are_unique_and_resolvable() {
        let mut seen = std::collections::HashSet::new();
        for exp in REGISTRY {
            assert!(seen.insert(exp.id()), "duplicate id {}", exp.id());
            assert!(std::ptr::eq(
                find(exp.id()).expect("id resolves") as *const dyn Experiment as *const (),
                *exp as *const dyn Experiment as *const ()
            ));
            for alias in exp.aliases() {
                assert!(find(alias).is_some(), "alias {alias} resolves");
            }
        }
        assert!(find("fig99").is_none());
    }

    #[test]
    fn aliases_resolve_to_their_experiment() {
        assert_eq!(find("fig1").unwrap().id(), "fig01");
        assert_eq!(find("table3").unwrap().id(), "table03");
        assert_eq!(find("table6").unwrap().id(), "table06");
    }

    #[test]
    fn profile_is_not_in_the_sweep() {
        let swept: Vec<&str> = REGISTRY
            .iter()
            .filter(|e| e.in_sweep())
            .map(|e| e.id())
            .collect();
        assert!(!swept.contains(&"profile"));
        assert!(!swept.contains(&"tune"));
        assert_eq!(swept.len(), REGISTRY.len() - 2);
    }

    #[test]
    fn map_returns_results_in_item_order() {
        for jobs in [1, 4] {
            let ctx = ExperimentCtx {
                id: "test".into(),
                pool: Arc::new(Pool::new(jobs)),
                trace: None,
            };
            let out = ctx.map(
                (0..32).collect(),
                |i| format!("item{i}"),
                |_tctx, i: usize| i * 10,
            );
            assert_eq!(out, (0..32).map(|i| i * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_aggregates_task_panics_into_one() {
        let ctx = ExperimentCtx::serial("test");
        let caught = catch_unwind(AssertUnwindSafe(|| {
            ctx.map(
                vec![1, 2, 3],
                |i| format!("t{i}"),
                |_tctx, i: i32| {
                    assert!(i != 2, "injected");
                    i
                },
            )
        }));
        let msg = panic_text(caught.unwrap_err().as_ref());
        assert!(msg.contains("1 of 3 tasks failed"), "{msg}");
        assert!(msg.contains("test/t2"), "{msg}");
    }

    #[test]
    fn suite_isolates_a_failing_experiment() {
        struct Ok1;
        impl Experiment for Ok1 {
            fn id(&self) -> &'static str {
                "ok1"
            }
            fn title(&self) -> &'static str {
                "works"
            }
            fn run(&self, _ctx: &ExperimentCtx) -> ExperimentResult {
                let mut table = Table::new(["x"]);
                table.push_row(["1".to_owned()]);
                ExperimentResult {
                    id: "ok1".into(),
                    title: "works".into(),
                    notes: vec![],
                    table,
                }
            }
        }
        struct Boom;
        impl Experiment for Boom {
            fn id(&self) -> &'static str {
                "boom"
            }
            fn title(&self) -> &'static str {
                "fails"
            }
            fn run(&self, ctx: &ExperimentCtx) -> ExperimentResult {
                // Panic inside a pooled task, not on the suite thread.
                ctx.map(
                    vec![()],
                    |()| "kaboom".to_owned(),
                    |_t, ()| panic!("injected failure"),
                );
                unreachable!()
            }
        }
        let report = run_suite(&[&Ok1, &Boom, &Ok1], &SuiteConfig::default());
        assert_eq!(report.results.len(), 3);
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].id, "boom");
        assert!(report.failures[0].message.contains("injected failure"));
        assert_eq!(report.results[1].notes.len(), 1);
        assert!(report.results[1].notes[0].starts_with("FAILED:"));
        assert_eq!(report.results[0].table.rows().len(), 1);
        assert_eq!(report.results[2].table.rows().len(), 1);
    }

    #[test]
    fn trace_mode_collects_tagged_timelines_in_task_order() {
        struct Emits;
        impl Experiment for Emits {
            fn id(&self) -> &'static str {
                "emits"
            }
            fn title(&self) -> &'static str {
                "emits cycle events"
            }
            fn run(&self, ctx: &ExperimentCtx) -> ExperimentResult {
                ctx.map(
                    vec!["L0", "L1", "L2"],
                    |l| (*l).to_owned(),
                    |tctx, layer: &str| {
                        let sink = tctx.sink();
                        sink.recorder()
                            .expect("tracing is on")
                            .record(LayerTimeline {
                                ctx: LayerCtx::new("TestArch", layer, 4),
                                events: vec![CycleEvent::new(
                                    CycleEventKind::Pass(StallCause::MappingResidueIdle),
                                    0,
                                    10,
                                    40,
                                )],
                            });
                    },
                );
                ExperimentResult {
                    id: "emits".into(),
                    title: "emits cycle events".into(),
                    notes: vec![],
                    table: Table::new(["x"]),
                }
            }
        }
        let report = run_suite(
            &[&Emits],
            &SuiteConfig {
                jobs: 4,
                trace: true,
            },
        );
        assert!(report.failures.is_empty());
        assert_eq!(report.timelines.len(), 3);
        for (i, tl) in report.timelines.iter().enumerate() {
            assert_eq!(tl.ctx.layer, format!("L{i}")); // task order
            assert_eq!(tl.ctx.experiment, "emits"); // attribution
        }
    }
}
