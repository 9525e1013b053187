//! Integration tests for host-side runtime telemetry: the acceptance
//! bar for the `flexsim-telemetry` work.
//!
//! * Simulation output is byte-identical with telemetry on vs. off, at
//!   `--jobs 1` and `--jobs 4` — observation never perturbs results.
//! * A telemetry-instrumented sweep exercises every declared phase,
//!   and every merged worker reconciles exactly: busy + idle == wall.
//! * A panicking experiment produces a flight-recorder dump while its
//!   sibling experiments complete untouched.
//! * `--trace` and `--telemetry` on one command line fold the same span
//!   records: every traced layer span is one layer-sim sample.
//!
//! Telemetry state is process-global, so every test serializes on one
//! lock and restores the disabled state before releasing it.

use flexsim_experiments::{run_suite, SuiteConfig, REGISTRY};
use flexsim_obs::telemetry::{self, Phase};
use flexsim_testkit::json::Json;
use std::process::Command;
use std::sync::{Mutex, MutexGuard, PoisonError};

static LOCK: Mutex<()> = Mutex::new(());

fn serialize() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Renders the full sweep (every in-sweep experiment) to one JSON blob.
fn sweep_json(jobs: usize) -> String {
    let experiments: Vec<_> = REGISTRY.iter().filter(|e| e.in_sweep()).copied().collect();
    let report = run_suite(&experiments, &SuiteConfig { jobs, trace: false });
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    let blobs: Vec<String> = report
        .results
        .iter()
        .map(flexsim_experiments::ExperimentResult::to_json)
        .collect();
    format!("[{}]", blobs.join(",\n"))
}

#[test]
fn sweep_output_is_byte_identical_with_telemetry_on_and_off() {
    let _guard = serialize();
    telemetry::disable();
    let off_1 = sweep_json(1);
    let off_4 = sweep_json(4);
    assert_eq!(off_1, off_4, "jobs levels diverged with telemetry off");

    telemetry::enable();
    telemetry::reset();
    let on_1 = sweep_json(1);
    let on_4 = sweep_json(4);
    telemetry::disable();

    assert_eq!(off_1, on_1, "telemetry perturbed the --jobs 1 output");
    assert_eq!(off_4, on_4, "telemetry perturbed the --jobs 4 output");
}

#[test]
fn stats_sweep_reports_every_phase_and_workers_reconcile() {
    let _guard = serialize();
    let (result, failures) = flexsim_experiments::stats::run(2, None);
    assert_eq!(failures, 0, "sweep failed under telemetry:\n{result}");
    // The flexcheck gate caches verdicts process-wide, so a sweep run
    // by an earlier test may have warmed it; `lint::run` opens the
    // flexcheck phase unconditionally, exactly as `flexsim lint` does.
    let (_lint, errors) = flexsim_experiments::lint::run();
    assert_eq!(errors, 0);
    let snap = telemetry::snapshot();
    telemetry::disable();

    for p in Phase::ALL {
        assert!(
            snap.phase_calls(p) > 0,
            "phase {} never fired (snapshot: {:?})",
            p.name(),
            snap.phases
        );
        let text = result.to_string();
        assert!(
            text.contains(p.name()),
            "{} missing from:\n{text}",
            p.name()
        );
    }
    assert!(!snap.workers.is_empty(), "no worker stats merged");
    for (i, w) in &snap.workers {
        assert_eq!(
            w.busy_us + w.idle_us,
            w.wall_us,
            "worker {i}: busy+idle must equal wall exactly: {w:?}"
        );
    }
    let tasks: u64 = snap.workers.iter().map(|(_, w)| w.tasks).sum();
    assert!(tasks > 0, "no tasks attributed to any worker");
    assert!(snap.queue_high_water > 0, "queue never saw a task");
    assert!(
        snap.experiment_wall.count() > 0,
        "experiment histogram is empty"
    );
    assert!(
        snap.layer_sim_wall.count() > 0,
        "layer-sim histogram is empty"
    );
    assert!(snap.task_wall.count() > 0, "task histogram is empty");
}

#[test]
fn panicking_experiment_dumps_flight_and_leaves_siblings_intact() {
    use flexsim_experiments::{Experiment, ExperimentCtx, ExperimentResult, Table};

    struct Fine;
    impl Experiment for Fine {
        fn id(&self) -> &'static str {
            "fine"
        }
        fn title(&self) -> &'static str {
            "completes"
        }
        fn run(&self, ctx: &ExperimentCtx) -> ExperimentResult {
            let vals = ctx.map((0..8).collect(), |i| format!("v{i}"), |_t, i: usize| i + 1);
            let mut table = Table::new(["sum"]);
            table.push_row([vals.iter().sum::<usize>().to_string()]);
            ExperimentResult {
                id: "fine".into(),
                title: "completes".into(),
                notes: vec![],
                table,
            }
        }
    }
    struct Poisoned;
    impl Experiment for Poisoned {
        fn id(&self) -> &'static str {
            "poisoned"
        }
        fn title(&self) -> &'static str {
            "panics in a task"
        }
        fn run(&self, ctx: &ExperimentCtx) -> ExperimentResult {
            ctx.map(
                vec![0usize, 1, 2],
                |i| format!("p{i}"),
                |_t, i: usize| {
                    assert!(i != 1, "flight-test boom at {i}");
                    i
                },
            );
            unreachable!("the map above must panic")
        }
    }

    let _guard = serialize();
    let dir = std::env::temp_dir().join(format!("flexsim_flight_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    telemetry::enable();
    telemetry::reset();
    telemetry::flight::set_dir(Some(&dir));

    let report = run_suite(
        &[&Fine, &Poisoned, &Fine],
        &SuiteConfig {
            jobs: 4,
            trace: false,
        },
    );

    telemetry::flight::set_dir(None);
    telemetry::disable();

    // Siblings of the poisoned experiment are intact.
    assert_eq!(report.results.len(), 3);
    assert_eq!(report.failures.len(), 1);
    assert_eq!(report.failures[0].id, "poisoned");
    assert!(report.failures[0].message.contains("flight-test boom at 1"));
    assert_eq!(report.results[0].table.rows()[0][0], "36");
    assert_eq!(report.results[2].table.rows()[0][0], "36");

    // At least one flight dump landed in the configured directory, and
    // it records the panic.
    let dumps: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("flight-") && n.ends_with(".json"))
        })
        .collect();
    assert!(!dumps.is_empty(), "no flight dump written to {dir:?}");
    let text = std::fs::read_to_string(&dumps[0]).unwrap();
    let doc = flexsim_testkit::json::Json::parse(&text).expect("flight dump parses");
    let flexsim_testkit::json::Json::Obj(fields) = &doc else {
        panic!("flight dump is not an object:\n{text}");
    };
    assert_eq!(
        fields.iter().find(|(k, _)| k == "flexsim_flight"),
        Some(&(
            "flexsim_flight".to_owned(),
            flexsim_testkit::json::Json::Int(1)
        )),
        "missing schema marker in {text}"
    );
    assert!(
        text.contains("task-panic") && text.contains("flight-test boom"),
        "panic event missing from dump:\n{text}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// The value under `key` in a JSON object.
fn get<'a>(doc: &'a Json, key: &str) -> &'a Json {
    let Json::Obj(fields) = doc else {
        panic!("not an object looking up {key:?}");
    };
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("no {key:?} field"))
}

#[test]
fn trace_and_telemetry_on_one_command_fold_the_same_spans() {
    let dir = std::env::temp_dir().join(format!("flexsim_trace_telemetry_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (trace, snap) = (dir.join("trace.json"), dir.join("telemetry.json"));
    let out = Command::new(env!("CARGO_BIN_EXE_flexsim"))
        .args(["--jobs", "2", "--trace"])
        .arg(&trace)
        .arg("--telemetry")
        .arg(&snap)
        .arg("all")
        .output()
        .expect("flexsim runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let read = |p: &std::path::Path| {
        std::fs::read_to_string(p).unwrap_or_else(|e| panic!("{} not written: {e}", p.display()))
    };
    let trace = Json::parse(&read(&trace)).expect("trace parses");
    let snap = Json::parse(&read(&snap)).expect("telemetry snapshot parses");
    let prom = read(&dir.join("telemetry.json.prom"));

    let Json::Arr(events) = get(&trace, "traceEvents") else {
        panic!("traceEvents is not an array");
    };
    let layer_spans = events
        .iter()
        .filter(|e| matches!(e, Json::Obj(f) if f.iter().any(|(k, v)| k == "cat" && *v == Json::str("layer"))))
        .count() as i64;
    let layer_samples = get(get(get(&snap, "histograms"), "layer_sim_wall_us"), "count");
    assert!(layer_spans > 0, "no layer spans traced");
    assert_eq!(*layer_samples, Json::Int(layer_spans));

    let Json::Arr(phases) = get(&snap, "phases") else {
        panic!("phases is not an array");
    };
    assert_eq!(phases.len(), Phase::ALL.len());
    for p in phases {
        assert!(
            matches!(get(p, "calls"), Json::Int(n) if *n > 0),
            "phase never fired: {}",
            p.compact()
        );
    }
    for p in Phase::ALL {
        let label = format!("phase=\"{}\"", p.name());
        assert!(
            prom.contains(&label),
            "{label} missing from the .prom:\n{prom}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
