//! Observability integration: the cycle-domain trace and the Chrome
//! exporter must agree with the simulators' analytic results, and the
//! `flexsim` binary must expose the trace.
//!
//! Tests that touch process-global observability state (the span
//! recorder) serialize on a local mutex; the file is its own test
//! binary, so nothing else races.

use flexsim_experiments::arches::{self, ArchSet};
use flexsim_experiments::{find, frontend, heatmap, profile, prove, run_suite};
use flexsim_experiments::{ExperimentCtx, SuiteConfig};
use flexsim_obs::chrome::chrome_trace;
use flexsim_obs::cycles::{LayerTimeline, Recorder, SinkHandle};
use flexsim_obs::span;
use flexsim_obs::spatial::LayerSpatial;
use flexsim_testkit::json::Json;
use std::sync::{Arc, Barrier, Mutex, MutexGuard};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One recorder shared by four simulators on four threads keeps every
/// layer whole: each architecture's timelines and spatial records,
/// taken from the shared recorder, equal what a private recorder gets
/// from a serial run.
#[test]
fn concurrent_simulators_share_one_recorder_without_interleaving() {
    let _guard = serial();
    for net in flexsim_model::workloads::all() {
        let serial_runs: Vec<(Vec<LayerTimeline>, Vec<LayerSpatial>)> = ArchSet::builder()
            .build(&net)
            .into_iter()
            .map(|mut acc| {
                let rec = Arc::new(Recorder::with_spatial());
                acc.attach_sink(SinkHandle::new(rec.clone()));
                acc.run_network(&net);
                (rec.take(), rec.take_spatial())
            })
            .collect();
        let shared = Arc::new(Recorder::with_spatial());
        let accs = ArchSet::builder()
            .sink(SinkHandle::new(shared.clone()))
            .build(&net);
        // Release all four at once so their layers overlap in time.
        let start = Barrier::new(accs.len());
        std::thread::scope(|scope| {
            for mut acc in accs {
                let (net, start) = (&net, &start);
                scope.spawn(move || {
                    start.wait();
                    acc.run_network(net)
                });
            }
        });
        let (timelines, spatials) = (shared.take(), shared.take_spatial());
        for (arch, (want_tl, want_sp)) in arches::ARCH_NAMES.iter().zip(&serial_runs) {
            let tag = format!("{}/{arch}", net.name());
            let got_tl: Vec<&LayerTimeline> =
                timelines.iter().filter(|t| t.ctx.arch == *arch).collect();
            let got_sp: Vec<&LayerSpatial> = spatials.iter().filter(|s| s.arch == *arch).collect();
            assert_eq!(
                got_tl,
                want_tl.iter().collect::<Vec<_>>(),
                "{tag}: timelines"
            );
            assert_eq!(got_sp, want_sp.iter().collect::<Vec<_>>(), "{tag}: spatial");
        }
        assert_eq!(timelines.len(), serial_runs.iter().map(|r| r.0.len()).sum());
    }
}

/// The Chrome export is parseable by the testkit parser, round-trips
/// byte-for-byte, and carries host spans plus experiment-tagged cycle
/// timelines for all four architectures — with the parallel (`jobs=2`)
/// trace path, not the deprecated global sink.
#[test]
fn chrome_trace_round_trips_with_all_architectures() {
    let _guard = serial();
    // `install_recorder` resets the buffer, so nothing a prior test
    // recorded leaks in.
    span::install_recorder();
    let report = run_suite(
        &[find("fig15").expect("fig15 exists")],
        &SuiteConfig {
            jobs: 2,
            trace: true,
        },
    );
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    assert_eq!(report.results[0].id, "fig15");

    let spans = span::take_records();
    let timelines = report.timelines;
    assert!(!spans.is_empty(), "no host spans recorded");
    // fig15 = 6 workloads × 4 architectures, every layer traced.
    assert!(timelines.len() >= 24, "only {} timelines", timelines.len());
    // Every timeline is attributed to its owning experiment.
    for tl in &timelines {
        assert_eq!(tl.ctx.experiment, "fig15", "{}", tl.ctx.layer);
    }

    let doc = chrome_trace(&spans, &timelines);
    let text = doc.pretty();
    let parsed = Json::parse(&text).expect("exporter output parses");
    assert_eq!(parsed, doc, "parse(pretty(doc)) is not identity");

    let events = field(&parsed, "traceEvents").and_then(as_arr).unwrap();
    // Process-name metadata announces the host and all four simulators.
    let process_names: Vec<&str> = events
        .iter()
        .filter(|e| str_field(e, "ph") == Some("M") && str_field(e, "name") == Some("process_name"))
        .filter_map(|e| field(e, "args").and_then(|a| as_str(field(a, "name")?)))
        .collect();
    assert!(process_names.contains(&"host"), "{process_names:?}");
    for arch in arches::ARCH_NAMES {
        let sim = format!("sim:{arch}");
        assert!(
            process_names.iter().any(|n| *n == sim),
            "missing {sim} in {process_names:?}"
        );
    }
    // Host spans (pid 0) include experiment and per-task tiers; pids
    // 1.. carry the cycle-domain events.
    let cats: Vec<&str> = events.iter().filter_map(|e| str_field(e, "cat")).collect();
    for cat in ["experiment", "task"] {
        assert!(cats.contains(&cat), "no {cat} span in {cats:?}");
    }
    let sim_events = events
        .iter()
        .filter(|e| str_field(e, "ph") == Some("X") && int_field(e, "pid").unwrap_or(0) > 0)
        .count();
    assert!(sim_events > 0, "no cycle-domain events exported");
    // The experiment tag rides into the exported thread names.
    let thread_names: Vec<&str> = events
        .iter()
        .filter(|e| str_field(e, "ph") == Some("M") && str_field(e, "name") == Some("thread_name"))
        .filter_map(|e| field(e, "args").and_then(|a| as_str(field(a, "name")?)))
        .collect();
    assert!(
        thread_names.iter().any(|n| n.starts_with("fig15/")),
        "no experiment-prefixed thread name in {thread_names:?}"
    );
}

/// `run`, `profile`, `heatmap` and `prove`, traced into one recorder,
/// each record one timeline per (architecture, CONV layer) they price,
/// with the arch, layer and events `fig15` records for that pair; only
/// the experiment tag differs.
#[test]
fn every_pair_command_traces_the_layers_it_prices() {
    let nets = flexsim_model::workloads::all();
    let lenet = nets.iter().position(|n| n.name() == "LeNet-5").unwrap();
    let fig15 = run_suite(
        &[find("fig15").expect("fig15 exists")],
        &SuiteConfig {
            jobs: 1,
            trace: true,
        },
    )
    .timelines;
    // fig15 runs the nets network-major, one timeline per CONV layer.
    let per_net = |n: &flexsim_model::Network| n.conv_layers().count() * arches::ARCH_NAMES.len();
    let skip: usize = nets[..lenet].iter().map(per_net).sum();
    let want = &fig15[skip..skip + per_net(&nets[lenet])];
    assert_eq!(want.len(), 8);
    let net = &nets[lenet];
    let one = std::slice::from_ref(net);
    let trace = Arc::new(Recorder::new());
    let ctx = |id: &str| ExperimentCtx::parallel(id, 2).traced(trace.clone());
    let check = |id: &str| {
        let got = trace.take();
        assert_eq!(got.len(), want.len(), "{id}");
        for (got, want) in got.iter().zip(want) {
            assert_eq!(got.ctx.experiment, id);
            assert_eq!(want.ctx.experiment, "fig15");
            assert_eq!(
                (&got.ctx.arch, &got.ctx.layer, &got.events),
                (&want.ctx.arch, &want.ctx.layer, &want.events),
                "{id}"
            );
        }
    };
    assert_eq!(frontend::run(&ctx("run"), net, "lenet5", false).1, 0);
    check("run");
    profile::run_workloads(&ctx("profile"), one);
    check("profile");
    let (_, code) = heatmap::heatmap(&ctx("heatmap"), net, "lenet5", None, false, false).unwrap();
    assert_eq!(code, 0);
    check("heatmap");
    let outcomes = prove::run_workloads(&ctx("prove"), one, false);
    assert!(outcomes.iter().all(prove::ProveOutcome::proved));
    check("prove");
}

/// Unknown flags, missing flag values, and ambiguous command lines
/// (two commands, stray arguments, another command's options) must
/// fail with a reason, the usage text and exit 2 — never be silently
/// ignored or mis-dispatched.
#[test]
fn flexsim_binary_rejects_bad_arguments() {
    for (args, needle) in [
        (vec!["--bogus"], "unknown option"),
        (vec!["--jsno", "all"], "unknown option"),
        (vec!["--metrics", "fig15"], "unknown option"),
        (vec!["--out"], "--out requires"),
        (vec!["--out", "--json", "fig15"], "--out requires"),
        (vec!["--trace"], "--trace requires"),
        (vec!["--jobs"], "--jobs requires"),
        (vec!["--jobs", "zero", "all"], "--jobs requires"),
        (vec!["--jobs", "0", "all"], "--jobs requires"),
        (vec!["run", "lenet", "tune"], "two commands"),
        (vec!["lint", "run", "lenet"], "two commands"),
        (vec!["tune", "prove", "pv"], "two commands"),
        (vec!["stats", "nope"], "stats takes no arguments"),
        (
            vec!["fig15", "--svg"],
            "--svg is an option of `heatmap` only",
        ),
        (
            vec!["fig15", "--mutate"],
            "--mutate is an option of `prove` only",
        ),
        (
            vec!["workloads", "--arch", "sys"],
            "--arch is an option of `heatmap` only",
        ),
        (
            vec![
                "heatmap", "lenet", "--budget", "smoke", "--mutate", "--static",
            ],
            "is an option of `",
        ),
        (
            vec!["profile", "lenet", "pv"],
            "profile takes at most one workload",
        ),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_flexsim"))
            .args(&args)
            .output()
            .expect("flexsim runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} should fail");
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: flexsim"), "{args:?}: {stderr}");
    }
}

/// A reader that closes the pipe early (`flexsim ... | head`) ends the
/// output quietly: no panic, and not the panic status 101. The SVG
/// heatmap is far larger than a pipe buffer, so the write must hit
/// the closed pipe.
#[test]
fn flexsim_survives_a_closed_stdout_pipe() {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_flexsim"))
        .args(["--svg", "heatmap", "lenet"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("flexsim runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("flexsim exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
}

/// End to end: `flexsim --jobs 2 --trace FILE fig15` writes a Chrome
/// trace that parses, names all four architectures and the pool
/// worker's host row, and carries no second copy of the ledgers
/// (`otherData` holds only `cycle_unit`). `run lenet5` traces its 8
/// (architecture, CONV layer) timelines.
#[test]
fn flexsim_trace_flag_writes_loadable_chrome_trace() {
    let dir = std::env::temp_dir().join(format!("flexsim-obs-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("out.json");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_flexsim"))
        .args(["--jobs", "2", "--trace", file.to_str().unwrap(), "fig15"])
        .output()
        .expect("flexsim runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("layer timelines"), "{stderr}");

    let text = std::fs::read_to_string(&file).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let parsed = Json::parse(&text).expect("trace file parses");
    let other_keys: Vec<&str> = match field(&parsed, "otherData") {
        Some(Json::Obj(pairs)) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("otherData is not an object: {other:?}"),
    };
    assert_eq!(other_keys, ["cycle_unit"]);
    let events = field(&parsed, "traceEvents").and_then(as_arr).unwrap();
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| field(e, "args").and_then(|a| as_str(field(a, "name")?)))
        .collect();
    for arch in arches::ARCH_NAMES {
        let sim = format!("sim:{arch}");
        assert!(names.iter().any(|n| *n == sim), "missing {sim}");
    }
    // The spawned pool worker labelled its host row while recording.
    assert!(
        names.contains(&"flexsim-pool-1"),
        "no flexsim-pool-1 row: {names:?}"
    );
    assert!(
        events
            .iter()
            .any(|e| str_field(e, "cat") == Some("experiment")),
        "no host experiment span in the written trace"
    );

    std::fs::create_dir_all(&dir).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_flexsim"))
        .args(["--trace", file.to_str().unwrap(), "run", "lenet5"])
        .output()
        .expect("flexsim runs");
    std::fs::remove_dir_all(&dir).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    assert!(stderr.contains(", 8 layer timelines"), "{stderr}");
}

fn field<'a>(v: &'a Json, name: &str) -> Option<&'a Json> {
    match v {
        Json::Obj(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
        _ => None,
    }
}

fn as_arr(v: &Json) -> Option<&[Json]> {
    match v {
        Json::Arr(items) => Some(items),
        _ => None,
    }
}

fn as_str(v: &Json) -> Option<&str> {
    match v {
        Json::Str(s) => Some(s),
        _ => None,
    }
}

fn str_field<'a>(v: &'a Json, name: &str) -> Option<&'a str> {
    field(v, name).and_then(as_str)
}

fn int_field(v: &Json, name: &str) -> Option<i64> {
    match field(v, name) {
        Some(Json::Int(i)) => Some(*i),
        _ => None,
    }
}
