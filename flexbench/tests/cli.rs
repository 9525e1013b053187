//! Whole runs: every workload smoke-runs one checked pass, a corrupted
//! expected count fails every pass, and a traced run reports every
//! per-layer metric and writes a Chrome trace.

use flexbench::run::{run, Config, Workload, FIXTURE_SEED};
use flexsim_testkit::json::Json;
use std::path::PathBuf;
use std::process::{Command, Output};
use std::time::Instant;

fn flexbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_flexbench"))
        .args(args)
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("flexbench runs")
}

fn field<'a>(doc: &'a Json, key: &str) -> &'a Json {
    match doc {
        Json::Obj(pairs) => {
            &pairs
                .iter()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("no {key}"))
                .1
        }
        _ => panic!("not an object"),
    }
}

/// The result line (last line of stdout) and the run record before it.
fn result(out: &Output) -> (Json, Json) {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    let [.., record, result] = lines.as_slice() else {
        panic!("expected a record and a result line, got {stdout:?}");
    };
    (
        Json::parse(result).expect("result JSON"),
        Json::parse(record).expect("record JSON"),
    )
}

fn metric_names(doc: &Json) -> Vec<String> {
    match field(doc, "metrics") {
        Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.clone()).collect(),
        _ => panic!("metrics is not an object"),
    }
}

#[test]
fn every_workload_smoke_runs_one_checked_pass() {
    for w in [
        "layers-small",
        "layers-large",
        "network-exec",
        "analytic-suite",
        "tune-search",
    ] {
        let out = flexbench(&["--workload", w, "--seconds", "0"]);
        assert!(
            out.status.success(),
            "{w}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let (res, record) = result(&out);
        assert_eq!(field(&res, "correct"), &Json::Bool(true), "{w}");
        assert_eq!(field(&res, "attempted"), &Json::Int(1), "{w}");
        assert_eq!(field(&res, "failed"), &Json::Int(0), "{w}");
        assert_eq!(
            metric_names(&res),
            ["setup_s", "pass_s", "work_per_s", "peak_rss_mib"],
            "{w}"
        );
        assert_eq!(field(&record, "workload"), &Json::str(w));
        for key in ["available_parallelism", "rustc", "commit"] {
            field(&record, key);
        }
    }
}

/// Through the library: the binary reads only the committed counts, and
/// it exits 1 on a run that is not `correct`.
#[test]
fn a_corrupted_expected_count_fails_every_pass() {
    let good =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/expected.json")).unwrap();
    let bad = good.replace(
        "\"core.engine.execute.conv_steps\": 27",
        "\"core.engine.execute.conv_steps\": 28",
    );
    assert_ne!(good, bad, "the count to corrupt is in expected.json");
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let path = tmp.join("corrupt-expected.json");
    std::fs::write(&path, bad).unwrap();
    let outcome = run(&Config {
        workload: Workload::NetworkExec,
        seed: FIXTURE_SEED,
        seconds: 0.0,
        trace: false,
        expected: path,
        trace_out: tmp.join("unused-trace.json"),
        started: Instant::now(),
    })
    .expect("set-up succeeds");
    assert!(!outcome.correct);
    assert_eq!(outcome.attempted, 1);
    assert_eq!(outcome.failed, outcome.attempted);
    let failed_frac = field(
        field(field(&outcome.record, "metrics"), "failed_frac"),
        "value",
    );
    assert_eq!(failed_frac, &Json::Float(1.0));
}

#[test]
fn a_traced_run_reports_every_per_layer_metric_and_a_parsable_trace() {
    let out = flexbench(&[
        "--workload",
        "network-exec",
        "--seconds",
        "0",
        "--trace",
        "1",
        "--seed",
        "9",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let (res, record) = result(&out);
    let emitted = metric_names(&res);
    let listed: Vec<String> =
        flexbench::metrics::per_layer(&[], &[], &Default::default(), &[], &[])
            .into_iter()
            .map(|m| m.name)
            .collect();
    assert_eq!(emitted, listed);
    let value = |name: &str| match field(field(field(&res, "metrics"), name), "value") {
        Json::Float(v) => *v,
        Json::Int(v) => *v as f64,
        other => panic!("{name}: {other:?}"),
    };
    assert_eq!(value("core.engine.execute.conv_steps"), 27.0);
    assert!(value("core.engine.execute.us.resnet-block") > 0.0);
    assert!(value("model.registry.resolve.us") > 0.0);
    let Json::Str(path) = field(&record, "trace_file") else {
        panic!("no trace file")
    };
    let trace = Json::parse(&std::fs::read_to_string(path).unwrap()).expect("trace parses");
    let Json::Arr(events) = field(&trace, "traceEvents") else {
        panic!("no events")
    };
    assert!(events.len() > 10);
}
