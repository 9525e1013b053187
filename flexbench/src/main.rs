//! `flexbench --workload NAME [--seed S] [--seconds T] [--trace 0|1]`
//! runs one workload and prints its run record, then a result line;
//! `flexbench compare BASE.jsonl NEW.jsonl` compares two sets of run
//! records. Exit status: 0 on success, 1 when a pass failed (or, for
//! `compare`, a metric regressed), 2 on a usage or set-up error.

use flexbench::compare::compare;
use flexbench::run::{run, Config, Workload, FIXTURE_SEED};
use flexsim_testkit::json::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str =
    "usage: flexbench --workload NAME [--seed S] [--seconds T] [--trace 0|1]\n       \
                     flexbench compare BASE.jsonl NEW.jsonl";

fn parse(args: &[String], started: Instant) -> Result<Config, String> {
    let mut workload = None;
    let mut cfg = Config {
        workload: Workload::LayersSmall,
        seed: FIXTURE_SEED,
        seconds: 20.0,
        trace: false,
        expected: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/expected.json")),
        trace_out: PathBuf::new(),
        started,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload = Some(Workload::parse(name).ok_or_else(|| {
                    format!("unknown workload {name:?}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cfg.seconds >= 0.0 && cfg.seconds <= 3600.0) {
                    return Err("--seconds must be between 0 and 3600".to_owned());
                }
            }
            "--trace" => {
                cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from);
    cfg.trace_out = target.join(format!(
        "flexbench-trace-{}-{}.json",
        cfg.workload.name(),
        cfg.seed
    ));
    Ok(cfg)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, base, new] = args.as_slice() else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        let spec = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
        return match compare(Path::new(base), Path::new(new), spec) {
            Ok((report, regressed)) => {
                print!("{report}");
                ExitCode::from(u8::from(regressed))
            }
            Err(e) => {
                eprintln!("flexbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let cfg = match parse(&args, started) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("flexbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&cfg) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("flexbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", outcome.record.compact());
    let result = Json::obj([
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::Int(outcome.attempted as i64)),
        ("failed", Json::Int(outcome.failed as i64)),
        (
            "metrics",
            Json::obj(
                outcome
                    .metrics
                    .iter()
                    .map(|m| (m.name.clone(), m.result_json())),
            ),
        ),
    ]);
    println!("{}", result.compact());
    ExitCode::from(u8::from(!outcome.correct))
}
