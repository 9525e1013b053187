//! `flexsim bench` — wall-clock benchmarks and the perf-regression
//! tracking harness.
//!
//! Three subcommands, dispatched by [`run`]:
//!
//! * `bench sweep` — times the full experiment sweep serially and at
//!   the requested `--jobs` level and writes the comparison to
//!   `BENCH_pool.json`, tagged with the machine's available
//!   parallelism, the rustc version, and the git commit so a recorded
//!   speedup can never be mistaken for one measured elsewhere.
//! * `bench history` — times the sweep once, aggregates exact loss
//!   attribution over every (workload, architecture) pair, and appends
//!   one JSON line to [`HISTORY_FILE`]. The file is an append-only
//!   log: each entry carries enough provenance (jobs, parallelism,
//!   rustc, commit) to explain a wall-time shift.
//! * `bench check` — re-times the sweep and compares against the last
//!   entry of `--baseline` (default [`HISTORY_FILE`]): exits non-zero
//!   when wall time regressed more than `--threshold` percent
//!   (default [`DEFAULT_THRESHOLD_PCT`]). With no baseline file it
//!   reports the measurement and exits 0, so the first CI run on a
//!   fresh clone records rather than fails.
//!
//! Wall-clock comparisons are inherently machine-sensitive; the
//! default threshold is generous on purpose — the harness catches
//! "the sweep got 2× slower" regressions, not 5% noise.

use crate::arches::{run_pair, ALL_ARCHES, ARCH_NAMES};
use crate::cli::Bench;
use crate::experiment::{run_suite, sweep_set, Experiment, ExperimentCtx, SuiteConfig};
use crate::tune::VerifyMode;
use flexsim_model::workloads;
use flexsim_obs::attrib::StallCause;
use flexsim_testkit::json::Json;
use std::io::Write as _;
use std::time::Instant;

/// The append-only perf-regression log `bench history` writes and
/// `bench check` reads.
pub const HISTORY_FILE: &str = "BENCH_history.jsonl";

/// Percent wall-time slowdown `bench check` tolerates when
/// `--threshold` is not given.
pub const DEFAULT_THRESHOLD_PCT: u32 = 50;

/// Runs one `bench` subcommand at `jobs`, returning the process exit
/// code (0 ok, 1 regression/failure, 2 I/O error).
pub fn run(bench: &Bench, jobs: usize) -> i32 {
    match bench {
        Bench::Sweep => sweep(jobs),
        Bench::History => history(jobs),
        Bench::Check {
            baseline,
            threshold_pct,
        } => check(baseline, *threshold_pct, jobs),
    }
}

/// Times one full sweep at `jobs`; `Err(1)` when an experiment failed.
fn timed_sweep(experiments: &[&'static dyn Experiment], jobs: usize) -> Result<f64, i32> {
    let start = Instant::now();
    let report = run_suite(experiments, &SuiteConfig { jobs, trace: false });
    let wall_s = start.elapsed().as_secs_f64();
    if report.failures.is_empty() {
        Ok(wall_s)
    } else {
        for f in &report.failures {
            eprintln!("experiment {} FAILED: {}", f.id, f.message);
        }
        Err(1)
    }
}

/// `bench sweep`: serial vs `--jobs` wall time, into `BENCH_pool.json`.
fn sweep(jobs: usize) -> i32 {
    let experiments = sweep_set();
    let serial_s = match timed_sweep(&experiments, 1) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let parallel_s = match timed_sweep(&experiments, jobs) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let speedup = serial_s / parallel_s.max(1e-12);
    let doc = Json::obj(
        [
            ("bench", Json::str("sweep")),
            ("experiments", Json::Int(experiments.len() as i64)),
        ]
        .into_iter()
        .chain(honesty_fields())
        .chain([
            ("serial_jobs", Json::Int(1)),
            ("serial_wall_s", Json::Float(serial_s)),
            ("parallel_jobs", Json::Int(jobs as i64)),
            ("parallel_wall_s", Json::Float(parallel_s)),
            ("speedup", Json::Float(speedup)),
        ]),
    );
    let mut text = doc.pretty();
    text.push('\n');
    if let Err(e) = std::fs::write("BENCH_pool.json", text) {
        eprintln!("cannot write BENCH_pool.json: {e}");
        return 2;
    }
    eprintln!(
        "bench sweep: serial {serial_s:.3}s, --jobs {jobs} {parallel_s:.3}s \
         ({speedup:.2}x); wrote BENCH_pool.json"
    );
    0
}

/// `bench history`: one timed sweep + exact attribution, appended as a
/// JSON line to [`HISTORY_FILE`].
///
/// The sweep is timed twice — telemetry off, then on — so every entry
/// also records the host-phase wall breakdown and the measured
/// telemetry overhead, keeping the "telemetry is ≈free" claim gated
/// the same way wall-time regressions are. The entry also times the
/// smoke-budget tuner twice (engine verification vs `--static`
/// symbolic verification — the log is where the static path's speedup
/// is recorded) and the flexproof all-pairs sweep; a prove mismatch
/// refuses to record, keeping the history free of unproved entries.
fn history(jobs: usize) -> i32 {
    let experiments = sweep_set();
    let wall_s = match timed_sweep(&experiments, jobs) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let host = match telemetry_sweep(&experiments, jobs, wall_s) {
        Ok(h) => h,
        Err(code) => return code,
    };
    let attrib = attribution_totals();
    let tune_start = Instant::now();
    let tune = crate::tune::sweep_totals_with(jobs, VerifyMode::Engine);
    let tune_wall_s = tune_start.elapsed().as_secs_f64();
    let static_start = Instant::now();
    let tune_static = crate::tune::sweep_totals_with(jobs, VerifyMode::Static);
    let tune_static_wall_s = static_start.elapsed().as_secs_f64();
    assert_eq!(
        tune.recovered_pe_cycles, tune_static.recovered_pe_cycles,
        "static tuner verification diverged from the engine path"
    );
    let prove_start = Instant::now();
    let prove_ctx = ExperimentCtx::parallel("prove", jobs);
    let proofs = crate::prove::run_workloads(&prove_ctx, &workloads::all(), false);
    let prove_wall_s = prove_start.elapsed().as_secs_f64();
    if let Some(bad) = proofs.iter().find(|o| !o.proved()) {
        eprintln!(
            "bench history: prove sweep FAILED on {}/{} — refusing to record",
            bad.workload, bad.arch
        );
        return 1;
    }
    let timings = SweepTimings {
        tune_wall_s,
        tune_static_wall_s,
        prove_pairs: proofs.len(),
        prove_wall_s,
    };
    let entry = history_entry(
        unix_seconds(),
        wall_s,
        jobs,
        experiments.len(),
        honesty_fields(),
        &attrib,
        &tune,
        &timings,
        &host,
    );
    let mut line = entry.compact();
    line.push('\n');
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(HISTORY_FILE)
        .and_then(|mut f| f.write_all(line.as_bytes()));
    if let Err(e) = appended {
        eprintln!("cannot append to {HISTORY_FILE}: {e}");
        return 2;
    }
    eprintln!(
        "bench history: sweep {wall_s:.3}s at --jobs {jobs}, busy {} PE-cycles, \
         lost {} PE-cycles, telemetry overhead {:.1}%; appended to {HISTORY_FILE}",
        attrib.busy_pe_cycles,
        attrib.lost.iter().map(|(_, v)| v).sum::<u64>(),
        host.overhead_pct
    );
    0
}

/// Host-telemetry measurements for one history entry: the per-phase
/// exclusive wall totals from a telemetry-on sweep, and that sweep's
/// overhead relative to the telemetry-off wall time.
struct HostTotals {
    phase_us: Vec<(&'static str, u64)>,
    overhead_pct: f64,
}

/// Re-times the sweep with telemetry enabled and compares against the
/// already-measured `off_wall_s`. Telemetry state is reset before and
/// disabled after, so the measurement never leaks into the rest of the
/// process.
fn telemetry_sweep(
    experiments: &[&'static dyn Experiment],
    jobs: usize,
    off_wall_s: f64,
) -> Result<HostTotals, i32> {
    use flexsim_obs::telemetry;
    telemetry::enable();
    telemetry::reset();
    let on_wall_s = match timed_sweep(experiments, jobs) {
        Ok(s) => s,
        Err(code) => {
            telemetry::disable();
            return Err(code);
        }
    };
    let snap = telemetry::snapshot();
    telemetry::disable();
    // Recorded honestly, noise and all: on a sub-100ms sweep this can
    // even go negative (cache warming beats the probe cost). The
    // acceptance bar lives in the integration tests; the log is data.
    let overhead_pct = (on_wall_s - off_wall_s) / off_wall_s.max(1e-9) * 100.0;
    Ok(HostTotals {
        phase_us: snap
            .phases
            .iter()
            .map(|&(p, _, us)| (p.name(), us))
            .collect(),
        overhead_pct,
    })
}

/// `bench check`: re-time the sweep and gate on the recorded baseline.
fn check(path: &str, threshold: u32, jobs: usize) -> i32 {
    let baseline = match baseline_wall_s(path) {
        Ok(b) => b,
        Err(msg) => {
            eprintln!("flexsim: {msg}");
            return 2;
        }
    };
    let tune_baseline = match baseline_tune_recovered(path) {
        Ok(b) => b,
        Err(msg) => {
            eprintln!("flexsim: {msg}");
            return 2;
        }
    };
    let experiments = sweep_set();
    let wall_s = match timed_sweep(&experiments, jobs) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let mut code = match baseline {
        None => {
            eprintln!(
                "bench check: no baseline at {path}; measured {wall_s:.3}s \
                 (recording only — run `flexsim bench history` to create one)"
            );
            0
        }
        Some(base) => {
            if regressed(base, wall_s, threshold) {
                eprintln!(
                    "bench check: REGRESSION — sweep took {wall_s:.3}s vs baseline \
                     {base:.3}s (> {threshold}% slower; baseline {path})"
                );
                1
            } else {
                eprintln!(
                    "bench check: ok — sweep took {wall_s:.3}s vs baseline {base:.3}s \
                     (threshold {threshold}%; baseline {path})"
                );
                0
            }
        }
    };
    // Tuner quality gate: recovered PE-cycles are a deterministic
    // simulated quantity (no wall-clock noise), so *any* drop below
    // the recorded baseline is a regression.
    if let Some(base_recovered) = tune_baseline {
        let tune = crate::tune::sweep_totals(jobs);
        if tune.recovered_pe_cycles < base_recovered {
            eprintln!(
                "bench check: TUNER REGRESSION — smoke-budget sweep recovers {} \
                 PE-cycles vs baseline {base_recovered} (baseline {path})",
                tune.recovered_pe_cycles
            );
            code = 1;
        } else {
            eprintln!(
                "bench check: tune ok — smoke-budget sweep recovers {} PE-cycles \
                 (baseline {base_recovered})",
                tune.recovered_pe_cycles
            );
        }
    }
    code
}

/// The regression predicate: `measured` exceeds `baseline` by more
/// than `threshold_pct` percent.
fn regressed(baseline_s: f64, measured_s: f64, threshold_pct: u32) -> bool {
    measured_s > baseline_s * (1.0 + f64::from(threshold_pct) / 100.0)
}

/// The last entry of the baseline file, parsed; `Ok(None)` when the
/// file does not exist (fresh clone) or holds no entries, `Err` when
/// it exists but cannot be understood (a corrupt baseline must not
/// silently pass the gate).
fn baseline_entry(path: &str) -> Result<Option<Json>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("cannot read baseline {path}: {e}")),
    };
    let Some(last) = text.lines().rev().find(|l| !l.trim().is_empty()) else {
        return Ok(None);
    };
    Json::parse(last)
        .map(Some)
        .map_err(|e| format!("baseline {path}: bad last line: {e:?}"))
}

/// The `wall_s` of the last entry in the baseline file (see
/// [`baseline_entry`] for the `Ok(None)`/`Err` contract).
fn baseline_wall_s(path: &str) -> Result<Option<f64>, String> {
    match baseline_entry(path)? {
        None => Ok(None),
        Some(doc) => json_field(&doc, "wall_s")
            .and_then(json_f64)
            .map(Some)
            .ok_or_else(|| format!("baseline {path}: last line has no numeric \"wall_s\"")),
    }
}

/// The `tune_recovered_pe_cycles` of the last baseline entry, when the
/// baseline predates the tuner `None` (old logs stay valid baselines).
fn baseline_tune_recovered(path: &str) -> Result<Option<i64>, String> {
    Ok(baseline_entry(path)?
        .as_ref()
        .and_then(|doc| json_field(doc, "tune_recovered_pe_cycles"))
        .and_then(json_f64)
        .map(|v| v as i64))
}

/// Workload-sweep attribution totals: busy PE-cycles plus lost
/// PE-cycles per cause, summed over every Table 1 workload on all four
/// architectures. Panics (via the ledger exactness assert) if any
/// simulator's attribution stopped balancing — the bench log must
/// never record inexact numbers.
struct AttributionTotals {
    busy_pe_cycles: u64,
    lost: Vec<(&'static str, u64)>,
}

fn attribution_totals() -> AttributionTotals {
    let mut busy = 0u64;
    let mut lost = [0u64; StallCause::COUNT];
    for net in workloads::all() {
        for idx in ALL_ARCHES {
            let run = run_pair(&net, idx, false);
            assert!(
                run.diags.is_empty(),
                "{}/{}: {}",
                net.name(),
                run.arch,
                flexcheck::render(&run.diags)
            );
            for ledger in &run.ledgers {
                busy += ledger.busy_pe_cycles;
                for cause in StallCause::ALL {
                    lost[cause.index()] += ledger.lost(cause);
                }
            }
        }
    }
    AttributionTotals {
        busy_pe_cycles: busy,
        lost: StallCause::ALL
            .iter()
            .map(|c| (c.name(), lost[c.index()]))
            .collect(),
    }
}

/// Wall times of the verification sweeps a history entry records
/// alongside the experiment sweep: the tuner with engine verification,
/// the tuner with static (symbolic) verification, and the flexproof
/// all-pairs proof sweep.
struct SweepTimings {
    tune_wall_s: f64,
    tune_static_wall_s: f64,
    prove_pairs: usize,
    prove_wall_s: f64,
}

/// The provenance fields every bench artifact carries — machine
/// parallelism, compiler, commit, and the spatial-instrumentation
/// probe — produced in one place so `BENCH_pool.json`,
/// `BENCH_tune.json`, and [`HISTORY_FILE`] can never drift apart in
/// what "honest numbers" means.
pub(crate) fn honesty_fields() -> [(&'static str, Json); 5] {
    let spatial = spatial_probe();
    [
        (
            "available_parallelism",
            Json::Int(flexsim_pool::available_parallelism() as i64),
        ),
        ("rustc", Json::str(rustc_version())),
        ("commit", Json::str(git_commit())),
        ("heatmap_cells", Json::Int(spatial.cells as i64)),
        ("spatial_overhead_pct", Json::Float(spatial.overhead_pct)),
    ]
}

/// The spatial-probe measurements: how many heatmap cells one
/// reference run records, and the wall-clock overhead of recording
/// them.
struct SpatialProbe {
    cells: u64,
    overhead_pct: f64,
}

/// Times a reference workload (LeNet-5 on FlexFlow) with a cycle
/// recorder attached, with and without spatial records. The cell count
/// documents the heatmap volume behind the overhead number; the
/// overhead keeps the "spatial observability is cheap when attached"
/// claim on the record, noise and all (like the telemetry overhead,
/// the acceptance bar lives in the integration tests — the log is
/// data).
fn spatial_probe() -> SpatialProbe {
    let net = workloads::lenet5();
    let timed = |spatial: bool| {
        let start = Instant::now();
        let run = run_pair(&net, ARCH_NAMES.len() - 1, spatial);
        (start.elapsed().as_secs_f64(), run.spatials)
    };
    let (plain_s, _) = timed(false);
    let (spatial_s, spatials) = timed(true);
    let cells = spatials.iter().map(|sp| sp.pe_count() as u64).sum::<u64>();
    SpatialProbe {
        cells,
        overhead_pct: (spatial_s - plain_s) / plain_s.max(1e-9) * 100.0,
    }
}

/// Workload-count honesty fields for a history entry: how many
/// workloads were resolvable when the line was recorded, split into
/// built-ins and discovered `.ffnet` files — so a wall-time or
/// attribution shift caused by the workload set growing is
/// attributable from the log alone.
fn workload_counts() -> [(&'static str, Json); 3] {
    use flexsim_model::registry::WorkloadSource;
    let entries = crate::frontend::registry().entries();
    let builtin = entries
        .iter()
        .filter(|e| e.source == WorkloadSource::Builtin)
        .count();
    [
        ("workloads_total", Json::Int(entries.len() as i64)),
        ("workloads_builtin", Json::Int(builtin as i64)),
        (
            "workloads_ffnet",
            Json::Int((entries.len() - builtin) as i64),
        ),
    ]
}

/// One history line, keys in stable order.
#[allow(clippy::too_many_arguments)] // a serialization boundary, not an API
fn history_entry(
    ts_unix: u64,
    wall_s: f64,
    jobs: usize,
    experiments: usize,
    honesty: [(&'static str, Json); 5],
    attrib: &AttributionTotals,
    tune: &crate::tune::SweepTotals,
    timings: &SweepTimings,
    host: &HostTotals,
) -> Json {
    Json::obj(
        [
            ("bench", Json::str("history")),
            ("ts_unix", Json::Int(ts_unix as i64)),
            ("wall_s", Json::Float(wall_s)),
            ("jobs", Json::Int(jobs as i64)),
            ("experiments", Json::Int(experiments as i64)),
        ]
        .into_iter()
        .chain(honesty)
        .chain(workload_counts())
        .chain([
            ("busy_pe_cycles", Json::Int(attrib.busy_pe_cycles as i64)),
            (
                "lost_pe_cycles",
                Json::obj(
                    attrib
                        .lost
                        .iter()
                        .map(|&(name, v)| (name, Json::Int(v as i64))),
                ),
            ),
            ("tune_budget", Json::str("smoke")),
            (
                "tune_recovered_pe_cycles",
                Json::Int(tune.recovered_pe_cycles),
            ),
            (
                "tune_workloads_improved",
                Json::Int(tune.workloads_improved as i64),
            ),
            ("tune_wall_s", Json::Float(timings.tune_wall_s)),
            (
                "tune_static_wall_s",
                Json::Float(timings.tune_static_wall_s),
            ),
            ("prove_pairs", Json::Int(timings.prove_pairs as i64)),
            ("prove_wall_s", Json::Float(timings.prove_wall_s)),
            (
                "host_phase_us",
                Json::obj(
                    host.phase_us
                        .iter()
                        .map(|&(name, us)| (name, Json::Int(us as i64))),
                ),
            ),
            ("telemetry_overhead_pct", Json::Float(host.overhead_pct)),
        ]),
    )
}

/// Seconds since the Unix epoch (0 if the clock is before it).
fn unix_seconds() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// `rustc -V`, or `"unknown"` when the compiler is not on PATH.
pub(crate) fn rustc_version() -> String {
    command_line("rustc", &["-V"])
}

/// Short git commit hash, or `"unknown"` outside a repository.
pub(crate) fn git_commit() -> String {
    command_line("git", &["rev-parse", "--short", "HEAD"])
}

/// First stdout line of a subprocess, `"unknown"` on any failure.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Looks up `key` in a JSON object.
fn json_field<'a>(doc: &'a Json, key: &str) -> Option<&'a Json> {
    match doc {
        Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// Numeric value of an `Int` or `Float` node.
fn json_f64(v: &Json) -> Option<f64> {
    match v {
        Json::Int(i) => Some(*i as f64),
        Json::Float(f) => Some(*f),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regression_predicate_uses_the_threshold() {
        assert!(!regressed(10.0, 10.0, 50));
        assert!(!regressed(10.0, 14.9, 50));
        assert!(regressed(10.0, 15.1, 50));
        assert!(regressed(1.0, 1.3, 25));
        assert!(!regressed(1.0, 1.2, 25));
    }

    #[test]
    fn history_entry_round_trips_and_keeps_wall_s_extractable() {
        let attrib = AttributionTotals {
            busy_pe_cycles: 123,
            lost: StallCause::ALL.iter().map(|c| (c.name(), 7)).collect(),
        };
        let tune = crate::tune::SweepTotals {
            recovered_pe_cycles: 4_096,
            workloads_improved: 4,
        };
        let host = HostTotals {
            phase_us: vec![("parse", 11), ("simulate", 42_000)],
            overhead_pct: 1.5,
        };
        let timings = SweepTimings {
            tune_wall_s: 3.5,
            tune_static_wall_s: 0.25,
            prove_pairs: 24,
            prove_wall_s: 0.75,
        };
        let honesty = [
            ("available_parallelism", Json::Int(16)),
            ("rustc", Json::str("rustc 1.x")),
            ("commit", Json::str("abc1234")),
            ("heatmap_cells", Json::Int(1024)),
            ("spatial_overhead_pct", Json::Float(0.5)),
        ];
        let entry = history_entry(
            1_700_000_000,
            4.25,
            8,
            17,
            honesty,
            &attrib,
            &tune,
            &timings,
            &host,
        );
        let line = entry.compact();
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(parsed, entry);
        assert_eq!(json_field(&parsed, "wall_s").and_then(json_f64), Some(4.25));
        assert_eq!(json_field(&parsed, "commit"), Some(&Json::str("abc1234")));
        assert_eq!(json_field(&parsed, "heatmap_cells"), Some(&Json::Int(1024)));
        assert_eq!(
            json_field(&parsed, "spatial_overhead_pct").and_then(json_f64),
            Some(0.5)
        );
        assert_eq!(
            json_field(&parsed, "tune_static_wall_s").and_then(json_f64),
            Some(0.25)
        );
        assert_eq!(json_field(&parsed, "prove_pairs"), Some(&Json::Int(24)));
        assert_eq!(
            json_field(&parsed, "prove_wall_s").and_then(json_f64),
            Some(0.75)
        );
        let lost = json_field(&parsed, "lost_pe_cycles").unwrap();
        for cause in StallCause::ALL {
            assert_eq!(json_field(lost, cause.name()), Some(&Json::Int(7)));
        }
        assert_eq!(
            json_field(&parsed, "tune_recovered_pe_cycles"),
            Some(&Json::Int(4_096))
        );
        let phases = json_field(&parsed, "host_phase_us").unwrap();
        assert_eq!(json_field(phases, "simulate"), Some(&Json::Int(42_000)));
        assert_eq!(
            json_field(&parsed, "telemetry_overhead_pct").and_then(json_f64),
            Some(1.5)
        );
    }

    #[test]
    fn tune_baseline_is_optional_in_old_logs() {
        let dir = std::env::temp_dir();
        let old = dir.join("flexsim_bench_pre_tune_test.jsonl");
        std::fs::write(&old, "{\"wall_s\": 2.0}\n").unwrap();
        // A log written before the tuner existed gates wall time only.
        assert_eq!(
            baseline_tune_recovered(old.to_str().unwrap()).unwrap(),
            None
        );
        let new = dir.join("flexsim_bench_with_tune_test.jsonl");
        std::fs::write(
            &new,
            "{\"wall_s\": 2.0, \"tune_recovered_pe_cycles\": 123}\n",
        )
        .unwrap();
        assert_eq!(
            baseline_tune_recovered(new.to_str().unwrap()).unwrap(),
            Some(123)
        );
        for f in [old, new] {
            let _ = std::fs::remove_file(f);
        }
    }

    #[test]
    fn baseline_reader_handles_missing_empty_and_corrupt_files() {
        // Missing file: fresh clone, no baseline.
        assert_eq!(
            baseline_wall_s("bench_test_definitely_missing.jsonl").unwrap(),
            None
        );
        let dir = std::env::temp_dir();
        let empty = dir.join("flexsim_bench_empty_test.jsonl");
        std::fs::write(&empty, "\n\n").unwrap();
        assert_eq!(baseline_wall_s(empty.to_str().unwrap()).unwrap(), None);
        let corrupt = dir.join("flexsim_bench_corrupt_test.jsonl");
        std::fs::write(&corrupt, "{not json\n").unwrap();
        assert!(baseline_wall_s(corrupt.to_str().unwrap()).is_err());
        let good = dir.join("flexsim_bench_good_test.jsonl");
        std::fs::write(&good, "{\"wall_s\": 1.0}\n{\"wall_s\": 2.5}\n").unwrap();
        assert_eq!(baseline_wall_s(good.to_str().unwrap()).unwrap(), Some(2.5));
        for f in [empty, corrupt, good] {
            let _ = std::fs::remove_file(f);
        }
    }

    #[test]
    fn honesty_fields_carry_the_spatial_probe() {
        let fields = honesty_fields();
        let keys: Vec<&str> = fields.iter().map(|(k, _)| *k).collect();
        assert_eq!(
            keys,
            [
                "available_parallelism",
                "rustc",
                "commit",
                "heatmap_cells",
                "spatial_overhead_pct"
            ]
        );
        // The probe actually records cells: LeNet-5 on the 16×16
        // FlexFlow engine yields 256 per CONV layer.
        match &fields[3].1 {
            Json::Int(cells) => assert!(*cells > 0, "no heatmap cells recorded"),
            other => panic!("heatmap_cells is not an integer: {other:?}"),
        }
        assert!(matches!(fields[4].1, Json::Float(_)));
    }

    #[test]
    fn subprocess_probes_never_panic() {
        // Whatever the environment, these must degrade to "unknown",
        // not fail — CI containers may lack git metadata.
        assert!(!rustc_version().is_empty());
        assert!(!git_commit().is_empty());
        assert_eq!(command_line("flexsim-no-such-binary", &[]), "unknown");
    }

    #[test]
    fn attribution_totals_cover_multiple_causes() {
        let attrib = attribution_totals();
        assert!(attrib.busy_pe_cycles > 0);
        let nonzero = attrib.lost.iter().filter(|(_, v)| *v > 0).count();
        assert!(
            nonzero >= 4,
            "expected several causes, got {:?}",
            attrib.lost
        );
    }
}
