//! `flexsim bench` — the perf-regression harness.
//!
//! Two subcommands, dispatched by [`run`]:
//!
//! * `bench history` — times the experiment sweep, the smoke-budget
//!   tuner and the prove sweep, aggregates exact loss attribution over
//!   every (workload, architecture) pair, and appends one JSON line to
//!   [`HISTORY_FILE`]. The file is an append-only log committed with
//!   the repository: a change that claims a performance shift appends
//!   the line it measured, and each entry carries enough provenance
//!   (parallelism, rustc, commit, workload counts) to explain one.
//! * `bench check` — re-times the sweep and compares its `pass_s`
//!   against the last entry of `--baseline` (default [`HISTORY_FILE`]):
//!   exits 1 when it is more than `--threshold` percent (default
//!   [`DEFAULT_THRESHOLD_PCT`]) slower, or when the smoke-budget tuner
//!   recovers fewer PE-cycles than recorded. With no baseline file it
//!   reports the measurement and exits 0, so the first run on a fresh
//!   clone records rather than fails.
//!
//! Every time recorded here comes from one primitive, `measure`: 7
//! passes, run serially at `--jobs 1`, each between two runs of the
//! [`yardstick`] and normalised by them; the median is kept. The raw
//! median is `wall_s`. The normalised one, `pass_s`, is what the gate
//! compares: it divides out other tenants' load, and a serial pass
//! measures the simulator rather than the host's core count. (A host
//! of another microarchitecture can still shift it: the simulator and
//! the yardstick need not speed up alike.)

use crate::arches::{run_pair, ALL_ARCHES, ARCH_NAMES};
use crate::cli::Bench;
use crate::experiment::{run_suite, sweep_set, Experiment, ExperimentCtx, SuiteConfig, TaskCtx};
use crate::tune::{sweep_totals, SweepTotals};
use flexsim_model::workloads;
use flexsim_obs::attrib::StallCause;
use flexsim_obs::telemetry;
use flexsim_testkit::json::Json;
use flexsim_testkit::yardstick;
use std::io::Write as _;
use std::time::Instant;

/// The append-only perf-regression log `bench history` writes and
/// `bench check` reads.
pub const HISTORY_FILE: &str = "BENCH_history.jsonl";

/// Percent `pass_s` slowdown `bench check` tolerates when
/// `--threshold` is not given.
pub const DEFAULT_THRESHOLD_PCT: u32 = 50;

/// Passes behind every recorded time; their median is kept.
const PASSES: usize = 7;

/// The `--jobs` level of every timed pass, whatever the command line
/// asks for.
const TIMED_JOBS: usize = 1;

/// Runs one `bench` subcommand, returning the process exit code (0 ok,
/// 1 regression/failure, 2 I/O error). `jobs` fans out only the
/// untimed tuner run behind `bench check`'s quality gate.
pub fn run(bench: &Bench, jobs: usize) -> i32 {
    match bench {
        Bench::History => history().err().unwrap_or(0),
        Bench::Check {
            baseline,
            threshold_pct,
        } => check(baseline, *threshold_pct, jobs),
    }
}

/// The median times of one measured body, in seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Timing {
    /// Median raw wall time of a pass.
    wall_s: f64,
    /// Median yardstick-normalised time of a pass.
    pass_s: f64,
}

impl Timing {
    /// The medians of `(wall_s, pass_s)` samples.
    fn median_of(samples: &[(f64, f64)]) -> Timing {
        Timing {
            wall_s: median(samples.iter().map(|s| s.0)),
            pass_s: median(samples.iter().map(|s| s.1)),
        }
    }

    /// Percent by which `self` is slower than `base`, normalised.
    fn overhead_pct(self, base: Timing) -> f64 {
        (self.pass_s - base.pass_s) / base.pass_s.max(1e-12) * 100.0
    }
}

/// The middle value (the upper middle of an even count).
fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// A timed body: one pass of the work measured, `Err(code)` when it
/// failed.
type Body<'a> = &'a mut dyn FnMut() -> Result<(), i32>;

/// The one timing primitive: [`PASSES`] rounds of `bodies`, each body
/// once per round and in turn, so that variants compared with each
/// other (telemetry off and on, say) run on the same host. The
/// yardstick runs before the first pass and after every pass, and each
/// pass is normalised by the runs either side of it. Stops at the first
/// body that fails.
fn measure<const K: usize>(mut bodies: [Body<'_>; K]) -> Result<[Timing; K], i32> {
    let mut samples = vec![Vec::with_capacity(PASSES); K];
    let mut before_s = yardstick::run();
    for _ in 0..PASSES {
        for (body, samples) in bodies.iter_mut().zip(&mut samples) {
            let start = Instant::now();
            body()?;
            let wall_s = start.elapsed().as_secs_f64();
            let after_s = yardstick::run();
            samples.push((wall_s, yardstick::normalise(wall_s, before_s, after_s)));
            before_s = after_s;
        }
    }
    Ok(std::array::from_fn(|k| Timing::median_of(&samples[k])))
}

/// One pass of the experiment sweep at [`TIMED_JOBS`]; `Err(1)` when
/// an experiment failed.
fn sweep_pass(experiments: &[&'static dyn Experiment]) -> Result<(), i32> {
    let config = SuiteConfig {
        jobs: TIMED_JOBS,
        trace: false,
    };
    let report = run_suite(experiments, &config);
    for f in &report.failures {
        eprintln!("experiment {} FAILED: {}", f.id, f.message);
    }
    if report.failures.is_empty() {
        Ok(())
    } else {
        Err(1)
    }
}

/// `bench history`: timed sweeps + exact attribution, appended as a
/// JSON line to [`HISTORY_FILE`].
///
/// The sweep is timed with telemetry off and on, interleaved, so every
/// entry also records the host-phase wall breakdown and the telemetry
/// overhead. The entry also times the smoke-budget tuner and the
/// flexproof all-pairs sweep; a prove mismatch refuses to record,
/// keeping the history free of unproved entries.
fn history() -> Result<(), i32> {
    let experiments = sweep_set();
    let [sweep, sweep_on] = measure([&mut || sweep_pass(&experiments), &mut || {
        // Reset per pass: the snapshot below is one pass's phases.
        telemetry::reset();
        telemetry::enable();
        let done = sweep_pass(&experiments);
        telemetry::disable();
        done
    }])?;
    let host = HostTotals {
        phase_us: telemetry::snapshot()
            .phases
            .iter()
            .map(|&(p, _, us)| (p.name(), us))
            .collect(),
        overhead_pct: sweep_on.overhead_pct(sweep),
    };
    let attrib = attribution_totals();
    let mut tune = None;
    let [tune_t] = measure([&mut || {
        tune = Some(sweep_totals(TIMED_JOBS));
        Ok(())
    }])?;
    let tune = tune.expect("measure runs every body");
    let nets = workloads::all();
    let prove_ctx = ExperimentCtx::parallel("prove", TIMED_JOBS);
    let mut prove_pairs = 0;
    let [prove_t] = measure([&mut || {
        let proofs = crate::prove::run_workloads(&prove_ctx, &nets, false);
        if let Some(bad) = proofs.iter().find(|o| !o.proved()) {
            eprintln!(
                "bench history: prove sweep FAILED on {}/{} — refusing to record",
                bad.workload, bad.arch
            );
            return Err(1);
        }
        prove_pairs = proofs.len();
        Ok(())
    }])?;
    let timings = SweepTimings {
        tune_wall_s: tune_t.wall_s,
        prove_pairs,
        prove_wall_s: prove_t.wall_s,
    };
    let entry = history_entry(
        unix_seconds(),
        sweep,
        experiments.len(),
        honesty_fields(),
        &attrib,
        &tune,
        &timings,
        &host,
    );
    let mut line = entry.compact();
    line.push('\n');
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(HISTORY_FILE)
        .and_then(|mut f| f.write_all(line.as_bytes()))
        .map_err(|e| {
            eprintln!("cannot append to {HISTORY_FILE}: {e}");
            2
        })?;
    eprintln!(
        "bench history: sweep pass {:.3}s (wall {:.3}s; median of {PASSES} at --jobs \
         {TIMED_JOBS}), busy {} PE-cycles, lost {} PE-cycles, telemetry overhead {:.1}%; \
         appended to {HISTORY_FILE}",
        sweep.pass_s,
        sweep.wall_s,
        attrib.busy_pe_cycles,
        attrib.lost.iter().map(|(_, v)| v).sum::<u64>(),
        host.overhead_pct
    );
    Ok(())
}

/// Host-telemetry measurements for one history entry: the per-phase
/// exclusive wall totals of one telemetry-on sweep, and the overhead
/// of telemetry-on passes over the telemetry-off passes between them.
struct HostTotals {
    phase_us: Vec<(&'static str, u64)>,
    overhead_pct: f64,
}

/// `bench check`: re-time the sweep and gate on the recorded baseline.
fn check(path: &str, threshold: u32, jobs: usize) -> i32 {
    let baseline = match baseline_pass_s(path) {
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
    let [sweep] = match measure([&mut || sweep_pass(&experiments)]) {
        Ok(t) => t,
        Err(code) => return code,
    };
    let measured = format!(
        "sweep pass {:.3}s (wall {:.3}s; median of {PASSES})",
        sweep.pass_s, sweep.wall_s
    );
    let mut code = match baseline {
        None => {
            eprintln!(
                "bench check: no baseline at {path}; {measured} \
                 (recording only — run `flexsim bench history` to create one)"
            );
            0
        }
        Some(base) => {
            if regressed(base, sweep.pass_s, threshold) {
                eprintln!(
                    "bench check: REGRESSION — {measured} vs baseline {base:.3}s \
                     (> {threshold}% slower; baseline {path})"
                );
                1
            } else {
                eprintln!(
                    "bench check: ok — {measured} vs baseline {base:.3}s \
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
        let tune = sweep_totals(jobs);
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

/// The `pass_s` of the last entry in the baseline file (see
/// [`baseline_entry`] for the `Ok(None)`/`Err` contract). A last line
/// without one predates normalised timing, and its raw `wall_s` does
/// not compare with `pass_s`: an error, not a pass.
fn baseline_pass_s(path: &str) -> Result<Option<f64>, String> {
    match baseline_entry(path)? {
        None => Ok(None),
        Some(doc) => json_field(&doc, "pass_s")
            .and_then(json_f64)
            .map(Some)
            .ok_or_else(|| {
                format!(
                    "baseline {path}: last line has no numeric \"pass_s\" \
                     (record one with `flexsim bench history`)"
                )
            }),
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
            let run = run_pair(&TaskCtx::default(), &net, idx, false);
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

/// Wall times of the sweeps a history entry records alongside the
/// experiment sweep: the smoke-budget tuner and the flexproof all-pairs
/// proof sweep.
struct SweepTimings {
    tune_wall_s: f64,
    prove_pairs: usize,
    prove_wall_s: f64,
}

/// The provenance fields every bench artifact carries — machine
/// parallelism, compiler, commit, and the spatial-instrumentation
/// probe — produced in one place so `BENCH_tune.json` and
/// [`HISTORY_FILE`] can never drift apart in what "honest numbers"
/// means.
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
/// reference run records, and the normalised time overhead of
/// recording them.
struct SpatialProbe {
    cells: u64,
    overhead_pct: f64,
}

/// Times a reference workload (LeNet-5 on FlexFlow) with a cycle
/// recorder attached, without and with spatial records, interleaved
/// (see [`measure`]). The cell count
/// documents the heatmap volume behind the overhead number; the
/// overhead keeps the "spatial observability is cheap when attached"
/// claim on the record, noise and all (like the telemetry overhead,
/// the acceptance bar lives in the integration tests — the log is
/// data).
fn spatial_probe() -> SpatialProbe {
    let net = workloads::lenet5();
    let flexflow = ARCH_NAMES.len() - 1;
    let mut cells = 0;
    let [plain, spatial] = measure([
        &mut || {
            run_pair(&TaskCtx::default(), &net, flexflow, false);
            Ok(())
        },
        &mut || {
            let run = run_pair(&TaskCtx::default(), &net, flexflow, true);
            cells = run.spatials.iter().map(|sp| sp.pe_count() as u64).sum();
            Ok(())
        },
    ])
    .expect("a probe pass cannot fail");
    SpatialProbe {
        cells,
        overhead_pct: spatial.overhead_pct(plain),
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
    sweep: Timing,
    experiments: usize,
    honesty: [(&'static str, Json); 5],
    attrib: &AttributionTotals,
    tune: &SweepTotals,
    timings: &SweepTimings,
    host: &HostTotals,
) -> Json {
    Json::obj(
        [
            ("bench", Json::str("history")),
            ("ts_unix", Json::Int(ts_unix as i64)),
            ("wall_s", Json::Float(sweep.wall_s)),
            ("pass_s", Json::Float(sweep.pass_s)),
            ("passes", Json::Int(PASSES as i64)),
            ("jobs", Json::Int(TIMED_JOBS as i64)),
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
        let tune = SweepTotals {
            recovered_pe_cycles: 4_096,
            workloads_improved: 4,
        };
        let host = HostTotals {
            phase_us: vec![("parse", 11), ("simulate", 42_000)],
            overhead_pct: 1.5,
        };
        let timings = SweepTimings {
            tune_wall_s: 3.5,
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
        let sweep = Timing {
            wall_s: 4.25,
            pass_s: 3.0,
        };
        let entry = history_entry(
            1_700_000_000,
            sweep,
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
        assert_eq!(json_field(&parsed, "pass_s").and_then(json_f64), Some(3.0));
        assert_eq!(json_field(&parsed, "jobs"), Some(&Json::Int(1)));
        assert_eq!(json_field(&parsed, "commit"), Some(&Json::str("abc1234")));
        assert_eq!(json_field(&parsed, "heatmap_cells"), Some(&Json::Int(1024)));
        assert_eq!(
            json_field(&parsed, "spatial_overhead_pct").and_then(json_f64),
            Some(0.5)
        );
        assert_eq!(
            json_field(&parsed, "tune_wall_s").and_then(json_f64),
            Some(3.5)
        );
        assert_eq!(json_field(&parsed, "tune_static_wall_s"), None);
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
        // Lines written while the tuner had a `--static` mode carry a
        // field no longer written; they still gate.
        let static_era = dir.join("flexsim_bench_static_era_test.jsonl");
        std::fs::write(
            &static_era,
            "{\"pass_s\": 0.5, \"tune_recovered_pe_cycles\": 77, \"tune_static_wall_s\": 0.1}\n",
        )
        .unwrap();
        let path = static_era.to_str().unwrap();
        assert_eq!(baseline_pass_s(path).unwrap(), Some(0.5));
        assert_eq!(baseline_tune_recovered(path).unwrap(), Some(77));
        for f in [old, new, static_era] {
            let _ = std::fs::remove_file(f);
        }
    }

    #[test]
    fn baseline_reader_handles_missing_empty_and_corrupt_files() {
        // Missing file: fresh clone, no baseline.
        assert_eq!(
            baseline_pass_s("bench_test_definitely_missing.jsonl").unwrap(),
            None
        );
        let dir = std::env::temp_dir();
        let empty = dir.join("flexsim_bench_empty_test.jsonl");
        std::fs::write(&empty, "\n\n").unwrap();
        assert_eq!(baseline_pass_s(empty.to_str().unwrap()).unwrap(), None);
        let corrupt = dir.join("flexsim_bench_corrupt_test.jsonl");
        std::fs::write(&corrupt, "{not json\n").unwrap();
        assert!(baseline_pass_s(corrupt.to_str().unwrap()).is_err());
        // A last line from before normalised timing gates nothing.
        let stale = dir.join("flexsim_bench_stale_test.jsonl");
        std::fs::write(&stale, "{\"pass_s\": 1.0}\n{\"wall_s\": 2.5}\n").unwrap();
        assert!(baseline_pass_s(stale.to_str().unwrap()).is_err());
        let good = dir.join("flexsim_bench_good_test.jsonl");
        std::fs::write(&good, "{\"pass_s\": 1.0}\n{\"pass_s\": 2.5}\n").unwrap();
        assert_eq!(baseline_pass_s(good.to_str().unwrap()).unwrap(), Some(2.5));
        for f in [empty, corrupt, stale, good] {
            let _ = std::fs::remove_file(f);
        }
    }

    /// The committed log's last line is what `ci.sh` gates against: it
    /// must be a complete entry measured from the repository root, or a
    /// stale or corrupt baseline could slip through.
    #[test]
    fn committed_baseline_is_a_measured_line() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_history.jsonl");
        let doc = baseline_entry(path)
            .unwrap()
            .expect("the repository commits a BENCH_history.jsonl");
        let pass_s = baseline_pass_s(path).unwrap().unwrap();
        assert!(pass_s > 0.0, "pass_s {pass_s}");
        assert!(baseline_tune_recovered(path).unwrap().is_some());
        let commit = json_field(&doc, "commit");
        assert!(
            matches!(commit, Some(Json::Str(c)) if c != "unknown"),
            "commit {commit:?}"
        );
        let ffnet = json_field(&doc, "workloads_ffnet").and_then(json_f64);
        assert!(ffnet.is_some_and(|n| n > 0.0), "workloads_ffnet {ffnet:?}");
    }

    #[test]
    fn the_median_of_the_passes_ignores_a_single_outlier() {
        let mut samples = vec![(0.1, 0.05); PASSES];
        samples[2] = (0.3, 0.15);
        assert_eq!(
            Timing::median_of(&samples),
            Timing {
                wall_s: 0.1,
                pass_s: 0.05
            }
        );
    }

    #[test]
    fn measure_runs_every_body_in_turn_and_stops_at_a_failure() {
        let order = std::cell::RefCell::new(Vec::new());
        let timings = measure([
            &mut || {
                order.borrow_mut().push('a');
                Ok(())
            },
            &mut || {
                order.borrow_mut().push('b');
                Ok(())
            },
        ])
        .unwrap();
        assert_eq!(
            order.take(),
            "ab".repeat(PASSES).chars().collect::<Vec<_>>()
        );
        for t in timings {
            assert!(t.wall_s >= 0.0 && t.pass_s >= 0.0, "{t:?}");
        }
        let mut runs = 0;
        let failed = measure([&mut || {
            runs += 1;
            Err(1)
        }]);
        assert_eq!((failed, runs), (Err(1), 1));
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
