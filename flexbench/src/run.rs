//! One benchmark run: set-up, a warm-up pass, then whole passes in a
//! closed loop (one caller) for a fixed time, every pass checked.

use crate::expected::{Counts, Expected};
use crate::metrics::{self, Metric};
use crate::stats::{median, percentile};
use crate::trace::{self, Tracer};
use crate::{analytic, layers, network, tune};
use flexsim_testkit::json::Json;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The seed at which the golden fixture layers are checked.
pub const FIXTURE_SEED: u64 = 41;

/// Timed passes a run makes at least (when `--seconds` is not 0): the
/// sample count the median needs.
pub const MIN_PASSES: usize = 20;

/// After every timed pass the set-up is repeated, at least once and for
/// at least this long, so that `setup_s` has samples from the whole run
/// and a steady median per batch even when a set-up takes microseconds.
const SETUP_BATCH: Duration = Duration::from_millis(2);

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Every functional simulator on five small Table 1 layers.
    LayersSmall,
    /// Every functional simulator on the strided and store-overflow layers.
    LayersLarge,
    /// Compile and execute whole networks on the FlexFlow engine.
    NetworkExec,
    /// The report sweep, verifier, prover, profile and heatmaps.
    AnalyticSuite,
    /// The planner and the exhaustive mapping tuner on the pool.
    TuneSearch,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 5] = [
        Workload::LayersSmall,
        Workload::LayersLarge,
        Workload::NetworkExec,
        Workload::AnalyticSuite,
        Workload::TuneSearch,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LayersSmall => "layers-small",
            Workload::LayersLarge => "layers-large",
            Workload::NetworkExec => "network-exec",
            Workload::AnalyticSuite => "analytic-suite",
            Workload::TuneSearch => "tune-search",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one unit of `work_per_s` is on this workload, and the name
    /// the run record also gives that throughput.
    pub fn work_unit(self) -> (&'static str, &'static str) {
        match self {
            Workload::LayersSmall | Workload::LayersLarge | Workload::NetworkExec => (
                "10^6 bit-exact MACs, all simulators and the reference",
                "sim_mmacs_per_s",
            ),
            Workload::AnalyticSuite => {
                ("(workload, arch) pair through all six calls", "pairs_per_s")
            }
            Workload::TuneSearch => ("tuner candidate scored", "candidates_per_s"),
        }
    }
}

/// What checking one pass found.
#[derive(Debug, Default)]
pub struct Checked {
    /// Work units the pass performed (see [`Workload::work_unit`]).
    pub work: f64,
    /// Seed-independent exact counts of the pass.
    pub counts: Counts,
    /// Every failed check; empty when the pass is correct.
    pub errors: Vec<String>,
}

/// A workload's pass, split so that only the calls into the program
/// are timed and the checks are not.
pub trait Bench {
    /// What a pass hands to its check.
    type Output;
    /// Runs the calls of one pass, each inside a span.
    fn pass(&mut self, tr: &mut Tracer) -> Self::Output;
    /// Checks one pass's outputs and counts its work.
    fn check(&self, out: Self::Output) -> Checked;
}

/// Run settings.
#[derive(Clone, Debug)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured time; at 0 the run makes one timed pass.
    pub seconds: f64,
    /// Traced run: alternate traced and untraced passes, report the
    /// per-layer metrics and write a Chrome trace.
    pub trace: bool,
    /// The exact counts every pass must reproduce; the binary always
    /// reads the committed `expected.json`.
    pub expected: PathBuf,
    /// Where a traced run writes its Chrome trace.
    pub trace_out: PathBuf,
    /// When the process started.
    pub started: Instant,
}

/// The result of a run.
pub struct Outcome {
    /// Timed passes.
    pub attempted: u64,
    /// Timed passes that failed a check or panicked.
    pub failed: u64,
    /// No pass, warm-up included, failed.
    pub correct: bool,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// The full run record: every metric with its unit and sample
    /// count, plus the host and build it ran on.
    pub record: Json,
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".to_owned())
}

/// A checked pass: its wall time, its call time normalized by the
/// yardstick, and what checking it found.
struct Timed {
    wall: Duration,
    normalized: f64,
    checked: Checked,
}

/// Runs one pass (panics caught) inside a `pass` span, closes its last
/// stretch of call time with a yardstick run, then checks the pass
/// against `expected`; only the pass is timed.
fn checked_pass<B: Bench>(
    bench: &mut B,
    tr: &mut Tracer,
    label: &str,
    expected: &Expected,
) -> Timed {
    let root = tr.begin("pass", label);
    let t0 = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| bench.pass(tr)));
    let wall = t0.elapsed();
    tr.end(root, 0);
    tr.meter().close();
    let normalized = tr.meter().take();
    let mut checked = match out {
        Ok(out) => {
            catch_unwind(AssertUnwindSafe(|| bench.check(out))).unwrap_or_else(|p| Checked {
                errors: vec![format!("check panicked: {}", panic_text(p.as_ref()))],
                ..Checked::default()
            })
        }
        Err(p) => Checked {
            errors: vec![format!("pass panicked: {}", panic_text(p.as_ref()))],
            ..Checked::default()
        },
    };
    if checked.errors.is_empty() {
        checked.errors = crate::expected::diff(&checked.counts, expected);
    }
    Timed {
        wall,
        normalized,
        checked,
    }
}

/// A batch of set-ups: the state the last one built, the median
/// set-up's wall time, and that time normalized by the yardstick runs
/// before and after the batch.
struct Setups<B> {
    bench: B,
    wall: f64,
    normalized: f64,
}

/// Sets the workload up at least once and for at least `min`, then runs
/// the yardstick.
fn setup_batch<B>(
    tr: &mut Tracer,
    setup: &mut impl FnMut(&mut Tracer) -> Result<B, String>,
    min: Duration,
) -> Result<Setups<B>, String> {
    let mut times = Vec::new();
    let start = Instant::now();
    let bench = loop {
        let t0 = Instant::now();
        let bench = setup(tr)?;
        times.push(t0.elapsed().as_secs_f64());
        if start.elapsed() >= min {
            break bench;
        }
    };
    let factor = tr.meter().close();
    tr.meter().take();
    let wall = median(&times).expect("a batch sets up at least once");
    Ok(Setups {
        bench,
        wall,
        normalized: wall * factor,
    })
}

fn report_errors(what: &str, errors: &[String]) {
    for e in errors.iter().take(10) {
        eprintln!("flexbench: {what} failed: {e}");
    }
}

/// Runs the configured workload.
///
/// # Errors
///
/// Set-up failures: an unreadable expected-counts or fixture file, or a
/// network that does not resolve.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let expected = crate::expected::load(&cfg.expected, cfg.workload.name())?;
    match cfg.workload {
        Workload::LayersSmall => {
            let golden = (cfg.seed == FIXTURE_SEED).then(read_golden).transpose()?;
            drive(cfg, &expected, |_| {
                Ok(layers::Layers::setup(
                    layers::small(),
                    cfg.seed,
                    golden.clone(),
                ))
            })
        }
        Workload::LayersLarge => drive(cfg, &expected, |_| {
            Ok(layers::Layers::setup(layers::large(), cfg.seed, None))
        }),
        Workload::NetworkExec => drive(cfg, &expected, |tr| {
            network::NetworkExec::setup(cfg.seed, tr)
        }),
        Workload::AnalyticSuite => drive(cfg, &expected, |_| Ok(analytic::AnalyticSuite::setup())),
        Workload::TuneSearch => drive(cfg, &expected, |_| Ok(tune::TuneSearch::setup())),
    }
}

/// The golden fixture lines (`tests/fixtures/golden_checksums.txt`).
fn read_golden() -> Result<Vec<String>, String> {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../tests/fixtures/golden_checksums.txt"
    );
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Ok(text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(str::to_owned)
        .collect())
}

fn drive<B: Bench>(
    cfg: &Config,
    expected: &Expected,
    mut setup: impl FnMut(&mut Tracer) -> Result<B, String>,
) -> Result<Outcome, String> {
    // Every yardstick run, and the call time between runs, is the
    // `Tracer`'s; set-up runs with no pass set, so the yardstick runs
    // only around the batch, never inside a set-up.
    let mut tr = Tracer::new(cfg.trace);
    let first = setup_batch(&mut tr, &mut setup, Duration::ZERO)?;
    // The median set-up of every batch, wall and normalized.
    let (mut wall_setups, mut setups) = (vec![first.wall], vec![first.normalized]);
    let mut bench = first.bench;

    // One uncounted warm-up pass lets lazy caches fill.
    tr.set_enabled(false);
    let name = cfg.workload.name();
    let warm = checked_pass(&mut bench, &mut tr, name, expected);
    report_errors("warm-up pass", &warm.checked.errors);
    let mut correct = warm.checked.errors.is_empty();

    let min_passes = if cfg.seconds > 0.0 { MIN_PASSES } else { 1 } * if cfg.trace { 2 } else { 1 };
    let first_pass = cfg.started.elapsed();
    let start = Instant::now();
    // Normalized pass times, and the untraced passes' wall times.
    let (mut untraced, mut traced, mut wall) = (Vec::new(), Vec::new(), Vec::new());
    let (mut work, mut failed) = (0.0, 0u64);
    let mut counts = Counts::new();
    for pass in 0u32.. {
        let is_traced = cfg.trace && pass % 2 == 1;
        tr.set_enabled(is_traced);
        tr.set_pass(Some(pass));
        let timed = checked_pass(&mut bench, &mut tr, name, expected);
        if timed.checked.errors.is_empty() {
            counts = timed.checked.counts;
            work = timed.checked.work;
        } else {
            failed += 1;
            report_errors(&format!("pass {pass}"), &timed.checked.errors);
        }
        if is_traced {
            traced.push(timed.normalized);
        } else {
            untraced.push(timed.normalized);
            wall.push(timed.wall.as_secs_f64());
        }
        tr.set_enabled(false);
        tr.set_pass(None);
        let batch = setup_batch(&mut tr, &mut setup, SETUP_BATCH)?;
        wall_setups.push(batch.wall);
        setups.push(batch.normalized);
        if untraced.len() + traced.len() >= min_passes
            && start.elapsed().as_secs_f64() >= cfg.seconds
        {
            break;
        }
    }
    let attempted = (untraced.len() + traced.len()) as u64;
    correct &= failed == 0;

    let (unit_desc, throughput_name) = cfg.workload.work_unit();
    // Times are normalized by the yardstick (see `yardstick`): other
    // tenants of a shared host slow whole runs down, which no statistic
    // of the wall times undoes.
    let pass_s = median(&untraced).unwrap_or(0.0);
    let rate = if pass_s > 0.0 { work / pass_s } else { 0.0 };
    let work_per_s = Metric::new("work_per_s", "1/s", rate, untraced.len());
    let mut end_to_end = vec![
        Metric::new("setup_s", "s", median(&setups).unwrap_or(0.0), setups.len()),
        Metric::new("pass_s", "s", pass_s, untraced.len()),
        work_per_s.clone(),
    ];
    if let Some(rss) = peak_rss_mib() {
        end_to_end.push(Metric::new("peak_rss_mib", "MiB", rss, 1));
    }
    let slowdowns = tr.meter().slowdowns();
    let mut extra = vec![
        Metric {
            name: throughput_name.to_owned(),
            ..work_per_s
        },
        Metric::new(
            "failed_frac",
            "ratio",
            failed as f64 / attempted as f64,
            attempted as usize,
        ),
        Metric::new(
            "host_slowdown",
            "ratio",
            median(slowdowns).unwrap_or(0.0),
            slowdowns.len(),
        ),
        Metric::new(
            "wall_setup_s",
            "s",
            median(&wall_setups).unwrap_or(0.0),
            wall_setups.len(),
        ),
        Metric::new("warmup_s", "s", warm.wall.as_secs_f64(), 1),
        Metric::new("start_to_first_pass_s", "s", first_pass.as_secs_f64(), 1),
    ];
    let percentiles = [
        ("pass_p50_s", &untraced, 50),
        ("pass_p90_s", &untraced, 90),
        ("wall_pass_p50_s", &wall, 50),
        ("wall_pass_p90_s", &wall, 90),
    ];
    for (name, samples, pct) in percentiles {
        if let Some(v) = percentile(samples, pct) {
            extra.push(Metric::new(name, "s", v, samples.len()));
        }
    }

    let mut record = vec![
        ("workload", Json::str(cfg.workload.name())),
        (
            "seed",
            Json::Int(i64::try_from(cfg.seed).unwrap_or(i64::MAX)),
        ),
        ("seconds", Json::Float(cfg.seconds)),
        ("trace", Json::Bool(cfg.trace)),
        ("attempted", Json::Int(attempted as i64)),
        ("failed", Json::Int(failed as i64)),
        ("correct", Json::Bool(correct)),
        ("work_unit", Json::str(unit_desc)),
        (
            "available_parallelism",
            Json::Int(available_parallelism() as i64),
        ),
        ("pool_workers", Json::Int(tune::workers() as i64)),
        ("rustc", Json::str(env!("FLEXBENCH_RUSTC_VERSION"))),
        ("commit", Json::str(git_commit())),
    ];
    let metrics = if cfg.trace {
        let spans = tr.spans();
        let self_ns = trace::self_times(spans);
        let layer = metrics::per_layer(spans, &self_ns, &counts, &traced, &untraced);
        let path = &cfg.trace_out;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, trace::chrome_json(spans, &self_ns))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        record.push(("trace_file", Json::str(path.display().to_string())));
        record.push(("spans", Json::Int(spans.len() as i64)));
        extra.extend(end_to_end);
        layer
    } else {
        end_to_end
    };
    let all = metrics.iter().chain(&extra);
    record.push((
        "metrics",
        Json::obj(all.map(|m| (m.name.clone(), m.record_json()))),
    ));
    Ok(Outcome {
        attempted,
        failed,
        correct,
        metrics,
        record: Json::obj(record),
    })
}

/// Worker threads the host offers.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// `VmHWM` (peak resident set) of this process, in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The commit of the repository the benchmark was built from, read from
/// its `.git` directory; `unknown` outside a git checkout.
fn git_commit() -> String {
    let git = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.git"));
    let read = |p: PathBuf| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(git.join(reference))
        .or_else(|| {
            read(git.join("packed-refs"))?.lines().find_map(|l| {
                l.strip_suffix(reference)?
                    .strip_suffix(' ')
                    .map(str::to_owned)
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}
