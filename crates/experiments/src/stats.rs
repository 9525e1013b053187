//! `flexsim stats` — the host-telemetry report.
//!
//! Runs the Table 1 sweep with [`flexsim_obs::telemetry`] enabled (the
//! span recorder on) and reports, as a fold over the recorded spans,
//! where the *simulator's own* wall time goes — the
//! host-side counterpart of `flexsim profile` (which attributes
//! *simulated* cycles). The report covers:
//!
//! * per-phase exclusive wall time over the host pipeline (parse →
//!   flexcheck → schedule → simulate → export), plus an
//!   `(other)` row for un-phased time so the table always reconciles
//!   against total wall time;
//! * per-worker scheduler stats from `flexsim-pool` — busy/idle/wall
//!   time (busy + idle == wall by construction), task counts, and the
//!   queue-depth high-water mark;
//! * latency histograms (count, p50/p90/p99, max) for per-experiment
//!   wall time, per-layer simulation wall time, and pool task latency;
//! * flight-recorder occupancy.
//!
//! The suite output is rendered — and discarded — under the export
//! phase, so every declared phase shows real work. Telemetry never
//! perturbs simulation results; the `integration_telemetry` suite holds
//! the sweep output byte-identical with telemetry on vs. off.

use crate::experiment::{run_suite, sweep_set, SuiteConfig};
use crate::report::{ExperimentResult, Table};
use flexsim_obs::cycles::Recorder;
use flexsim_obs::hist::Histogram;
use flexsim_obs::telemetry::{self, Phase, TelemetrySnapshot};
use std::time::Instant;

/// Runs the telemetry-instrumented sweep at `jobs` and returns the
/// report plus the number of experiment failures (the CLI exit status).
/// With a `trace` recorder (`--trace`) the sweep is traced and its
/// cycle timelines go to that recorder.
pub fn run(jobs: usize, trace: Option<&Recorder>) -> (ExperimentResult, usize) {
    telemetry::enable();
    telemetry::reset();
    let start = Instant::now();
    let experiments = {
        let _parse = telemetry::phase(Phase::Parse);
        sweep_set()
    };
    let mut report = run_suite(
        &experiments,
        &SuiteConfig {
            jobs,
            trace: trace.is_some(),
        },
    );
    if let Some(trace) = trace {
        trace.record_all(std::mem::take(&mut report.timelines));
    }
    // Render the suite the way `flexsim all --json` would — real
    // export work, measured, then discarded (stats prints its own
    // report instead).
    let rendered_bytes: usize = {
        let _export = telemetry::phase(Phase::Export);
        report
            .results
            .iter()
            .map(|r| r.to_json().len() + r.to_string().len())
            .sum()
    };
    let wall_us = start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
    let snap = telemetry::snapshot();
    let result = render(
        &snap,
        wall_us,
        jobs,
        experiments.len(),
        &report
            .failures
            .iter()
            .map(|f| f.id.clone())
            .collect::<Vec<_>>(),
        rendered_bytes,
    );
    (result, report.failures.len())
}

/// One histogram summarized on a note line.
fn hist_note(what: &str, h: &Histogram) -> String {
    if h.is_empty() {
        return format!("{what}: no samples");
    }
    format!(
        "{what}: n={} p50={}us p90={}us p99={}us max={}us",
        h.count(),
        h.quantile(0.50),
        h.quantile(0.90),
        h.quantile(0.99),
        h.max()
    )
}

/// Builds the stats [`ExperimentResult`] from a snapshot.
fn render(
    snap: &TelemetrySnapshot,
    wall_us: u64,
    jobs: usize,
    experiments: usize,
    failures: &[String],
    rendered_bytes: usize,
) -> ExperimentResult {
    let mut table = Table::new(["phase", "calls", "self_ms", "share_pct"]);
    let mut phased_us = 0u64;
    for &(p, calls, us) in &snap.phases {
        phased_us += us;
        table.push_row([
            p.name().to_owned(),
            calls.to_string(),
            format!("{:.3}", us as f64 / 1e3),
            format!("{:.1}", share_pct(us, wall_us)),
        ]);
    }
    let other_us = wall_us.saturating_sub(phased_us);
    table.push_row([
        "(other)".to_owned(),
        "-".to_owned(),
        format!("{:.3}", other_us as f64 / 1e3),
        format!("{:.1}", share_pct(other_us, wall_us)),
    ]);
    table.push_row([
        "(wall)".to_owned(),
        "-".to_owned(),
        format!("{:.3}", wall_us as f64 / 1e3),
        "100.0".to_owned(),
    ]);

    let mut notes = vec![
        format!(
            "host telemetry over the Table 1 sweep: {experiments} experiments at --jobs {jobs}, \
             wall {:.3} ms, suite output {rendered_bytes} bytes rendered",
            wall_us as f64 / 1e3
        ),
        "phase self-time sums across worker threads (like `time`'s user+sys), so shares can \
         exceed 100% of wall when --jobs > 1"
            .to_owned(),
    ];
    if !failures.is_empty() {
        notes.push(format!("FAILED experiments: {}", failures.join(", ")));
    }
    notes.push(format!(
        "pool: queue-depth high-water {}",
        snap.queue_high_water
    ));
    for (i, w) in &snap.workers {
        notes.push(format!(
            "worker {i}: wall={}us busy={}us idle={}us ({} tasks)",
            w.wall_us, w.busy_us, w.idle_us, w.tasks
        ));
    }
    notes.push(hist_note("experiment wall", &snap.experiment_wall));
    notes.push(hist_note("layer sim wall", &snap.layer_sim_wall));
    notes.push(hist_note("task latency", &snap.task_wall));
    notes.push(format!(
        "flight recorder: {} events retained, {} dropped",
        snap.flight_events, snap.flight_dropped
    ));
    ExperimentResult {
        id: "stats".to_owned(),
        title: "host-side runtime telemetry: phase profile, scheduler stats, latency histograms"
            .to_owned(),
        notes,
        table,
    }
}

/// `part` as a percentage of `whole` (0 when `whole` is 0).
fn share_pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64 * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsim_obs::telemetry::WorkerTotals;

    fn sample_snapshot() -> TelemetrySnapshot {
        let mut h = Histogram::new();
        h.observe(100);
        h.observe(250);
        TelemetrySnapshot {
            phases: Phase::ALL.iter().map(|&p| (p, 2, 1_000)).collect(),
            workers: vec![(
                0,
                WorkerTotals {
                    wall_us: 9_000,
                    busy_us: 6_000,
                    idle_us: 3_000,
                    tasks: 12,
                },
            )],
            queue_high_water: 7,
            experiment_wall: h.clone(),
            layer_sim_wall: h.clone(),
            task_wall: h,
            flight_events: 3,
            flight_dropped: 0,
        }
    }

    #[test]
    fn every_phase_appears_plus_reconciliation_rows() {
        let result = render(&sample_snapshot(), 10_000, 2, 17, &[], 4_096);
        let text = result.to_string();
        for p in Phase::ALL {
            assert!(text.contains(p.name()), "{} missing:\n{text}", p.name());
        }
        // 5 phases × 1000us leaves 5000us unphased of the 10ms wall.
        assert!(text.contains("(other)"), "{text}");
        assert!(text.contains("(wall)"), "{text}");
        assert!(text.contains("10.0"), "{text}"); // each phase's share
    }

    #[test]
    fn worker_and_histogram_lines_are_reported() {
        let result = render(&sample_snapshot(), 10_000, 2, 17, &[], 0);
        let text = result.to_string();
        assert!(
            text.contains("worker 0: wall=9000us busy=6000us idle=3000us (12 tasks)"),
            "{text}"
        );
        assert!(text.contains("queue-depth high-water 7"), "{text}");
        assert!(text.contains("task latency: n=2"), "{text}");
        assert!(text.contains("flight recorder: 3 events"), "{text}");
    }

    #[test]
    fn failures_are_called_out() {
        let result = render(&sample_snapshot(), 10_000, 1, 17, &["fig15".to_owned()], 0);
        assert!(result.to_string().contains("FAILED experiments: fig15"));
    }

    #[test]
    fn share_handles_zero_wall() {
        assert_eq!(share_pct(5, 0), 0.0);
        assert!((share_pct(1, 4) - 25.0).abs() < 1e-12);
    }
}
