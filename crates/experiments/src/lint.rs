//! The `flexsim lint` subcommand and the pre-simulation gate.
//!
//! `flexsim lint [WORKLOAD]` runs the [`flexcheck`] static verifier
//! over every Table 1 workload (or the one named) on all four
//! architectures and exits non-zero if any rule reports an `Error`. Independently, every experiment calls
//! [`gate`] before simulating a workload: a program that fails the
//! verifier refuses to simulate (the process aborts with the rendered
//! diagnostics) unless the user passes `--no-lint`.

use crate::report::{ExperimentResult, Table};
use flexcheck::{check_network, ArchParams, Diagnostic, Severity};
use flexsim_model::{workloads, Network};
use flexsim_obs::telemetry;
use flexsim_testkit::json::Json;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// Whether the pre-simulation gate is armed (`--no-lint` disarms it).
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Arms or disarms the pre-simulation gate for this process.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Workload × engine-size pairs that already passed the gate, so a
/// sweep relints each combination once, not once per experiment.
fn passed() -> &'static Mutex<HashSet<(String, usize)>> {
    static PASSED: OnceLock<Mutex<HashSet<(String, usize)>>> = OnceLock::new();
    PASSED.get_or_init(|| Mutex::new(HashSet::new()))
}

/// The pre-simulation gate: statically verifies the program the
/// compiler emits for `net` on a `d×d` FlexFlow engine before any
/// simulation of that workload runs. Results are cached per
/// `(workload, d)`; `--no-lint` (via [`set_enabled`]) skips the check.
///
/// # Panics
///
/// Panics with the rendered diagnostics if the verifier reports any
/// `Error` — refusing to spend minutes simulating a program that is
/// statically known to violate a hardware invariant.
pub fn gate(net: &Network, d: usize) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let key = (net.name().to_owned(), d);
    // Invariant: the experiments never panic while holding this lock
    // mid-insert, so the mutex cannot be poisoned by a gate failure
    // (the panic below happens with the lock released).
    let mut cache = passed().lock().expect("lint cache lock poisoned");
    if cache.contains(&key) {
        return;
    }
    let _flexcheck = telemetry::phase(telemetry::Phase::Flexcheck);
    let diags = check_network(net, &ArchParams::flexflow(d));
    if flexcheck::has_errors(&diags) {
        drop(cache);
        panic!(
            "flexcheck: refusing to simulate {} on a {d}x{d} FlexFlow engine:\n{}\
             (pass --no-lint to simulate anyway)",
            net.name(),
            flexcheck::render(&diags)
        );
    }
    cache.insert(key);
}

/// One (workload, architecture) verification unit of the lint sweep.
struct LintUnit {
    workload: String,
    arch: &'static str,
    diags: Vec<Diagnostic>,
}

impl LintUnit {
    fn count(&self, severity: Severity) -> usize {
        self.diags.iter().filter(|d| d.severity == severity).count()
    }
}

/// Runs the verifier over `nets` on all four Section 6.1.1
/// architectures — the single sweep both the text and the JSON report
/// render, so the two can never disagree on the findings.
fn sweep_units(nets: &[Network]) -> Vec<LintUnit> {
    let _flexcheck = telemetry::phase(telemetry::Phase::Flexcheck);
    let mut units = Vec::new();
    for net in nets {
        for arch in ArchParams::paper_suite(net) {
            units.push(LintUnit {
                workload: net.name().to_owned(),
                arch: arch.kind.name(),
                diags: check_network(net, &arch),
            });
        }
    }
    units
}

/// Runs the full static-verification sweep: every Table 1 workload on
/// all four Section 6.1.1 architectures. Returns the report and the
/// number of `Error` diagnostics (the CLI exit status).
pub fn run() -> (ExperimentResult, usize) {
    run_workloads(&workloads::all())
}

/// [`run`] over the given workloads.
pub fn run_workloads(nets: &[Network]) -> (ExperimentResult, usize) {
    let units = sweep_units(nets);
    let mut table = Table::new(["workload", "architecture", "errors", "warnings", "findings"]);
    let mut errors = 0usize;
    let mut warnings = 0usize;
    let mut rendered = String::new();
    for u in &units {
        errors += u.count(Severity::Error);
        warnings += u.count(Severity::Warning);
        for d in &u.diags {
            rendered.push_str(&format!("{}/{}: {d}\n", u.workload, u.arch));
        }
        table.push_row([
            u.workload.clone(),
            u.arch.to_owned(),
            u.count(Severity::Error).to_string(),
            u.count(Severity::Warning).to_string(),
            if u.diags.is_empty() {
                "clean".to_owned()
            } else {
                format!("{} finding(s)", u.diags.len())
            },
        ]);
    }
    let mut notes = vec![if errors == 0 {
        format!("OK: 0 errors, {warnings} warnings across every workload x architecture")
    } else {
        format!("FAIL: {errors} errors, {warnings} warnings")
    }];
    if !rendered.is_empty() {
        notes.extend(rendered.lines().map(str::to_owned));
    }
    let result = ExperimentResult {
        id: "lint".to_owned(),
        title: "flexcheck: static schedule/mapping verification (12 rules x 4 architectures)"
            .to_owned(),
        notes,
        table,
    };
    (result, errors)
}

/// The `flexsim lint --json` document for `nets`: the same sweep and
/// the same findings as the text report, but structured (rule
/// code/name, severity, location, message, hint, and the rendered
/// line) and byte-stable — two runs on the same tree emit identical
/// bytes.
pub fn json_report(nets: &[Network]) -> (Json, usize) {
    let units = sweep_units(nets);
    let errors: usize = units.iter().map(|u| u.count(Severity::Error)).sum();
    let warnings: usize = units.iter().map(|u| u.count(Severity::Warning)).sum();
    let doc = Json::obj([
        ("lint", Json::str("flexcheck")),
        (
            "rules",
            Json::arr(
                flexcheck::RuleId::ALL
                    .iter()
                    .map(|r| Json::str(format!("{} {}", r.code(), r.name()))),
            ),
        ),
        ("units_total", Json::Int(units.len() as i64)),
        ("errors", Json::Int(errors as i64)),
        ("warnings", Json::Int(warnings as i64)),
        (
            "units",
            Json::arr(units.iter().map(|u| {
                Json::obj([
                    ("workload", Json::str(&u.workload)),
                    ("architecture", Json::str(u.arch)),
                    ("errors", Json::Int(u.count(Severity::Error) as i64)),
                    ("warnings", Json::Int(u.count(Severity::Warning) as i64)),
                    (
                        "diagnostics",
                        Json::arr(u.diags.iter().map(diagnostic_json)),
                    ),
                ])
            })),
        ),
    ]);
    (doc, errors)
}

/// One diagnostic as a structured JSON object (plus its rendered text
/// line, byte-equal to what the text report prints).
fn diagnostic_json(d: &Diagnostic) -> Json {
    let location = match (&d.location.layer, d.location.pc) {
        (Some(l), _) => Json::str(l),
        (None, Some(pc)) => Json::str(format!("pc {pc}")),
        (None, None) => Json::str("program"),
    };
    Json::obj([
        ("rule", Json::str(d.rule.code())),
        ("name", Json::str(d.rule.name())),
        ("severity", Json::str(d.severity.to_string())),
        ("location", location),
        ("message", Json::str(&d.message)),
        ("hint", Json::str(&d.hint)),
        ("rendered", Json::str(d.to_string())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_paper_suite_lints_clean() {
        let (result, errors) = run();
        assert_eq!(errors, 0, "{result}");
    }

    #[test]
    fn gate_passes_and_caches_clean_workloads() {
        let net = workloads::lenet5();
        gate(&net, 16);
        gate(&net, 16); // second call hits the cache
        assert!(passed()
            .lock()
            .unwrap()
            .contains(&("LeNet-5".to_owned(), 16)));
    }
}
