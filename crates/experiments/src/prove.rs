//! `flexsim prove` — the flexproof front-end.
//!
//! For every requested Table 1 workload on each of the four Section
//! 6.1.1 architectures, the command builds the accelerator once and
//! derives the **static** per-layer loss ledgers from its closed-form
//! aggregate
//! ([`flexsim_arch::Accelerator::predict_network`], no stepping) and the
//! **dynamic** ledgers by folding the cycle timelines that
//! [`run_pair`] records (and hands on to `--trace`), then holds the two
//! equal with flexcheck rule `FXC10 cycle-exactness`: total cycles,
//! busy PE-cycles, and every per-cause lost bucket, layer by layer.
//!
//! The text report is a per-pair verdict table; `--json` emits a
//! byte-stable document of the static-vs-dynamic deltas (all zero on a
//! proved pair). The process exits non-zero on any mismatch, which is
//! what makes the CI stage meaningful: `--mutate` perturbs the first
//! predicted ledger by one cycle and must flip the exit status.

use crate::arches::{run_pair, ALL_ARCHES, PAPER_SCALE};
use crate::experiment::{ExperimentCtx, TaskCtx};
use crate::report::{ExperimentResult, Table};
use flexcheck::Diagnostic;
use flexsim_model::Network;
use flexsim_obs::attrib::{ledgers, LossLedger, StallCause};
use flexsim_testkit::json::Json;

/// One (workload, architecture) proof attempt: both ledger sequences
/// plus the `FXC10` diagnostics comparing them.
pub struct ProveOutcome {
    /// Workload name.
    pub workload: String,
    /// Architecture name ([`crate::arches::ARCH_NAMES`] order).
    pub arch: &'static str,
    /// The symbolic evaluator's per-layer ledgers, network order.
    pub predicted: Vec<LossLedger>,
    /// The engine-recorded per-layer ledgers, network order.
    pub recorded: Vec<LossLedger>,
    /// `FXC10` findings; empty means the pair is proved.
    pub diags: Vec<Diagnostic>,
}

impl ProveOutcome {
    /// Whether static equalled dynamic on every layer and cause.
    pub fn proved(&self) -> bool {
        self.diags.is_empty()
    }

    fn cycles(side: &[LossLedger]) -> u64 {
        side.iter().map(|l| l.total_cycles).sum()
    }

    fn lost(side: &[LossLedger]) -> u64 {
        side.iter().map(LossLedger::attributed_lost).sum()
    }
}

/// Proves one (workload, architecture) pair on the accelerator the
/// pair runner constructs: its closed-form ledgers against the ledgers
/// recorded from running it. `mutate` perturbs the first
/// predicted ledger by one cycle — the CI handle proving the
/// comparison has teeth.
pub fn prove_pair(tctx: &TaskCtx, net: &Network, arch_idx: usize, mutate: bool) -> ProveOutcome {
    let run = run_pair(tctx, net, arch_idx, false);
    let mut predicted = ledgers(&run.acc.predict_network(net));
    if mutate {
        if let Some(first) = predicted.first_mut() {
            first.total_cycles += 1;
        }
    }
    let diags = flexcheck::check_cycle_exactness_all(&predicted, &run.ledgers);
    ProveOutcome {
        workload: net.name().to_owned(),
        arch: run.arch,
        predicted,
        recorded: run.ledgers,
        diags,
    }
}

/// Proves every (workload, architecture) pair, fanned over the pool in
/// submission order (output is byte-identical at any `--jobs` level).
pub fn run_workloads(ctx: &ExperimentCtx, nets: &[Network], mutate: bool) -> Vec<ProveOutcome> {
    ctx.map_pairs(nets, &ALL_ARCHES, move |tctx, net, idx| {
        prove_pair(tctx, net, idx, mutate)
    })
}

/// Renders the per-pair verdict table (mismatch diagnostics go into
/// the notes, so the text output names every failing layer and cause).
pub fn report(outcomes: &[ProveOutcome]) -> ExperimentResult {
    let mut table = Table::new([
        "workload",
        "architecture",
        "layers",
        "static cycles",
        "engine cycles",
        "static lost",
        "engine lost",
        "verdict",
    ]);
    let mut notes_tail = Vec::new();
    for o in outcomes {
        table.push_row([
            o.workload.clone(),
            o.arch.to_owned(),
            o.predicted.len().to_string(),
            ProveOutcome::cycles(&o.predicted).to_string(),
            ProveOutcome::cycles(&o.recorded).to_string(),
            ProveOutcome::lost(&o.predicted).to_string(),
            ProveOutcome::lost(&o.recorded).to_string(),
            if o.proved() {
                "proved".to_owned()
            } else {
                format!("MISMATCH ({})", o.diags.len())
            },
        ]);
        for d in &o.diags {
            notes_tail.push(format!("{}/{}: {d}", o.workload, o.arch));
        }
    }
    let mismatched = outcomes.iter().filter(|o| !o.proved()).count();
    let mut notes = vec![if mismatched == 0 {
        format!(
            "PROVED: the symbolic evaluator reproduces the engine-recorded \
             cycles and loss attribution exactly (FXC10) on all {} \
             (workload, architecture) pairs — no cycle was simulated to \
             produce the static side.",
            outcomes.len()
        )
    } else {
        format!(
            "FAIL: {mismatched} of {} pairs diverge between the static \
             prediction and the engine recording.",
            outcomes.len()
        )
    }];
    notes.extend(notes_tail);
    ExperimentResult {
        id: "prove".to_owned(),
        title: "flexproof: symbolic cycle/ledger proof vs the cycle-stepped engines (FXC10)"
            .to_owned(),
        notes,
        table,
    }
}

/// The byte-stable `--json` document: per-pair and per-layer
/// static-vs-dynamic deltas (cycles, busy PE-cycles, and all seven
/// per-cause lost buckets — every delta zero on a proved pair).
pub fn json_doc(outcomes: &[ProveOutcome]) -> Json {
    let proved = outcomes.iter().filter(|o| o.proved()).count();
    Json::obj([
        ("bench", Json::str("prove")),
        ("rule", Json::str("FXC10 cycle-exactness")),
        ("scale", Json::Int(PAPER_SCALE as i64)),
        ("pairs_total", Json::Int(outcomes.len() as i64)),
        ("pairs_proved", Json::Int(proved as i64)),
        ("mismatches", Json::Int((outcomes.len() - proved) as i64)),
        (
            "pairs",
            Json::arr(outcomes.iter().map(|o| {
                Json::obj([
                    ("workload", Json::str(&o.workload)),
                    ("architecture", Json::str(o.arch)),
                    ("proved", Json::str(if o.proved() { "yes" } else { "no" })),
                    (
                        "static_cycles",
                        Json::Int(ProveOutcome::cycles(&o.predicted) as i64),
                    ),
                    (
                        "dynamic_cycles",
                        Json::Int(ProveOutcome::cycles(&o.recorded) as i64),
                    ),
                    ("layers", Json::arr(layer_deltas(o))),
                    (
                        "diagnostics",
                        Json::arr(o.diags.iter().map(|d| Json::str(d.to_string()))),
                    ),
                ])
            })),
        ),
    ])
}

/// Per-layer delta rows for one pair. Predicted and recorded ledgers
/// pair up positionally; a length mismatch (itself an `FXC10` error)
/// truncates to the common prefix here — the diagnostics array carries
/// the finding.
fn layer_deltas(o: &ProveOutcome) -> Vec<Json> {
    o.predicted
        .iter()
        .zip(&o.recorded)
        .map(|(p, r)| {
            Json::obj([
                ("layer", Json::str(&r.layer)),
                ("static_cycles", Json::Int(p.total_cycles as i64)),
                ("dynamic_cycles", Json::Int(r.total_cycles as i64)),
                (
                    "delta_cycles",
                    Json::Int(p.total_cycles as i64 - r.total_cycles as i64),
                ),
                (
                    "delta_busy_pe_cycles",
                    Json::Int(p.busy_pe_cycles as i64 - r.busy_pe_cycles as i64),
                ),
                (
                    "delta_lost",
                    Json::obj(
                        StallCause::ALL
                            .iter()
                            .map(|&c| (c.name(), Json::Int(p.lost(c) as i64 - r.lost(c) as i64))),
                    ),
                ),
            ])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arches::ARCH_NAMES;
    use flexsim_model::workloads;

    #[test]
    fn every_pair_proves_at_the_paper_scale() {
        let ctx = ExperimentCtx::serial("prove");
        let nets = workloads::all();
        let outcomes = run_workloads(&ctx, &nets, false);
        assert_eq!(outcomes.len(), nets.len() * ARCH_NAMES.len());
        for o in &outcomes {
            assert!(
                o.proved(),
                "{}/{}: {}",
                o.workload,
                o.arch,
                flexcheck::render(&o.diags)
            );
            assert_eq!(o.predicted.len(), o.recorded.len());
        }
        let result = report(&outcomes);
        assert!(result.to_string().contains("proved"));
        assert!(!result.to_string().contains("MISMATCH"));
    }

    #[test]
    fn a_mutated_prediction_is_rejected() {
        let o = prove_pair(&TaskCtx::default(), &workloads::pv(), 3, true);
        assert!(!o.proved());
        assert!(
            o.diags[0].message.contains("cycle mismatch"),
            "{}",
            o.diags[0].message
        );
        let result = report(std::slice::from_ref(&o));
        assert!(result.to_string().contains("MISMATCH"));
    }

    #[test]
    fn json_doc_is_byte_stable_and_parseable() {
        let ctx = ExperimentCtx::serial("prove");
        let outcomes = run_workloads(&ctx, &[workloads::lenet5()], false);
        let doc = json_doc(&outcomes);
        let text = doc.pretty();
        assert_eq!(Json::parse(&text).unwrap(), doc);
        assert_eq!(text, json_doc(&outcomes).pretty());
        assert!(text.contains("\"pairs_proved\": 4"));
        assert!(text.contains("\"delta_cycles\": 0"));
        assert!(text.contains("mapping-residue-idle"));
    }
}
