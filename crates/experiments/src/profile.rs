//! `profile` — per-layer cycle-loss attribution and roofline analysis
//! for every architecture.
//!
//! Not a figure from the paper: the diagnostic report behind `flexsim
//! profile <workload>`. Each (workload, architecture) pair runs through
//! [`run_pair`], which hands its cycle timelines to `--trace` and folds
//! every layer's event stream into a [`LossLedger`] (gated by flexcheck
//! `FXC09 attribution-exactness` — the ledger must balance to the last
//! PE-cycle), classifies each layer compute- vs bandwidth-bound on the
//! DDR3-style roofline, and renders, per layer:
//!
//! * cycles and analytic utilization (the bars of Fig. 15),
//! * the roofline bound and arithmetic intensity (ops per DRAM word),
//! * the top loss causes as percentages of total PE-cycles — the
//!   paper's Table 3 "why utilization is lost" story, made exact.
//!
//! A final `(all)` row per (workload, architecture) aggregates the
//! network, so the report doubles as a cross-architecture comparison.
//! Excluded from `flexsim all`; run it with `flexsim profile
//! [workload]`.

use crate::arches::{run_pair, PairRun, ALL_ARCHES};
use crate::experiment::{Experiment, ExperimentCtx, TaskCtx};
use crate::report::{eng, pct, ExperimentResult, Table};
use flexsim_arch::bandwidth::DramInterface;
use flexsim_model::{workloads, Network};
use flexsim_obs::attrib::LossLedger;
use flexsim_obs::roofline::{classify, LayerRoofline};

/// How many loss causes the `top losses` column shows per layer.
const TOP_CAUSES: usize = 2;

/// The registry entry for this experiment (not part of the sweep).
pub struct Profile;

impl Experiment for Profile {
    fn id(&self) -> &'static str {
        "profile"
    }
    fn title(&self) -> &'static str {
        "Per-layer loss attribution + roofline (flexsim profile)"
    }
    fn in_sweep(&self) -> bool {
        false
    }
    fn run(&self, ctx: &ExperimentCtx) -> ExperimentResult {
        run(ctx)
    }
}

/// Runs the report over every Table 1 workload.
pub fn run(ctx: &ExperimentCtx) -> ExperimentResult {
    run_workloads(ctx, &workloads::all())
}

/// Runs the report over a chosen set of workloads (`flexsim profile
/// alexnet` passes exactly one).
pub fn run_workloads(ctx: &ExperimentCtx, nets: &[Network]) -> ExperimentResult {
    let row_groups = ctx.map_pairs(nets, &ALL_ARCHES, profile_one);
    let mut table = Table::new([
        "workload",
        "arch",
        "layer",
        "cycles",
        "util %",
        "bound",
        "ops/word",
        "top losses (% of PE-cycles)",
    ]);
    for row in row_groups.into_iter().flatten() {
        table.push_row(row);
    }
    ExperimentResult {
        id: "profile".into(),
        title: Profile.title().into(),
        notes: vec![
            "Loss columns are trace-derived: each run is re-recorded \
             through a private cycle-event sink and folded into per-layer \
             loss ledgers; every ledger is checked against flexcheck FXC09 \
             (busy + \u{3a3} attributed lost == cycles \u{d7} PEs, no \
             unattributed bucket)."
                .into(),
            "`bound` classifies the layer on a DDR3-style roofline \
             (6.4 GB/s sustained): bandwidth-bound when ops/word \u{d7} \
             words/s undercuts the engine's peak GOPS."
                .into(),
            "`(all)` rows aggregate the network \u{2014} compare them \
             across architectures for the Fig. 15 story with exact \
             attribution."
                .into(),
        ],
        table,
    }
}

/// Profiles one (workload, architecture) pair: per-layer rows plus the
/// aggregate `(all)` row.
fn profile_one(tctx: &TaskCtx, net: &Network, arch_idx: usize) -> Vec<[String; 8]> {
    let PairRun {
        arch,
        pe_count,
        summary,
        ledgers: layer_ledgers,
        diags,
        ..
    } = run_pair(tctx, net, arch_idx, false);

    // The FXC09 gate: an unbalanced ledger is a simulator bug, not a
    // reportable result.
    assert!(
        diags.is_empty(),
        "{}/{arch}: {}",
        net.name(),
        flexcheck::render(&diags)
    );
    assert_eq!(
        layer_ledgers.len(),
        summary.layers.len(),
        "{}/{arch}: one timeline per simulated layer",
        net.name(),
    );

    let dram = DramInterface::default();
    let mut rows = Vec::with_capacity(summary.layers.len() + 1);
    let mut net_ledger: Option<LossLedger> = None;
    for (lr, ledger) in summary.layers.iter().zip(&layer_ledgers) {
        assert_eq!(lr.layer, ledger.layer, "timeline order matches results");
        let roof = classify(
            (2 * lr.macs) as f64,
            (lr.events.dram_reads + lr.events.dram_writes) as f64,
            dram.words_per_second(),
            lr.nominal_gops(),
        );
        rows.push([
            net.name().to_owned(),
            arch.to_owned(),
            lr.layer.clone(),
            eng(lr.cycles as f64),
            pct(lr.utilization()),
            roof.bound.name().to_owned(),
            fmt_intensity(&roof),
            fmt_losses(ledger),
        ]);
        match &mut net_ledger {
            Some(total) => total.absorb(ledger),
            None => net_ledger = Some(ledger.clone()),
        }
    }
    if let Some(total) = net_ledger {
        let ev = summary.events();
        let roof = classify(
            (2 * summary.macs()) as f64,
            (ev.dram_reads + ev.dram_writes) as f64,
            dram.words_per_second(),
            2.0 * pe_count as f64,
        );
        rows.push([
            net.name().to_owned(),
            arch.to_owned(),
            "(all)".to_owned(),
            eng(summary.cycles() as f64),
            pct(summary.utilization()),
            roof.bound.name().to_owned(),
            fmt_intensity(&roof),
            fmt_losses(&total),
        ]);
    }
    rows
}

/// Arithmetic intensity, `inf` when the layer touches no DRAM words.
fn fmt_intensity(roof: &LayerRoofline) -> String {
    if roof.intensity.is_finite() {
        format!("{:.1}", roof.intensity)
    } else {
        "inf".to_owned()
    }
}

/// The top loss causes as `cause p%` pairs, largest first.
fn fmt_losses(ledger: &LossLedger) -> String {
    let total = ledger.total_pe_cycles();
    if total == 0 {
        return "-".to_owned();
    }
    let top = ledger.top_causes();
    if top.is_empty() {
        return "-".to_owned();
    }
    top.iter()
        .take(TOP_CAUSES)
        .map(|(cause, lost)| format!("{} {:.1}%", cause, 100.0 * *lost as f64 / total as f64))
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arches::ARCH_NAMES;
    use flexsim_model::registry::WorkloadRegistry;

    #[test]
    fn covers_every_workload_arch_and_layer() {
        let r = run(&ExperimentCtx::serial("profile"));
        let expected: usize = workloads::all()
            .iter()
            .map(|net| (net.conv_layers().count() + 1) * ARCH_NAMES.len())
            .sum();
        assert_eq!(r.table.rows().len(), expected);
        for row in r.table.rows() {
            assert!(ARCH_NAMES.contains(&row[1].as_str()), "{row:?}");
            let util: f64 = row[4].parse().unwrap();
            assert!(util > 0.0 && util <= 100.0, "{row:?}");
            assert!(
                row[5] == "compute" || row[5] == "bandwidth",
                "bound column: {row:?}"
            );
            assert_ne!(row[7], "", "loss column never empty: {row:?}");
        }
    }

    #[test]
    fn single_workload_report_is_cross_arch() {
        let r = run_workloads(
            &ExperimentCtx::serial("profile"),
            &[WorkloadRegistry::new().resolve("lenet5").unwrap()],
        );
        // 2 conv layers + the (all) row, for each of the 4 architectures.
        assert_eq!(r.table.rows().len(), 3 * ARCH_NAMES.len());
        let all_rows: Vec<_> = r
            .table
            .rows()
            .iter()
            .filter(|row| row[2] == "(all)")
            .collect();
        assert_eq!(all_rows.len(), ARCH_NAMES.len());
    }

    #[test]
    fn ledgers_are_exact_for_every_arch() {
        // The invariant behind every rendered row: the ledger balances
        // and busy PE-cycles equal the analytic MAC count.
        let net = workloads::lenet5();
        for idx in ALL_ARCHES {
            let run = run_pair(&TaskCtx::default(), &net, idx, false);
            for (lr, ledger) in run.summary.layers.iter().zip(&run.ledgers) {
                assert!(ledger.is_exact(), "{}/{}", run.arch, ledger.layer);
                assert_eq!(ledger.busy_pe_cycles, lr.macs, "{}", run.arch);
                assert!(flexcheck::check_ledger(ledger).is_empty());
            }
        }
    }
}
