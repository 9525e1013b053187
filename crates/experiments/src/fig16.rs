//! Figure 16 — performance (GOPS at 1 GHz), four architectures × six
//! workloads.

use crate::arches::{ArchSet, ALL_ARCHES, ARCH_NAMES};
use crate::experiment::{Experiment, ExperimentCtx};
use crate::report::{fmt_f, ExperimentResult, Table};
use flexsim_model::workloads;

/// The registry entry for this experiment.
pub struct Fig16;

impl Experiment for Fig16 {
    fn id(&self) -> &'static str {
        "fig16"
    }
    fn title(&self) -> &'static str {
        "Performance for different baselines (GOPS @ 1 GHz)"
    }
    fn run(&self, ctx: &ExperimentCtx) -> ExperimentResult {
        run(ctx)
    }
}

/// Runs the experiment.
pub fn run(ctx: &ExperimentCtx) -> ExperimentResult {
    let mut table = Table::new([
        "workload",
        "Systolic",
        "2D-Mapping",
        "Tiling",
        "FlexFlow",
        "speedup vs best baseline",
    ]);
    let nets = workloads::all();
    let gops = ctx.map_pairs(&nets, &ALL_ARCHES, |tctx, net, idx| {
        let mut acc = ArchSet::builder().sink(tctx.sink()).build_one(net, idx);
        acc.run_network(net).gops()
    });
    for (net, gops) in nets.iter().zip(gops.chunks(ARCH_NAMES.len())) {
        let best_baseline = gops[..3].iter().cloned().fold(f64::MIN, f64::max);
        let mut row = vec![net.name().to_owned()];
        row.extend(gops.iter().map(|g| fmt_f(*g, 1)));
        row.push(format!("{:.2}x", gops[3] / best_baseline));
        table.push_row(row);
    }
    ExperimentResult {
        id: "fig16".into(),
        title: Fig16.title().into(),
        notes: vec![
            "Paper: FlexFlow constantly above 420 GOPS; >2x over Systolic and \
             2D-Mapping, up to 10x over Tiling."
                .into(),
        ],
        table,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::claims;

    fn run_serial() -> ExperimentResult {
        run(&ExperimentCtx::serial("fig16"))
    }

    #[test]
    fn flexflow_above_420_gops_on_most_workloads() {
        let r = run_serial();
        let mut above = 0;
        for row in r.table.rows() {
            let ff: f64 = row[4].parse().unwrap();
            assert!(ff > 350.0, "{}: {ff} GOPS", row[0]);
            if ff > claims::FLEXFLOW_MIN_GOPS {
                above += 1;
            }
        }
        assert!(above >= 4, "only {above}/6 workloads above 420 GOPS");
    }

    #[test]
    fn flexflow_wins_every_workload() {
        let r = run_serial();
        for row in r.table.rows() {
            let ff: f64 = row[4].parse().unwrap();
            for c in 1..=3 {
                let other: f64 = row[c].parse().unwrap();
                assert!(ff > other, "{}: col {c}", row[0]);
            }
        }
    }

    #[test]
    fn speedups_land_in_the_abstracts_band() {
        // "2-10x performance speedup": FlexFlow vs *each* baseline stays
        // within (or above 1.5x of) that band somewhere, and vs Tiling
        // reaches large factors on small nets.
        let r = run_serial();
        let lenet = r
            .table
            .rows()
            .iter()
            .find(|row| row[0] == "LeNet-5")
            .unwrap()
            .clone();
        let ff: f64 = lenet[4].parse().unwrap();
        let tiling: f64 = lenet[3].parse().unwrap();
        assert!(
            ff / tiling > 5.0,
            "FlexFlow/Tiling on LeNet = {:.1}",
            ff / tiling
        );
        let sys: f64 = lenet[1].parse().unwrap();
        assert!(
            ff / sys > 1.8,
            "FlexFlow/Systolic on LeNet = {:.1}",
            ff / sys
        );
    }
}
