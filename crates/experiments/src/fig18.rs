//! Figure 18 — power efficiency (GOPS/W), energy, and power, four
//! architectures × six workloads.

use crate::arches::{ArchSet, ALL_ARCHES, ARCH_NAMES};
use crate::experiment::{Experiment, ExperimentCtx};
use crate::report::{fmt_f, ExperimentResult, Table};
use flexsim_model::workloads;

/// The registry entry for this experiment.
pub struct Fig18;

impl Experiment for Fig18 {
    fn id(&self) -> &'static str {
        "fig18"
    }
    fn title(&self) -> &'static str {
        "Power efficiency (a), energy (b), and power (c)"
    }
    fn run(&self, ctx: &ExperimentCtx) -> ExperimentResult {
        run(ctx)
    }
}

/// Runs the experiment (all three panels in one table).
pub fn run(ctx: &ExperimentCtx) -> ExperimentResult {
    let mut table = Table::new([
        "workload",
        "metric",
        "Systolic",
        "2D-Mapping",
        "Tiling",
        "FlexFlow",
    ]);
    let nets = workloads::all();
    let metrics = ctx.map_pairs(&nets, &ALL_ARCHES, |tctx, net, idx| {
        let mut acc = ArchSet::builder().sink(tctx.sink()).build_one(net, idx);
        let s = acc.run_network(net);
        (
            s.efficiency_gops_per_w(),
            s.energy_j() * 1e6, // µJ
            s.power_w() * 1e3,  // mW
        )
    });
    for (net, metrics) in nets.iter().zip(metrics.chunks(ARCH_NAMES.len())) {
        let mut row = vec![net.name().to_owned(), "GOPS/W".to_owned()];
        row.extend(metrics.iter().map(|(eff, _, _)| fmt_f(*eff, 0)));
        table.push_row(row);
        let mut row = vec![net.name().to_owned(), "energy uJ".to_owned()];
        row.extend(metrics.iter().map(|(_, energy, _)| fmt_f(*energy, 1)));
        table.push_row(row);
        let mut row = vec![net.name().to_owned(), "power mW".to_owned()];
        row.extend(metrics.iter().map(|(_, _, power)| fmt_f(*power, 0)));
        table.push_row(row);
    }
    ExperimentResult {
        id: "fig18".into(),
        title: Fig18.title().into(),
        notes: vec!["Paper: FlexFlow has the highest efficiency (1.5-2.5x over \
             Systolic/2D-Mapping, up to 10x over Tiling) and the lowest \
             energy, while drawing the highest raw power (utilization!)."
            .into()],
        table,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric_rows(r: &ExperimentResult, metric: &str) -> Vec<Vec<f64>> {
        r.table
            .rows()
            .iter()
            .filter(|row| row[1] == metric)
            .map(|row| row[2..].iter().map(|v| v.parse().unwrap()).collect())
            .collect()
    }

    fn run_serial() -> ExperimentResult {
        run(&ExperimentCtx::serial("fig18"))
    }

    #[test]
    fn flexflow_most_efficient_everywhere() {
        let r = run_serial();
        for vals in metric_rows(&r, "GOPS/W") {
            let ff = vals[3];
            for (i, &v) in vals[..3].iter().enumerate() {
                assert!(ff > v, "FlexFlow {ff} vs baseline {i} {v}");
            }
        }
    }

    #[test]
    fn flexflow_lowest_energy_everywhere() {
        let r = run_serial();
        for vals in metric_rows(&r, "energy uJ") {
            let ff = vals[3];
            for &v in &vals[..3] {
                assert!(ff < v);
            }
        }
    }

    #[test]
    fn flexflow_draws_the_highest_power() {
        // Fig. 18c: high utilization costs watts.
        let r = run_serial();
        let mut highest = 0;
        for vals in metric_rows(&r, "power mW") {
            let ff = vals[3];
            if vals[..3].iter().all(|&v| ff > v) {
                highest += 1;
            }
        }
        assert!(highest >= 5, "FlexFlow highest power on only {highest}/6");
    }

    #[test]
    fn efficiency_gap_over_tiling_is_large() {
        let r = run_serial();
        // On the small nets the Tiling gap approaches the paper's 10x.
        let rows = metric_rows(&r, "GOPS/W");
        let lenet = &rows[2]; // PV, FR, LeNet-5 order
        assert!(lenet[3] / lenet[2] > 4.0);
    }
}
