//! Figure 15 — computing resource utilization, four architectures ×
//! six workloads.

use crate::arches::{ArchSet, ALL_ARCHES, ARCH_NAMES};
use crate::experiment::{Experiment, ExperimentCtx};
use crate::report::{pct, ExperimentResult, Table};
use flexsim_model::workloads;

/// The registry entry for this experiment.
pub struct Fig15;

impl Experiment for Fig15 {
    fn id(&self) -> &'static str {
        "fig15"
    }
    fn title(&self) -> &'static str {
        "Computing resource utilization for different baselines"
    }
    fn run(&self, ctx: &ExperimentCtx) -> ExperimentResult {
        run(ctx)
    }
}

/// Runs the experiment.
pub fn run(ctx: &ExperimentCtx) -> ExperimentResult {
    let mut table = Table::new([
        "workload",
        "Systolic %",
        "2D-Mapping %",
        "Tiling %",
        "FlexFlow %",
    ]);
    let nets = workloads::all();
    let utils = ctx.map_pairs(&nets, &ALL_ARCHES, |tctx, net, idx| {
        let mut acc = ArchSet::builder().sink(tctx.sink()).build_one(net, idx);
        acc.run_network(net).utilization()
    });
    for (net, utils) in nets.iter().zip(utils.chunks(ARCH_NAMES.len())) {
        let mut row = vec![net.name().to_owned()];
        row.extend(utils.iter().copied().map(pct));
        table.push_row(row);
    }
    ExperimentResult {
        id: "fig15".into(),
        title: Fig15.title().into(),
        notes: vec![
            "Paper (bars): FlexFlow >80% everywhere; baselines mostly <40%, \
             volatile across workloads; Tiling high only on AlexNet/VGG \
             (feature-map counts are multiples of 16)."
                .into(),
        ],
        table,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(r: &ExperimentResult, wl: &str, arch: &str) -> f64 {
        r.table.cell(wl, arch).unwrap().parse().unwrap()
    }

    fn run_serial() -> ExperimentResult {
        run(&ExperimentCtx::serial("fig15"))
    }

    #[test]
    fn flexflow_leads_every_workload() {
        let r = run_serial();
        for row in r.table.rows() {
            let ff: f64 = row[4].parse().unwrap();
            for c in 1..=3 {
                let other: f64 = row[c].parse().unwrap();
                assert!(
                    ff > other,
                    "{}: FlexFlow {ff}% vs {} {other}%",
                    row[0],
                    r.table.headers()[c]
                );
            }
            assert!(ff > 70.0, "{}: FlexFlow only {ff}%", row[0]);
        }
    }

    #[test]
    fn tiling_recovers_on_alexnet_and_vgg() {
        // The paper's crossover: Tiling is near-useless on the small
        // nets but competitive on AlexNet/VGG.
        let r = run_serial();
        let small = col(&r, "LeNet-5", "Tiling %");
        let alex = col(&r, "AlexNet", "Tiling %");
        let vgg = col(&r, "VGG-11", "Tiling %");
        assert!(alex > 3.0 * small);
        assert!(vgg > 3.0 * small);
        assert!(alex > 50.0 && vgg > 60.0);
    }

    #[test]
    fn baselines_are_volatile() {
        // Per-architecture spread across workloads exceeds 25 points for
        // at least two baselines (the "volatile" observation).
        let r = run_serial();
        let mut volatile = 0;
        for c in 1..=3 {
            let vals: Vec<f64> = r
                .table
                .rows()
                .iter()
                .map(|row| row[c].parse().unwrap())
                .collect();
            let max = vals.iter().cloned().fold(f64::MIN, f64::max);
            let min = vals.iter().cloned().fold(f64::MAX, f64::min);
            if max - min > 25.0 {
                volatile += 1;
            }
        }
        assert!(volatile >= 2);
    }

    #[test]
    fn parallel_and_serial_runs_are_identical() {
        let serial = run(&ExperimentCtx::serial("fig15"));
        let report = crate::experiment::run_suite(
            &[&Fig15],
            &crate::experiment::SuiteConfig {
                jobs: 4,
                trace: false,
            },
        );
        assert!(report.failures.is_empty());
        assert_eq!(serial.to_json(), report.results[0].to_json());
    }
}
