//! Figure 1 — nominal vs. achievable performance of the three baseline
//! architectures on LeNet-5.
//!
//! The paper's motivating figure: engines promise `2·PEs·f` GOPS but
//! deliver a fraction of it on a real workload ("It's not uncommon that
//! merely 10% GOPS is achieved in practice").

use crate::arches::ArchSet;
use crate::experiment::{Experiment, ExperimentCtx};
use crate::report::{fmt_f, pct, ExperimentResult, Table};
use flexsim_model::workloads;

/// The registry entry for this experiment.
pub struct Fig01;

impl Experiment for Fig01 {
    fn id(&self) -> &'static str {
        "fig01"
    }
    fn title(&self) -> &'static str {
        "Nominal vs. achievable performance (LeNet-5)"
    }
    fn aliases(&self) -> &'static [&'static str] {
        &["fig1"]
    }
    fn run(&self, ctx: &ExperimentCtx) -> ExperimentResult {
        run(ctx)
    }
}

/// Runs the experiment.
pub fn run(ctx: &ExperimentCtx) -> ExperimentResult {
    let net = workloads::lenet5();
    let mut table = Table::new([
        "architecture",
        "nominal GOPS",
        "achieved GOPS",
        "achievable/nominal %",
    ]);
    // Fig. 1 shows the three prior architectures; FlexFlow (index 3)
    // is excluded.
    let wl = net.name().to_owned();
    let rows = ctx.map(
        (0..3usize).collect(),
        |&idx| format!("{wl}/{}", crate::arches::ARCH_NAMES[idx]),
        move |tctx, idx| {
            let mut acc = ArchSet::builder().sink(tctx.sink()).build_one(&net, idx);
            let summary = acc.run_network(&net);
            let nominal = 2.0 * acc.pe_count() as f64 * flexsim_arch::CLOCK_GHZ;
            let achieved = summary.gops();
            [
                acc.name().to_owned(),
                fmt_f(nominal, 0),
                fmt_f(achieved, 1),
                pct(achieved / nominal),
            ]
        },
    );
    for row in rows {
        table.push_row(row);
    }
    ExperimentResult {
        id: "fig01".into(),
        title: Fig01.title().into(),
        notes: vec![
            "Paper shows unlabeled bars; the text's claim is that achievable \
             performance drops far below nominal (down to ~10%)."
                .into(),
        ],
        table,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_serial() -> ExperimentResult {
        run(&ExperimentCtx::serial("fig01"))
    }

    #[test]
    fn all_baselines_fall_well_short_of_nominal() {
        let r = run_serial();
        assert_eq!(r.table.rows().len(), 3);
        for row in r.table.rows() {
            let ratio: f64 = row[3].parse().unwrap();
            assert!(
                ratio < 60.0,
                "{}: achievable {}% should be far below nominal",
                row[0],
                row[3]
            );
        }
    }

    #[test]
    fn tiling_is_the_worst_on_lenet() {
        // LeNet-5 has few feature maps; Tiling starves (Fig. 1's lowest
        // bar in our reading and Table 3's 6-8% entries).
        let r = run_serial();
        let ratio = |name: &str| -> f64 {
            r.table
                .cell(name, "achievable/nominal %")
                .unwrap()
                .parse()
                .unwrap()
        };
        assert!(ratio("Tiling") < ratio("Systolic"));
        assert!(ratio("Tiling") < ratio("2D-Mapping"));
        assert!(ratio("Tiling") < 12.0);
    }
}
