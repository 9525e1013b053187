//! Table 6 — FlexFlow's power breakdown by component.
//!
//! Columns follow the paper: `Pnein` (input-neuron buffer), `Pneout`
//! (output-neuron buffer), `Pkerin` (kernel buffer), and `Pcom` (the
//! computing engine with its local stores, buses, and pooling).

use crate::arches::ArchSet;
use crate::experiment::{Experiment, ExperimentCtx};
use crate::report::{fmt_f, ExperimentResult, Table};
use flexsim_model::workloads;

/// The registry entry for this experiment.
pub struct Table06;

impl Experiment for Table06 {
    fn id(&self) -> &'static str {
        "table06"
    }
    fn title(&self) -> &'static str {
        "FlexFlow power breakdown by component"
    }
    fn aliases(&self) -> &'static [&'static str] {
        &["table6"]
    }
    fn run(&self, ctx: &ExperimentCtx) -> ExperimentResult {
        run(ctx)
    }
}

/// Runs the experiment.
pub fn run(ctx: &ExperimentCtx) -> ExperimentResult {
    let rows = ctx.map(
        workloads::all(),
        |net| net.name().to_owned(),
        |tctx, net| {
            let mut ff = ArchSet::builder().sink(tctx.sink()).build_one(&net, 3);
            let s = ff.run_network(&net);
            let t = s.time_s();
            let e = s.energy();
            let mw = |j: f64| j / t * 1e3;
            let total = e.on_chip_j();
            let cell = |j: f64| format!("{} ({})", fmt_f(mw(j), 0), fmt_f(j / total * 100.0, 1));
            let com_j = e.compute_j() + e.stream_buf_j;
            let paper = crate::paper::TABLE6_MW
                .iter()
                .find(|(wl, ..)| *wl == net.name())
                .expect("paper row");
            [
                net.name().to_owned(),
                cell(e.neuron_in_buf_j),
                cell(e.neuron_out_buf_j),
                cell(e.kernel_buf_j),
                cell(com_j),
                format!("{}/{}/{}/{}", paper.1, paper.2, paper.3, paper.4),
            ]
        },
    );
    let mut table = Table::new([
        "workload",
        "Pnein mW (%)",
        "Pneout mW (%)",
        "Pkerin mW (%)",
        "Pcom mW (%)",
        "paper Pnein/Pneout/Pkerin/Pcom mW",
    ]);
    for row in rows {
        table.push_row(row);
    }
    ExperimentResult {
        id: "table06".into(),
        title: Table06.title().into(),
        notes: vec!["Shape target: buffers take <20% of the power budget; the \
             computing engine (PEs + local stores) dominates."
            .into()],
        table,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_serial() -> ExperimentResult {
        run(&ExperimentCtx::serial("table06"))
    }

    fn pcom_pct(row: &[String]) -> f64 {
        let cell = &row[4];
        let open = cell.find('(').unwrap();
        cell[open + 1..cell.len() - 1].parse().unwrap()
    }

    #[test]
    fn compute_dominates_like_the_paper() {
        // Paper: Pcom is 79.9-85.8% of the total.
        let r = run_serial();
        for row in r.table.rows() {
            let pcom = pcom_pct(row);
            assert!(
                pcom > 70.0,
                "{}: Pcom only {pcom}% of on-chip power",
                row[0]
            );
        }
    }

    #[test]
    fn buffer_shares_are_small() {
        let r = run_serial();
        for row in r.table.rows() {
            for col in 1..=3 {
                let cell = &row[col];
                let open = cell.find('(').unwrap();
                let pct: f64 = cell[open + 1..cell.len() - 1].parse().unwrap();
                assert!(
                    pct < 20.0,
                    "{}: {} = {pct}%",
                    row[0],
                    r.table.headers()[col]
                );
            }
        }
    }

    #[test]
    fn total_power_in_watt_class() {
        // Paper totals: 0.84-1.12 W.
        let r = run_serial();
        for row in r.table.rows() {
            let total: f64 = (1..=4)
                .map(|c| {
                    let cell = &row[c];
                    cell[..cell.find(' ').unwrap()].parse::<f64>().unwrap()
                })
                .sum();
            assert!(
                (300.0..2500.0).contains(&total),
                "{}: total {total} mW",
                row[0]
            );
        }
    }
}
