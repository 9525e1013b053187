//! Ablation studies of FlexFlow's design choices (beyond the paper's
//! own figures, but directly quantifying its three claims):
//!
//! * [`styles`] — *complementary parallelism*: restrict the factor
//!   search to single-parallelism processing styles (what a
//!   Systolic-/2D-Mapping-/Tiling-style engine could achieve on
//!   FlexFlow's substrate) and compare with the full `MFMNMS` planner;
//! * [`local_store`] — *per-PE local stores*: sweep the store capacity
//!   and watch segmentation (partial-sum spills) eat utilization and
//!   traffic on the deep workloads;
//! * [`coupling`] — *IADP inter-layer coupling*: the network-coupled DP
//!   planner vs. a greedy per-layer chain;
//! * [`rc_bound`] — the Section 5 constraint `Tr, Tc ≤ P·K'`: what the
//!   IADP pre-layout guarantee costs in raw per-layer utilization.

use crate::experiment::{Experiment, ExperimentCtx};
use crate::report::{eng, fmt_f, pct, ExperimentResult, Table};
use flexflow::analytic;
use flexsim_dataflow::search::{
    best_unroll, best_unroll_in_style, best_unroll_with_row, plan_network,
};
use flexsim_dataflow::{Style, Unroll};
use flexsim_model::{workloads, Network};

/// Registry entry for the complementary-parallelism ablation.
pub struct AblationStyles;

impl Experiment for AblationStyles {
    fn id(&self) -> &'static str {
        "ablation_styles"
    }
    fn title(&self) -> &'static str {
        "Ablation: complementary parallelism vs. single-parallelism styles"
    }
    fn run(&self, ctx: &ExperimentCtx) -> ExperimentResult {
        styles(ctx)
    }
}

/// Registry entry for the local-store capacity ablation.
pub struct AblationStore;

impl Experiment for AblationStore {
    fn id(&self) -> &'static str {
        "ablation_store"
    }
    fn title(&self) -> &'static str {
        "Ablation: per-PE local store capacity (Table 5 uses 128 words)"
    }
    fn run(&self, ctx: &ExperimentCtx) -> ExperimentResult {
        local_store(ctx)
    }
}

/// Registry entry for the IADP coupling ablation.
pub struct AblationCoupling;

impl Experiment for AblationCoupling {
    fn id(&self) -> &'static str {
        "ablation_coupling"
    }
    fn title(&self) -> &'static str {
        "Ablation: coupled (DP) factor planning vs. greedy per-layer chain"
    }
    fn run(&self, ctx: &ExperimentCtx) -> ExperimentResult {
        coupling(ctx)
    }
}

/// Registry entry for the successor-bound ablation.
pub struct AblationRcBound;

impl Experiment for AblationRcBound {
    fn id(&self) -> &'static str {
        "ablation_rc_bound"
    }
    fn title(&self) -> &'static str {
        "Ablation: the Section 5 successor bound Tr,Tc <= P*K'"
    }
    fn run(&self, ctx: &ExperimentCtx) -> ExperimentResult {
        rc_bound(ctx)
    }
}

/// MAC-weighted utilization of a per-layer style-restricted plan.
fn styled_utilization(net: &Network, d: usize, style: Option<Style>) -> f64 {
    let idxs = net.conv_indices();
    let mut macs = 0u64;
    let mut pe_cycles = 0u64;
    for (pos, layer) in net.conv_layers().enumerate() {
        let bound = net.rc_bound(idxs[pos]);
        let choice = match style {
            None => best_unroll(layer, d, bound),
            Some(st) => best_unroll_in_style(layer, d, bound, st),
        };
        macs += layer.macs();
        pe_cycles += choice.cycles * (d * d) as u64;
    }
    macs as f64 / pe_cycles as f64
}

/// Ablation 1: complementary parallelism.
pub fn styles(ctx: &ExperimentCtx) -> ExperimentResult {
    let d = 16;
    let rows = ctx.map(
        workloads::all(),
        |net| net.name().to_owned(),
        move |_tctx, net| {
            let sp = styled_utilization(&net, d, Some(Style::systolic()));
            let np = styled_utilization(&net, d, Some(Style::mapping2d()));
            let fp = styled_utilization(&net, d, Some(Style::tiling()));
            let full = styled_utilization(&net, d, None);
            let best_single = sp.max(np).max(fp);
            [
                net.name().to_owned(),
                pct(sp),
                pct(np),
                pct(fp),
                pct(full),
                format!("{:.2}x", full / best_single),
            ]
        },
    );
    let mut table = Table::new([
        "workload",
        "SP only (SFSNMS) %",
        "NP only (SFMNSS) %",
        "FP only (MFSNSS) %",
        "full MFMNMS %",
        "gain vs best single",
    ]);
    for row in rows {
        table.push_row(row);
    }
    ExperimentResult {
        id: "ablation_styles".into(),
        title: AblationStyles.title().into(),
        notes: vec![
            "All rows run on the same FlexFlow substrate; only the factor \
             search is restricted. The gain column is the utilization the \
             MFMNMS mixing itself buys (Section 4.2's claim)."
                .into(),
        ],
        table,
    }
}

/// Ablation 2: local-store capacity.
pub fn local_store(ctx: &ExperimentCtx) -> ExperimentResult {
    let d = 16;
    let per_net = ctx.map(
        vec![workloads::alexnet(), workloads::vgg11()],
        |net| net.name().to_owned(),
        move |_tctx, net| {
            let plan = plan_network(&net, d);
            let mut rows: Vec<[String; 5]> = Vec::new();
            for words in [16usize, 32, 64, 128, 256] {
                let mut macs = 0u64;
                let mut pe_cycles = 0u64;
                let mut traffic = 0u64;
                let mut psum = 0u64;
                for (layer, choice) in net.conv_layers().zip(&plan) {
                    let sch = analytic::schedule(layer, choice.unroll, d, words);
                    macs += sch.macs;
                    pe_cycles += sch.cycles * (d * d) as u64;
                    traffic += sch.traffic.total();
                    psum += sch.traffic.psum;
                }
                rows.push([
                    net.name().to_owned(),
                    words.to_string(),
                    pct(macs as f64 / pe_cycles as f64),
                    eng(traffic as f64),
                    eng(psum as f64),
                ]);
            }
            rows
        },
    );
    let mut table = Table::new([
        "workload",
        "store words",
        "utilization %",
        "traffic words",
        "psum words",
    ]);
    for row in per_net.into_iter().flatten() {
        table.push_row(row);
    }
    ExperimentResult {
        id: "ablation_store".into(),
        title: AblationStore.title().into(),
        notes: vec![
            "Smaller stores force more partial-sum segmentation (Fig. 13f \
             spills) and more operand re-streaming; beyond the deep layers' \
             working sets, extra capacity buys nothing."
                .into(),
        ],
        table,
    }
}

/// Ablation 3: IADP network coupling (DP planner vs. greedy chain).
pub fn coupling(ctx: &ExperimentCtx) -> ExperimentResult {
    let d = 16;
    let rows = ctx.map(
        workloads::all(),
        |net| net.name().to_owned(),
        move |_tctx, net| {
            let plan = plan_network(&net, d);
            let planned: u64 = plan.iter().map(|c| c.cycles).sum();

            // Greedy: first layer free, then clamp each layer's row side to
            // the previous col side.
            let idxs = net.conv_indices();
            let mut greedy = 0u64;
            let mut prev: Option<Unroll> = None;
            for (pos, layer) in net.conv_layers().enumerate() {
                let bound = net.rc_bound(idxs[pos]);
                let mut choice = best_unroll(layer, d, bound);
                if let Some(p) = prev {
                    let row = (
                        p.tm.min(layer.n()),
                        p.tr.min(layer.k()),
                        p.tc.min(layer.k()),
                    );
                    choice = best_unroll_with_row(layer, d, bound, row).unwrap_or(choice);
                }
                greedy += choice.cycles;
                prev = Some(choice.unroll);
            }
            [
                net.name().to_owned(),
                greedy.to_string(),
                planned.to_string(),
                fmt_f((1.0 - planned as f64 / greedy as f64) * 100.0, 1),
            ]
        },
    );
    let mut table = Table::new([
        "workload",
        "greedy cycles",
        "planned cycles",
        "improvement %",
    ]);
    for row in rows {
        table.push_row(row);
    }
    ExperimentResult {
        id: "ablation_coupling".into(),
        title: AblationCoupling.title().into(),
        notes: vec![
            "Both planners honour the IADP chain constraint; the DP looks \
             ahead so an early layer's ⟨Tm,Tr,Tc⟩ choice doesn't strand a \
             later layer with a bad ⟨Tn,Ti,Tj⟩."
                .into(),
        ],
        table,
    }
}

/// Ablation 4: the `Tr, Tc ≤ P·K'` successor constraint.
pub fn rc_bound(ctx: &ExperimentCtx) -> ExperimentResult {
    let pairs: Vec<(usize, Network)> = [16usize, 32, 64]
        .into_iter()
        .flat_map(|d| workloads::all().into_iter().map(move |net| (d, net)))
        .collect();
    let rows = ctx.map(
        pairs,
        |(d, net)| format!("{d}x{d}/{}", net.name()),
        |_tctx, (d, net)| {
            let idxs = net.conv_indices();
            let mut bsum = 0.0;
            let mut usum = 0.0;
            let mut count = 0.0;
            let mut worst = 0.0f64;
            for (pos, layer) in net.conv_layers().enumerate() {
                let Some(bound) = net.rc_bound(idxs[pos]) else {
                    continue; // last layer: no bound to ablate
                };
                let bounded = best_unroll(layer, d, Some(bound));
                let unbounded = best_unroll(layer, d, None);
                bsum += bounded.total_utilization();
                usum += unbounded.total_utilization();
                count += 1.0;
                worst = worst.max(unbounded.total_utilization() - bounded.total_utilization());
            }
            [
                format!("{d}x{d}"),
                net.name().to_owned(),
                pct(bsum / count),
                pct(usum / count),
                format!("{:.1} pts", worst * 100.0),
            ]
        },
    );
    let mut table = Table::new([
        "engine",
        "workload",
        "mean bounded Ut %",
        "mean unbounded Ut %",
        "worst layer cost",
    ]);
    for row in rows {
        table.push_row(row);
    }
    ExperimentResult {
        id: "ablation_rc_bound".into(),
        title: AblationRcBound.title().into(),
        notes: vec![
            "Dropping the bound would let some layers pick bigger spatial \
             factors, but their outputs would land in the wrong IADP layout \
             for the next layer — the cost column is what FlexFlow pays for \
             congestion-free layer transitions."
                .into(),
            "Finding: across 16x16-64x64 engines and all six workloads the \
             bound never costs a single utilization point — the engine-size \
             constraint Tm*Tr*Tc <= D always dominates P*K' (>= 6 for these \
             nets), so IADP's congestion-free layer handoff is free. The \
             paper never quantifies this; it explains why FlexFlow can \
             afford the strict output-layout guarantee."
                .into(),
        ],
        table,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixing_beats_every_single_style() {
        let r = styles(&ExperimentCtx::serial("ablation_styles"));
        for row in r.table.rows() {
            let full: f64 = row[4].parse().unwrap();
            for col in 1..=3 {
                let single: f64 = row[col].parse().unwrap();
                assert!(
                    full >= single - 1e-9,
                    "{}: full {full}% below {}",
                    row[0],
                    r.table.headers()[col]
                );
            }
            let gain: f64 = row[5].trim_end_matches('x').parse().unwrap();
            assert!(gain >= 1.0);
        }
        // On at least half the workloads the mix buys >15%.
        let big_gains = r
            .table
            .rows()
            .iter()
            .filter(|row| row[5].trim_end_matches('x').parse::<f64>().unwrap() > 1.15)
            .count();
        assert!(big_gains >= 3, "only {big_gains} workloads gain >15%");
    }

    #[test]
    fn store_capacity_is_monotone_in_utilization() {
        let r = local_store(&ExperimentCtx::serial("ablation_store"));
        for wl in ["AlexNet", "VGG-11"] {
            let utils: Vec<f64> = r
                .table
                .rows()
                .iter()
                .filter(|row| row[0] == wl)
                .map(|row| row[2].parse().unwrap())
                .collect();
            assert_eq!(utils.len(), 5);
            for pair in utils.windows(2) {
                // Bigger stores occasionally trade a sliver of cycles
                // for much less traffic (the residency-strategy choice
                // optimizes energy, not utilization alone).
                assert!(
                    pair[1] >= pair[0] - 0.5,
                    "{wl}: utilization must not drop materially with bigger stores"
                );
            }
            // Tiny stores must hurt.
            assert!(utils[0] < utils[4]);
        }
    }

    #[test]
    fn rc_bound_is_free_at_every_scale() {
        // The surprising (and checkable) finding: the engine-size
        // constraint dominates P*K' on every workload and scale, so the
        // IADP layout guarantee costs nothing.
        let r = rc_bound(&ExperimentCtx::serial("ablation_rc_bound"));
        assert_eq!(r.table.rows().len(), 18); // 3 scales x 6 workloads
        for row in r.table.rows() {
            let bounded: f64 = row[2].parse().unwrap();
            let unbounded: f64 = row[3].parse().unwrap();
            assert!(unbounded + 1e-6 >= bounded, "{}/{}", row[0], row[1]);
            assert!(
                (unbounded - bounded).abs() < 0.1,
                "{}/{}: bound unexpectedly binds",
                row[0],
                row[1]
            );
        }
    }

    #[test]
    fn planned_never_slower_than_greedy() {
        let r = coupling(&ExperimentCtx::serial("ablation_coupling"));
        for row in r.table.rows() {
            let greedy: u64 = row[1].parse().unwrap();
            let planned: u64 = row[2].parse().unwrap();
            assert!(planned <= greedy, "{}: DP slower than greedy", row[0]);
        }
    }
}
