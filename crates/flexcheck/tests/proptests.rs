//! Property tests for the static rules.
//!
//! The main obligation from the verifier's contract is **no false
//! positives**: every *legal* unroll (random factors clamped to the
//! layer and the engine the way the search space is built) yields a
//! clean [`flexcheck::LayerPlan`]: zero diagnostics across all eight
//! rules, at ≥1000 random cases.

use flexcheck::{check_interference, check_layer_plan, ArchParams, LayerPlan, RuleId};
use flexflow::local_store::STORE_WORDS;
use flexflow::FlexFlow;
use flexsim_dataflow::Unroll;
use flexsim_model::ConvLayer;
use flexsim_obs::attrib::LossLedger;
use flexsim_obs::cycles::LayerCtx;
use flexsim_testkit::{prop, prop_assert, prop_assert_eq};

/// Legalizes random factors the way the planner's search space does:
/// clamp to the layer's loop bounds, then shed occupancy until the
/// unroll fits the `d×d` engine (Constraint (1)).
fn legalize(u: Unroll, layer: &ConvLayer, d: usize) -> Unroll {
    let mut u = u.clamped_to(layer);
    while u.rows_used() > d {
        if u.tm >= u.tr && u.tm >= u.tc {
            u.tm -= 1;
        } else if u.tr >= u.tc {
            u.tr -= 1;
        } else {
            u.tc -= 1;
        }
    }
    while u.cols_used() > d {
        if u.tn >= u.ti && u.tn >= u.tj {
            u.tn -= 1;
        } else if u.ti >= u.tj {
            u.ti -= 1;
        } else {
            u.tj -= 1;
        }
    }
    u
}

#[test]
fn legal_unrolls_lint_clean() {
    let arch = ArchParams::flexflow_paper();
    prop::check(
        "legal_unrolls_lint_clean",
        1024,
        (
            1usize..=64, // M
            1usize..=32, // N
            1usize..=32, // S
            1usize..=7,  // K
            1usize..=16, // Tm
            1usize..=16, // Tn
            1usize..=16, // Tr
            1usize..=16, // Tc
            1usize..=16, // Ti
            1usize..=16, // Tj
        ),
        |&(m, n, s, k, tm, tn, tr, tc, ti, tj)| {
            let layer = ConvLayer::new("P", m, n, s, k);
            let u = legalize(Unroll::new(tm, tn, tr, tc, ti, tj), &layer, arch.d);
            prop_assert!(u.satisfies(&layer, arch.d, None), "legalize broke {u}");
            let plan =
                LayerPlan::derive(&layer, 0, u, arch.d, STORE_WORDS).map_err(|d| d.to_string())?;
            let diags = check_layer_plan(&plan, &arch);
            prop_assert!(
                diags.is_empty(),
                "false positive on {u} for M={m} N={n} S={s} K={k}: {}",
                flexcheck::render(&diags)
            );
            Ok(())
        },
    );
}

#[test]
fn symbolic_flexflow_prediction_matches_the_analytic_schedule() {
    // The engine's closed-form prediction must agree with
    // `core::analytic::schedule` — the engine's own ground truth — on
    // total cycles and busy PE-cycles for every legal unroll, and its
    // ledger must balance exactly (FXC09), at 2048 random cases.
    let engine = FlexFlow::new(16);
    prop::check(
        "symbolic_matches_analytic",
        2048,
        (
            1usize..=64, // M
            1usize..=32, // N
            1usize..=32, // S
            1usize..=7,  // K
            1usize..=16, // Tm
            1usize..=16, // Tn
            1usize..=16, // Tr
            1usize..=16, // Tc
            1usize..=16, // Ti
            1usize..=16, // Tj
        ),
        |&(m, n, s, k, tm, tn, tr, tc, ti, tj)| {
            let layer = ConvLayer::new("P", m, n, s, k);
            let u = legalize(Unroll::new(tm, tn, tr, tc, ti, tj), &layer, 16);
            let sch = flexflow::analytic::schedule(&layer, u, 16, STORE_WORDS);
            let timeline = engine.predict_with(&layer, u);
            let ledger = LossLedger::from_timeline(&timeline);
            prop_assert_eq!(
                ledger.total_cycles,
                sch.cycles,
                "cycles diverge on {u} for M={m} N={n} S={s} K={k}"
            );
            prop_assert_eq!(
                ledger.busy_pe_cycles,
                sch.macs,
                "busy PE-cycles diverge on {u} for M={m} N={n} S={s} K={k}"
            );
            prop_assert!(ledger.is_exact(), "unattributed loss on {u}");
            Ok(())
        },
    );
}

#[test]
fn aggregate_lost_pe_cycles_equals_the_ledger() {
    // The tuner's score, `Aggregate::lost_pe_cycles`, must equal the
    // attributed loss of the ledger folded from the same schedule's
    // timeline — on spill schedules too: up to 256 input maps overflow
    // the 128-word stores, so many cases segment the chunk walk.
    let spills = std::cell::Cell::new(0u32);
    prop::check(
        "aggregate_lost_equals_ledger",
        2048,
        (
            1usize..=64,  // M
            1usize..=256, // N
            1usize..=32,  // S
            1usize..=7,   // K
            1usize..=16,  // Tm
            1usize..=16,  // Tn
            1usize..=16,  // Tr
            1usize..=16,  // Tc
            1usize..=16,  // Ti
            1usize..=16,  // Tj
        ),
        |&(m, n, s, k, tm, tn, tr, tc, ti, tj)| {
            let layer = ConvLayer::new("P", m, n, s, k);
            let u = legalize(Unroll::new(tm, tn, tr, tc, ti, tj), &layer, 16);
            let sch = flexflow::analytic::schedule(&layer, u, 16, STORE_WORDS);
            spills.set(spills.get() + u32::from(sch.segments > 1));
            let agg = flexflow::analytic::aggregate(&sch);
            let ledger =
                LossLedger::from_timeline(&agg.timeline(LayerCtx::new("FlexFlow", "P", 256)));
            prop_assert_eq!(
                agg.lost_pe_cycles(256),
                ledger.attributed_lost(),
                "score diverges from the ledger on {u} for M={m} N={n} S={s} K={k}"
            );
            Ok(())
        },
    );
    assert!(spills.get() > 0, "no spill schedule was drawn");
}

#[test]
fn interference_freedom_composes_the_resource_rules() {
    // FXC12 is the conjunction of the three shared-resource rules: it
    // fires exactly when FXC02 (bus), FXC03 (adder port), or FXC07
    // (buffer banks) fires — on clean plans and corrupted ones alike.
    let arch = ArchParams::flexflow_paper();
    prop::check(
        "fxc12_equals_fxc02_03_07",
        1024,
        (
            1usize..=64, // M
            1usize..=32, // N
            1usize..=32, // S
            1usize..=7,  // K
            1usize..=16, // Ti
            1usize..=16, // Tj
            0usize..=3,  // corruption mode
        ),
        |&(m, n, s, k, ti, tj, mode)| {
            let layer = ConvLayer::new("P", m, n, s, k);
            let u = legalize(Unroll::new(2, 2, 2, 2, ti, tj), &layer, arch.d);
            let mut plan =
                LayerPlan::derive(&layer, 0, u, arch.d, STORE_WORDS).map_err(|d| d.to_string())?;
            let mut arch = arch;
            match mode {
                0 => plan.walk.tj += 1,     // over-wide bus walk
                1 => plan.batch.tc += 1,    // over-wide port batch
                2 => arch.buffer_banks = 1, // starved buffer banks
                _ => {}                     // leave the plan legal
            }
            let fxc12 = check_interference(&plan, &arch);
            let resource_rules = [RuleId::CdbRace, RuleId::AdderTreePort, RuleId::BankConflict];
            let union = check_layer_plan(&plan, &arch)
                .into_iter()
                .filter(|d| resource_rules.contains(&d.rule))
                .count();
            prop_assert_eq!(
                fxc12.is_empty(),
                union == 0,
                "FXC12 ({} findings) disagrees with FXC02/03/07 ({union}) on {u} mode {mode}",
                fxc12.len()
            );
            for d in &fxc12 {
                prop_assert_eq!(d.rule, RuleId::InterferenceFreedom, "wrong rule: {d}");
            }
            Ok(())
        },
    );
}
