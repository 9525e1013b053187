//! flexproof — the symbolic schedule rules (`FXC10`–`FXC12`).
//!
//! The simulators *step* a layer's schedule into a cycle-domain
//! timeline; each one also states the closed-form aggregate of the same
//! steps (`Accelerator::predict_network`). This module checks the two
//! against each other, interprets the ISA stream abstractly, and proves
//! interval-based access sets disjoint. No per-cycle stepping happens
//! anywhere in this file.
//!
//! Three rules:
//!
//! * **`FXC10` cycle-exactness** ([`check_cycle_exactness`]) — the
//!   closed-form prediction must equal the engine-recorded
//!   [`LossLedger`] exactly: total cycles, busy PE-cycles, and every
//!   per-cause lost bucket. `flexsim prove` runs it over all Table 1
//!   (workload, architecture) pairs.
//! * **`FXC11` isa-coverage** ([`check_isa_coverage`]) — the abstract
//!   interpreter must observe every decoded instruction's effect. A
//!   `Configure` whose symbolic state is overwritten before any `Conv`
//!   reads it is discarded-unread state: the engine would execute the
//!   layer under the *newer* factors while the schedule claim attached
//!   to the shadowed `Configure` was never checked against anything.
//! * **`FXC12` interference-freedom** ([`check_interference`]) — bus,
//!   adder-tree-port, and buffer-bank access sets, expressed as
//!   residue intervals, must be pairwise disjoint: one finding per
//!   resource, from the same [`LayerPlan`] predicates that rules
//!   `FXC02`/`FXC03`/`FXC07` report per invariant.
//!
//! The prediction is exact by construction: every engine folds its
//! steps through the [`Coalescer`], whose ledger depends only on
//! per-cause cycle/MAC totals — the totals the closed-form aggregate
//! states. `tests/proptests.rs` holds the FlexFlow side equal to
//! [`flexflow::analytic::schedule`] on thousands of random legal
//! unrollings, and the root mutation harness trips each rule both
//! statically and dynamically.
//!
//! [`Coalescer`]: flexsim_obs::cycles::Coalescer

use crate::diag::{Diagnostic, Location, RuleId};
use crate::params::ArchParams;
use crate::plan::LayerPlan;
use flexflow::compiler::Program;
use flexflow::isa::Instr;
use flexsim_obs::attrib::{LossLedger, StallCause};
use std::collections::HashMap;

/// `FXC10`: the symbolic prediction must equal the engine-recorded
/// ledger *exactly* — identity (arch, layer, PE count), total cycles,
/// busy PE-cycles, and every per-cause lost bucket. Any delta is an
/// error: either an engine emitter drifted from its analytic schedule
/// or the evaluator's closed form is wrong, and both invalidate the
/// "replace simulation of regular phases" contract.
pub fn check_cycle_exactness(predicted: &LossLedger, recorded: &LossLedger) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let at = || Location::layer(recorded.layer.clone());
    if predicted.arch != recorded.arch || predicted.layer != recorded.layer {
        diags.push(Diagnostic::error(
            RuleId::CycleExactness,
            at(),
            format!(
                "ledger identity mismatch: predicted {}/{} vs recorded {}/{}",
                predicted.arch, predicted.layer, recorded.arch, recorded.layer
            ),
            "compare ledgers of the same (architecture, layer) pair in network order",
        ));
        return diags;
    }
    if predicted.pe_count != recorded.pe_count {
        diags.push(Diagnostic::error(
            RuleId::CycleExactness,
            at(),
            format!(
                "PE-count mismatch: symbolic geometry says {} PEs, engine recorded {}",
                predicted.pe_count, recorded.pe_count
            ),
            "predict with the same accelerator the engine recording came from",
        ));
    }
    if predicted.total_cycles != recorded.total_cycles {
        diags.push(Diagnostic::error(
            RuleId::CycleExactness,
            at(),
            format!(
                "cycle mismatch: static evaluator proves {} cycles, engine recorded {}",
                predicted.total_cycles, recorded.total_cycles
            ),
            "the closed-form phase counts must tile the engine timeline exactly",
        ));
    }
    if predicted.busy_pe_cycles != recorded.busy_pe_cycles {
        diags.push(Diagnostic::error(
            RuleId::CycleExactness,
            at(),
            format!(
                "busy-PE mismatch: static evaluator proves {} MAC-cycles, engine recorded {}",
                predicted.busy_pe_cycles, recorded.busy_pe_cycles
            ),
            "predicted pass MACs must equal the schedule's tiled MAC total",
        ));
    }
    for cause in StallCause::ALL {
        let (p, r) = (predicted.lost(cause), recorded.lost(cause));
        if p != r {
            diags.push(Diagnostic::error(
                RuleId::CycleExactness,
                at(),
                format!(
                    "loss-attribution mismatch on {}: static evaluator proves {p} lost \
                     PE-cycles, engine recorded {r}",
                    cause.name()
                ),
                "per-cause aggregates must match the engine's emission exactly",
            ));
        }
    }
    diags
}

/// Runs [`check_cycle_exactness`] over two ledger sequences in lockstep
/// (the per-network form `flexsim prove` uses). A length mismatch is
/// itself an `FXC10` error: a layer the engine simulated but the
/// evaluator never predicted (or vice versa) is an unproven layer.
pub fn check_cycle_exactness_all(
    predicted: &[LossLedger],
    recorded: &[LossLedger],
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if predicted.len() != recorded.len() {
        diags.push(Diagnostic::error(
            RuleId::CycleExactness,
            Location::program(),
            format!(
                "{} predicted ledgers but {} recorded layers",
                predicted.len(),
                recorded.len()
            ),
            "the evaluator must visit exactly the layers the engine simulates",
        ));
    }
    for (p, r) in predicted.iter().zip(recorded) {
        diags.extend(check_cycle_exactness(p, r));
    }
    diags
}

/// `FXC11`: every instruction's effect must be observed by the
/// abstract interpreter. The interpreter walks the stream linearly, so
/// the only way symbolic state dies unread is *shadowing*: a
/// `Configure` overwritten by a later `Configure` for the same layer
/// before any `Conv` consumes it. The engine then executes under the
/// newer factors while the shadowed claim — factors the compiler
/// emitted, flexcheck verified, and the prover timed — silently never
/// reaches hardware, so its prediction can diverge from the measured
/// run. (A `Configure` with *no* following `Conv` at all is dead code,
/// already reported by `FXC05`.)
pub fn check_isa_coverage(program: &Program) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    // Layer → pc of the live (not-yet-consumed) Configure.
    let mut live: HashMap<u8, usize> = HashMap::new();
    for (pc, instr) in program.instrs().iter().enumerate() {
        match *instr {
            Instr::Configure { layer, .. } => {
                if let Some(shadowed_pc) = live.insert(layer, pc) {
                    diags.push(Diagnostic::error(
                        RuleId::IsaCoverage,
                        Location::pc(shadowed_pc),
                        format!(
                            "symbolic state discarded unread: Configure for L{layer} at pc \
                             {shadowed_pc} is overwritten by pc {pc} before any Conv observes it"
                        ),
                        "drop the shadowed Configure or move its Conv before the reconfigure",
                    ));
                }
            }
            Instr::Conv { layer } => {
                live.remove(&layer);
            }
            _ => {}
        }
    }
    diags
}

/// `FXC12`: interference freedom by symbolic interval disjointness —
/// bus, adder-tree-port and buffer-bank access sets, one finding per
/// resource. It asks the same three [`LayerPlan`] predicates as
/// `FXC02` ([`LayerPlan::walk_fits_mapping`]), `FXC03`
/// ([`LayerPlan::batch_fits_mapping`]) and `FXC07`
/// ([`LayerPlan::overflowing_banks`]), so it fires exactly when one of
/// those does; `tests/proptests.rs` holds the two rule sets equal.
pub fn check_interference(plan: &LayerPlan, arch: &ArchParams) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let at = || Location::layer(plan.layer.name());
    let u = plan.mapping;
    let (w, b) = (plan.walk, plan.batch);

    if !plan.walk_fits_mapping() {
        diags.push(Diagnostic::error(
            RuleId::InterferenceFreedom,
            at(),
            format!(
                "bus access intervals overlap: walk <Tn={} Ti={} Tj={}> exceeds the residue \
                 periods <Tn={} Ti={} Tj={}> — two producers share a vertical bus each step",
                w.tn, w.ti, w.tj, u.tn, u.ti, u.tj
            ),
            "shrink the walk to the mapping's residue classes (walk ⊆ period per coordinate)",
        ));
    }

    if !plan.batch_fits_mapping() {
        diags.push(Diagnostic::error(
            RuleId::InterferenceFreedom,
            at(),
            format!(
                "adder-port access intervals overlap: batch <Tm={} Tr={} Tc={}> exceeds the \
                 residue periods <Tm={} Tr={} Tc={}> — two neurons share a row port per batch",
                b.tm, b.tr, b.tc, u.tm, u.tr, u.tc
            ),
            "shrink the row batch to the mapping's residue classes",
        ));
    }

    for (buffer, used) in plan.overflowing_banks(arch.buffer_banks) {
        diags.push(Diagnostic::error(
            RuleId::InterferenceFreedom,
            at(),
            format!(
                "{buffer}-buffer bank interval [0, {used}) exceeds the physical [0, {}) — \
                 conflict-free streaming is impossible",
                arch.buffer_banks
            ),
            "reduce the factor product or add buffer banks",
        ));
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexflow::FlexFlow;
    use flexsim_arch::Accelerator;
    use flexsim_dataflow::Unroll;
    use flexsim_model::workloads;
    use flexsim_model::{ConvLayer, Network};
    use flexsim_obs::attrib::ledgers;
    use flexsim_obs::cycles::{Recorder, SinkHandle};
    use std::sync::Arc;

    fn predicted_flexflow(net: &Network, d: usize) -> Vec<LossLedger> {
        ledgers(&FlexFlow::new(d).predict_network(net))
    }

    fn recorded_flexflow(net: &Network, d: usize) -> Vec<LossLedger> {
        let rec = Arc::new(Recorder::new());
        let mut engine = FlexFlow::new(d);
        engine.attach_sink(SinkHandle::new(rec.clone()));
        let _ = engine.run_network(net);
        ledgers(&rec.take())
    }

    #[test]
    fn flexflow_prediction_equals_the_engine_ledger() {
        for net in [workloads::lenet5(), workloads::alexnet()] {
            let predicted = predicted_flexflow(&net, 16);
            let recorded = recorded_flexflow(&net, 16);
            let diags = check_cycle_exactness_all(&predicted, &recorded);
            assert!(
                diags.is_empty(),
                "{}: {}",
                net.name(),
                crate::render(&diags)
            );
        }
    }

    #[test]
    fn prediction_is_scale_sensitive() {
        // A scale-8 prediction must NOT match a scale-16 run — the
        // comparison has teeth.
        let net = workloads::lenet5();
        let predicted = predicted_flexflow(&net, 8);
        let recorded = recorded_flexflow(&net, 16);
        assert!(!check_cycle_exactness_all(&predicted, &recorded).is_empty());
    }

    #[test]
    fn clean_program_has_full_isa_coverage() {
        let net = workloads::alexnet();
        let program = flexflow::Compiler::new(16).compile(&net);
        assert!(check_isa_coverage(&program).is_empty());
    }

    #[test]
    fn shadowed_configure_trips_isa_coverage() {
        let net = workloads::lenet5();
        let program = flexflow::Compiler::new(16).compile(&net);
        // Duplicate the first Configure right after itself: the first
        // copy's symbolic state dies unread.
        let mut instrs = program.instrs().to_vec();
        let pos = instrs
            .iter()
            .position(|i| matches!(i, Instr::Configure { .. }))
            .unwrap();
        let dup = instrs[pos];
        instrs.insert(pos + 1, dup);
        let mutated = Program::from_parts(program.name().to_owned(), program.d(), instrs);
        let diags = check_isa_coverage(&mutated);
        assert_eq!(diags.len(), 1, "{}", crate::render(&diags));
        assert_eq!(diags[0].rule, RuleId::IsaCoverage);
        assert_eq!(diags[0].location.pc, Some(pos));
    }

    #[test]
    fn interference_mirrors_the_enumerated_rules() {
        let layer = ConvLayer::new("C3", 16, 6, 10, 5);
        let u = Unroll::new(2, 2, 1, 2, 2, 3);
        let arch = ArchParams::flexflow_paper();
        let mut plan = LayerPlan::derive(&layer, 0, u, arch.d, arch.store_words).unwrap();
        assert!(check_interference(&plan, &arch).is_empty());
        // Widen the walk past its residue period: FXC12's bus interval
        // overlaps, exactly where FXC02's enumeration would race.
        plan.walk.tj = 4;
        let diags = check_interference(&plan, &arch);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, RuleId::InterferenceFreedom);
        assert!(
            diags[0].message.contains("bus access intervals"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn bank_interval_overflow_is_interference() {
        let layer = ConvLayer::new("C3", 16, 6, 10, 5);
        let u = Unroll::new(2, 2, 1, 2, 2, 3);
        let mut arch = ArchParams::flexflow_paper();
        arch.buffer_banks = 4; // cols_used = 2·2·3 = 12 > 4
        let plan = LayerPlan::derive(&layer, 0, u, arch.d, arch.store_words).unwrap();
        let diags = check_interference(&plan, &arch);
        assert!(!diags.is_empty());
        assert!(diags.iter().all(|d| d.rule == RuleId::InterferenceFreedom));
    }
}
