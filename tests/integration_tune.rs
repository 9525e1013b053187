//! Integration tests for `flexsim tune`, the mapping auto-tuner.
//!
//! Four guarantees, each backed by a different oracle:
//!
//! 1. **Legality** — every tuner-selected mapping passes flexcheck,
//!    both as a per-layer candidate (the six pruning rules) and as the
//!    assembled tuned program (`flexcheck::check`).
//! 2. **Semantics** — tuned mappings are functionally equivalent to
//!    the paper-default mappings: bit-identical outputs against the
//!    golden reference convolution on the functional PE array.
//! 3. **Monotonicity** — a tuned mapping never scores worse than the
//!    paper-default mapping *or* the repo compiler's DP plan, and no
//!    randomly sampled legal candidate beats the exhaustive winner.
//! 4. **Determinism** — the rendered report and `BENCH_tune.json`
//!    document are byte-identical at `--jobs` 1, 2, and 8 and across
//!    repeated runs (the `integration_pool` guarantee, extended to the
//!    tuner's two-stage fan-out).
//!
//! Plus mutation coverage: corrupting the tuner's emitted table (swap
//! two layer entries, inflate an unroll factor) must be caught by
//! flexcheck, and tampering with a claimed cycle count must be caught
//! against the cycle-stepped engine's recorded ledger.

use flexcheck::ArchParams;
use flexflow::array::PeArray;
use flexflow::{Compiler, FlexFlow};
use flexsim_arch::Accelerator;
use flexsim_dataflow::Unroll;
use flexsim_experiments::tune::{
    analytic_ledger, bench_json, paper_defaults, report, tune_network, tune_workloads, Budget,
};
use flexsim_experiments::ExperimentCtx;
use flexsim_model::{reference, workloads, ConvLayer, Network, PoolKind, PoolLayer};
use flexsim_obs::attrib::LossLedger;
use flexsim_obs::cycles::{Recorder, SinkHandle};
use flexsim_obs::span;
use flexsim_testkit::rng::SplitMix64;
use std::sync::Arc;

const D: usize = 16;

/// The engine oracle: runs `layer` under `u` on the engine with a cycle
/// recorder attached and returns the recorded ledger, after asserting
/// it is FXC09-exact and FXC10-equal to [`analytic_ledger`] on every
/// cause.
fn recorded_ledger(layer: &ConvLayer, u: Unroll) -> LossLedger {
    let rec = Arc::new(Recorder::new());
    let mut engine = FlexFlow::new(D);
    engine.attach_sink(SinkHandle::new(rec.clone()));
    let _ = engine.run_conv_with(layer, u);
    let timelines = rec.take();
    assert_eq!(timelines.len(), 1, "{}: one timeline per run", layer.name());
    let ledger = LossLedger::from_timeline(&timelines[0]);
    let mut diags = flexcheck::check_ledger(&ledger);
    diags.extend(flexcheck::check_cycle_exactness(
        &analytic_ledger(layer, u),
        &ledger,
    ));
    assert!(
        diags.is_empty(),
        "{}/{u}: {}",
        layer.name(),
        flexcheck::render(&diags)
    );
    ledger
}

/// The four small Table 1 workloads: cheap enough for the exhaustive
/// budget in every test below.
fn small_nets() -> Vec<Network> {
    vec![
        workloads::pv(),
        workloads::fr(),
        workloads::lenet5(),
        workloads::hg(),
    ]
}

#[test]
fn tuned_mappings_lint_clean_on_every_workload() {
    // The assembled tuned program must pass `flexcheck::check`
    // (FXC01–FXC08 and FXC11), and every selected mapping the six
    // per-layer rules that prune candidates (FXC01–03, FXC06–08) — on
    // the full sweep, not just the small nets (the smoke budget keeps
    // AlexNet/VGG enumeration fast; legality does not depend on it).
    let ctx = ExperimentCtx::serial("tune");
    let arch = ArchParams::flexflow_paper();
    for net in workloads::all() {
        let outcome = tune_network(&ctx, &net, Budget::Smoke);
        let diags = flexcheck::check(&outcome.program, &net, &arch);
        assert!(
            !flexcheck::has_errors(&diags),
            "{}: {}",
            net.name(),
            flexcheck::render(&diags)
        );
        let idxs = net.conv_indices();
        for (pos, (layer, rep)) in net.conv_layers().zip(&outcome.layers).enumerate() {
            let pruned = flexcheck::prune_candidates(layer, idxs[pos], &[rep.tuned.unroll], &arch);
            assert_eq!(
                pruned.legal,
                vec![rep.tuned.unroll],
                "{}/{}: tuned mapping rejected by the candidate rules",
                net.name(),
                layer.name()
            );
        }
    }
}

#[test]
fn tuned_mappings_match_the_golden_reference() {
    // Mappings change the schedule, never the semantics: on every
    // valid-convolution layer the tuned unrolling must produce
    // bit-identical outputs to the reference (and to the paper-default
    // mapping), while never taking more compute steps.
    for (i, net) in small_nets().iter().enumerate() {
        let ctx = ExperimentCtx::serial("tune");
        let outcome = tune_network(&ctx, net, Budget::Full);
        for (layer, rep) in net.conv_layers().zip(&outcome.layers) {
            if !layer.is_valid_convolution() {
                continue; // padded layers have no functional operands
            }
            let (input, kernels) = reference::random_layer_data(layer, 7000 + i as u64);
            let want = reference::conv(layer, &input, &kernels);
            let tuned = PeArray::new(D).run_layer(layer, rep.tuned.unroll, &input, &kernels);
            assert_eq!(
                tuned.output,
                want,
                "{}/{}: tuned mapping diverges from the reference",
                net.name(),
                layer.name()
            );
            let default = PeArray::new(D).run_layer(layer, rep.default.unroll, &input, &kernels);
            assert_eq!(
                default.output,
                want,
                "{}/{}: default mapping diverges from the reference",
                net.name(),
                layer.name()
            );
            assert!(
                tuned.compute_steps <= default.compute_steps,
                "{}/{}: tuned mapping takes more compute steps",
                net.name(),
                layer.name()
            );
        }
    }
}

#[test]
fn tuning_is_monotonic_and_improves_three_workloads() {
    // Monotonic per layer against both seeds, and the known outcome of
    // the exhaustive sweep: PV, LeNet-5, and HG recover residue cycles
    // over the paper's published Table 4 factors, while FR's published
    // factors are certified already cycle-optimal.
    let ctx = ExperimentCtx::serial("tune");
    let outcomes = tune_workloads(&ctx, &small_nets(), Budget::Full);
    for o in &outcomes {
        for l in &o.layers {
            assert!(
                l.delta.after_total() <= l.delta.before_total(),
                "{}/{}: tuned loses to the paper default",
                o.workload,
                l.default.layer
            );
            assert!(
                l.tuned.cycles <= l.planned.cycles,
                "{}/{}: tuned loses to the compiler plan",
                o.workload,
                l.default.layer
            );
        }
    }
    let improved: Vec<&str> = outcomes
        .iter()
        .filter(|o| o.improved())
        .map(|o| o.workload.as_str())
        .collect();
    assert_eq!(improved, ["PV", "LeNet-5", "HG"]);
    // The recoveries are exact tile-count differences (paper factors
    // vs the free per-layer optimum) times the 256-PE array.
    let by_name = |n: &str| outcomes.iter().find(|o| o.workload == n).unwrap();
    assert_eq!(by_name("PV").residue_edge_recovered(), 120 * 256);
    assert_eq!(by_name("LeNet-5").residue_edge_recovered(), 84 * 256);
    assert_eq!(by_name("HG").residue_edge_recovered(), 48 * 256);
    assert_eq!(by_name("FR").recovered_pe_cycles(), 0);
}

#[test]
fn no_sampled_candidate_beats_the_exhaustive_winner() {
    // Property check on the optimality certificate: random legal
    // unrollings never score below the tuner's winner.
    let ctx = ExperimentCtx::serial("tune");
    let net = workloads::lenet5();
    let outcome = tune_network(&ctx, &net, Budget::Full);
    let mut rng = SplitMix64::new(0x0F1E_F10F);
    for (layer, rep) in net.conv_layers().zip(&outcome.layers) {
        let space = flexsim_dataflow::tune::full_candidates(layer, D, None);
        let best = analytic_ledger(layer, rep.tuned.unroll).attributed_lost();
        for _ in 0..64 {
            let u = space[rng.gen_range(0..=space.len() as u64 - 1) as usize];
            assert!(
                analytic_ledger(layer, u).attributed_lost() >= best,
                "{}: sampled {u} beats the winner",
                layer.name()
            );
        }
    }
}

/// Renders one tuner run (report text + JSON + bench document) to a
/// single string for byte-comparison.
fn render_sweep(jobs: usize) -> String {
    let ctx = ExperimentCtx::parallel("tune", jobs);
    let outcomes = tune_workloads(&ctx, &small_nets(), Budget::Full);
    let result = report(&outcomes, Budget::Full);
    format!(
        "{}\n{}\n{}",
        result,
        result.to_json(),
        bench_json(&outcomes, Budget::Full).pretty()
    )
}

#[test]
fn tune_output_is_byte_identical_across_jobs_levels_and_reruns() {
    let serial = render_sweep(1);
    for jobs in [2usize, 8] {
        assert_eq!(serial, render_sweep(jobs), "jobs={jobs} diverged");
    }
    assert_eq!(serial, render_sweep(1), "rerun diverged");
}

#[test]
fn swapped_table_entries_are_caught_by_flexcheck() {
    // Mutation 1: swap two layer entries in the tuner's emitted table.
    // LeNet-5 C3's factors need Tn=3 input maps; C1 only has one, so
    // the swapped program must fail the factor-bounds rules.
    let ctx = ExperimentCtx::serial("tune");
    let net = workloads::lenet5();
    let outcome = tune_network(&ctx, &net, Budget::Full);
    let mut choices: Vec<_> = outcome.layers.iter().map(|l| l.tuned.clone()).collect();
    choices.swap(0, 1);
    let mutated = Compiler::new(D).lower(&net, choices);
    let diags = flexcheck::check(&mutated, &net, &ArchParams::flexflow_paper());
    assert!(
        flexcheck::has_errors(&diags),
        "swapped mapping table passed flexcheck"
    );
}

#[test]
fn inflated_unroll_factors_are_caught_by_flexcheck() {
    // Mutation 2: inflate one unroll factor past the array. The tuned
    // winners sit at Constraint (1)'s boundary, so doubling Tm
    // over-occupies the columns.
    let ctx = ExperimentCtx::serial("tune");
    let net = workloads::lenet5();
    let outcome = tune_network(&ctx, &net, Budget::Full);
    let mut choices: Vec<_> = outcome.layers.iter().map(|l| l.tuned.clone()).collect();
    choices[1].unroll.tm *= 2;
    let mutated = Compiler::new(D).lower(&net, choices);
    let diags = flexcheck::check(&mutated, &net, &ArchParams::flexflow_paper());
    assert!(
        flexcheck::has_errors(&diags),
        "inflated unroll factor passed flexcheck"
    );
}

#[test]
fn tuning_simulates_no_layer() {
    // The tuner scores and reports in closed form: tuning a net whose
    // layer names nothing else in this binary uses, with the span
    // recorder on, records no `layer` or `engine` span for any of its
    // layers (`run_layers` opens the one, FlexFlow's `run_conv` the
    // other).
    let net = Network::builder("TuneNoSim")
        .conv(ConvLayer::new("TuneNoSimC1", 6, 1, 28, 5).with_input_size(32))
        .pool(PoolLayer::new("TuneNoSimP2", PoolKind::Max, 2, 6, 28))
        .conv(ConvLayer::new("TuneNoSimC3", 16, 6, 10, 5).with_input_size(14))
        .build();
    span::install_recorder();
    let outcome = tune_network(&ExperimentCtx::serial("tune"), &net, Budget::Smoke);
    let records = span::take_records();
    assert_eq!(outcome.layers.len(), 2);
    for layer in net.conv_layers() {
        let suffix = format!("/{}", layer.name());
        assert!(
            !records.iter().any(|r| r.name.ends_with(&suffix)),
            "{}: the tuner simulated a layer",
            layer.name()
        );
    }
}

#[test]
fn tampered_cycle_claims_are_caught_by_the_engine() {
    // Mutation 3: a corrupted cycle claim in the emitted table cannot
    // survive the engine oracle — the recorded engine ledger is the
    // ground truth the analytic score must reproduce exactly.
    let net = workloads::lenet5();
    let (default, _) = &paper_defaults(&net)[0];
    let layer = net.conv_layers().next().unwrap();
    let honest = recorded_ledger(layer, default.unroll);
    assert_eq!(honest.total_cycles, default.cycles + 8, "fill offset");
    let tampered = default.cycles + 1; // the "corrupted table" claim
    assert_ne!(honest.total_cycles, tampered + 8);
}
