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
use flexsim_dataflow::search::plan_network;
use flexsim_dataflow::tune as search_space;
use flexsim_dataflow::Unroll;
use flexsim_experiments::tune::{
    analytic_ledger, bench_json, paper_defaults, report, tune_network, tune_workloads, Budget,
};
use flexsim_experiments::ExperimentCtx;
use flexsim_model::{reference, workloads, ConvLayer, Network, PoolKind, PoolLayer};
use flexsim_obs::attrib::LossLedger;
use flexsim_obs::cycles::{Recorder, SinkHandle};
use flexsim_obs::span;
use flexsim_testkit::json::Json;
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
            let checked = flexcheck::check_candidate(layer, idxs[pos], rep.tuned.unroll, &arch);
            assert_eq!(
                checked.map(|plan| plan.mapping),
                Ok(rep.tuned.unroll),
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

/// One layer's pick as `(winner, scored, pruned, enumerated)`.
type Pick = (Unroll, usize, usize, usize);

/// The oracle for the fused pass: the tuner's pick done in two phases.
/// Lint every enumerated candidate, seed the paper default and the DP
/// plan ahead of the legal rest, cap, then score each survivor with
/// [`analytic_ledger`] and take the least `(lost, index)`.
fn two_phase_picks(net: &Network, budget: Budget) -> Vec<Pick> {
    let arch = ArchParams::flexflow_paper();
    let defaults = paper_defaults(net);
    let plan = plan_network(net, D);
    let idxs = net.conv_indices();
    net.conv_layers()
        .enumerate()
        .map(|(pos, layer)| {
            let bound = net.rc_bound(idxs[pos]);
            let raw = match budget {
                Budget::Smoke => search_space::grid_candidates(layer, D, bound),
                Budget::Full | Budget::Cap(_) => search_space::full_candidates(layer, D, bound),
            };
            let legal: Vec<Unroll> = raw
                .iter()
                .copied()
                .filter(|&u| flexcheck::check_candidate(layer, idxs[pos], u, &arch).is_ok())
                .collect();
            let pruned = raw.len() - legal.len();
            let (default_u, plan_u) = (defaults[pos].0.unroll, plan[pos].unroll);
            let seeds = if plan_u == default_u {
                vec![default_u]
            } else {
                vec![default_u, plan_u]
            };
            let mut ranked: Vec<Unroll> = seeds
                .into_iter()
                .chain(legal.into_iter().filter(|&u| u != default_u && u != plan_u))
                .collect();
            if let Budget::Cap(n) = budget {
                ranked.truncate(n);
            }
            let (_, &winner) = ranked
                .iter()
                .enumerate()
                .min_by_key(|&(i, &u)| (analytic_ledger(layer, u).attributed_lost(), i))
                .expect("the default is always ranked");
            (winner, ranked.len(), pruned, raw.len())
        })
        .collect()
}

#[test]
fn fused_pass_picks_what_the_two_phase_pick_does() {
    // Cap 257 crosses a scoring-chunk boundary, so the cap cuts a
    // chunk's running best; caps 1 and 2 cut the DP plan's seed and
    // every enumerated candidate.
    let budgets = [
        Budget::Full,
        Budget::Cap(1),
        Budget::Cap(2),
        Budget::Cap(3),
        Budget::Cap(257),
    ];
    let ctxs = [
        ExperimentCtx::serial("tune"),
        ExperimentCtx::parallel("tune", 2),
    ];
    for net in workloads::all() {
        for budget in budgets {
            let want = two_phase_picks(&net, budget);
            for ctx in &ctxs {
                let got: Vec<Pick> = tune_network(ctx, &net, budget)
                    .layers
                    .iter()
                    .map(|l| (l.tuned.unroll, l.scored, l.pruned, l.enumerated))
                    .collect();
                assert_eq!(got, want, "{} at budget {budget}", net.name());
            }
        }
    }
}

/// The table rows, as strings, of a `--json` document holding one
/// report.
fn table_rows(doc: &Json) -> Vec<Vec<String>> {
    let field = |v: &'_ Json, name: &str| match v {
        Json::Obj(pairs) => pairs
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.clone()),
        _ => None,
    };
    let Json::Arr(reports) = doc else {
        panic!("not a report list: {doc:?}");
    };
    let rows = field(&reports[0], "table").and_then(|t| field(&t, "rows"));
    let Some(Json::Arr(rows)) = rows else {
        panic!("no table rows in {doc:?}");
    };
    rows.iter()
        .map(|row| match row {
            Json::Arr(cells) => cells
                .iter()
                .map(|c| match c {
                    Json::Str(s) => s.clone(),
                    other => panic!("non-string cell {other:?}"),
                })
                .collect(),
            other => panic!("row is not an array: {other:?}"),
        })
        .collect()
}

/// `--budget 1` leaves only the paper-default seed: the tuner exits 0
/// and reports the default as the tuned mapping on every layer, also
/// where the DP plan (cut by the cap) would beat it, and its notes
/// claim dominance over the default alone.
#[test]
fn budget_one_tunes_to_the_default() {
    for (name, net) in [("pv", workloads::pv()), ("hg", workloads::hg())] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_flexsim"))
            .args(["--json", "--budget", "1", "tune", name])
            .output()
            .expect("flexsim runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{name}: {stderr}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(
            stdout.contains("this budget's cap cuts the DP plan's seed")
                && !stdout.contains("never scores worse than either"),
            "{name}: the notes claim dominance over the cut DP plan"
        );
        let doc = Json::parse(&stdout).expect("JSON");
        let layers: Vec<Vec<String>> = table_rows(&doc)
            .into_iter()
            .filter(|row| row[1] != "(all)")
            .collect();
        assert_eq!(layers.len(), net.conv_layers().count(), "{name}");
        for row in layers {
            // Columns: workload, layer, default (`*` marks Table 4), tuned.
            assert_eq!(row[2].trim_end_matches(" *"), row[3], "{name}/{}", row[1]);
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
