//! `flexsim tune` — the mapping auto-tuner.
//!
//! Not a figure from the paper: an optimizer over the paper's own
//! search space. The baseline it must beat is the *paper-default
//! mapping*: the published Table 4 factors where the paper gives them
//! (and they fit the engine), else the Section 5 analyzer chain
//! ([`analyzer_chain`] — greedy per-layer unrolling with the IADP
//! placement rule carried forward). Both leave recoverable idle
//! cycles: the greedy chain forces a mapping residue (`Ur·Uc < D²`)
//! the engine then pays on every tile wherever consecutive shapes
//! disagree, and some published factors are simply not cycle-optimal.
//! The tuner relaxes the IADP *equality* while keeping the successor
//! pooling bound `Tr, Tc ≤ P·K'`, and searches each layer's full
//! legal space:
//!
//! 1. **enumerate** — [`flexsim_dataflow::tune`] generates the
//!    candidate unrollings per layer ([`Budget::Full`] = the exhaustive
//!    cross product, [`Budget::Smoke`] = a power-of-two grid,
//!    [`Budget::Cap`] = a deterministic prefix of the full space);
//! 2. **lint-prune** — [`flexcheck::prune_candidates`] rejects illegal
//!    candidates against all nine FXC rules *before* anything runs;
//! 3. **simulate** — surviving candidates are scored across the
//!    work-stealing pool ([`ExperimentCtx::map`], deterministic at any
//!    `--jobs` level) with the exact [`LossLedger`] cost function:
//!    the candidate's full per-cause loss ledger, synthesized from the
//!    closed-form engine schedule (proved equal to the cycle-stepped
//!    engine's recorded ledger, see below);
//! 4. **score** — the winner minimizes total attributed lost
//!    PE-cycles, ties broken by candidate index with the paper-default
//!    mapping seeded at index 0 and the repo compiler's DP plan
//!    ([`plan_network`]) seeded right behind it — so the tuner can
//!    never select a mapping worse than either (the
//!    monotonic-improvement invariant).
//!
//! The winner is then **verified**, not trusted: the cycle-stepped
//! engine re-runs both the default and the tuned mapping through a
//! cycle recorder, the recorded ledger must equal the analytic one on
//! every cause ([`recorded_ledger`]), and the assembled tuned
//! [`Program`] must pass the full flexcheck rule set. The before/after
//! loss attribution per cause is a [`LossDelta`] over the *recorded*
//! ledgers.

use crate::experiment::{Experiment, ExperimentCtx};
use crate::report::{eng, ExperimentResult, Table};
use flexcheck::ArchParams;
use flexflow::isa::Instr;
use flexflow::{FlexFlow, Program};
use flexsim_arch::Accelerator;
use flexsim_dataflow::search::{analyzer_chain, best_unroll, plan_network, LayerChoice};
use flexsim_dataflow::tune as search_space;
use flexsim_dataflow::{utilization, Unroll};
use flexsim_model::{workloads, ConvLayer, Layer, Network};
use flexsim_obs::attrib::{LossDelta, LossLedger, StallCause};
use flexsim_obs::cycles::{CycleRecorder, SinkHandle};
use flexsim_testkit::json::Json;
use std::fmt;
use std::sync::Arc;

/// Engine side the tuner targets (the paper's 16×16 configuration).
const D: usize = 16;

/// Candidates per scoring task — small enough to balance across the
/// pool, large enough that task overhead stays negligible.
const SCORE_CHUNK: usize = 256;

/// How hard `flexsim tune` searches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Budget {
    /// Power-of-two grid per axis — the CI smoke budget.
    Smoke,
    /// The exhaustive legal search space (the CLI default).
    Full,
    /// A deterministic prefix of the full space, at most this many
    /// candidates per layer (the paper-default mapping always stays
    /// seeded at index 0).
    Cap(usize),
}

impl Budget {
    /// Parses a `--budget` value: `smoke`, `full`, or a positive
    /// per-layer candidate cap.
    ///
    /// # Errors
    ///
    /// Returns a one-line message for anything else.
    pub fn parse(s: &str) -> Result<Budget, String> {
        match s {
            "smoke" => Ok(Budget::Smoke),
            "full" => Ok(Budget::Full),
            _ => match s.parse::<usize>() {
                Ok(n) if n > 0 => Ok(Budget::Cap(n)),
                _ => Err(format!(
                    "--budget requires `smoke`, `full`, or a positive candidate cap, got {s:?}"
                )),
            },
        }
    }
}

impl fmt::Display for Budget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Budget::Smoke => f.write_str("smoke"),
            Budget::Full => f.write_str("full"),
            Budget::Cap(n) => write!(f, "{n}"),
        }
    }
}

/// How `flexsim tune` verifies its before/after ledgers on the
/// cycle-stepped engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerifyMode {
    /// Re-run both the paper-default and the tuned mapping on the
    /// engine (the CLI default).
    Engine,
    /// `--static`: keep the default side symbolic ([`analytic_ledger`],
    /// which `FXC10` proves equal to the engine's emission) and
    /// engine-verify the winners only — half the simulation work, the
    /// same winners and deltas by the cycle-exactness proof.
    Static,
}

impl VerifyMode {
    /// The display form (`engine` / `static`) for reports and logs.
    pub fn name(self) -> &'static str {
        match self {
            VerifyMode::Engine => "engine",
            VerifyMode::Static => "static",
        }
    }
}

/// The registry entry (not part of the sweep): `flexsim tune` at the
/// smoke budget over every Table 1 workload.
pub struct Tune;

impl Experiment for Tune {
    fn id(&self) -> &'static str {
        "tune"
    }
    fn title(&self) -> &'static str {
        "Mapping auto-tuner: recovered mapping-residue idle (flexsim tune)"
    }
    fn in_sweep(&self) -> bool {
        false
    }
    fn run(&self, ctx: &ExperimentCtx) -> ExperimentResult {
        let outcomes = tune_workloads(ctx, &workloads::all(), Budget::Smoke);
        report(&outcomes, Budget::Smoke)
    }
}

/// The paper-default mapping per CONV layer: the published Table 4
/// factors where the paper gives them and they fit the engine (clamped
/// to the layer, Constraint (1), the successor bound, and the
/// flexcheck candidate rules), else the Section 5 analyzer chain.
///
/// Returns `(choice, source)` with `source` either `"table4"` or
/// `"analyzer"`. Clamping follows `table04`: FR C1's published
/// `Tj=15` exceeds its kernel (`K=5`) and is clamped to it; layers
/// the paper never published (PV C5–C7, all of AlexNet and VGG-11)
/// take the analyzer chain.
pub fn paper_defaults(net: &Network) -> Vec<(LayerChoice, &'static str)> {
    let arch = ArchParams::flexflow_paper();
    let chain = analyzer_chain(net, D);
    let idxs = net.conv_indices();
    net.conv_layers()
        .enumerate()
        .map(|(pos, layer)| {
            let rc_bound = net
                .successor_coupling(idxs[pos])
                .map(|c| c.pool_window * c.next_conv.k());
            let published = crate::paper::TABLE4
                .iter()
                .find(|(w, l, _)| *w == net.name() && *l == layer.name());
            if let Some(&(_, _, pf)) = published {
                let u = Unroll::new(pf[0], pf[1], pf[2], pf[3], pf[4], pf[5]).clamped_to(layer);
                let legal = u.satisfies(layer, D, rc_bound)
                    && flexcheck::prune_candidates(layer, idxs[pos], &[u], &arch)
                        .legal
                        .contains(&u);
                if legal {
                    return (choice_for(layer, u, D), "table4");
                }
            }
            (chain[pos].clone(), "analyzer")
        })
        .collect()
}

/// One CONV layer's tuning result.
#[derive(Clone, Debug)]
pub struct LayerReport {
    /// The paper-default choice (Table 4 factors or analyzer chain —
    /// see [`paper_defaults`]): the before side of the comparison.
    pub default: LayerChoice,
    /// Where the default came from: `"table4"` or `"analyzer"`.
    pub source: &'static str,
    /// The repo compiler's DP choice ([`plan_network`]) — seeded into
    /// the search, so the tuner also never loses to the shipped plan.
    pub planned: LayerChoice,
    /// Engine cycles of the planned choice, same basis as the
    /// before/after cycles (tile count plus fill and spill stalls).
    pub planned_cycles: u64,
    /// The tuner's winner (equals the default when nothing beats it).
    pub tuned: LayerChoice,
    /// Before/after loss attribution over the *recorded* engine
    /// ledgers.
    pub delta: LossDelta,
    /// Candidates the budget enumerated.
    pub enumerated: usize,
    /// Candidates surviving the flexcheck prune (after seeding and
    /// capping — what was actually scored).
    pub scored: usize,
    /// Candidates the flexcheck prune rejected.
    pub pruned: usize,
}

/// One workload's tuning result: the per-layer table plus the
/// assembled (and flexcheck-verified) tuned program.
#[derive(Clone, Debug)]
pub struct TuneOutcome {
    /// Workload name.
    pub workload: String,
    /// One entry per CONV layer, in network order.
    pub layers: Vec<LayerReport>,
    /// The tuned program (relaxed coupling, same instruction shape as
    /// the compiler's output).
    pub program: Program,
}

impl TuneOutcome {
    /// PE-cycles recovered from the two mapping-shape causes the tuner
    /// targets: `mapping-residue-idle` and `edge-fragmentation`.
    pub fn residue_edge_recovered(&self) -> i64 {
        self.layers
            .iter()
            .map(|l| {
                l.delta.recovered(StallCause::MappingResidueIdle)
                    + l.delta.recovered(StallCause::EdgeFragmentation)
            })
            .sum()
    }

    /// Net PE-cycles recovered across all causes and layers.
    pub fn recovered_pe_cycles(&self) -> i64 {
        self.layers.iter().map(|l| l.delta.total_recovered()).sum()
    }

    /// Whether the tuner beat the paper-default mapping on this
    /// workload (strictly positive residue + edge recovery).
    pub fn improved(&self) -> bool {
        self.residue_edge_recovered() > 0
    }
}

/// The exact cost function: the candidate's per-cause loss ledger,
/// synthesized from the closed-form engine schedule in O(stripes)
/// instead of stepping O(tile-count) cycles. [`recorded_ledger`]
/// proves it equal to the cycle-stepped engine's emission.
///
/// # Panics
///
/// Panics if `u` over-occupies the engine — prune with flexcheck
/// first.
pub fn analytic_ledger(layer: &ConvLayer, u: Unroll) -> LossLedger {
    LossLedger::from_timeline(&FlexFlow::new(D).predict_with(layer, u))
}

/// Runs `layer` under `u` on the cycle-stepped engine with a private
/// recorder and returns the recorded ledger — after asserting it is
/// FXC09-exact *and* FXC10-equal to [`analytic_ledger`]: same identity,
/// PE count, cycles, busy PE-cycles, and every per-cause bucket. This
/// is the proof obligation behind scoring analytically.
///
/// # Panics
///
/// Panics when the recorded and analytic ledgers disagree (a cost-
/// function bug) or the ledger fails flexcheck FXC09.
pub fn recorded_ledger(layer: &ConvLayer, u: Unroll) -> LossLedger {
    let rec = Arc::new(CycleRecorder::new());
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

/// A [`LayerChoice`] for an arbitrary unrolling (the tuner's winners
/// are outside [`plan_network`]'s IADP-coupled space).
fn choice_for(layer: &ConvLayer, u: Unroll, d: usize) -> LayerChoice {
    LayerChoice {
        layer: layer.name().to_owned(),
        unroll: u,
        d,
        row_util: utilization::row_utilization(layer, &u, d),
        col_util: utilization::col_utilization(layer, &u, d),
        cycles: utilization::tile_count(layer, &u),
    }
}

/// One layer's scored search space.
struct CandidateSet {
    /// Legal candidates, the paper default seeded at index 0 and the
    /// compiler's DP plan right behind it (capped last, so the default
    /// seed survives any cap).
    legal: Vec<Unroll>,
    enumerated: usize,
    pruned: usize,
}

/// Enumerates, lint-prunes, and seeds one layer's candidate list.
fn seeded_candidates(
    layer: &ConvLayer,
    layer_index: usize,
    rc_bound: Option<usize>,
    budget: Budget,
    default_u: Unroll,
    plan_u: Unroll,
    arch: &ArchParams,
) -> CandidateSet {
    let raw = match budget {
        Budget::Full | Budget::Cap(_) => search_space::full_candidates(layer, D, rc_bound),
        Budget::Smoke => search_space::grid_candidates(layer, D, rc_bound),
    };
    let enumerated = raw.len();
    let pruned = flexcheck::prune_candidates(layer, layer_index, &raw, arch);
    let mut legal = pruned.legal;
    legal.retain(|u| *u != default_u && *u != plan_u);
    if plan_u != default_u {
        legal.insert(0, plan_u);
    }
    legal.insert(0, default_u);
    if let Budget::Cap(n) = budget {
        legal.truncate(n.max(1));
    }
    CandidateSet {
        legal,
        enumerated,
        pruned: pruned.pruned,
    }
}

/// One scoring task: a contiguous chunk of one layer's candidates.
struct ScoreItem {
    pos: usize,
    base: usize,
    layer: ConvLayer,
    cands: Vec<Unroll>,
}

/// Tunes one workload: enumerate → lint-prune → simulate → score per
/// CONV layer, then verify the winners on the cycle-stepped engine and
/// assemble the flexcheck-clean tuned program.
///
/// # Panics
///
/// Panics if any verification step fails (analytic/recorded ledger
/// divergence, a tuned mapping scoring worse than the default, or the
/// assembled program failing flexcheck).
pub fn tune_network(ctx: &ExperimentCtx, net: &Network, budget: Budget) -> TuneOutcome {
    tune_network_with(ctx, net, budget, VerifyMode::Engine)
}

/// [`tune_network`] with an explicit verification mode:
/// [`VerifyMode::Static`] scores and baselines symbolically and
/// engine-verifies the winners only.
///
/// # Panics
///
/// Same contract as [`tune_network`].
pub fn tune_network_with(
    ctx: &ExperimentCtx,
    net: &Network,
    budget: Budget,
    mode: VerifyMode,
) -> TuneOutcome {
    let arch = ArchParams::flexflow_paper();
    let defaults = paper_defaults(net);
    let plan = plan_network(net, D);
    let idxs = net.conv_indices();
    let convs: Vec<ConvLayer> = net.conv_layers().cloned().collect();

    // Phases 1 + 2: enumerate and lint-prune (static, microseconds).
    let sets: Vec<CandidateSet> = convs
        .iter()
        .enumerate()
        .map(|(pos, layer)| {
            let bound = net
                .successor_coupling(idxs[pos])
                .map(|c| c.pool_window * c.next_conv.k());
            seeded_candidates(
                layer,
                idxs[pos],
                bound,
                budget,
                defaults[pos].0.unroll,
                plan[pos].unroll,
                &arch,
            )
        })
        .collect();

    // Phase 3: score every surviving candidate across the pool. Chunks
    // of every layer fan out together; the winner per layer minimizes
    // (attributed lost PE-cycles, candidate index) — the default sits
    // at index 0, so selection is monotonic and deterministic.
    let mut items = Vec::new();
    for (pos, (layer, set)) in convs.iter().zip(&sets).enumerate() {
        for (chunk_idx, chunk) in set.legal.chunks(SCORE_CHUNK).enumerate() {
            items.push(ScoreItem {
                pos,
                base: chunk_idx * SCORE_CHUNK,
                layer: layer.clone(),
                cands: chunk.to_vec(),
            });
        }
    }
    let scored = ctx.map(
        items,
        |it| format!("{}/score@{}", it.layer.name(), it.base),
        |_tctx, it: ScoreItem| {
            let mut best: Option<(u64, usize, Unroll)> = None;
            for (off, &u) in it.cands.iter().enumerate() {
                let lost = analytic_ledger(&it.layer, u).attributed_lost();
                let idx = it.base + off;
                if best.is_none_or(|(bl, bi, _)| (lost, idx) < (bl, bi)) {
                    best = Some((lost, idx, u));
                }
            }
            (it.pos, best.expect("chunks are never empty"))
        },
    );
    let mut winners: Vec<Option<(u64, usize, Unroll)>> = vec![None; convs.len()];
    for (pos, cand) in scored {
        let slot = &mut winners[pos];
        if slot.is_none_or(|(bl, bi, _)| (cand.0, cand.1) < (bl, bi)) {
            *slot = Some(cand);
        }
    }

    // Verification: the cycle-stepped engine re-runs the winner (and,
    // in engine mode, the default too); recorded must equal analytic
    // on every cause. In static mode the default side stays symbolic —
    // FXC10 proves the two bases identical, so the deltas are too.
    struct VerifyItem {
        layer: ConvLayer,
        default_u: Unroll,
        tuned_u: Unroll,
    }
    let vitems: Vec<VerifyItem> = convs
        .iter()
        .enumerate()
        .map(|(pos, layer)| VerifyItem {
            layer: layer.clone(),
            default_u: defaults[pos].0.unroll,
            tuned_u: winners[pos].expect("every layer scored").2,
        })
        .collect();
    let verified: Vec<(LossLedger, LossLedger)> = ctx.map(
        vitems,
        |it| format!("{}/verify", it.layer.name()),
        move |_tctx, it: VerifyItem| {
            let before = match mode {
                VerifyMode::Engine => recorded_ledger(&it.layer, it.default_u),
                VerifyMode::Static => analytic_ledger(&it.layer, it.default_u),
            };
            (before, recorded_ledger(&it.layer, it.tuned_u))
        },
    );

    let mut layers = Vec::with_capacity(convs.len());
    let mut tuned_choices = Vec::with_capacity(convs.len());
    for (pos, layer) in convs.iter().enumerate() {
        let (before, after) = &verified[pos];
        assert!(
            after.attributed_lost() <= before.attributed_lost(),
            "{}/{}: tuned mapping scores worse than the default",
            net.name(),
            layer.name()
        );
        let tuned_u = winners[pos].expect("every layer scored").2;
        let tuned = choice_for(layer, tuned_u, D);
        // The DP plan was seeded, so the winner dominates it too.
        assert!(
            tuned.cycles <= plan[pos].cycles,
            "{}/{}: tuned mapping scores worse than the compiler plan",
            net.name(),
            layer.name()
        );
        layers.push(LayerReport {
            default: defaults[pos].0.clone(),
            source: defaults[pos].1,
            planned: plan[pos].clone(),
            planned_cycles: analytic_ledger(layer, plan[pos].unroll).total_cycles,
            tuned: tuned.clone(),
            delta: LossDelta::between(before, after),
            enumerated: sets[pos].enumerated,
            scored: sets[pos].legal.len(),
            pruned: sets[pos].pruned,
        });
        tuned_choices.push(tuned);
    }

    let program = tuned_program(net, D, tuned_choices);
    let diags = flexcheck::check(&program, net, &arch);
    assert!(
        !flexcheck::has_errors(&diags),
        "{}: tuned program fails flexcheck: {}",
        net.name(),
        flexcheck::render(&diags)
    );
    TuneOutcome {
        workload: net.name().to_owned(),
        layers,
        program,
    }
}

/// Tunes a list of workloads in order (each fans internally).
pub fn tune_workloads(ctx: &ExperimentCtx, nets: &[Network], budget: Budget) -> Vec<TuneOutcome> {
    tune_workloads_with(ctx, nets, budget, VerifyMode::Engine)
}

/// [`tune_workloads`] with an explicit [`VerifyMode`].
pub fn tune_workloads_with(
    ctx: &ExperimentCtx,
    nets: &[Network],
    budget: Budget,
    mode: VerifyMode,
) -> Vec<TuneOutcome> {
    nets.iter()
        .map(|net| tune_network_with(ctx, net, budget, mode))
        .collect()
}

/// Lowers a network with explicit per-CONV-layer choices — the same
/// instruction shape as [`flexflow::Compiler::compile`], with the
/// tuner's unrollings in the `Configure` stream (FC layers keep the
/// compiler's per-layer optimum; they are uncoupled 1×1 views).
///
/// # Panics
///
/// Panics if `tuned` has fewer entries than the network has CONV
/// layers.
pub fn tuned_program(net: &Network, d: usize, tuned: Vec<LayerChoice>) -> Program {
    let mut conv_plan = tuned.into_iter();
    let mut choices = Vec::new();
    let mut instrs = Vec::new();
    for (li, layer) in net.layers().iter().enumerate() {
        let layer_u8 = li as u8;
        match layer {
            Layer::Conv(_) => {
                let choice = conv_plan.next().expect("one tuned choice per CONV layer");
                instrs.push(Instr::Configure {
                    layer: layer_u8,
                    unroll: choice.unroll,
                });
                instrs.push(Instr::LoadKernels { layer: layer_u8 });
                instrs.push(Instr::Conv { layer: layer_u8 });
                instrs.push(Instr::SwapBuffers);
                choices.push(choice);
            }
            Layer::Pool(_) => instrs.push(Instr::Pool { layer: layer_u8 }),
            Layer::Fc(fc) => {
                let choice = best_unroll(&fc.as_conv(), d, None);
                instrs.push(Instr::Configure {
                    layer: layer_u8,
                    unroll: choice.unroll,
                });
                instrs.push(Instr::LoadKernels { layer: layer_u8 });
                instrs.push(Instr::Conv { layer: layer_u8 });
                instrs.push(Instr::SwapBuffers);
                choices.push(choice);
            }
        }
    }
    instrs.push(Instr::Halt);
    Program::from_parts(net.name(), d, choices, instrs)
}

/// Renders the best-mapping table with before/after loss attribution.
pub fn report(outcomes: &[TuneOutcome], budget: Budget) -> ExperimentResult {
    let mut table = Table::new([
        "workload",
        "layer",
        "default",
        "tuned",
        "cycles",
        "tuned cycles",
        "lost PE-cyc",
        "tuned lost",
        "recovered (cause)",
        "cands scored/enum",
    ]);
    for o in outcomes {
        let mut recovered_all = 0i64;
        for l in &o.layers {
            recovered_all += l.delta.total_recovered();
            let default_cell = if l.source == "table4" {
                format!("{} *", l.default.unroll)
            } else {
                l.default.unroll.to_string()
            };
            table.push_row([
                o.workload.clone(),
                l.default.layer.clone(),
                default_cell,
                l.tuned.unroll.to_string(),
                l.delta.before_cycles.to_string(),
                l.delta.after_cycles.to_string(),
                eng(l.delta.before_total() as f64),
                eng(l.delta.after_total() as f64),
                fmt_recoveries(&l.delta),
                format!("{}/{}", l.scored, l.enumerated),
            ]);
        }
        table.push_row([
            o.workload.clone(),
            "(all)".to_owned(),
            "-".to_owned(),
            "-".to_owned(),
            o.layers
                .iter()
                .map(|l| l.delta.before_cycles)
                .sum::<u64>()
                .to_string(),
            o.layers
                .iter()
                .map(|l| l.delta.after_cycles)
                .sum::<u64>()
                .to_string(),
            eng(o.layers.iter().map(|l| l.delta.before_total()).sum::<u64>() as f64),
            eng(o.layers.iter().map(|l| l.delta.after_total()).sum::<u64>() as f64),
            recovered_all.to_string(),
            if o.improved() { "improved" } else { "tie" }.to_owned(),
        ]);
    }
    let improved = outcomes.iter().filter(|o| o.improved()).count();
    let total_layers: usize = outcomes.iter().map(|o| o.layers.len()).sum();
    let plan_optimal = outcomes
        .iter()
        .flat_map(|o| &o.layers)
        .filter(|l| l.tuned.cycles == l.planned.cycles)
        .count();
    let mut notes = vec![
        format!(
            "Budget `{budget}`: per layer, candidates are enumerated, \
             lint-pruned by flexcheck (FXC01-FXC09) before any \
             simulation, scored with the exact LossLedger cost \
             function across the pool, and the winner verified on the \
             cycle-stepped engine (recorded == analytic on every \
             cause)."
        ),
        "Defaults marked `*` are the paper's published Table 4 factors \
         (clamped); the rest come from the Section 5 analyzer chain \
         (greedy + IADP placement). The default is seeded at candidate \
         index 0 and the repo compiler's DP plan right behind it, so a \
         tuned mapping never scores worse than either (monotonic \
         improvement). The tuner relaxes IADP *equality* between \
         consecutive CONV layers but keeps the successor pooling bound \
         Tr, Tc \u{2264} P\u{b7}K'."
            .into(),
        format!(
            "{improved} of {} workloads recover mapping-residue-idle + \
             edge-fragmentation PE-cycles over the paper-default \
             mappings; the compiler's DP plan already matches the tuned \
             cycle count on {plan_optimal} of {total_layers} layers.",
            outcomes.len()
        ),
    ];
    if budget == Budget::Full {
        notes.push(
            "Budget `full` is exhaustive, so a tie is a certificate: the \
             default mapping is cycle-optimal over the entire \
             Constraint-(1)-legal unrolling space for that layer."
                .into(),
        );
    }
    ExperimentResult {
        id: "tune".into(),
        title: Tune.title().into(),
        notes,
        table,
    }
}

/// The nonzero per-cause recoveries, largest first (`-` when the tuned
/// mapping ties the default).
fn fmt_recoveries(delta: &LossDelta) -> String {
    let top = delta.top_recoveries();
    if top.is_empty() {
        return "-".to_owned();
    }
    top.iter()
        .map(|(cause, d)| format!("{cause} {d:+}"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// The `BENCH_tune.json` document: per-workload, per-layer, per-cause
/// before/after attribution plus the honesty fields (parallelism,
/// rustc, commit, heatmap cells).
pub fn bench_json(outcomes: &[TuneOutcome], budget: Budget) -> Json {
    let improved = outcomes.iter().filter(|o| o.improved()).count();
    Json::obj(
        [
            ("bench", Json::str("tune")),
            ("budget", Json::str(budget.to_string())),
            ("baseline", Json::str("table4+analyzer-chain")),
        ]
        .into_iter()
        // This document is byte-identity-tested across reruns, so the
        // one wall-clock honesty field stays out; the timing-bearing
        // artifact (BENCH_history.jsonl) carries it.
        .chain(
            crate::bench::honesty_fields()
                .into_iter()
                .filter(|(k, _)| *k != "spatial_overhead_pct"),
        )
        .chain([
            ("workloads_total", Json::Int(outcomes.len() as i64)),
            ("workloads_improved", Json::Int(improved as i64)),
            // Only the exhaustive budget turns a tie into an optimality
            // certificate; capped budgets leave the question open.
            (
                "workloads_confirmed_optimal",
                Json::Int(if budget == Budget::Full {
                    (outcomes.len() - improved) as i64
                } else {
                    0
                }),
            ),
            (
                "recovered_pe_cycles",
                Json::Int(outcomes.iter().map(TuneOutcome::recovered_pe_cycles).sum()),
            ),
            (
                "residue_edge_recovered",
                Json::Int(
                    outcomes
                        .iter()
                        .map(TuneOutcome::residue_edge_recovered)
                        .sum(),
                ),
            ),
            (
                "workloads",
                Json::arr(outcomes.iter().map(|o| {
                    Json::obj([
                        ("workload", Json::str(&o.workload)),
                        (
                            "improved",
                            Json::str(if o.improved() { "yes" } else { "no" }),
                        ),
                        (
                            "residue_edge_recovered",
                            Json::Int(o.residue_edge_recovered()),
                        ),
                        ("recovered_pe_cycles", Json::Int(o.recovered_pe_cycles())),
                        (
                            "layers",
                            Json::arr(o.layers.iter().map(|l| {
                                Json::obj([
                                    ("layer", Json::str(&l.default.layer)),
                                    ("default", Json::str(l.default.unroll.to_string())),
                                    ("baseline_source", Json::str(l.source)),
                                    ("tuned", Json::str(l.tuned.unroll.to_string())),
                                    ("cycles_before", Json::Int(l.delta.before_cycles as i64)),
                                    ("cycles_after", Json::Int(l.delta.after_cycles as i64)),
                                    ("cycles_planned", Json::Int(l.planned_cycles as i64)),
                                    ("lost_before", per_cause(|c| l.delta.before(c) as i64)),
                                    ("lost_after", per_cause(|c| l.delta.after(c) as i64)),
                                    ("recovered", per_cause(|c| l.delta.recovered(c))),
                                ])
                            })),
                        ),
                    ])
                })),
            ),
        ]),
    )
}

/// A per-cause JSON object, all seven causes in taxonomy order (byte-
/// stable keys).
fn per_cause(f: impl Fn(StallCause) -> i64) -> Json {
    Json::obj(StallCause::ALL.iter().map(|&c| (c.name(), Json::Int(f(c)))))
}

/// Aggregate tune-sweep numbers for the bench-history perf log.
pub(crate) struct SweepTotals {
    /// Net PE-cycles recovered across all workloads (smoke budget).
    pub recovered_pe_cycles: i64,
    /// Workloads with positive residue + edge recovery.
    pub workloads_improved: usize,
}

/// Runs the smoke-budget tune sweep and aggregates the recovery totals
/// `bench history` appends (and `bench check` gates on).
pub(crate) fn sweep_totals(jobs: usize) -> SweepTotals {
    sweep_totals_with(jobs, VerifyMode::Engine)
}

/// [`sweep_totals`] under an explicit [`VerifyMode`] — `bench history`
/// times both modes so the `--static` wall-time saving is a recorded,
/// regression-gated number rather than a claim.
pub(crate) fn sweep_totals_with(jobs: usize, mode: VerifyMode) -> SweepTotals {
    let ctx = ExperimentCtx::parallel("tune", jobs);
    let outcomes = tune_workloads_with(&ctx, &workloads::all(), Budget::Smoke, mode);
    SweepTotals {
        recovered_pe_cycles: outcomes.iter().map(TuneOutcome::recovered_pe_cycles).sum(),
        workloads_improved: outcomes.iter().filter(|o| o.improved()).count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_parses_smoke_full_and_caps() {
        assert_eq!(Budget::parse("smoke"), Ok(Budget::Smoke));
        assert_eq!(Budget::parse("full"), Ok(Budget::Full));
        assert_eq!(Budget::parse("500"), Ok(Budget::Cap(500)));
        for bad in ["0", "-3", "exhaustive", "1.5", ""] {
            assert!(Budget::parse(bad).is_err(), "{bad:?} should be rejected");
        }
        assert_eq!(Budget::Smoke.to_string(), "smoke");
        assert_eq!(Budget::Cap(64).to_string(), "64");
    }

    #[test]
    fn analytic_ledger_matches_the_recorded_engine() {
        // The proof obligation, spot-checked directly: recorded_ledger
        // asserts per-cause equality internally.
        let layer = ConvLayer::new("C3", 16, 6, 10, 5).with_input_size(14);
        for u in [
            Unroll::new(16, 3, 1, 1, 1, 5),
            Unroll::new(3, 8, 1, 5, 1, 2),
            Unroll::new(1, 1, 1, 1, 1, 1),
        ] {
            let rec = recorded_ledger(&layer, u);
            assert!(rec.is_exact());
            assert_eq!(rec.busy_pe_cycles, layer.macs());
        }
        // A segmented layer exercises the psum-spill event too.
        let deep = ConvLayer::new("C5", 32, 256, 13, 3).with_input_size(13);
        let rec = recorded_ledger(&deep, Unroll::new(4, 2, 1, 2, 1, 3));
        assert!(rec.lost(StallCause::PsumSpillRoundTrip) > 0);
    }

    #[test]
    fn paper_defaults_prefer_published_table4_factors() {
        // LeNet-5's published C1/C3 rows are feasible and stand as the
        // baseline; FR C1's published Tj=15 is clamped to its kernel
        // (K=5), as in table04; AlexNet has no Table 4 rows at all.
        let lenet = paper_defaults(&workloads::lenet5());
        assert_eq!(lenet[0].1, "table4");
        assert_eq!(lenet[0].0.unroll, Unroll::new(3, 1, 1, 5, 3, 5));
        assert_eq!(lenet[1].1, "table4");
        assert_eq!(lenet[1].0.unroll, Unroll::new(16, 3, 1, 1, 1, 5));
        let fr = paper_defaults(&workloads::fr());
        assert_eq!(fr[0].1, "table4");
        assert_eq!(fr[0].0.unroll, Unroll::new(4, 1, 1, 4, 3, 5));
        assert_eq!(fr[1].1, "table4");
        for (_, src) in paper_defaults(&workloads::alexnet()) {
            assert_eq!(src, "analyzer");
        }
    }

    #[test]
    fn pv_tuning_is_monotonic_and_improves() {
        let ctx = ExperimentCtx::serial("tune");
        let net = workloads::pv();
        let outcome = tune_network(&ctx, &net, Budget::Full);
        assert_eq!(outcome.layers.len(), net.conv_layers().count());
        for l in &outcome.layers {
            // Monotonic: never worse than the default or the DP plan.
            assert!(
                l.delta.after_total() <= l.delta.before_total(),
                "{}",
                l.default.layer
            );
            assert!(l.tuned.cycles <= l.planned.cycles, "{}", l.default.layer);
            assert!(l.scored <= l.enumerated + 2, "{}", l.default.layer);
        }
        // The paper's published PV C3 factors cost 120 tiles over the
        // free optimum; the search must recover them.
        assert!(outcome.improved(), "PV should improve under full budget");
        assert!(outcome.recovered_pe_cycles() > 0);
    }

    #[test]
    fn cap_budget_keeps_the_default_seed() {
        // A cap of 1 leaves exactly the paper-default candidate: the
        // tuner degenerates to the baseline, never an empty space.
        let ctx = ExperimentCtx::serial("tune");
        let net = workloads::lenet5();
        let outcome = tune_network(&ctx, &net, Budget::Cap(1));
        for (l, (d, _)) in outcome.layers.iter().zip(paper_defaults(&net)) {
            assert_eq!(l.tuned.unroll, d.unroll);
            assert_eq!(l.delta.total_recovered(), 0);
            assert_eq!(l.scored, 1);
        }
    }

    #[test]
    fn static_verification_matches_the_engine_path() {
        // The --static acceptance bar: symbolic scoring + winner-only
        // engine verification must pick the same winners and report the
        // same before/after attribution as the fully-simulated path.
        let ctx = ExperimentCtx::serial("tune");
        for net in [workloads::pv(), workloads::lenet5(), workloads::hg()] {
            let engine = tune_network_with(&ctx, &net, Budget::Smoke, VerifyMode::Engine);
            let fast = tune_network_with(&ctx, &net, Budget::Smoke, VerifyMode::Static);
            assert_eq!(engine.layers.len(), fast.layers.len());
            for (e, s) in engine.layers.iter().zip(&fast.layers) {
                assert_eq!(e.tuned.unroll, s.tuned.unroll, "{}", e.default.layer);
                assert_eq!(
                    e.delta.before_cycles, s.delta.before_cycles,
                    "{}",
                    e.default.layer
                );
                assert_eq!(
                    e.delta.after_cycles, s.delta.after_cycles,
                    "{}",
                    e.default.layer
                );
                for cause in StallCause::ALL {
                    assert_eq!(
                        e.delta.recovered(cause),
                        s.delta.recovered(cause),
                        "{}/{cause}",
                        e.default.layer
                    );
                }
            }
            assert_eq!(engine.program.instrs(), fast.program.instrs());
        }
    }

    #[test]
    fn tuned_program_mirrors_compiler_shape() {
        let net = workloads::lenet5();
        let compiled = flexflow::Compiler::new(D).compile(&net);
        let p = tuned_program(&net, D, plan_network(&net, D));
        assert_eq!(p.instrs(), compiled.instrs());
        assert_eq!(p.choices(), compiled.choices());
    }

    #[test]
    fn bench_json_is_parseable_and_counts_improvements() {
        let ctx = ExperimentCtx::serial("tune");
        let outcomes = tune_workloads(&ctx, &[workloads::pv()], Budget::Smoke);
        let doc = bench_json(&outcomes, Budget::Smoke);
        let text = doc.pretty();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed, doc);
        assert!(text.contains("\"bench\": \"tune\""));
        assert!(text.contains("\"budget\": \"smoke\""));
        assert!(text.contains("mapping-residue-idle"));
    }
}
