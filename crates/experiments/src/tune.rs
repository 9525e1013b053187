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
//! 2. **lint and score** — one pass across the thread pool
//!    ([`ExperimentCtx::map`], deterministic at any `--jobs` level).
//!    Each task takes a range of its layer's shared candidate list and
//!    checks each candidate with [`flexcheck::check_candidate`] against
//!    the six per-layer rules (FXC01–03 and FXC06–08). It scores each
//!    legal one from the closed-form schedule the returned
//!    [`flexcheck::LayerPlan`] already holds: the attributed lost
//!    PE-cycles of [`Aggregate::lost_pe_cycles`], equal to the
//!    [`analytic_ledger`]'s by construction. Each candidate's schedule
//!    is built once;
//! 3. **pick** — the winner minimizes total attributed lost
//!    PE-cycles, ties broken by candidate index with the paper-default
//!    mapping seeded at index 0 and the repo compiler's DP plan
//!    ([`plan_network`]) seeded right behind it — so the tuner can
//!    never select a mapping worse than either seed the budget scores
//!    (the monotonic-improvement invariant). Each task returns its
//!    legal count and the records where its running best strictly
//!    improves, which keeps the [`Budget::Cap`] cut and the tie-break
//!    exact;
//! 4. **report** — the before/after loss attribution per cause is a
//!    [`LossDelta`] between the default's and the winner's
//!    [`analytic_ledger`]s, both checked exact (FXC09), and the
//!    assembled tuned [`Program`] must pass the full flexcheck rule
//!    set.
//!
//! [`Aggregate::lost_pe_cycles`]: flexsim_obs::cycles::Aggregate::lost_pe_cycles

use crate::experiment::{Experiment, ExperimentCtx};
use crate::report::{eng, ExperimentResult, Table};
use flexcheck::ArchParams;
use flexflow::analytic::{self, Schedule};
use flexflow::{Compiler, FlexFlow, Program};
use flexsim_dataflow::search::{analyzer_chain, plan_network, LayerChoice};
use flexsim_dataflow::tune as search_space;
use flexsim_dataflow::Unroll;
use flexsim_model::{workloads, ConvLayer, Network};
use flexsim_obs::attrib::{LossDelta, LossLedger, StallCause};
use flexsim_testkit::json::Json;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Engine side the tuner targets (the paper's 16×16 configuration).
const D: usize = 16;

/// Candidates per lint-and-score task — small enough to balance across
/// the pool, large enough that task overhead stays negligible.
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

    /// Candidates ranked at or past this index (seeds first) are over
    /// the budget's cap.
    fn limit(self) -> usize {
        match self {
            Budget::Cap(n) => n.max(1),
            Budget::Full | Budget::Smoke => usize::MAX,
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

/// The argument of [`tune_workloads_with`]. It selects nothing: the
/// tuner has one path. It exists only for flexbench's `tune-search`
/// workload, which passes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerifyMode {
    /// The only value.
    Engine,
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
            let rc_bound = net.rc_bound(idxs[pos]);
            let published = crate::paper::TABLE4
                .iter()
                .find(|(w, l, _)| *w == net.name() && *l == layer.name());
            if let Some(&(_, _, pf)) = published {
                let u = Unroll::new(pf[0], pf[1], pf[2], pf[3], pf[4], pf[5]).clamped_to(layer);
                let legal = u.satisfies(layer, D, rc_bound)
                    && flexcheck::check_candidate(layer, idxs[pos], u, &arch).is_ok();
                if legal {
                    return (LayerChoice::new(layer, u, D), "table4");
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
    /// Before/after loss attribution between the default's and the
    /// winner's [`analytic_ledger`]s.
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

/// A candidate's per-cause loss ledger, synthesized from the
/// closed-form engine schedule in O(stripes) instead of stepping
/// O(tile-count) cycles: the before/after ledgers of the report. Its
/// attributed loss is the tuner's score. It is the ledger the engine's
/// cycle recorder emits for the same run; the tests hold the two equal
/// on every cause.
///
/// # Panics
///
/// Panics if `u` over-occupies the engine — lint with flexcheck
/// first.
pub fn analytic_ledger(layer: &ConvLayer, u: Unroll) -> LossLedger {
    LossLedger::from_timeline(&FlexFlow::new(D).predict_with(layer, u))
}

/// [`analytic_ledger`], asserted exact by flexcheck FXC09: its events
/// tile the layer and busy plus attributed lost PE-cycles equal
/// cycles × PEs.
///
/// # Panics
///
/// Panics when the ledger fails FXC09.
fn exact_ledger(layer: &ConvLayer, u: Unroll) -> LossLedger {
    let ledger = analytic_ledger(layer, u);
    let diags = flexcheck::check_ledger(&ledger);
    assert!(
        diags.is_empty(),
        "{}/{u}: {}",
        layer.name(),
        flexcheck::render(&diags)
    );
    ledger
}

/// The tuner's cost: the attributed lost PE-cycles of a candidate's
/// closed-form schedule on the `D×D` engine. It sums the same per-kind
/// terms as `analytic_ledger(..).attributed_lost()`, without building
/// the timeline or the ledger.
fn lost_pe_cycles(sch: &Schedule) -> u64 {
    analytic::aggregate(sch).lost_pe_cycles((D * D) as u64)
}

/// A seeded candidate — the paper default at index 0, the compiler's
/// DP plan right behind it — linted and scored once.
struct Seed {
    u: Unroll,
    legal: bool,
    lost: u64,
    /// Engine cycles of its schedule.
    cycles: u64,
}

impl Seed {
    fn new(layer: &ConvLayer, layer_index: usize, u: Unroll, arch: &ArchParams) -> Seed {
        let checked = flexcheck::check_candidate(layer, layer_index, u, arch);
        let legal = checked.is_ok();
        // A seed is scored whatever the lint says; the assembled
        // program's flexcheck catches an illegal winner.
        let sch = checked.map_or_else(|_| analytic::schedule_default(layer, u, D), |p| p.schedule);
        Seed {
            u,
            legal,
            lost: lost_pe_cycles(&sch),
            cycles: sch.cycles,
        }
    }
}

/// One layer's search space, shared by every task that lints and
/// scores a range of it.
struct LayerSearch {
    layer: ConvLayer,
    layer_index: usize,
    /// The candidates the budget enumerated.
    cands: Vec<Unroll>,
    /// Ranked ahead of every enumerated candidate. An enumerated
    /// repeat of a seed takes the seed's legality and is not rescored.
    seeds: Vec<Seed>,
    /// Candidates ranked at or past this index (seeds first) are over
    /// the budget's cap.
    limit: usize,
}

/// One task's share of a layer: enough to rank its legal candidates
/// behind every earlier task's and to pick the least `(lost, index)`
/// exactly under a cap.
struct ChunkScan {
    /// Legal candidates that are not seeds, ranked in candidate order.
    ranked: usize,
    /// Candidates a rule rejected.
    pruned: usize,
    /// `(lost, rank in the chunk, candidate)` each time the chunk's
    /// running best strictly improves.
    improved: Vec<(u64, usize, Unroll)>,
}

/// What the search picked for one layer.
struct Pick {
    winner: Unroll,
    scored: usize,
    pruned: usize,
}

impl LayerSearch {
    /// Lints `cands[range]` and scores each legal candidate from the
    /// schedule its [`flexcheck::LayerPlan`] already holds.
    fn scan(&self, range: Range<usize>, arch: &ArchParams) -> ChunkScan {
        let mut out = ChunkScan {
            ranked: 0,
            pruned: 0,
            improved: Vec::new(),
        };
        for &u in &self.cands[range] {
            if let Some(seed) = self.seeds.iter().find(|s| s.u == u) {
                out.pruned += usize::from(!seed.legal);
                continue;
            }
            let Ok(plan) = flexcheck::check_candidate(&self.layer, self.layer_index, u, arch)
            else {
                out.pruned += 1;
                continue;
            };
            // Earlier chunks only push the rank further back, so a rank
            // over the cap here is over it in the layer too.
            if self.seeds.len() + out.ranked < self.limit {
                let lost = lost_pe_cycles(&plan.schedule);
                if out.improved.last().is_none_or(|&(best, _, _)| lost < best) {
                    out.improved.push((lost, out.ranked, u));
                }
            }
            out.ranked += 1;
        }
        out
    }

    /// Folds the layer's chunk scans, in candidate order, into the
    /// least `(lost, index)` within the cap.
    fn pick(&self, scans: impl Iterator<Item = ChunkScan>) -> Pick {
        let mut best: Option<(u64, usize, Unroll)> = None;
        let mut consider = |lost: u64, index: usize, u: Unroll| {
            if index < self.limit && best.is_none_or(|(bl, bi, _)| (lost, index) < (bl, bi)) {
                best = Some((lost, index, u));
            }
        };
        for (index, seed) in self.seeds.iter().enumerate() {
            consider(seed.lost, index, seed.u);
        }
        let (mut ranked, mut pruned) = (self.seeds.len(), 0);
        for scan in scans {
            // A chunk's records improve strictly, so its best within
            // the cap is the last one under it.
            if let Some(&(lost, rank, u)) = scan
                .improved
                .iter()
                .rev()
                .find(|r| ranked + r.1 < self.limit)
            {
                consider(lost, ranked + rank, u);
            }
            ranked += scan.ranked;
            pruned += scan.pruned;
        }
        Pick {
            winner: best.expect("the default seed is always ranked").2,
            scored: ranked.min(self.limit),
            pruned,
        }
    }
}

/// Tunes one workload: enumerate, then lint and score every candidate
/// in one pooled pass, then pick per CONV layer; report the
/// before/after ledgers and assemble the flexcheck-clean tuned program.
///
/// # Panics
///
/// Panics if a check fails: a before/after ledger that is not
/// FXC09-exact, a tuned mapping scoring worse than a scored seed (the
/// default, or the compiler plan when the cap reaches it), or the
/// assembled program failing flexcheck.
pub fn tune_network(ctx: &ExperimentCtx, net: &Network, budget: Budget) -> TuneOutcome {
    let arch = ArchParams::flexflow_paper();
    let defaults = paper_defaults(net);
    let plan = plan_network(net, D);
    let idxs = net.conv_indices();
    let limit = budget.limit();

    // Phase 1: enumerate, and lint and score the two seeds.
    let searches: Vec<Arc<LayerSearch>> = net
        .conv_layers()
        .enumerate()
        .map(|(pos, layer)| {
            let bound = net.rc_bound(idxs[pos]);
            let cands = match budget {
                Budget::Full | Budget::Cap(_) => search_space::full_candidates(layer, D, bound),
                Budget::Smoke => search_space::grid_candidates(layer, D, bound),
            };
            let (default_u, plan_u) = (defaults[pos].0.unroll, plan[pos].unroll);
            let mut seeds = vec![Seed::new(layer, idxs[pos], default_u, &arch)];
            if plan_u != default_u {
                seeds.push(Seed::new(layer, idxs[pos], plan_u, &arch));
            }
            Arc::new(LayerSearch {
                layer: layer.clone(),
                layer_index: idxs[pos],
                cands,
                seeds,
                limit,
            })
        })
        .collect();

    // Phase 2: lint and score every enumerated candidate across the
    // pool. Chunks of every layer fan out together and share their
    // layer's list; the results come back in candidate order, so the
    // pick is deterministic at any `--jobs` level.
    let mut items = Vec::new();
    for search in &searches {
        for start in (0..search.cands.len()).step_by(SCORE_CHUNK) {
            let end = (start + SCORE_CHUNK).min(search.cands.len());
            items.push((Arc::clone(search), start..end));
        }
    }
    let mut scans = ctx
        .map(
            items,
            |(search, range)| format!("{}/lint+score@{}", search.layer.name(), range.start),
            move |_tctx, (search, range)| search.scan(range, &arch),
        )
        .into_iter();

    // Phase 3: the pick per layer, the before/after ledgers, the
    // dominance checks, and the assembled program.
    let mut layers = Vec::with_capacity(searches.len());
    let mut tuned_choices = Vec::with_capacity(searches.len());
    for (pos, search) in searches.iter().enumerate() {
        let layer = &search.layer;
        let pick = search.pick(
            scans
                .by_ref()
                .take(search.cands.len().div_ceil(SCORE_CHUNK)),
        );
        let before = exact_ledger(layer, defaults[pos].0.unroll);
        let after = exact_ledger(layer, pick.winner);
        assert!(
            after.attributed_lost() <= before.attributed_lost(),
            "{}/{}: tuned mapping scores worse than the default",
            net.name(),
            layer.name()
        );
        let tuned = LayerChoice::new(layer, pick.winner, D);
        let plan_index = search
            .seeds
            .iter()
            .position(|s| s.u == plan[pos].unroll)
            .expect("the DP plan is seeded");
        // When the cap reaches the DP plan's seed, the winner
        // dominates it too.
        assert!(
            plan_index >= limit || tuned.cycles <= plan[pos].cycles,
            "{}/{}: tuned mapping scores worse than the compiler plan",
            net.name(),
            layer.name()
        );
        layers.push(LayerReport {
            default: defaults[pos].0.clone(),
            source: defaults[pos].1,
            planned: plan[pos].clone(),
            planned_cycles: search.seeds[plan_index].cycles,
            tuned: tuned.clone(),
            delta: LossDelta::between(&before, &after),
            enumerated: search.cands.len(),
            scored: pick.scored,
            pruned: pick.pruned,
        });
        tuned_choices.push(tuned);
    }

    let program = Compiler::new(D).lower(net, tuned_choices);
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
    nets.iter()
        .map(|net| tune_network(ctx, net, budget))
        .collect()
}

/// [`tune_workloads`]; the mode is ignored. It exists only for
/// flexbench's `tune-search` workload, which calls it.
pub fn tune_workloads_with(
    ctx: &ExperimentCtx,
    nets: &[Network],
    budget: Budget,
    _mode: VerifyMode,
) -> Vec<TuneOutcome> {
    tune_workloads(ctx, nets, budget)
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
    // The DP plan's seed sits at index 1 unless it repeats the default.
    let plan_seeded = outcomes
        .iter()
        .flat_map(|o| &o.layers)
        .all(|l| usize::from(l.planned.unroll != l.default.unroll) < budget.limit());
    let dominated = if plan_seeded {
        "either (monotonic improvement)"
    } else {
        "the default (monotonic improvement): this budget's cap cuts the DP plan's seed"
    };
    let mut notes = vec![
        format!(
            "Budget `{budget}`: per layer, candidates are enumerated, \
             lint-pruned by flexcheck (FXC01-FXC09) before any \
             simulation, scored with the exact LossLedger cost \
             function across the pool, the default's and the winner's \
             ledgers checked exact (FXC09), and the tuned program \
             checked by flexcheck."
        ),
        format!(
            "Defaults marked `*` are the paper's published Table 4 factors \
             (clamped); the rest come from the Section 5 analyzer chain \
             (greedy + IADP placement). The default is seeded at candidate \
             index 0 and the repo compiler's DP plan right behind it, so a \
             tuned mapping never scores worse than {dominated}. The tuner \
             relaxes IADP *equality* between consecutive CONV layers but \
             keeps the successor pooling bound Tr, Tc \u{2264} P\u{b7}K'."
        ),
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
    let ctx = ExperimentCtx::parallel("tune", jobs);
    let outcomes = tune_workloads(&ctx, &workloads::all(), Budget::Smoke);
    SweepTotals {
        recovered_pe_cycles: outcomes.iter().map(TuneOutcome::recovered_pe_cycles).sum(),
        workloads_improved: outcomes.iter().filter(|o| o.improved()).count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsim_arch::Accelerator;
    use flexsim_obs::cycles::{Recorder, SinkHandle};
    use std::sync::Arc;

    /// The oracle for [`analytic_ledger`]: runs `layer` under `u` on the
    /// engine with a cycle recorder attached and returns the recorded
    /// ledger, after asserting it is FXC09-exact and FXC10-equal to
    /// the analytic one on every cause.
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
    fn pick_cuts_a_chunk_at_the_cap() {
        // Two seeds, then a chunk of 3 legal candidates and one of 4.
        // A cap of 7 ends inside the second chunk: its rank-1 record
        // (index 6) is in budget, its better rank-3 record (index 8)
        // is not.
        let u = |tm| Unroll::new(tm, 1, 1, 1, 1, 1);
        let seed = |tm, lost| Seed {
            u: u(tm),
            legal: true,
            lost,
            cycles: 0,
        };
        let search = LayerSearch {
            layer: ConvLayer::new("C", 8, 1, 4, 1),
            layer_index: 0,
            cands: Vec::new(),
            seeds: vec![seed(1, 90), seed(2, 80)],
            limit: 7,
        };
        let scans = [
            ChunkScan {
                ranked: 3,
                pruned: 1,
                improved: vec![(95, 0, u(3)), (85, 2, u(4))],
            },
            ChunkScan {
                ranked: 4,
                pruned: 0,
                improved: vec![(70, 1, u(5)), (10, 3, u(6))],
            },
        ];
        let pick = search.pick(scans.into_iter());
        assert_eq!(pick.winner, u(5));
        assert_eq!((pick.scored, pick.pruned), (7, 1));
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
        // `--static` is accepted and changes nothing: the tuner has one
        // path, so both command lines are the same command.
        let parsed = |args: &[&str]| crate::cli::parse(args).unwrap().command;
        assert_eq!(parsed(&["tune", "pv", "--static"]), parsed(&["tune", "pv"]));
    }

    #[test]
    fn tuned_program_mirrors_compiler_shape() {
        // The tuner's program is the compiler's lowering of its
        // winners: the compiled stream instruction for instruction,
        // with the tuned unrollings in the `Configure`s.
        use flexflow::isa::Instr;
        let net = workloads::lenet5();
        let outcome = tune_network(&ExperimentCtx::serial("tune"), &net, Budget::Smoke);
        let tuned: Vec<Unroll> = outcome.layers.iter().map(|l| l.tuned.unroll).collect();
        let compiled = Compiler::new(D).compile(&net);
        assert_eq!(outcome.program.instrs().len(), compiled.instrs().len());
        let mut configured = Vec::new();
        for (t, c) in outcome.program.instrs().iter().zip(compiled.instrs()) {
            match (t, c) {
                (Instr::Configure { layer: a, unroll }, Instr::Configure { layer: b, .. }) => {
                    assert_eq!(a, b);
                    configured.push(*unroll);
                }
                _ => assert_eq!(t, c),
            }
        }
        assert_eq!(configured, tuned);
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
