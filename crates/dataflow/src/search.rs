//! The Section 5 "workload analyzer": choosing unrolling factors.
//!
//! Per layer, the factors must satisfy Constraint (1); across layers, the
//! IADP data-placement rule couples consecutive CONV layers — the results
//! of layer *i* are written in the layout layer *i+1* will read, so
//! `⟨Tm, Tr, Tc⟩` of layer *i* must equal `⟨Tn, Ti, Tj⟩` of layer *i+1*,
//! and `Tr, Tc ≤ P·K'` (next pooling window × next kernel size).
//!
//! [`best_unroll`] optimizes a single layer greedily (the per-layer
//! optimum, used for baseline-style analyses); [`plan_network`] solves
//! the coupled problem exactly by dynamic programming over candidate
//! `⟨Tm, Tr, Tc⟩` triples, minimizing total engine cycles — this is the
//! planner behind the paper's Table 4.
//!
//! The DP prices a (predecessor, state) pair by the layer's tile count,
//! which factors into a row side fixed by the predecessor through IADP
//! ([`row_tiles`]) and a column side fixed by the state ([`col_tiles`]).
//! Predecessors with equal row-side counts differ only in their running
//! cost, so each count keeps one representative, the cheapest (lowest
//! index on a tie). A layer then costs `distinct row-side counts ×
//! states` relaxations instead of `states × states`, and the plan is the
//! one the pairwise DP picks, tie-breaks included.
//!
//! [`row_tiles`]: crate::utilization::row_tiles
//! [`col_tiles`]: crate::utilization::col_tiles

use crate::unroll::{dilation_legal, legal_synapse_factor, Unroll};
use crate::utilization::{
    col_tiles, col_utilization, row_tiles, row_utilization, tile_count, total_utilization,
};
use flexsim_model::{ConvLayer, Network};
use std::fmt;

/// The chosen unrolling for one CONV layer, with its utilization figures.
#[derive(Clone, Debug, PartialEq)]
pub struct LayerChoice {
    /// Layer name.
    pub layer: String,
    /// The chosen factors.
    pub unroll: Unroll,
    /// Engine side `D` (a `D×D` PE array).
    pub d: usize,
    /// PE-row utilization `Ur` (Eq. 2).
    pub row_util: f64,
    /// PE-column utilization `Uc` (Eq. 3).
    pub col_util: f64,
    /// Engine compute steps for the layer (tile count).
    pub cycles: u64,
}

impl LayerChoice {
    /// The choice of `u` for `layer` on a `d×d` engine, with its
    /// utilizations (Eqs. 2–3) and tile count.
    pub fn new(layer: &ConvLayer, u: Unroll, d: usize) -> LayerChoice {
        LayerChoice {
            layer: layer.name().to_owned(),
            unroll: u,
            d,
            row_util: row_utilization(layer, &u, d),
            col_util: col_utilization(layer, &u, d),
            cycles: tile_count(layer, &u),
        }
    }

    /// Total utilization `Ut = Ur · Uc`.
    pub fn total_utilization(&self) -> f64 {
        self.row_util * self.col_util
    }
}

impl fmt::Display for LayerChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} (Ur {:.1}%, Uc {:.1}%, Ut {:.1}%)",
            self.layer,
            self.unroll,
            self.row_util * 100.0,
            self.col_util * 100.0,
            self.total_utilization() * 100.0
        )
    }
}

/// Enumerates candidate `(Tn, Ti, Tj)` triples for a layer on a `D`-wide
/// engine (the intra-row side).
pub(crate) fn row_candidates(layer: &ConvLayer, d: usize) -> Vec<(usize, usize, usize)> {
    let mut out = Vec::new();
    let k = layer.k();
    let dil = layer.dilation();
    for ti in (1..=k.min(d)).filter(|&t| dilation_legal(dil, t)) {
        for tj in (1..=k.min(d / ti)).filter(|&t| dilation_legal(dil, t)) {
            let max_tn = layer.n().min(d / (ti * tj));
            for tn in 1..=max_tn {
                out.push((tn, ti, tj));
            }
        }
    }
    out
}

/// Enumerates candidate `(Tm, Tr, Tc)` triples (the inter-row side),
/// honouring the successor bound `Tr, Tc ≤ rc_bound`.
pub(crate) fn col_candidates(
    layer: &ConvLayer,
    d: usize,
    rc_bound: Option<usize>,
) -> Vec<(usize, usize, usize)> {
    let bound = rc_bound.unwrap_or(usize::MAX);
    let s_lim = layer.s().min(bound).min(d);
    let mut out = Vec::new();
    for tr in 1..=s_lim {
        for tc in 1..=s_lim.min(d / tr) {
            let max_tm = layer.m().min(d / (tr * tc));
            for tm in 1..=max_tm {
                out.push((tm, tr, tc));
            }
        }
    }
    out
}

/// Finds the per-layer optimal unrolling: maximal `Ut` subject to
/// Constraint (1), with ties broken toward fewer cycles and then larger
/// synapse parallelism (which shortens operand reload chains).
///
/// `rc_bound` is the `P·K'` successor constraint, `None` for the last
/// CONV layer.
///
/// # Panics
///
/// Panics if `d` is zero.
pub fn best_unroll(layer: &ConvLayer, d: usize, rc_bound: Option<usize>) -> LayerChoice {
    assert!(d > 0, "engine side must be non-zero");
    // Ur and Uc are independent, so optimize the two sides separately.
    // Invariant: utilizations are ratios of positive finite counts, so
    // `partial_cmp` below never sees a NaN.
    let best_row = row_candidates(layer, d)
        .into_iter()
        .max_by(|a, b| {
            let ua = row_utilization(layer, &Unroll::new(1, a.0, 1, 1, a.1, a.2), d);
            let ub = row_utilization(layer, &Unroll::new(1, b.0, 1, 1, b.1, b.2), d);
            ua.partial_cmp(&ub)
                .unwrap()
                .then_with(|| (a.1 * a.2).cmp(&(b.1 * b.2)))
                .then_with(|| a.cmp(b))
        })
        .expect("row candidates are never empty");
    let best_col = col_candidates(layer, d, rc_bound)
        .into_iter()
        .max_by(|a, b| {
            let ua = col_utilization(layer, &Unroll::new(a.0, 1, a.1, a.2, 1, 1), d);
            let ub = col_utilization(layer, &Unroll::new(b.0, 1, b.1, b.2, 1, 1), d);
            ua.partial_cmp(&ub).unwrap().then_with(|| a.cmp(b))
        })
        .expect("col candidates are never empty");
    let u = Unroll::new(
        best_col.0, best_row.0, best_col.1, best_col.2, best_row.1, best_row.2,
    );
    debug_assert!(u.satisfies(layer, d, rc_bound));
    LayerChoice::new(layer, u, d)
}

/// Finds the optimal unrolling among those satisfying an arbitrary
/// predicate — used by the ablation studies to restrict the engine to a
/// single processing style (e.g. what a Systolic-style `SFSNMS`-only
/// FlexFlow could achieve).
///
/// Returns `None` when no feasible unrolling satisfies the predicate.
///
/// # Panics
///
/// Panics if `d` is zero.
///
/// # Example
///
/// ```
/// use flexsim_dataflow::search::best_unroll_where;
/// use flexsim_dataflow::{Style, Unroll};
/// use flexsim_model::ConvLayer;
///
/// let layer = ConvLayer::new("C3", 16, 6, 10, 5);
/// // Restrict to neuron parallelism only (2D-Mapping's style).
/// let np_only = best_unroll_where(&layer, 16, None, |u: &Unroll| {
///     Style::from_unroll(u) == Style::mapping2d() || *u == Unroll::scalar()
/// })
/// .unwrap();
/// assert!(np_only.total_utilization() < 0.5);
/// ```
pub fn best_unroll_where(
    layer: &ConvLayer,
    d: usize,
    rc_bound: Option<usize>,
    pred: impl Fn(&Unroll) -> bool,
) -> Option<LayerChoice> {
    assert!(d > 0, "engine side must be non-zero");
    let rows = row_candidates(layer, d);
    let cols = col_candidates(layer, d, rc_bound);
    let mut best: Option<(f64, u64, Unroll)> = None;
    for &(tm, tr, tc) in &cols {
        for &(tn, ti, tj) in &rows {
            let u = Unroll::new(tm, tn, tr, tc, ti, tj);
            if !pred(&u) {
                continue;
            }
            let ut = total_utilization(layer, &u, d);
            let cycles = tile_count(layer, &u);
            let better = match &best {
                None => true,
                Some((bu, bc, _)) => ut > *bu + 1e-12 || (ut > *bu - 1e-12 && cycles < *bc),
            };
            if better {
                best = Some((ut, cycles, u));
            }
        }
    }
    best.map(|(_, _, u)| LayerChoice::new(layer, u, d))
}

/// The IADP hand-off: layer *i*'s column side `⟨Tm, Tr, Tc⟩` becomes
/// layer *i+1*'s row side `⟨Tn, Ti, Tj⟩`, clamped to this layer's `N`/`K`
/// bounds (shapes can disagree) and reduced to dilation-legal synapse
/// factors.
fn iadp_row(layer: &ConvLayer, (tm, tr, tc): (usize, usize, usize)) -> (usize, usize, usize) {
    (
        tm.min(layer.n()),
        legal_synapse_factor(layer.dilation(), tr.min(layer.k())),
        legal_synapse_factor(layer.dilation(), tc.min(layer.k())),
    )
}

/// Solves the network-coupled factor-selection problem on a `D×D` engine
/// (the paper's compiler): IADP ties each layer's `⟨Tn, Ti, Tj⟩` to the
/// previous layer's `⟨Tm, Tr, Tc⟩` (clamped to the layer's own `N`/`K`
/// bounds when the shapes disagree), and the choice minimizes total
/// engine cycles across the workload.
///
/// A layer's tile count is its row-side count (set by the predecessor
/// state) times its column-side count (set by the state). Per layer the
/// DP computes each state's column side once, keeps one predecessor per
/// distinct row-side count — the cheapest, the lowest index on a tie —
/// and relaxes only those, in index order, so it costs `distinct
/// row-side counts × states` per layer. Every state's winner is still
/// the lowest-index predecessor of minimal cost.
///
/// Returns one [`LayerChoice`] per CONV layer, in network order.
///
/// # Panics
///
/// Panics if `d` is zero or the network has no CONV layers.
pub fn plan_network(net: &Network, d: usize) -> Vec<LayerChoice> {
    assert!(d > 0, "engine side must be non-zero");
    let conv_steps: Vec<(usize, &ConvLayer)> = net.conv_steps().collect();
    assert!(!conv_steps.is_empty(), "network has no CONV layers");
    let layers: Vec<&ConvLayer> = conv_steps.iter().map(|&(_, l)| l).collect();
    let rc_bounds: Vec<Option<usize>> = conv_steps.iter().map(|&(i, _)| net.rc_bound(i)).collect();

    // Per-layer candidate ⟨Tm,Tr,Tc⟩ triples (the DP state after each
    // layer).
    let states: Vec<Vec<(usize, usize, usize)>> = layers
        .iter()
        .zip(&rc_bounds)
        .map(|(l, &b)| col_candidates(l, d, b))
        .collect();

    // The first layer's row side is uncoupled: pick the Ur-optimal triple.
    let first_row = {
        let l = layers[0];
        row_candidates(l, d)
            .into_iter()
            .max_by(|a, b| {
                let ua = row_utilization(l, &Unroll::new(1, a.0, 1, 1, a.1, a.2), d);
                let ub = row_utilization(l, &Unroll::new(1, b.0, 1, 1, b.1, b.2), d);
                ua.partial_cmp(&ub).unwrap().then_with(|| a.cmp(b))
            })
            .expect("row candidates are never empty")
    };

    // dp[s] = (total cycles, predecessor state index) for the current
    // layer ending in state s.
    let first_rows = row_tiles(layers[0], first_row);
    let mut dp: Vec<(u64, usize)> = states[0]
        .iter()
        .map(|&col| (first_rows * col_tiles(layers[0], col), usize::MAX))
        .collect();
    let mut back: Vec<Vec<usize>> = vec![vec![usize::MAX; states[0].len()]];

    for li in 1..layers.len() {
        let layer = layers[li];
        // One representative per row-side count; relaxing them in index
        // order keeps each state's winner the lowest-index predecessor
        // of minimal cost.
        let mut reps: Vec<(u64, u64, usize)> = Vec::new();
        for (pi, (&prev, &(pcost, _))) in states[li - 1].iter().zip(&dp).enumerate() {
            let (tn, ti, tj) = iadp_row(layer, prev);
            if pcost == u64::MAX || tn * ti * tj > d {
                continue;
            }
            let rows = row_tiles(layer, (tn, ti, tj));
            match reps.iter_mut().find(|r| r.0 == rows) {
                Some(r) if pcost < r.1 => *r = (rows, pcost, pi),
                Some(_) => {}
                None => reps.push((rows, pcost, pi)),
            }
        }
        reps.sort_unstable_by_key(|&(_, _, pi)| pi);
        let cols: Vec<u64> = states[li].iter().map(|&c| col_tiles(layer, c)).collect();
        let mut next: Vec<(u64, usize)> = vec![(u64::MAX, usize::MAX); cols.len()];
        for &(rows, pcost, pi) in &reps {
            for (best, &col) in next.iter_mut().zip(&cols) {
                let cost = pcost.saturating_add(rows * col);
                if cost < best.0 {
                    *best = (cost, pi);
                }
            }
        }
        back.push(next.iter().map(|&(_, p)| p).collect());
        dp = next;
    }

    // Backtrack the optimal state chain.
    let (mut best_state, _) = dp
        .iter()
        .enumerate()
        .min_by_key(|(_, &(cost, _))| cost)
        .expect("states are never empty");
    let mut chain = vec![0usize; layers.len()];
    for li in (0..layers.len()).rev() {
        chain[li] = best_state;
        if li > 0 {
            best_state = back[li][best_state];
        }
    }

    // Materialize choices.
    let mut out = Vec::with_capacity(layers.len());
    for (li, layer) in layers.iter().enumerate() {
        let (tm, tr, tc) = states[li][chain[li]];
        let (tn, ti, tj) = if li == 0 {
            first_row
        } else {
            iadp_row(layer, states[li - 1][chain[li - 1]])
        };
        let u = Unroll::new(tm, tn, tr, tc, ti, tj);
        debug_assert!(
            u.satisfies(layer, d, rc_bounds[li]),
            "planned unroll violates constraints for {}",
            layer.name()
        );
        out.push(LayerChoice::new(layer, u, d));
    }
    out
}

/// The paper's Section 5 analyzer procedure, run end to end: each layer
/// takes the greedy per-layer optimum ([`best_unroll`]), then the IADP
/// placement rule overwrites its row side with the previous layer's
/// column side (clamped to this layer's `N`/`K` bounds). This is the
/// chain the paper's published Table 4 factors come from; together they
/// form the *paper-default* mapping a tuner must beat.
///
/// [`plan_network`] is the repo's stronger refinement (exact DP over the
/// same coupling), so `analyzer_chain` is the honest baseline for
/// before/after comparisons while `plan_network` feeds the compiler.
///
/// # Panics
///
/// Panics if `d` is zero.
pub fn analyzer_chain(net: &Network, d: usize) -> Vec<LayerChoice> {
    assert!(d > 0, "engine side must be non-zero");
    let mut out: Vec<LayerChoice> = Vec::new();
    let mut prev: Option<Unroll> = None;
    for (index, layer) in net.conv_steps() {
        let bound = net.rc_bound(index);
        let mut choice = best_unroll(layer, d, bound);
        if let Some(p) = prev {
            let (tn, ti, tj) = iadp_row(layer, (p.tm, p.tr, p.tc));
            let u = Unroll::new(
                choice.unroll.tm,
                tn,
                choice.unroll.tr,
                choice.unroll.tc,
                ti,
                tj,
            );
            choice = LayerChoice::new(layer, u, d);
        }
        prev = Some(choice.unroll);
        out.push(choice);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::style::Style;
    use flexsim_model::{ffnet, workloads, PoolKind, PoolLayer};
    use flexsim_testkit::prop::{self, vec_of};
    use flexsim_testkit::prop_assert_eq;

    /// The planner's DP priced pair by pair: every (predecessor, state)
    /// pair costs a full `tile_count`. This is the oracle [`plan_network`]
    /// must reproduce choice for choice, tie-breaks included.
    fn plan_network_pairwise(net: &Network, d: usize) -> Vec<LayerChoice> {
        assert!(d > 0, "engine side must be non-zero");
        let conv_steps: Vec<(usize, &ConvLayer)> = net.conv_steps().collect();
        assert!(!conv_steps.is_empty(), "network has no CONV layers");
        let layers: Vec<&ConvLayer> = conv_steps.iter().map(|&(_, l)| l).collect();
        let rc_bounds: Vec<Option<usize>> =
            conv_steps.iter().map(|&(i, _)| net.rc_bound(i)).collect();

        // Per-layer candidate ⟨Tm,Tr,Tc⟩ triples (the DP state after each
        // layer).
        let states: Vec<Vec<(usize, usize, usize)>> = layers
            .iter()
            .zip(&rc_bounds)
            .map(|(l, &b)| col_candidates(l, d, b))
            .collect();

        // The first layer's row side is uncoupled: pick the Ur-optimal triple.
        let first_row = {
            let l = layers[0];
            row_candidates(l, d)
                .into_iter()
                .max_by(|a, b| {
                    let ua = row_utilization(l, &Unroll::new(1, a.0, 1, 1, a.1, a.2), d);
                    let ub = row_utilization(l, &Unroll::new(1, b.0, 1, 1, b.1, b.2), d);
                    ua.partial_cmp(&ub).unwrap().then_with(|| a.cmp(b))
                })
                .expect("row candidates are never empty")
        };

        // dp[s] = (total cycles, predecessor state index) for the current
        // layer ending in state s.
        let mut dp: Vec<(u64, usize)> = states[0]
            .iter()
            .map(|&(tm, tr, tc)| {
                let u = Unroll::new(tm, first_row.0, tr, tc, first_row.1, first_row.2);
                (tile_count(layers[0], &u), usize::MAX)
            })
            .collect();
        let mut back: Vec<Vec<usize>> = vec![vec![usize::MAX; states[0].len()]];

        for li in 1..layers.len() {
            let layer = layers[li];
            let mut next: Vec<(u64, usize)> = vec![(u64::MAX, usize::MAX); states[li].len()];
            for (pi, &(ptm, ptr, ptc)) in states[li - 1].iter().enumerate() {
                let (pcost, _) = dp[pi];
                if pcost == u64::MAX {
                    continue;
                }
                // IADP: incoming row side = previous col side, clamped to this
                // layer's N/K bounds (shapes can disagree, see module docs)
                // and reduced to a dilation-legal synapse factor.
                let tn = ptm.min(layer.n());
                let ti = legal_synapse_factor(layer.dilation(), ptr.min(layer.k()));
                let tj = legal_synapse_factor(layer.dilation(), ptc.min(layer.k()));
                if tn * ti * tj > d {
                    continue;
                }
                for (si, &(tm, tr, tc)) in states[li].iter().enumerate() {
                    let u = Unroll::new(tm, tn, tr, tc, ti, tj);
                    let cost = pcost.saturating_add(tile_count(layer, &u));
                    if cost < next[si].0 {
                        next[si] = (cost, pi);
                    }
                }
            }
            back.push(next.iter().map(|&(_, p)| p).collect());
            dp = next;
        }

        // Backtrack the optimal state chain.
        let (mut best_state, _) = dp
            .iter()
            .enumerate()
            .min_by_key(|(_, &(cost, _))| cost)
            .expect("states are never empty");
        let mut chain = vec![0usize; layers.len()];
        for li in (0..layers.len()).rev() {
            chain[li] = best_state;
            if li > 0 {
                best_state = back[li][best_state];
            }
        }

        // Materialize choices.
        let mut out = Vec::with_capacity(layers.len());
        for (li, layer) in layers.iter().enumerate() {
            let (tm, tr, tc) = states[li][chain[li]];
            let (tn, ti, tj) = if li == 0 {
                first_row
            } else {
                let (ptm, ptr, ptc) = states[li - 1][chain[li - 1]];
                (
                    ptm.min(layer.n()),
                    legal_synapse_factor(layer.dilation(), ptr.min(layer.k())),
                    legal_synapse_factor(layer.dilation(), ptc.min(layer.k())),
                )
            };
            let u = Unroll::new(tm, tn, tr, tc, ti, tj);
            debug_assert!(
                u.satisfies(layer, d, rc_bounds[li]),
                "planned unroll violates constraints for {}",
                layer.name()
            );
            out.push(LayerChoice::new(layer, u, d));
        }
        out
    }

    #[test]
    fn factored_plan_equals_the_pairwise_oracle_on_every_builtin_and_example() {
        let mut nets = workloads::all();
        nets.extend([
            workloads::lenet5_full(),
            workloads::paper_example(),
            workloads::chained_toy(),
        ]);
        for text in [
            include_str!("../../../examples/dilated.ffnet"),
            include_str!("../../../examples/mobilenet_block.ffnet"),
            include_str!("../../../examples/resnet_block.ffnet"),
        ] {
            nets.push(ffnet::parse_network(text).expect("example parses"));
        }
        for net in &nets {
            for d in 1..=64 {
                assert_eq!(
                    plan_network(net, d),
                    plan_network_pairwise(net, d),
                    "{} at d={d}",
                    net.name()
                );
            }
        }
    }

    /// One random chain link: `(M, N, S, K, stride, dilation, pool window)`,
    /// a window of 1 meaning no pooling after the layer.
    type Link = (usize, usize, usize, usize, usize, usize, usize);

    /// A conv chain from `links`, each layer optionally followed by a pool
    /// that bounds its predecessor's `Tr, Tc` through `P·K'`. `N` and `K`
    /// are drawn independently of the previous layer's `M` and `S`, so the
    /// IADP hand-off often clamps.
    fn random_chain(links: &[Link]) -> Network {
        let mut b = Network::builder("chain");
        for (i, &(m, n, s, k, stride, dilation, pool)) in links.iter().enumerate() {
            b = b.conv(
                ConvLayer::new(format!("C{i}"), m, n, s, k)
                    .with_stride(stride)
                    .with_dilation(dilation),
            );
            if pool > 1 && s >= pool {
                b = b.pool(PoolLayer::new(format!("P{i}"), PoolKind::Max, pool, m, s));
            }
        }
        b.build()
    }

    #[test]
    fn factored_plan_equals_the_pairwise_oracle_on_random_chains() {
        let link = (
            1usize..=12,
            1usize..=4,
            1usize..=12,
            1usize..=4,
            1usize..=3,
            1usize..=3,
            1usize..=3,
        );
        prop::check(
            "factored_plan_equals_the_pairwise_oracle_on_random_chains",
            256,
            (vec_of(link, 2..=5), 1usize..=32),
            |(links, d)| {
                let net = random_chain(links);
                prop_assert_eq!(plan_network(&net, *d), plan_network_pairwise(&net, *d));
                Ok(())
            },
        );
    }

    #[test]
    fn best_unroll_beats_scalar() {
        let layer = ConvLayer::new("C3", 16, 6, 10, 5);
        let choice = best_unroll(&layer, 16, None);
        let scalar = total_utilization(&layer, &Unroll::scalar(), 16);
        assert!(choice.total_utilization() > 10.0 * scalar);
        assert!(choice.unroll.satisfies(&layer, 16, None));
    }

    #[test]
    fn best_unroll_respects_rc_bound() {
        let layer = ConvLayer::new("C1", 6, 1, 28, 5);
        let choice = best_unroll(&layer, 16, Some(3));
        assert!(choice.unroll.tr <= 3 && choice.unroll.tc <= 3);
    }

    #[test]
    fn flexflow_utilization_is_high_across_table1_small_workloads() {
        // Fig. 15's headline: FlexFlow achieves >80% utilization. Check
        // the per-layer optimum on a 16x16 engine.
        for net in [
            workloads::pv(),
            workloads::fr(),
            workloads::lenet5(),
            workloads::hg(),
        ] {
            let plan = plan_network(&net, 16);
            let total_macs: u64 = net.conv_layers().map(flexsim_model::ConvLayer::macs).sum();
            let total_pe_cycles: u64 = plan.iter().map(|c| c.cycles * 256).sum();
            let util = total_macs as f64 / total_pe_cycles as f64;
            assert!(
                util > 0.70,
                "{}: planned utilization {:.2} too low",
                net.name(),
                util
            );
        }
    }

    #[test]
    fn plan_satisfies_iadp_coupling() {
        let net = workloads::lenet5();
        let plan = plan_network(&net, 16);
        let c1 = &plan[0].unroll;
        let c3 = &plan[1].unroll;
        let c3_layer = net.conv_layer("C3").unwrap();
        assert_eq!(c3.tn, c1.tm.min(c3_layer.n()));
        assert_eq!(c3.ti, c1.tr.min(c3_layer.k()));
        assert_eq!(c3.tj, c1.tc.min(c3_layer.k()));
    }

    #[test]
    fn plan_respects_pool_coupling_bound() {
        let net = workloads::lenet5();
        let plan = plan_network(&net, 16);
        // C1's Tr/Tc bounded by P*K' = 2*5 = 10.
        assert!(plan[0].unroll.tr <= 10 && plan[0].unroll.tc <= 10);
    }

    #[test]
    fn plan_is_no_worse_than_greedy_chain() {
        // The DP must beat (or tie) the greedy per-layer chain in total
        // cycles on every workload.
        for net in [workloads::pv(), workloads::lenet5(), workloads::hg()] {
            let plan = plan_network(&net, 16);
            let dp_cycles: u64 = plan.iter().map(|c| c.cycles).sum();
            let greedy_cycles: u64 = analyzer_chain(&net, 16).iter().map(|c| c.cycles).sum();
            assert!(
                dp_cycles <= greedy_cycles,
                "{}: DP {} cycles > greedy {}",
                net.name(),
                dp_cycles,
                greedy_cycles
            );
        }
    }

    #[test]
    fn analyzer_chain_is_feasible_on_every_workload() {
        // Every chained choice must satisfy Constraint (1); the IADP
        // overwrite can only shrink the row side, never overflow it.
        for net in workloads::all() {
            let chain = analyzer_chain(&net, 16);
            assert_eq!(chain.len(), net.conv_layers().count());
            for c in &chain {
                assert!(c.unroll.rows_used() <= 16, "{}/{}", net.name(), c.layer);
                assert!(c.unroll.cols_used() <= 16, "{}/{}", net.name(), c.layer);
            }
        }
    }

    #[test]
    fn paper_table4_factors_are_feasible_and_comparable() {
        // The paper's own Table 4 factors must be feasible under our
        // constraint model, and our planner must achieve at least as good
        // total utilization on each workload.
        let table4: &[(&str, &str, Unroll)] = &[
            ("PV", "C1", Unroll::new(8, 1, 1, 2, 2, 6)),
            ("PV", "C3", Unroll::new(3, 8, 1, 5, 1, 2)),
            ("FR", "C1", Unroll::new(4, 1, 1, 4, 3, 15)),
            ("FR", "C3", Unroll::new(16, 4, 1, 1, 1, 4)),
            ("LeNet-5", "C1", Unroll::new(3, 1, 1, 5, 3, 5)),
            ("LeNet-5", "C3", Unroll::new(16, 3, 1, 1, 1, 5)),
            ("HG", "C1", Unroll::new(3, 1, 1, 5, 3, 5)),
            ("HG", "C3", Unroll::new(4, 2, 1, 4, 2, 4)),
        ];
        for (wl, layer_name, u) in table4 {
            let net = match *wl {
                "PV" => workloads::pv(),
                "FR" => workloads::fr(),
                "LeNet-5" => workloads::lenet5(),
                _ => workloads::hg(),
            };
            let layer = net.conv_layer(layer_name).unwrap();
            // Feasibility under Constraint (1). Note the FR C1 row as
            // printed (Ti=3, Tj=15) occupies 45 PEs per row — it violates
            // the paper's own ≤D bound, so we exempt that one anomaly
            // (recorded in EXPERIMENTS.md) and check the rest strictly.
            assert!(
                u.rows_used() <= 16,
                "{wl}/{layer_name}: paper factors exceed engine rows"
            );
            if !(*wl == "FR" && *layer_name == "C1") {
                assert!(
                    u.cols_used() <= 16,
                    "{wl}/{layer_name}: paper factors exceed engine columns"
                );
                assert!(
                    u.clamped_to(layer) == *u,
                    "{wl}/{layer_name}: paper factors exceed layer bounds"
                );
            }
        }
    }

    #[test]
    fn dilated_layer_plans_stay_legal() {
        // dilation=2 forbids even synapse factors; the greedy optimum,
        // the DP plan, and the IADP hand-off must all respect it.
        let net = flexsim_model::Network::builder("dil")
            .conv(ConvLayer::new("C1", 8, 1, 12, 3))
            .conv(
                ConvLayer::new("C2", 4, 8, 6, 3)
                    .with_dilation(2)
                    .with_input_size(12),
            )
            .build();
        for choice in plan_network(&net, 16)
            .into_iter()
            .chain(analyzer_chain(&net, 16))
        {
            let layer = net.conv_layer(&choice.layer).unwrap();
            assert!(
                choice.unroll.satisfies(layer, 16, None),
                "{}: {} illegal",
                choice.layer,
                choice.unroll
            );
        }
        let c2 = net.conv_layer("C2").unwrap();
        let best = best_unroll(c2, 16, None);
        assert!(best.unroll.ti % 2 == 1 && best.unroll.tj % 2 == 1);
    }

    #[test]
    fn style_restricted_search_is_weaker() {
        let layer = ConvLayer::new("C3", 16, 6, 10, 5);
        let full = best_unroll(&layer, 16, None);
        for style in [Style::systolic(), Style::mapping2d(), Style::tiling()] {
            let restricted =
                best_unroll_where(&layer, 16, None, |u| Style::from_unroll(u) == style)
                    .expect("every single style admits some unrolling");
            assert!(
                restricted.total_utilization() <= full.total_utilization() + 1e-12,
                "{style}: restricted beats the full search"
            );
        }
    }

    #[test]
    fn unsatisfiable_predicate_returns_none() {
        let layer = ConvLayer::new("C", 2, 2, 4, 3);
        assert!(best_unroll_where(&layer, 16, None, |_| false).is_none());
    }

    #[test]
    fn where_with_true_matches_free_search_utilization() {
        let layer = ConvLayer::new("C1", 8, 1, 45, 6).with_input_size(50);
        let free = best_unroll(&layer, 16, Some(6));
        let all = best_unroll_where(&layer, 16, Some(6), |_| true).unwrap();
        assert!((free.total_utilization() - all.total_utilization()).abs() < 1e-9);
    }
}
