//! Candidate enumeration for the mapping auto-tuner (`flexsim tune`).
//!
//! The tuner relaxes the compiler's IADP *equality* coupling — each
//! layer's `⟨Tn, Ti, Tj⟩` no longer has to equal the previous layer's
//! `⟨Tm, Tr, Tc⟩` — while keeping the successor pooling bound
//! `Tr, Tc ≤ P·K'` (tiles must still cover whole pooling windows of
//! the next layer). This module only *enumerates* the search space;
//! legality pruning is flexcheck's job (`flexcheck`'s candidate API)
//! and exact scoring is the experiment layer's (the `LossLedger` cost
//! function).
//!
//! Two enumeration budgets:
//!
//! * [`full_candidates`] — the exhaustive cross product of the
//!   Section 5 analyzer's per-side candidate sets (every unrolling
//!   satisfying Constraint (1) and the successor bound). Hundreds to
//!   a few thousand candidates per layer at `D = 16`.
//! * [`grid_candidates`] — a coarse power-of-two grid per axis (plus
//!   each axis's layer bound), for smoke-budget runs.
//!
//! ## The clamp edge case
//!
//! A grid factor can exceed a layer bound — a 1×1 FC view has `S = 1`,
//! so every spatial grid point past 1 is infeasible; AlexNet C7 has
//! `S = 13 < 16`. The unrolling compiler silently clamps such factors
//! ([`Unroll::clamped_to`]), which would alias several nominal grid
//! points onto one actual mapping and score it repeatedly (or, worse,
//! let an unclamped infeasible factor through to the simulator). Here
//! the clamp is explicit: [`axis_grid`] clamps every nominal factor to
//! the axis bound and dedups, so the clamped value survives as exactly
//! one *distinct* candidate. Regression tests pin this behavior.

use crate::search::{col_candidates, row_candidates};
use crate::unroll::Unroll;
use flexsim_model::ConvLayer;

/// Every unrolling of `layer` that satisfies Constraint (1)
/// (`Tn·Ti·Tj ≤ d`, `Tm·Tr·Tc ≤ d`), the layer's own dimension bounds,
/// and the successor bound `Tr, Tc ≤ rc_bound` — the exhaustive tuner
/// search space, in deterministic enumeration order (column-side
/// triples outer, row-side triples inner).
///
/// # Panics
///
/// Panics if `d` is zero.
pub fn full_candidates(layer: &ConvLayer, d: usize, rc_bound: Option<usize>) -> Vec<Unroll> {
    assert!(d > 0, "engine side must be non-zero");
    let rows = row_candidates(layer, d);
    let cols = col_candidates(layer, d, rc_bound);
    let mut out = Vec::with_capacity(rows.len() * cols.len());
    for &(tm, tr, tc) in &cols {
        for &(tn, ti, tj) in &rows {
            out.push(Unroll::new(tm, tn, tr, tc, ti, tj));
        }
    }
    out
}

/// The candidate factors for one axis under a smoke budget: powers of
/// two up to `d`, plus the axis bound itself, each clamped to
/// `min(bound, d)` and deduplicated — a clamped factor appears as
/// exactly one distinct candidate (see the module docs for why the
/// clamp must not stay silent).
///
/// # Panics
///
/// Panics if `bound` or `d` is zero.
pub fn axis_grid(bound: usize, d: usize) -> Vec<usize> {
    assert!(
        bound > 0 && d > 0,
        "axis bound and engine side must be non-zero"
    );
    let cap = bound.min(d);
    let mut out = Vec::new();
    let mut f = 1usize;
    while f <= d {
        out.push(f.min(cap));
        f *= 2;
    }
    out.push(cap);
    out.sort_unstable();
    out.dedup();
    out
}

/// The smoke-budget search space: the cross product of [`axis_grid`]s
/// for all six factors, filtered to Constraint (1). Row factors are
/// bounded by the layer's `N`/`K`, column factors by `M` and
/// `min(S, rc_bound)`. Order is deterministic (column axes outer,
/// row axes inner) and contains no duplicates.
///
/// # Panics
///
/// Panics if `d` is zero.
pub fn grid_candidates(layer: &ConvLayer, d: usize, rc_bound: Option<usize>) -> Vec<Unroll> {
    assert!(d > 0, "engine side must be non-zero");
    let s_lim = layer.s().min(rc_bound.unwrap_or(usize::MAX));
    let tms = axis_grid(layer.m(), d);
    let trs = axis_grid(s_lim, d);
    let tcs = axis_grid(s_lim, d);
    let tns = axis_grid(layer.n(), d);
    let tis = axis_grid(layer.k(), d);
    let tjs = axis_grid(layer.k(), d);
    let mut out = Vec::new();
    for &tm in &tms {
        for &tr in &trs {
            for &tc in &tcs {
                if tm * tr * tc > d {
                    continue;
                }
                for &tn in &tns {
                    for &ti in &tis {
                        for &tj in &tjs {
                            if tn * ti * tj > d {
                                continue;
                            }
                            out.push(Unroll::new(tm, tn, tr, tc, ti, tj));
                        }
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsim_model::{workloads, ConvLayer};

    #[test]
    fn axis_grid_collapses_clamped_factors_to_one_candidate() {
        // The satellite regression: an axis bound below a grid point
        // (here S = 3 < 4, 8, 16) yields the clamped value exactly
        // once — a distinct candidate, not a silent alias.
        assert_eq!(axis_grid(3, 16), vec![1, 2, 3]);
        // S = 1 (the FC 1×1 view): every factor clamps to the single
        // feasible candidate.
        assert_eq!(axis_grid(1, 16), vec![1]);
        // Bound above the engine side: the engine caps the grid.
        assert_eq!(axis_grid(100, 16), vec![1, 2, 4, 8, 16]);
        // Bound between grid points appears as its own candidate.
        assert_eq!(axis_grid(13, 16), vec![1, 2, 4, 8, 13]);
    }

    #[test]
    fn grid_candidates_have_no_duplicates_and_satisfy_bounds() {
        for net in workloads::all() {
            let idxs = net.conv_indices();
            for (pos, layer) in net.conv_layers().enumerate() {
                let bound = net
                    .successor_coupling(idxs[pos])
                    .map(|c| c.pool_window * c.next_conv.k());
                let grid = grid_candidates(layer, 16, bound);
                assert!(!grid.is_empty(), "{}/{}", net.name(), layer.name());
                let mut seen = std::collections::HashSet::new();
                for u in &grid {
                    assert!(
                        seen.insert(*u),
                        "{}/{}: duplicate candidate {u}",
                        net.name(),
                        layer.name()
                    );
                    assert!(
                        u.satisfies(layer, 16, bound),
                        "{}/{}: infeasible candidate {u}",
                        net.name(),
                        layer.name()
                    );
                    // The clamp is explicit: no factor exceeds its
                    // layer bound, so clamping is the identity.
                    assert_eq!(u.clamped_to(layer), *u);
                }
            }
        }
    }

    #[test]
    fn full_candidates_cover_the_planner_choice() {
        // The compiler's planned mapping must always be inside the
        // tuner's exhaustive space (the monotonic-improvement seed).
        for net in workloads::all() {
            let plan = crate::search::plan_network(&net, 16);
            let idxs = net.conv_indices();
            for (pos, layer) in net.conv_layers().enumerate() {
                let bound = net
                    .successor_coupling(idxs[pos])
                    .map(|c| c.pool_window * c.next_conv.k());
                let all = full_candidates(layer, 16, bound);
                assert!(
                    all.contains(&plan[pos].unroll),
                    "{}/{}: planned {} missing from the search space",
                    net.name(),
                    layer.name(),
                    plan[pos].unroll
                );
            }
        }
    }

    #[test]
    fn full_candidates_satisfy_constraint_one() {
        let layer = ConvLayer::new("C3", 16, 6, 10, 5);
        let all = full_candidates(&layer, 16, Some(10));
        assert!(all.len() > 100, "search space unexpectedly tiny");
        for u in &all {
            assert!(u.rows_used() <= 16 && u.cols_used() <= 16);
            assert!(u.satisfies(&layer, 16, Some(10)));
        }
        // Enumeration is deterministic: same inputs, same order.
        assert_eq!(all, full_candidates(&layer, 16, Some(10)));
    }

    #[test]
    fn grid_is_a_subset_of_full() {
        let layer = ConvLayer::new("C5", 16, 12, 8, 3);
        let full = full_candidates(&layer, 16, Some(3));
        for u in grid_candidates(&layer, 16, Some(3)) {
            assert!(full.contains(&u), "{u} in grid but not in full space");
        }
    }
}
