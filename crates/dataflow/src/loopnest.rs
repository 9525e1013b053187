//! The tiled loop nest of the paper's Figure 4.
//!
//! Unrolling splits the six CONV loops into an outer sequential nest
//! (stepping by the factors) and an inner parallel box (executed by the
//! PE array in one engine step). [`grid`] walks any row-major nest of
//! tiled axes by tile shape rather than tile by tile. Every
//! architecture's step schedule is its runs of equal tiles over that
//! architecture's own loop order, and it is the one place that counts
//! clamped edge tiles.

/// A row-major walk over a tile grid whose axes are `(extent, tile)`,
/// the first outermost, each with its last tile clamped: the tile
/// count, and the maximal runs `(tile extents, tiles)` of equal tiles.
///
/// An axis has at most two tile shapes, its full tiles and a clamped
/// last one. The axes inside the innermost ragged axis have one shape
/// each, so they only lengthen runs; that axis splits every one of its
/// rows into two runs, and the axes outside it are walked tile by tile.
/// The walk therefore costs O(runs).
///
/// # Example
///
/// ```
/// use flexsim_dataflow::loopnest::grid;
///
/// // Rows of 2 over 5, columns of 4 over 8: the clamped last row.
/// let (tiles, runs) = grid([(5, 2), (8, 4)]);
/// assert_eq!(tiles, 6);
/// assert_eq!(runs.collect::<Vec<_>>(), [([2, 4], 4), ([1, 4], 2)]);
/// ```
pub fn grid<const N: usize>(
    axes: [(usize, usize); N],
) -> (u64, impl Iterator<Item = ([usize; N], u64)>) {
    let tiles = |(x, t): (usize, usize)| x.div_ceil(t) as u64;
    let total = axes.iter().map(|&a| tiles(a)).product();
    let j = axes
        .iter()
        .rposition(|&(x, t)| x > t && !x.is_multiple_of(t))
        .unwrap_or(0);
    let outer: u64 = axes[..j].iter().map(|&a| tiles(a)).product();
    let inner: u64 = axes[j + 1..].iter().map(|&a| tiles(a)).product();
    let (x, t) = axes[j];
    let runs = (0..outer).flat_map(move |p| {
        // Tile `p` of the outer axes, row-major.
        let mut tile = axes.map(|(x, t)| t.min(x));
        let mut rest = p;
        for a in (0..j).rev() {
            let ((x, t), g) = (axes[a], tiles(axes[a]));
            tile[a] = t.min(x - (rest % g) as usize * t);
            rest /= g;
        }
        [
            (t, (x / t) as u64),
            (x % t, u64::from(!x.is_multiple_of(t))),
        ]
        .into_iter()
        .map(move |(e, n)| {
            let mut tile = tile;
            tile[j] = e;
            (tile, n * inner)
        })
        .filter(|&(_, n)| n > 0)
    });
    (total, runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unroll::Unroll;
    use crate::utilization::tile_count;
    use flexsim_model::ConvLayer;

    /// `layer`'s tiles under `u` in Fig. 4's loop order `m, n, r, c, i,
    /// j`: the tile count and the runs, each tile as
    /// `[tm, tn, tr, tc, ti, tj]`.
    fn fig4(layer: &ConvLayer, u: Unroll) -> (u64, Vec<([usize; 6], u64)>) {
        let (tiles, runs) = grid([
            (layer.m(), u.tm),
            (layer.n(), u.tn),
            (layer.s(), u.tr),
            (layer.s(), u.tc),
            (layer.k(), u.ti),
            (layer.k(), u.tj),
        ]);
        (tiles, runs.collect())
    }

    /// The tiles of `runs` one by one, in walk order.
    fn expand(runs: &[([usize; 6], u64)]) -> Vec<[usize; 6]> {
        runs.iter()
            .flat_map(|&(tile, n)| std::iter::repeat_n(tile, n as usize))
            .collect()
    }

    #[test]
    fn covers_all_macs_exactly_once() {
        let layer = ConvLayer::new("C", 3, 2, 5, 4);
        for u in [
            Unroll::scalar(),
            Unroll::new(2, 2, 2, 3, 3, 2),
            Unroll::new(3, 2, 5, 5, 4, 4),
        ] {
            let (_, runs) = fig4(&layer, u);
            let total: u64 = runs
                .iter()
                .map(|&(tile, n)| tile.iter().product::<usize>() as u64 * n)
                .sum();
            assert_eq!(total, layer.macs(), "coverage violated for {u}");
        }
    }

    #[test]
    fn length_matches_tile_count() {
        let layer = ConvLayer::new("C", 3, 2, 5, 4);
        let u = Unroll::new(2, 1, 2, 2, 3, 3);
        let (tiles, runs) = fig4(&layer, u);
        assert_eq!(tiles, tile_count(&layer, &u));
        assert_eq!(expand(&runs).len() as u64, tile_count(&layer, &u));
    }

    #[test]
    fn edge_tiles_are_clamped() {
        let layer = ConvLayer::new("C", 3, 1, 5, 2);
        let u = Unroll::new(2, 1, 3, 5, 2, 2);
        let tiles = expand(&fig4(&layer, u).1);
        // m: 0..2 then 2..3 (clamped to 1); r: 0..3 then 3..5 (clamped to 2).
        assert!(tiles.iter().any(|t| t[0] == 1));
        assert!(tiles.iter().any(|t| t[2] == 2));
        // No tile extends past its factor or its bound.
        for t in &tiles {
            assert!(t[0] <= 2 && t[2] <= 3 && t[3] <= 5, "{t:?}");
        }
    }

    #[test]
    fn loop_order_is_m_outer_j_inner() {
        // m = 3 by 2 and j = 3 by 2: both axes alternate a full and a
        // clamped tile, so their order shows in the walk.
        let layer = ConvLayer::new("C", 3, 1, 2, 3);
        let u = Unroll::new(2, 1, 1, 1, 1, 2);
        let tiles = expand(&fig4(&layer, u).1);
        // j changes fastest.
        assert_eq!((tiles[0][5], tiles[1][5]), (2, 1));
        assert_eq!(tiles[0][4], tiles[1][4]);
        // m changes last.
        assert!(tiles[..tiles.len() / 2].iter().all(|t| t[0] == 2));
        assert!(tiles[tiles.len() / 2..].iter().all(|t| t[0] == 1));
    }

    #[test]
    fn grid_runs_expand_to_the_row_major_tile_walk() {
        // Every 1- and 2-axis grid of extents 1..=9 and tiles 1..=4, and
        // every 3-axis grid of extents 1..=6 and tiles 1..=3, expanded
        // against a plain row-major walk; the runs must be maximal.
        fn check<const N: usize>(axes: [(usize, usize); N]) {
            let shape = axes.map(|(x, t)| x.div_ceil(t));
            let count: usize = shape.iter().product();
            let walk: Vec<[usize; N]> = (0..count)
                .map(|mut p| {
                    let mut tile = [0; N];
                    for a in (0..N).rev() {
                        let (x, t) = axes[a];
                        tile[a] = t.min(x - p % shape[a] * t);
                        p /= shape[a];
                    }
                    tile
                })
                .collect();
            let (tiles, runs) = grid(axes);
            let runs: Vec<_> = runs.collect();
            assert_eq!(tiles, count as u64, "{axes:?}");
            assert!(
                runs.windows(2).all(|w| w[0].0 != w[1].0),
                "{axes:?}: not maximal"
            );
            let expanded: Vec<_> = runs
                .iter()
                .flat_map(|&(tile, n)| std::iter::repeat_n(tile, n as usize))
                .collect();
            assert_eq!(expanded, walk, "{axes:?}");
            if N == 2 && axes[1].1 == 1 {
                // Systolic's (m-group, input map) walk: at most 2 runs.
                assert!(runs.len() <= 2, "{axes:?}");
            }
        }
        let axes = |x: usize, t: usize| (1..=x).flat_map(move |x| (1..=t).map(move |t| (x, t)));
        for a in axes(9, 4) {
            check([a]);
            for b in axes(9, 4) {
                check([a, b]);
            }
        }
        for a in axes(6, 3) {
            for b in axes(6, 3) {
                for c in axes(6, 3) {
                    check([a, b, c]);
                }
            }
        }
    }

    #[test]
    fn single_tile_when_factors_cover_layer() {
        let layer = ConvLayer::new("C", 2, 2, 3, 2);
        let u = Unroll::new(2, 2, 3, 3, 2, 2);
        let (tiles, runs) = fig4(&layer, u);
        assert_eq!(tiles, 1);
        assert_eq!(runs, [([2, 2, 3, 3, 2, 2], 1)]);
        assert_eq!(runs[0].0.iter().product::<usize>() as u64, layer.macs());
    }
}
