//! The tiled loop nest of the paper's Figure 4.
//!
//! Unrolling splits the six CONV loops into an outer sequential nest
//! (stepping by the factors) and an inner parallel box (executed by the
//! PE array in one engine step). [`TileIter`] walks the outer nest in the
//! paper's loop order (`m, n, r, c, i, j`), yielding one [`Tile`] per
//! engine step with edge-clamped extents.
//!
//! [`grid`] walks any row-major nest of tiled axes by tile shape rather
//! than tile by tile. Every architecture's step schedule is its runs of
//! equal tiles over that architecture's own loop order, and it is the
//! one place that counts clamped edge tiles.

use crate::unroll::Unroll;
use crate::utilization::tile_count;
use flexsim_model::ConvLayer;

/// One engine step: the origin and (edge-clamped) extents of the inner
/// parallel box.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tile {
    /// Output feature-map origin (`m`).
    pub m0: usize,
    /// Input feature-map origin (`n`).
    pub n0: usize,
    /// Output-neuron row origin (`r`).
    pub r0: usize,
    /// Output-neuron column origin (`c`).
    pub c0: usize,
    /// Synapse row origin (`i`).
    pub i0: usize,
    /// Synapse column origin (`j`).
    pub j0: usize,
    /// Effective `Tm` at this tile (clamped at the `M` edge).
    pub tm: usize,
    /// Effective `Tn` at this tile.
    pub tn: usize,
    /// Effective `Tr` at this tile.
    pub tr: usize,
    /// Effective `Tc` at this tile.
    pub tc: usize,
    /// Effective `Ti` at this tile.
    pub ti: usize,
    /// Effective `Tj` at this tile.
    pub tj: usize,
}

impl Tile {
    /// Useful MACs performed in this engine step.
    pub fn macs(&self) -> u64 {
        (self.tm * self.tn * self.tr * self.tc * self.ti * self.tj) as u64
    }
}

/// Iterator over the outer sequential nest.
///
/// # Example
///
/// ```
/// use flexsim_dataflow::{TileIter, Unroll};
/// use flexsim_model::ConvLayer;
///
/// let layer = ConvLayer::new("C", 2, 1, 4, 3);
/// let u = Unroll::new(2, 1, 1, 4, 1, 3);
/// let total: u64 = TileIter::new(&layer, u).map(|t| t.macs()).sum();
/// assert_eq!(total, layer.macs());
/// ```
#[derive(Clone, Debug)]
pub struct TileIter {
    m: usize,
    n: usize,
    s: usize,
    k: usize,
    u: Unroll,
    // Current origins; `done` marks exhaustion.
    m0: usize,
    n0: usize,
    r0: usize,
    c0: usize,
    i0: usize,
    j0: usize,
    done: bool,
    remaining: u64,
}

impl TileIter {
    /// Creates an iterator over the tiles of `layer` under `u`.
    pub fn new(layer: &ConvLayer, u: Unroll) -> Self {
        let remaining = tile_count(layer, &u);
        TileIter {
            m: layer.m(),
            n: layer.n(),
            s: layer.s(),
            k: layer.k(),
            u,
            m0: 0,
            n0: 0,
            r0: 0,
            c0: 0,
            i0: 0,
            j0: 0,
            done: false,
            remaining,
        }
    }

    fn advance(&mut self) {
        // Innermost-to-outermost carry, matching Fig. 4's loop order.
        self.j0 += self.u.tj;
        if self.j0 < self.k {
            return;
        }
        self.j0 = 0;
        self.i0 += self.u.ti;
        if self.i0 < self.k {
            return;
        }
        self.i0 = 0;
        self.c0 += self.u.tc;
        if self.c0 < self.s {
            return;
        }
        self.c0 = 0;
        self.r0 += self.u.tr;
        if self.r0 < self.s {
            return;
        }
        self.r0 = 0;
        self.n0 += self.u.tn;
        if self.n0 < self.n {
            return;
        }
        self.n0 = 0;
        self.m0 += self.u.tm;
        if self.m0 < self.m {
            return;
        }
        self.done = true;
    }
}

impl Iterator for TileIter {
    type Item = Tile;

    fn next(&mut self) -> Option<Tile> {
        if self.done {
            return None;
        }
        let tile = Tile {
            m0: self.m0,
            n0: self.n0,
            r0: self.r0,
            c0: self.c0,
            i0: self.i0,
            j0: self.j0,
            tm: self.u.tm.min(self.m - self.m0),
            tn: self.u.tn.min(self.n - self.n0),
            tr: self.u.tr.min(self.s - self.r0),
            tc: self.u.tc.min(self.s - self.c0),
            ti: self.u.ti.min(self.k - self.i0),
            tj: self.u.tj.min(self.k - self.j0),
        };
        self.advance();
        self.remaining -= 1;
        Some(tile)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let r = self.remaining as usize;
        (r, Some(r))
    }
}

impl ExactSizeIterator for TileIter {}

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

    #[test]
    fn covers_all_macs_exactly_once() {
        let layer = ConvLayer::new("C", 3, 2, 5, 4);
        for u in [
            Unroll::scalar(),
            Unroll::new(2, 2, 2, 3, 3, 2),
            Unroll::new(3, 2, 5, 5, 4, 4),
        ] {
            let total: u64 = TileIter::new(&layer, u).map(|t| t.macs()).sum();
            assert_eq!(total, layer.macs(), "coverage violated for {u}");
        }
    }

    #[test]
    fn length_matches_tile_count() {
        let layer = ConvLayer::new("C", 3, 2, 5, 4);
        let u = Unroll::new(2, 1, 2, 2, 3, 3);
        let iter = TileIter::new(&layer, u);
        assert_eq!(iter.len() as u64, tile_count(&layer, &u));
        assert_eq!(iter.count() as u64, tile_count(&layer, &u));
    }

    #[test]
    fn edge_tiles_are_clamped() {
        let layer = ConvLayer::new("C", 3, 1, 5, 2);
        let u = Unroll::new(2, 1, 3, 5, 2, 2);
        let tiles: Vec<_> = TileIter::new(&layer, u).collect();
        // m: 0..2 then 2..3 (clamped to 1); r: 0..3 then 3..5 (clamped to 2).
        assert!(tiles.iter().any(|t| t.m0 == 2 && t.tm == 1));
        assert!(tiles.iter().any(|t| t.r0 == 3 && t.tr == 2));
        // No tile extends past bounds.
        for t in &tiles {
            assert!(t.m0 + t.tm <= 3);
            assert!(t.r0 + t.tr <= 5);
        }
    }

    #[test]
    fn loop_order_is_m_outer_j_inner() {
        let layer = ConvLayer::new("C", 2, 1, 2, 2);
        let u = Unroll::scalar();
        let tiles: Vec<_> = TileIter::new(&layer, u).collect();
        // First tiles iterate j fastest.
        assert_eq!((tiles[0].j0, tiles[1].j0), (0, 1));
        assert_eq!(tiles[0].i0, tiles[1].i0);
        // m changes last.
        assert!(tiles[..tiles.len() / 2].iter().all(|t| t.m0 == 0));
        assert!(tiles[tiles.len() / 2..].iter().all(|t| t.m0 == 1));
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
        let tiles: Vec<_> = TileIter::new(&layer, u).collect();
        assert_eq!(tiles.len(), 1);
        assert_eq!(tiles[0].macs(), layer.macs());
    }
}
