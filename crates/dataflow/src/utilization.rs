//! The paper's utilization equations (Section 5, Equations 2–3).
//!
//! For a CONV layer mapped on a `D×D` engine with unrolling factors `T`:
//!
//! ```text
//! Ur = (N·K·K) / (⌈N/Tn⌉ · ⌈K/Ti⌉ · ⌈K/Tj⌉ · D)      (Eq. 2)
//! Uc = (M·S·S) / (⌈M/Tm⌉ · ⌈S/Tr⌉ · ⌈S/Tc⌉ · D)      (Eq. 3)
//! Ut = Ur · Uc
//! ```
//!
//! `Ur` is the average occupancy of PEs *within* a row (intra-row,
//! operands), `Uc` the average occupancy of PE rows (inter-row, output
//! neurons). `Ut` equals useful MAC PE-cycles over total PE-cycles, the
//! quantity the cycle-level simulators measure directly.

use crate::unroll::Unroll;
use flexsim_model::ConvLayer;

/// Ceiling division helper used throughout the equations.
#[inline]
pub fn ceil_div(a: usize, b: usize) -> usize {
    a.div_ceil(b)
}

/// Row-side tile count `⌈N/Tn⌉·⌈K/Ti⌉·⌈K/Tj⌉` for the intra-row factors
/// `(Tn, Ti, Tj)`: the steps a PE row takes to cover one output neuron's
/// operands, and Eq. 2's denominator over `D`. Saturates at `u64::MAX`.
pub fn row_tiles(layer: &ConvLayer, (tn, ti, tj): (usize, usize, usize)) -> u64 {
    let (n, k) = (layer.n(), layer.k());
    saturating_product(&[ceil_div(n, tn), ceil_div(k, ti), ceil_div(k, tj)])
}

/// Column-side tile count `⌈M/Tm⌉·⌈S/Tr⌉·⌈S/Tc⌉` for the inter-row factors
/// `(Tm, Tr, Tc)`: the row batches that cover the layer's output neurons,
/// and Eq. 3's denominator over `D`. Saturates at `u64::MAX`.
pub fn col_tiles(layer: &ConvLayer, (tm, tr, tc): (usize, usize, usize)) -> u64 {
    let (m, s) = (layer.m(), layer.s());
    saturating_product(&[ceil_div(m, tm), ceil_div(s, tr), ceil_div(s, tc)])
}

/// The product of `factors`, saturating at `u64::MAX`.
pub fn saturating_product(factors: &[usize]) -> u64 {
    factors
        .iter()
        .fold(1, |p: u64, &f| p.saturating_mul(f as u64))
}

/// PE-row (intra-row) utilization `Ur` (Eq. 2).
pub fn row_utilization(layer: &ConvLayer, u: &Unroll, d: usize) -> f64 {
    row_utilization_of(layer, row_tiles(layer, (u.tn, u.ti, u.tj)), d)
}

/// `Ur` (Eq. 2) of a row side with `tiles` [`row_tiles`]. The products
/// are taken in `f64`, exact below 2^53, so no shape overflows them.
pub(crate) fn row_utilization_of(layer: &ConvLayer, tiles: u64, d: usize) -> f64 {
    let (n, k) = (layer.n() as f64, layer.k() as f64);
    n * k * k / (tiles as f64 * d as f64)
}

/// PE-column (inter-row) utilization `Uc` (Eq. 3).
pub fn col_utilization(layer: &ConvLayer, u: &Unroll, d: usize) -> f64 {
    col_utilization_of(layer, col_tiles(layer, (u.tm, u.tr, u.tc)), d)
}

/// `Uc` (Eq. 3) of a column side with `tiles` [`col_tiles`], in `f64`
/// like [`row_utilization_of`].
pub(crate) fn col_utilization_of(layer: &ConvLayer, tiles: u64, d: usize) -> f64 {
    let (m, s) = (layer.m() as f64, layer.s() as f64);
    m * s * s / (tiles as f64 * d as f64)
}

/// Total utilization `Ut = Ur · Uc`.
pub fn total_utilization(layer: &ConvLayer, u: &Unroll, d: usize) -> f64 {
    row_utilization(layer, u, d) * col_utilization(layer, u, d)
}

/// Number of engine compute steps (tiles) for the layer under `u`:
/// the product of the six `⌈·/T·⌉` terms, [`row_tiles`] × [`col_tiles`].
/// Each step corresponds to one engine cycle in which every *occupied*
/// PE performs one MAC. Saturates at `u64::MAX`.
pub fn tile_count(layer: &ConvLayer, u: &Unroll) -> u64 {
    row_tiles(layer, (u.tn, u.ti, u.tj)).saturating_mul(col_tiles(layer, (u.tm, u.tr, u.tc)))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `Ut · tiles · D² == MACs` — the identity tying the closed-form
    /// utilization to PE-cycle accounting.
    #[test]
    fn utilization_identity() {
        let layer = ConvLayer::new("C3", 16, 6, 10, 5);
        let d = 16;
        for u in [
            Unroll::new(16, 3, 1, 1, 1, 5),
            Unroll::new(4, 2, 2, 1, 1, 5),
            Unroll::scalar(),
        ] {
            let ut = total_utilization(&layer, &u, d);
            let tiles = tile_count(&layer, &u) as f64;
            let macs = layer.macs() as f64;
            assert!(
                (ut * tiles * (d * d) as f64 - macs).abs() < 1e-6 * macs,
                "identity violated for {u}"
            );
        }
    }

    #[test]
    fn perfect_fit_yields_full_utilization() {
        // M=4,S=4: Tm=4,Tr=1,Tc=4 occupies 16 rows; N=4,K=2: Tn=4,Ti=2,Tj=2
        // occupies 16 columns of a D=16 engine exactly.
        let layer = ConvLayer::new("C", 4, 4, 4, 2);
        let u = Unroll::new(4, 4, 1, 4, 2, 2);
        let d = 16;
        assert!((row_utilization(&layer, &u, d) - 1.0).abs() < 1e-12);
        assert!((col_utilization(&layer, &u, d) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scalar_unroll_wastes_everything_but_one_pe() {
        let layer = ConvLayer::new("C", 2, 2, 4, 3);
        let u = Unroll::scalar();
        let d = 16;
        let ut = total_utilization(&layer, &u, d);
        assert!((ut - 1.0 / 256.0).abs() < 1e-12);
    }

    #[test]
    fn paper_tiling_utilization_example() {
        // Section 3.4 / Table 3: PV "C1 on C3-opt" for Tiling is 8.3%.
        // C3-opt tiling factors are Tm=12, Tn=8; C1 has M=8, N=1.
        let c1 = ConvLayer::new("C1", 8, 1, 45, 6);
        // Tiling maps feature-map loops to a Tm*Tn engine; model it as
        // D = 96 "rows" of 1 PE? Instead verify the FP ratio directly:
        let tm = 12;
        let tn = 8;
        let util = (c1.m() as f64 / (ceil_div(c1.m(), tm) * tm) as f64)
            * (c1.n() as f64 / (ceil_div(c1.n(), tn) * tn) as f64);
        assert!((util - 8.0 / 96.0).abs() < 1e-12); // 8.33%
    }

    #[test]
    fn tile_count_scales_with_ceils() {
        let layer = ConvLayer::new("C", 3, 1, 5, 2);
        assert_eq!(tile_count(&layer, &Unroll::scalar()), 3 * 5 * 5 * 4);
        assert_eq!(tile_count(&layer, &Unroll::new(3, 1, 5, 5, 2, 2)), 1);
        assert_eq!(tile_count(&layer, &Unroll::new(2, 1, 3, 5, 2, 2)), 2 * 2);
    }
}
