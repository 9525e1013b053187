//! The per-row adder tree (Section 4.1).
//!
//! "Only the adders within each PE row are connected to form an adder
//! tree, each PE row can complete one convolution and serve to one
//! output neuron." Each cycle, the tree reduces the row's products and
//! accumulates into the row's partial-result register.

use flexsim_model::Acc32;
use flexsim_obs::spatial::ContentionMatrix;

/// Reduction result: the sum plus the adder-op count (for the energy
/// model) and tree depth (for pipeline latency).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reduction {
    /// The reduced sum.
    pub sum: Acc32,
    /// Two-input additions performed.
    pub adds: u64,
    /// Tree depth in adder stages (`⌈log2 n⌉`).
    pub depth: u32,
}

/// Reduces a row's products through a binary adder tree, in place.
///
/// Each tree level adds neighbouring pairs — `(p0+p1)`, `(p2+p3)`, … —
/// with saturation and passes an odd last value through, writing the
/// level's results over the front of `products`. The pairwise order is
/// the hardware's, and with saturating adds it is not the sequential
/// sum's, so bit-exactness depends on it. On return `products[0]` holds
/// the sum and the rest of the slice holds partial sums.
///
/// # Example
///
/// ```
/// use flexflow::adder_tree::reduce;
/// use flexsim_model::{Acc32, Fx16};
///
/// let mut products: Vec<Acc32> = (1..=4)
///     .map(|i| Acc32::from_fx16(Fx16::from_f64(i as f64)))
///     .collect();
/// let r = reduce(&mut products);
/// assert_eq!(r.sum.to_fx16().to_f64(), 10.0);
/// assert_eq!(r.adds, 3);
/// assert_eq!(r.depth, 2);
/// ```
pub fn reduce(products: &mut [Acc32]) -> Reduction {
    let mut len = products.len();
    let (mut adds, mut depth) = (0u64, 0u32);
    while len > 1 {
        let half = len / 2;
        for i in 0..half {
            products[i] = products[2 * i].saturating_add(products[2 * i + 1]);
        }
        if len % 2 == 1 {
            products[half] = products[len - 1];
        }
        adds += half as u64;
        len -= half;
        depth += 1;
    }
    Reduction {
        sum: products.first().copied().unwrap_or(Acc32::ZERO),
        adds,
        depth,
    }
}

/// Folds one layer's row-port sharing pattern into a contention
/// matrix: under IPDR kernel replication each output group of
/// `rows_per_group` consecutive PE rows reduces into one logical
/// adder-tree output port, so every row pair within a group is
/// co-active on that port for `weight` compute cycles. Spatial-probe
/// counterpart of the static `flexcheck` rule `FXC03 adder-tree-port`
/// (which proves the sharing is conflict-free; this records how much
/// of it there is).
///
/// # Panics
///
/// Panics when a group's rows run past the matrix's port count.
pub fn port_sharing(
    matrix: &mut ContentionMatrix,
    groups: usize,
    rows_per_group: usize,
    weight: u64,
) {
    for g in 0..groups {
        let base = g * rows_per_group;
        for a in 0..rows_per_group {
            for b in (a + 1)..rows_per_group {
                matrix.record(base + a, base + b, weight);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsim_model::Fx16;

    fn acc(v: f64) -> Acc32 {
        Acc32::from_fx16(Fx16::from_f64(v))
    }

    #[test]
    fn empty_row_sums_to_zero() {
        let r = reduce(&mut []);
        assert_eq!(r.sum, Acc32::ZERO);
        assert_eq!(r.adds, 0);
    }

    #[test]
    fn single_product_passes_through() {
        let r = reduce(&mut [acc(7.0)]);
        assert_eq!(r.sum.to_fx16().to_f64(), 7.0);
        assert_eq!((r.adds, r.depth), (0, 0));
    }

    #[test]
    fn n_minus_one_adds_for_any_width() {
        for n in 1..=16usize {
            let mut products: Vec<Acc32> = (0..n).map(|i| acc(i as f64 / 4.0)).collect();
            let r = reduce(&mut products);
            assert_eq!(r.adds, (n - 1) as u64, "n={n}");
            assert_eq!(r.depth, (usize::BITS - (n - 1).leading_zeros()), "n={n}");
            let want: f64 = (0..n).map(|i| i as f64 / 4.0).sum();
            assert!((r.sum.to_f64() - want).abs() < 1e-9);
        }
    }

    #[test]
    fn full_16_wide_row_depth() {
        let mut products = vec![acc(0.25); 16];
        let r = reduce(&mut products);
        assert_eq!(r.depth, 4);
        assert_eq!(r.sum.to_fx16().to_f64(), 4.0);
    }

    #[test]
    fn saturating_sum_follows_the_pairwise_tree_order() {
        // Pairwise: (MAX + MIN) + (MAX + 1 → MAX) = MAX − 1. Summed
        // left to right the same operands give MAX, so this pins the
        // tree order that bit-exactness depends on.
        let raw = [i32::MAX, i32::MIN, i32::MAX, 1];
        let mut products = raw.map(Acc32::from_raw);
        let sequential = products
            .iter()
            .fold(Acc32::ZERO, |a, &p| a.saturating_add(p));
        assert_eq!(sequential, Acc32::from_raw(i32::MAX));
        let r = reduce(&mut products);
        assert_eq!(r.sum, Acc32::from_raw(i32::MAX - 1));
        assert_eq!((r.adds, r.depth), (3, 2));
    }

    #[test]
    fn port_sharing_pairs_rows_within_groups_only() {
        // 2 groups × 3 rows: pairs (0,1)(0,2)(1,2) and (3,4)(3,5)(4,5).
        let mut m = ContentionMatrix::new(8);
        port_sharing(&mut m, 2, 3, 10);
        assert_eq!(m.get(0, 1), 10);
        assert_eq!(m.get(1, 2), 10);
        assert_eq!(m.get(4, 5), 10);
        assert_eq!(m.get(2, 3), 0, "rows of different groups never share");
        assert_eq!(m.total(), 6 * 10);
    }

    #[test]
    fn port_sharing_single_row_groups_record_nothing() {
        let mut m = ContentionMatrix::new(4);
        port_sharing(&mut m, 4, 1, 99);
        assert!(m.is_empty());
    }
}
