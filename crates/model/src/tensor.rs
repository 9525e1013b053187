//! Dense row-major tensors for feature maps and kernel stacks.
//!
//! The paper's data objects map onto these types as follows:
//!
//! * a single feature map `I^(n)` or kernel `K^(m,n)` is a [`Tensor2`];
//! * the stack of `N` input (or `M` output) feature maps is a [`Tensor3`]
//!   indexed `(map, row, col)`;
//! * the full kernel set of a CONV layer (`M × N` kernels of `K × K`
//!   synapses) is a [`KernelSet`].

use crate::fixed::Fx16;
use std::fmt;

/// A dense 2-D tensor (one feature map or one kernel), row-major.
///
/// # Example
///
/// ```
/// use flexsim_model::Tensor2;
/// use flexsim_model::Fx16;
///
/// let t = Tensor2::from_fn(2, 3, |r, c| Fx16::from_f64((r * 3 + c) as f64));
/// assert_eq!(t[(1, 2)].to_f64(), 5.0);
/// assert_eq!(t.rows(), 2);
/// assert_eq!(t.cols(), 3);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Tensor2<T = Fx16> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Copy + Default> Tensor2<T> {
    /// Creates a tensor filled with `T::default()`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "tensor dimensions must be non-zero");
        Tensor2 {
            rows,
            cols,
            data: vec![T::default(); rows * cols],
        }
    }
}

impl<T: Copy> Tensor2<T> {
    /// Creates a tensor by evaluating `f(row, col)` at every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        assert!(rows > 0 && cols > 0, "tensor dimensions must be non-zero");
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Tensor2 { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the tensor holds no elements (never, by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element accessor returning `None` when out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> Option<&T> {
        if r < self.rows && c < self.cols {
            self.data.get(r * self.cols + c)
        } else {
            None
        }
    }

    /// Flat row-major view of the data.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Iterates over `(row, col, value)` triples in row-major order.
    pub fn iter_indexed(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        let cols = self.cols;
        self.data
            .iter()
            .enumerate()
            .map(move |(i, &v)| (i / cols, i % cols, v))
    }
}

impl<T: Copy> std::ops::Index<(usize, usize)> for Tensor2<T> {
    type Output = T;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &T {
        assert!(r < self.rows && c < self.cols, "tensor index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl<T: Copy> std::ops::IndexMut<(usize, usize)> for Tensor2<T> {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut T {
        assert!(r < self.rows && c < self.cols, "tensor index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl<T: Copy + fmt::Debug> fmt::Debug for Tensor2<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor2({}x{})", self.rows, self.cols)
    }
}

/// A stack of feature maps, indexed `(map, row, col)`.
///
/// # Example
///
/// ```
/// use flexsim_model::Tensor3;
/// use flexsim_model::Fx16;
///
/// let t: Tensor3 = Tensor3::zeros(4, 8, 8);
/// assert_eq!(t.maps(), 4);
/// assert_eq!(t[(3, 7, 7)], Fx16::ZERO);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Tensor3<T = Fx16> {
    maps: usize,
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Copy + Default> Tensor3<T> {
    /// Creates a stack of `maps` feature maps of `rows × cols`, zero-filled.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn zeros(maps: usize, rows: usize, cols: usize) -> Self {
        assert!(
            maps > 0 && rows > 0 && cols > 0,
            "tensor dimensions must be non-zero"
        );
        Tensor3 {
            maps,
            rows,
            cols,
            data: vec![T::default(); maps * rows * cols],
        }
    }
}

impl<T: Copy> Tensor3<T> {
    /// Creates a stack by evaluating `f(map, row, col)` at every element.
    pub fn from_fn(
        maps: usize,
        rows: usize,
        cols: usize,
        mut f: impl FnMut(usize, usize, usize) -> T,
    ) -> Self {
        assert!(
            maps > 0 && rows > 0 && cols > 0,
            "tensor dimensions must be non-zero"
        );
        let mut data = Vec::with_capacity(maps * rows * cols);
        for m in 0..maps {
            for r in 0..rows {
                for c in 0..cols {
                    data.push(f(m, r, c));
                }
            }
        }
        Tensor3 {
            maps,
            rows,
            cols,
            data,
        }
    }

    /// Number of feature maps.
    #[inline]
    pub fn maps(&self) -> usize {
        self.maps
    }

    /// Rows per feature map.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns per feature map.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements across all maps.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the tensor holds no elements (never, by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element accessor returning `None` when out of bounds.
    #[inline]
    pub fn get(&self, m: usize, r: usize, c: usize) -> Option<&T> {
        if m < self.maps && r < self.rows && c < self.cols {
            self.data.get((m * self.rows + r) * self.cols + c)
        } else {
            None
        }
    }

    /// Flat view in `(map, row, col)` order.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Borrows one feature map as a row-major slice.
    pub fn map_slice(&self, m: usize) -> &[T] {
        assert!(m < self.maps, "map index out of bounds");
        let stride = self.rows * self.cols;
        &self.data[m * stride..(m + 1) * stride]
    }

    /// Copies the map subrange `[from, to)` into a new tensor (the DAG
    /// `slice` routing node).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or exceeds the map count.
    pub fn slice_maps(&self, from: usize, to: usize) -> Tensor3<T> {
        assert!(from < to && to <= self.maps, "map slice out of bounds");
        let stride = self.rows * self.cols;
        Tensor3 {
            maps: to - from,
            rows: self.rows,
            cols: self.cols,
            data: self.data[from * stride..to * stride].to_vec(),
        }
    }

    /// Stacks tensors along the map axis (the DAG `concat` routing
    /// node). All parts must share the same spatial size.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or the spatial sizes disagree.
    pub fn concat_maps(parts: &[&Tensor3<T>]) -> Tensor3<T> {
        let first = parts.first().expect("concat needs at least one input");
        let (rows, cols) = (first.rows, first.cols);
        let mut data = Vec::new();
        let mut maps = 0;
        for p in parts {
            assert!(
                p.rows == rows && p.cols == cols,
                "concat inputs must share the spatial size"
            );
            maps += p.maps;
            data.extend_from_slice(&p.data);
        }
        Tensor3 {
            maps,
            rows,
            cols,
            data,
        }
    }
}

impl Tensor3<Fx16> {
    /// Element-wise saturating sum of same-shape tensors (the DAG
    /// residual-`add` routing node; each PE's saturating adder).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or the shapes disagree.
    pub fn add_maps(parts: &[&Tensor3<Fx16>]) -> Tensor3<Fx16> {
        let first = parts.first().expect("add needs at least one input");
        let mut out = (*first).clone();
        for p in &parts[1..] {
            assert!(
                p.maps == out.maps && p.rows == out.rows && p.cols == out.cols,
                "add inputs must share the shape"
            );
            for (o, &v) in out.data.iter_mut().zip(&p.data) {
                *o = o.saturating_add(v);
            }
        }
        out
    }
}

impl<T: Copy> std::ops::Index<(usize, usize, usize)> for Tensor3<T> {
    type Output = T;
    #[inline]
    fn index(&self, (m, r, c): (usize, usize, usize)) -> &T {
        assert!(
            m < self.maps && r < self.rows && c < self.cols,
            "tensor index out of bounds"
        );
        &self.data[(m * self.rows + r) * self.cols + c]
    }
}

impl<T: Copy> std::ops::IndexMut<(usize, usize, usize)> for Tensor3<T> {
    #[inline]
    fn index_mut(&mut self, (m, r, c): (usize, usize, usize)) -> &mut T {
        assert!(
            m < self.maps && r < self.rows && c < self.cols,
            "tensor index out of bounds"
        );
        &mut self.data[(m * self.rows + r) * self.cols + c]
    }
}

impl<T: Copy + fmt::Debug> fmt::Debug for Tensor3<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor3({}@{}x{})", self.maps, self.rows, self.cols)
    }
}

/// The full kernel set of a CONV layer: `M × N` kernels of `K × K` synapses.
///
/// Indexed `(m, n, i, j)` following the paper's `K^(m,n)_(i,j)` notation.
///
/// # Example
///
/// ```
/// use flexsim_model::tensor::KernelSet;
/// use flexsim_model::Fx16;
///
/// let k = KernelSet::from_fn(2, 3, 5, |m, n, i, j| {
///     Fx16::from_f64((m + n + i + j) as f64 / 16.0)
/// });
/// assert_eq!(k.k(), 5);
/// assert_eq!(k[(1, 2, 4, 4)].to_f64(), 11.0 / 16.0);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct KernelSet<T = Fx16> {
    m: usize,
    n: usize,
    k: usize,
    data: Vec<T>,
}

impl<T: Copy + Default> KernelSet<T> {
    /// Creates a zero-filled kernel set for `m` output maps, `n` input maps,
    /// and `k × k` kernels.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn zeros(m: usize, n: usize, k: usize) -> Self {
        assert!(
            m > 0 && n > 0 && k > 0,
            "kernel dimensions must be non-zero"
        );
        KernelSet {
            m,
            n,
            k,
            data: vec![T::default(); m * n * k * k],
        }
    }
}

impl<T: Copy> KernelSet<T> {
    /// Creates a kernel set by evaluating `f(m, n, i, j)` at every synapse.
    pub fn from_fn(
        m: usize,
        n: usize,
        k: usize,
        mut f: impl FnMut(usize, usize, usize, usize) -> T,
    ) -> Self {
        assert!(
            m > 0 && n > 0 && k > 0,
            "kernel dimensions must be non-zero"
        );
        let mut data = Vec::with_capacity(m * n * k * k);
        for om in 0..m {
            for inm in 0..n {
                for i in 0..k {
                    for j in 0..k {
                        data.push(f(om, inm, i, j));
                    }
                }
            }
        }
        KernelSet { m, n, k, data }
    }

    /// Number of output feature maps (`M`).
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Number of input feature maps (`N`).
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Kernel side length (`K`).
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Total number of synapses.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the set holds no synapses (never, by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat view in `(m, n, i, j)` order: synapse `(m, n, i, j)` sits at
    /// `((m·N + n)·K + i)·K + j`.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Borrows one `K × K` kernel (`K^(m,n)`) as a row-major slice.
    pub fn kernel_slice(&self, m: usize, n: usize) -> &[T] {
        assert!(m < self.m && n < self.n, "kernel index out of bounds");
        let stride = self.k * self.k;
        let base = (m * self.n + n) * stride;
        &self.data[base..base + stride]
    }
}

impl<T: Copy> std::ops::Index<(usize, usize, usize, usize)> for KernelSet<T> {
    type Output = T;
    #[inline]
    fn index(&self, (m, n, i, j): (usize, usize, usize, usize)) -> &T {
        assert!(
            m < self.m && n < self.n && i < self.k && j < self.k,
            "kernel index out of bounds"
        );
        &self.data[((m * self.n + n) * self.k + i) * self.k + j]
    }
}

impl<T: Copy> std::ops::IndexMut<(usize, usize, usize, usize)> for KernelSet<T> {
    #[inline]
    fn index_mut(&mut self, (m, n, i, j): (usize, usize, usize, usize)) -> &mut T {
        assert!(
            m < self.m && n < self.n && i < self.k && j < self.k,
            "kernel index out of bounds"
        );
        &mut self.data[((m * self.n + n) * self.k + i) * self.k + j]
    }
}

impl<T: Copy + fmt::Debug> fmt::Debug for KernelSet<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "KernelSet({}x{}@{}x{})", self.m, self.n, self.k, self.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tensor2_round_trip() {
        let mut t: Tensor2<i32> = Tensor2::zeros(3, 4);
        t[(2, 3)] = 42;
        assert_eq!(t[(2, 3)], 42);
        assert_eq!(t.get(2, 3), Some(&42));
        assert_eq!(t.get(3, 0), None);
        assert_eq!(t.len(), 12);
        assert!(!t.is_empty());
    }

    #[test]
    fn tensor2_row_major_layout() {
        let t = Tensor2::from_fn(2, 3, |r, c| (r * 3 + c) as i32);
        assert_eq!(t.as_slice(), &[0, 1, 2, 3, 4, 5]);
        let triples: Vec<_> = t.iter_indexed().collect();
        assert_eq!(triples[4], (1, 1, 4));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn tensor2_oob_panics() {
        let t: Tensor2<i32> = Tensor2::zeros(2, 2);
        let _ = t[(2, 0)];
    }

    #[test]
    fn tensor3_map_slices() {
        let t = Tensor3::from_fn(2, 2, 2, |m, r, c| (m * 100 + r * 10 + c) as i32);
        assert_eq!(t.map_slice(1), &[100, 101, 110, 111]);
        assert_eq!(t[(1, 1, 0)], 110);
        assert_eq!(t.get(2, 0, 0), None);
    }

    #[test]
    fn kernel_set_indexing_matches_paper_notation() {
        let k = KernelSet::from_fn(3, 2, 2, |m, n, i, j| {
            (m * 1000 + n * 100 + i * 10 + j) as i32
        });
        // K^(2,1)_(1,0)
        assert_eq!(k[(2, 1, 1, 0)], 2110);
        assert_eq!(k.kernel_slice(2, 1), &[2100, 2101, 2110, 2111]);
        assert_eq!(k.len(), 3 * 2 * 4);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimension_rejected() {
        let _: Tensor3<i32> = Tensor3::zeros(0, 4, 4);
    }
}
