//! Spatial observability: per-PE heatmaps, per-bank occupancy
//! watermarks, and contention matrices.
//!
//! Every surface in [`crate::attrib`] is *aggregate*: a
//! [`LossLedger`] says how many PE-cycles a layer lost to
//! `edge-fragmentation`, but not **which rows and columns** of the
//! array sat idle. This module adds the spatial axis. Each simulator
//! folds its per-step activity into a [`LayerSpatial`] — one per
//! (architecture, layer) — through a [`HeatmapBuilder`] whose
//! accounting is *exact by construction*:
//!
//! * a uniform stall of `c` cycles costs every cell exactly `c` lost
//!   PE-cycles (the array is idle wall-to-wall), so stalls accumulate
//!   in one per-cause scalar folded into every cell at
//!   [`HeatmapBuilder::finish`];
//! * a compute pass of `cap` cycles per cell charges every cell `cap`
//!   to the pass's residue cause; its useful MACs are summed per
//!   (cause, active cells) and, at [`HeatmapBuilder::finish`], spread
//!   over those cells once with [`distribute`] (floor share plus one
//!   for the first `total % n` cells — deterministic and
//!   remainder-exact), crediting each active cell its share.
//!
//! Summing any cause over all cells therefore reproduces the ledger's
//! `lost(cause)` *exactly*, and summing the busy plane reproduces
//! `busy_pe_cycles` — the FXC13 spatial-exactness identity flexcheck
//! verifies per layer.
//!
//! Delivery rides on the one observer: [`crate::steps::fold`] builds the
//! record from the same runs of steps as the cycle timeline (a run of
//! `n` steps is one [`HeatmapBuilder::push`]) and hands it to a
//! recorder built with [`crate::cycles::Recorder::with_spatial`], which
//! keeps them for the `flexsim heatmap` report.
//!
//! [`LossLedger`]: crate::attrib::LossLedger

use crate::attrib::StallCause;
use crate::steps::Step;

/// A rectangular block of active PE cells, in array coordinates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CellRect {
    /// First active row.
    pub row: usize,
    /// First active column.
    pub col: usize,
    /// Active rows.
    pub rows: usize,
    /// Active columns.
    pub cols: usize,
}

impl CellRect {
    /// The whole `rows × cols` array.
    pub fn full(rows: usize, cols: usize) -> CellRect {
        CellRect {
            row: 0,
            col: 0,
            rows,
            cols,
        }
    }

    /// Number of cells covered.
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// True when the rect covers no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The active cells of one pass: `count` copies of `rect`, each
/// `row_pitch` rows below the previous one (one rect for most engines,
/// one per busy array for Systolic's stacked arrays). Plain data, so a
/// step carries it without allocating.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CellRects {
    /// The first rect.
    pub rect: CellRect,
    /// Number of copies.
    pub count: usize,
    /// Rows between the tops of consecutive copies.
    pub row_pitch: usize,
}

impl CellRects {
    /// `count` copies of `rect` stacked `row_pitch` rows apart.
    pub fn stacked(rect: CellRect, count: usize, row_pitch: usize) -> CellRects {
        CellRects {
            rect,
            count,
            row_pitch,
        }
    }

    /// The rects, top to bottom.
    pub fn iter(&self) -> impl Iterator<Item = CellRect> + '_ {
        (0..self.count).map(|i| CellRect {
            row: self.rect.row + i * self.row_pitch,
            ..self.rect
        })
    }

    /// Number of cells covered.
    pub fn cells(&self) -> usize {
        self.count * self.rect.len()
    }
}

impl From<CellRect> for CellRects {
    fn from(rect: CellRect) -> CellRects {
        CellRects::stacked(rect, 1, 0)
    }
}

/// Splits `total` over `n` slots exactly: every slot gets
/// `total / n`, and the first `total % n` slots get one more. The
/// shares always sum to `total`.
pub fn distribute(total: u64, n: usize) -> Vec<u64> {
    if n == 0 {
        return Vec::new();
    }
    let base = total / n as u64;
    let extra = (total % n as u64) as usize;
    (0..n).map(|i| base + u64::from(i < extra)).collect()
}

/// A symmetric who-collided-with-whom matrix over `ports` resource
/// ports (adder-tree row ports, CDB writeback slots). Pairs are
/// normalized to `(lo, hi)` so each unordered pair is counted once.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ContentionMatrix {
    ports: usize,
    counts: Vec<u64>,
}

impl ContentionMatrix {
    /// An empty matrix over `ports` ports.
    pub fn new(ports: usize) -> ContentionMatrix {
        ContentionMatrix {
            ports,
            counts: vec![0; ports * ports],
        }
    }

    /// Number of ports.
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// Records `weight` collisions between ports `a` and `b`
    /// (self-pairs are ignored — a port cannot collide with itself).
    ///
    /// # Panics
    ///
    /// Panics when a port index is out of range.
    pub fn record(&mut self, a: usize, b: usize, weight: u64) {
        assert!(a < self.ports && b < self.ports, "port out of range");
        if a == b {
            return;
        }
        let (lo, hi) = (a.min(b), a.max(b));
        self.counts[lo * self.ports + hi] += weight;
    }

    /// The collision count of the unordered pair `(a, b)`.
    pub fn get(&self, a: usize, b: usize) -> u64 {
        if a == b || a >= self.ports || b >= self.ports {
            return 0;
        }
        let (lo, hi) = (a.min(b), a.max(b));
        self.counts[lo * self.ports + hi]
    }

    /// Total collisions across all pairs.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Non-zero pairs as `(a, b, count)` with `a < b`, ascending.
    pub fn pairs(&self) -> Vec<(usize, usize, u64)> {
        let mut out = Vec::new();
        for a in 0..self.ports {
            for b in (a + 1)..self.ports {
                let c = self.counts[a * self.ports + b];
                if c > 0 {
                    out.push((a, b, c));
                }
            }
        }
        out
    }

    /// True when no collision was recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }
}

/// Occupancy watermarks for one buffer bank: the high-water word
/// count and the cycle-weighted mean over the layer's duration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BankWatermark {
    /// Bank name (`"neuron-in"`, `"kernel"`, `"neuron-out"`,
    /// `"local-store"`).
    pub bank: String,
    /// Bank capacity in 16-bit words.
    pub capacity_words: u64,
    /// Highest observed resident word count.
    pub high_water_words: u64,
    /// Σ words × cycles over every sample (the mean's numerator).
    pub weighted_word_cycles: u64,
    /// Σ cycles over every sample. FXC13 requires this to equal the
    /// layer's total cycles — a dropped sample is a hole in the
    /// occupancy story and fails the gate.
    pub sampled_cycles: u64,
}

impl BankWatermark {
    /// A bank with no samples yet.
    pub fn new(bank: impl Into<String>, capacity_words: u64) -> BankWatermark {
        BankWatermark {
            bank: bank.into(),
            capacity_words,
            high_water_words: 0,
            weighted_word_cycles: 0,
            sampled_cycles: 0,
        }
    }

    /// Records `words` resident for `cycles` cycles.
    pub fn sample(&mut self, words: u64, cycles: u64) {
        self.high_water_words = self.high_water_words.max(words);
        self.weighted_word_cycles += words * cycles;
        self.sampled_cycles += cycles;
    }

    /// Time-weighted mean resident words (0 with no samples).
    pub fn mean_words(&self) -> f64 {
        if self.sampled_cycles == 0 {
            return 0.0;
        }
        self.weighted_word_cycles as f64 / self.sampled_cycles as f64
    }
}

/// The finished spatial record of one (architecture, layer) pair: the
/// per-PE busy/loss planes, bank watermarks, and contention matrices.
///
/// Planes are row-major `rows × cols` with `rows * cols ==` the
/// simulator's PE count. The exactness contract (flexcheck FXC13):
/// `Σ busy == ledger.busy_pe_cycles` and for every cause
/// `Σ lost[cause] == ledger.lost(cause)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LayerSpatial {
    /// Architecture name.
    pub arch: String,
    /// Layer name.
    pub layer: String,
    /// Array rows.
    pub rows: usize,
    /// Array columns.
    pub cols: usize,
    /// The layer's total cycles.
    pub total_cycles: u64,
    /// Row-major busy PE-cycles per cell.
    pub busy: Vec<u64>,
    /// Row-major lost PE-cycles per cell, indexed by
    /// [`StallCause::index`].
    pub lost: Vec<[u64; StallCause::COUNT]>,
    /// Buffer-bank occupancy watermarks.
    pub banks: Vec<BankWatermark>,
    /// Adder-tree row-port contention (who shared a port with whom).
    pub adder_tree: ContentionMatrix,
    /// CDB writeback contention.
    pub cdb: ContentionMatrix,
}

impl LayerSpatial {
    /// `rows × cols`.
    pub fn pe_count(&self) -> usize {
        self.rows * self.cols
    }

    /// Busy PE-cycles of cell `(row, col)`.
    pub fn busy_at(&self, row: usize, col: usize) -> u64 {
        self.busy[row * self.cols + col]
    }

    /// Lost PE-cycles of cell `(row, col)` attributed to `cause`.
    pub fn lost_at(&self, row: usize, col: usize, cause: StallCause) -> u64 {
        self.lost[row * self.cols + col][cause.index()]
    }

    /// Σ busy over all cells (== `busy_pe_cycles` under FXC13).
    pub fn busy_total(&self) -> u64 {
        self.busy.iter().sum()
    }

    /// Σ `lost[cause]` over all cells (== `ledger.lost(cause)` under
    /// FXC13).
    pub fn lost_total(&self, cause: StallCause) -> u64 {
        self.lost.iter().map(|l| l[cause.index()]).sum()
    }

    /// Busy fraction of cell `(row, col)` in `[0, 1]`.
    pub fn busy_frac(&self, row: usize, col: usize) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        self.busy_at(row, col) as f64 / self.total_cycles as f64
    }
}

/// Accumulates one layer's spatial activity with remainder-exact
/// accounting (see the module docs for the identity argument).
///
/// Internally loss is kept factored: a per-cause *uniform* scalar
/// (stall cycles plus per-cell pass capacity, both charged to every
/// cell identically) and per-(cause, active cells) MAC sums, which
/// [`HeatmapBuilder::finish`] distributes into a per-cell *credit*
/// plane (the MAC share an active cell earned back) and resolves
/// `lost[cell][cause] = uniform[cause] − credit[cell][cause]`.
/// Summing before distributing makes the planes independent of how a
/// schedule splits its work into passes.
#[derive(Clone, Debug)]
pub struct HeatmapBuilder {
    arch: String,
    layer: String,
    rows: usize,
    cols: usize,
    total_cycles: u64,
    uniform: [u64; StallCause::COUNT],
    passes: Vec<PassSum>,
    banks: Vec<BankWatermark>,
    adder_tree: ContentionMatrix,
    cdb: ContentionMatrix,
}

/// The passes of one (cause, active cells) pair, summed.
#[derive(Clone, Debug)]
struct PassSum {
    cause: StallCause,
    rects: CellRects,
    cap_per_cell: u64,
    macs: u64,
}

impl HeatmapBuilder {
    /// A builder for one `rows × cols` layer run of `total_cycles`.
    pub fn new(
        arch: impl Into<String>,
        layer: impl Into<String>,
        rows: usize,
        cols: usize,
        total_cycles: u64,
    ) -> HeatmapBuilder {
        HeatmapBuilder {
            arch: arch.into(),
            layer: layer.into(),
            rows,
            cols,
            total_cycles,
            uniform: [0; StallCause::COUNT],
            passes: Vec::new(),
            banks: Vec::new(),
            adder_tree: ContentionMatrix::new(0),
            cdb: ContentionMatrix::new(0),
        }
    }

    /// A whole-array stall of `cycles` cycles attributed to `cause`:
    /// every cell loses exactly `cycles` PE-cycles.
    pub fn stall(&mut self, cause: StallCause, cycles: u64) {
        self.uniform[cause.index()] += cycles;
    }

    /// A compute pass of `cap_per_cell` cycles per cell whose `macs`
    /// useful work ran on the cells covered by `rects` (disjoint,
    /// in-bounds). Active cells share the MACs of all passes with the
    /// same cause and cells (see [`HeatmapBuilder::finish`]) and lose
    /// the rest to `cause`; cells outside the rects lose the full
    /// `cap_per_cell`.
    ///
    /// # Panics
    ///
    /// Panics when a rect runs out of bounds or the summed MACs exceed
    /// the summed active capacity `cap_per_cell × rects.cells()`.
    pub fn pass(&mut self, cause: StallCause, rects: CellRects, cap_per_cell: u64, macs: u64) {
        let r = rects.rect;
        let rows_end = r.row + rects.count.saturating_sub(1) * rects.row_pitch + r.rows;
        assert!(
            rows_end <= self.rows && r.col + r.cols <= self.cols,
            "active rect out of array bounds"
        );
        self.uniform[cause.index()] += cap_per_cell;
        let sum = match self
            .passes
            .iter()
            .rposition(|p| p.cause == cause && p.rects == rects)
        {
            Some(i) => &mut self.passes[i],
            None => {
                self.passes.push(PassSum {
                    cause,
                    rects,
                    cap_per_cell: 0,
                    macs: 0,
                });
                self.passes.last_mut().expect("just pushed")
            }
        };
        sum.cap_per_cell += cap_per_cell;
        sum.macs += macs;
        assert!(
            sum.macs <= sum.cap_per_cell.saturating_mul(rects.cells() as u64),
            "pass MACs exceed active capacity"
        );
    }

    /// Feeds `n` copies of `step`: its stalls, then its pass. Both are
    /// linear in the cycles and MACs fed, so one call costs what one
    /// step does and records exactly what `n` calls of one step would.
    pub fn push(&mut self, step: &Step, n: u64) {
        for (&cause, &cycles) in StallCause::ALL.iter().zip(&step.stalls) {
            self.stall(cause, cycles * n);
        }
        let p = &step.pass;
        self.pass(p.cause, p.rects, p.cycles * n, p.macs * n);
    }

    /// Records `words` resident in `bank` for `cycles` cycles,
    /// creating the bank (with `capacity_words`) on first touch.
    pub fn bank_sample(&mut self, bank: &str, capacity_words: u64, words: u64, cycles: u64) {
        let entry = match self.banks.iter_mut().find(|b| b.bank == bank) {
            Some(b) => b,
            None => {
                self.banks.push(BankWatermark::new(bank, capacity_words));
                self.banks.last_mut().expect("just pushed")
            }
        };
        entry.sample(words, cycles);
    }

    /// Installs the adder-tree row-port contention matrix.
    pub fn set_adder_tree(&mut self, m: ContentionMatrix) {
        self.adder_tree = m;
    }

    /// Installs the CDB writeback contention matrix.
    pub fn set_cdb(&mut self, m: ContentionMatrix) {
        self.cdb = m;
    }

    /// Distributes each (cause, active cells) MAC sum over its cells
    /// and resolves the factored loss planes into the finished record.
    ///
    /// # Panics
    ///
    /// Panics if any cell earned more credit than the uniform charge —
    /// impossible when every pass respected its capacity bound.
    pub fn finish(self) -> LayerSpatial {
        let cells = self.rows * self.cols;
        let mut busy = vec![0; cells];
        let mut credit = vec![[0; StallCause::COUNT]; cells];
        for p in &self.passes {
            let active = p.rects.iter().flat_map(|r| {
                (r.row..r.row + r.rows)
                    .flat_map(move |row| (r.col..r.col + r.cols).map(move |col| (row, col)))
            });
            for ((row, col), share) in active.zip(distribute(p.macs, p.rects.cells())) {
                let cell = row * self.cols + col;
                busy[cell] += share;
                credit[cell][p.cause.index()] += share;
            }
        }
        let lost = credit
            .iter()
            .map(|credit| {
                let mut cell = [0u64; StallCause::COUNT];
                for (i, c) in cell.iter_mut().enumerate() {
                    *c = self.uniform[i]
                        .checked_sub(credit[i])
                        .expect("cell credit exceeds uniform charge");
                }
                cell
            })
            .collect();
        LayerSpatial {
            arch: self.arch,
            layer: self.layer,
            rows: self.rows,
            cols: self.cols,
            total_cycles: self.total_cycles,
            busy,
            lost,
            banks: self.banks,
            adder_tree: self.adder_tree,
            cdb: self.cdb,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distribute_is_remainder_exact() {
        for (total, n) in [(0u64, 4usize), (7, 3), (12, 4), (5, 1), (3, 7)] {
            let shares = distribute(total, n);
            assert_eq!(shares.len(), n);
            assert_eq!(shares.iter().sum::<u64>(), total, "total={total} n={n}");
            let spread = shares.iter().max().unwrap_or(&0) - shares.iter().min().unwrap_or(&0);
            assert!(spread <= 1, "uneven split {shares:?}");
        }
        assert!(distribute(9, 0).is_empty());
    }

    #[test]
    fn builder_accounts_exactly() {
        // 2×2 array, one 3-cycle fill stall, one pass of 10 cycles/cell
        // on a 1×2 active rect carrying 14 MACs.
        let mut b = HeatmapBuilder::new("A", "L", 2, 2, 13);
        b.stall(StallCause::PipelineFill, 3);
        b.pass(
            StallCause::MappingResidueIdle,
            CellRect {
                row: 0,
                col: 0,
                rows: 1,
                cols: 2,
            }
            .into(),
            10,
            14,
        );
        let s = b.finish();
        // Busy: 14 MACs split 7/7 over the two active cells.
        assert_eq!(s.busy_total(), 14);
        assert_eq!(s.busy_at(0, 0), 7);
        assert_eq!(s.busy_at(0, 1), 7);
        assert_eq!(s.busy_at(1, 0), 0);
        // Fill: 3 lost per cell, uniformly.
        assert_eq!(s.lost_total(StallCause::PipelineFill), 3 * 4);
        // Residue: active cells lose 10−7=3 each, inactive the full 10.
        assert_eq!(s.lost_at(0, 0, StallCause::MappingResidueIdle), 3);
        assert_eq!(s.lost_at(1, 1, StallCause::MappingResidueIdle), 10);
        assert_eq!(
            s.lost_total(StallCause::MappingResidueIdle),
            3 + 3 + 10 + 10
        );
        // The ledger identity: busy + Σ lost == cycles × PEs.
        let lost: u64 = StallCause::ALL.iter().map(|&c| s.lost_total(c)).sum();
        assert_eq!(s.busy_total() + lost, 13 * 4);
    }

    #[test]
    fn uneven_macs_spill_to_lowest_index_cells() {
        let mut b = HeatmapBuilder::new("A", "L", 1, 3, 5);
        b.pass(
            StallCause::EdgeFragmentation,
            CellRect::full(1, 3).into(),
            5,
            7,
        );
        let s = b.finish();
        assert_eq!(s.busy, vec![3, 2, 2]);
        assert_eq!(s.lost_total(StallCause::EdgeFragmentation), 15 - 7);
    }

    #[test]
    #[should_panic(expected = "pass MACs exceed active capacity")]
    fn overfull_pass_is_rejected() {
        let mut b = HeatmapBuilder::new("A", "L", 2, 2, 10);
        b.pass(
            StallCause::MappingResidueIdle,
            CellRect::full(1, 1).into(),
            10,
            11,
        );
    }

    #[test]
    fn bank_samples_track_high_water_and_mean() {
        let mut b = HeatmapBuilder::new("A", "L", 1, 1, 30);
        b.bank_sample("neuron-in", 100, 80, 10);
        b.bank_sample("neuron-in", 100, 20, 20);
        b.bank_sample("kernel", 50, 50, 30);
        let s = b.finish();
        assert_eq!(s.banks.len(), 2);
        let nin = &s.banks[0];
        assert_eq!(nin.bank, "neuron-in");
        assert_eq!(nin.high_water_words, 80);
        assert_eq!(nin.sampled_cycles, 30);
        assert!((nin.mean_words() - 40.0).abs() < 1e-12);
        assert_eq!(s.banks[1].high_water_words, 50);
    }

    #[test]
    fn contention_matrix_normalizes_pairs() {
        let mut m = ContentionMatrix::new(4);
        m.record(2, 1, 5);
        m.record(1, 2, 3);
        m.record(3, 3, 100); // self-pair: ignored
        assert_eq!(m.get(1, 2), 8);
        assert_eq!(m.get(2, 1), 8);
        assert_eq!(m.get(3, 3), 0);
        assert_eq!(m.total(), 8);
        assert_eq!(m.pairs(), vec![(1, 2, 8)]);
        assert!(!m.is_empty());
        assert!(ContentionMatrix::new(0).is_empty());
    }

    #[test]
    fn default_handle_is_detached_and_silent() {
        use crate::cycles::{Recorder, SinkHandle};
        use crate::steps::{fold, LayerFrame};
        let frame = LayerFrame {
            arch: "A",
            layer: "L",
            rows: 1,
            cols: 1,
            cycles: 0,
            macs: 0,
            steps: 0,
        };
        fold(&SinkHandle::default(), &frame, [], |_| {
            panic!("a detached handle builds no spatial record")
        });
        // A cycle-only recorder asks for no spatial record.
        let rec = std::sync::Arc::new(Recorder::new());
        fold(&SinkHandle::new(rec.clone()), &frame, [], |_| {
            panic!("a cycle-only recorder builds no spatial record")
        });
        assert!(rec.take_spatial().is_empty());
        assert_eq!(rec.take().len(), 1);
    }

    #[test]
    fn recorder_round_trips_layers_in_order() {
        use crate::cycles::Recorder;
        let rec = Recorder::with_spatial();
        assert!(rec.keeps_spatial());
        rec.record_spatial(HeatmapBuilder::new("A", "L1", 2, 2, 10).finish());
        rec.record_spatial(HeatmapBuilder::new("A", "L2", 2, 2, 20).finish());
        let layers = rec.take_spatial();
        assert_eq!(layers.len(), 2);
        assert_eq!(layers[0].layer, "L1");
        assert_eq!(layers[1].layer, "L2");
        assert!(rec.take_spatial().is_empty());
        assert!(!Recorder::new().keeps_spatial());
    }

    #[test]
    fn passes_with_equal_cells_share_one_distribution() {
        // Two 1-MAC passes on three cells: distributed once as 2 MACs,
        // not twice as 1, so the split does not depend on the steps.
        let mut b = HeatmapBuilder::new("A", "L", 1, 3, 2);
        b.pass(
            StallCause::EdgeFragmentation,
            CellRect::full(1, 3).into(),
            1,
            1,
        );
        b.pass(
            StallCause::EdgeFragmentation,
            CellRect::full(1, 3).into(),
            1,
            1,
        );
        let s = b.finish();
        assert_eq!(s.busy, vec![1, 1, 0]);
        assert_eq!(s.lost_total(StallCause::EdgeFragmentation), 6 - 2);
        let stacked = CellRects::stacked(CellRect::full(1, 2), 3, 4);
        assert_eq!(stacked.cells(), 6);
        assert_eq!(stacked.iter().map(|r| r.row).collect::<Vec<_>>(), [0, 4, 8]);
    }

    #[test]
    fn a_pushed_run_equals_its_copies() {
        use crate::steps::Pass;
        let first = Step::new(Pass {
            cause: StallCause::EdgeFragmentation,
            cycles: 3,
            macs: 5,
            rects: CellRect::full(1, 2).into(),
        })
        .stall(StallCause::PipelineFill, 2);
        let second = Step::new(Pass {
            cause: StallCause::MappingResidueIdle,
            cycles: 4,
            macs: 7,
            rects: CellRects::stacked(CellRect::full(1, 1), 2, 1),
        })
        .stall(StallCause::PsumSpillRoundTrip, 1);
        let runs = [(first, 3), (second, 5), (first, 2)];
        let mut by_run = HeatmapBuilder::new("A", "L", 2, 2, 0);
        let mut by_step = by_run.clone();
        for (step, n) in runs {
            by_run.push(&step, n);
            for _ in 0..n {
                by_step.push(&step, 1);
            }
        }
        let (by_run, by_step) = (by_run.finish(), by_step.finish());
        assert_eq!(by_run, by_step);
        assert_eq!(by_run.busy_total(), 5 * 5 + 5 * 7);
        assert_eq!(by_run.lost_total(StallCause::PipelineFill), 5 * 2 * 4);
    }
}
