//! One step schedule per architecture, folded into every report.
//!
//! Each simulator describes a layer once, as maximal runs
//! `(step, count)` of identical [`Step`]s — FlexFlow row-batches,
//! Systolic (m-group, input map) pairs, 2D-Mapping tiles, Tiling
//! (m-tile, n-tile) pairs — next to the closed-form
//! [`Aggregate`](crate::cycles::Aggregate) of those steps. [`fold`] feeds
//! each run once into the layer's cycle timeline (through a
//! [`Coalescer`]) and heatmap (through a [`HeatmapBuilder`]), both
//! linear in their input, and hands both, finished, to the attached
//! [`Recorder`](crate::cycles::Recorder); with nothing attached it
//! returns before the first run, so unobserved runs stay closed-form.
//! An observed layer therefore costs O(runs), not O(steps).

use crate::attrib::StallCause;
use crate::cycles::{Coalescer, CycleEventKind, LayerCtx, LayerTimeline, SinkHandle};
use crate::spatial::{CellRects, HeatmapBuilder};

/// The compute part of a step: `cycles` per cell on `rects`, carrying
/// `macs` useful MACs; the idle remainder is lost to `cause`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pass {
    /// Cause of the pass's idle remainder.
    pub cause: StallCause,
    /// Pass length in cycles.
    pub cycles: u64,
    /// Useful MACs.
    pub macs: u64,
    /// The active cells.
    pub rects: CellRects,
}

/// One step of a layer's schedule: whole-array stalls by cause, then
/// one pass. Plain data — stepping a layer allocates nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Step {
    /// Stall cycles, indexed by [`StallCause::index`].
    pub stalls: [u64; StallCause::COUNT],
    /// The compute pass.
    pub pass: Pass,
}

impl Step {
    /// A step that only computes.
    #[inline]
    pub fn new(pass: Pass) -> Step {
        Step {
            stalls: [0; StallCause::COUNT],
            pass,
        }
    }

    /// Adds `cycles` of whole-array stall attributed to `cause`.
    #[inline]
    pub fn stall(mut self, cause: StallCause, cycles: u64) -> Step {
        self.stalls[cause.index()] += cycles;
        self
    }

    /// Calls `f(kind, cycles, macs)` for each non-empty stall, then for
    /// the pass.
    #[inline]
    pub fn for_each_span(&self, mut f: impl FnMut(CycleEventKind, u64, u64)) {
        for (&cause, &cycles) in StallCause::ALL.iter().zip(&self.stalls) {
            if cycles > 0 {
                f(CycleEventKind::Stall(cause), cycles, 0);
            }
        }
        f(
            CycleEventKind::Pass(self.pass.cause),
            self.pass.cycles,
            self.pass.macs,
        );
    }
}

/// What [`fold`] needs to know about a layer before its first step.
#[derive(Clone, Copy, Debug)]
pub struct LayerFrame<'a> {
    /// Architecture name.
    pub arch: &'a str,
    /// Layer name.
    pub layer: &'a str,
    /// Heatmap rows (`rows × cols` is the PE count).
    pub rows: usize,
    /// Heatmap columns.
    pub cols: usize,
    /// The layer's total cycles, which the steps must tile.
    pub cycles: u64,
    /// The layer's useful MACs, which the steps must carry.
    pub macs: u64,
    /// Number of steps, each run counted `count` times (sets the
    /// coalescer's flush period).
    pub steps: u64,
}

/// Folds the runs `(step, count)` once into the layer's cycle timeline
/// and, when the recorder keeps them, its heatmap (`spatial` then adds
/// the architecture's banks and contention matrices), and hands the
/// attached recorder the finished timeline, then the spatial record.
/// A run folds like `count` copies of its step, at the cost of one.
/// Does nothing when no recorder is attached.
pub fn fold(
    sink: &SinkHandle,
    frame: &LayerFrame,
    runs: impl IntoIterator<Item = (Step, u64)>,
    spatial: impl FnOnce(&mut HeatmapBuilder),
) {
    let Some(rec) = sink.recorder() else {
        return;
    };
    let mut co = Coalescer::new(frame.steps);
    let mut hb = rec.keeps_spatial().then(|| {
        HeatmapBuilder::new(
            frame.arch,
            frame.layer,
            frame.rows,
            frame.cols,
            frame.cycles,
        )
    });
    let mut stepped = 0u64;
    for (step, count) in runs {
        co.push(&step, count);
        if let Some(hb) = hb.as_mut() {
            hb.push(&step, count);
        }
        stepped += count;
    }
    debug_assert_eq!(
        stepped, frame.steps,
        "{}/{}: the runs expand to a different step count than the frame's",
        frame.arch, frame.layer
    );
    let timeline = LayerTimeline {
        ctx: LayerCtx::for_engine(frame.arch, frame.layer, frame.rows, frame.cols),
        events: co.finish(),
    };
    debug_assert_eq!(
        timeline.total_cycles(),
        frame.cycles,
        "{}/{}: step cycles diverge from the schedule (flexcheck FXC08 util-sanity)",
        frame.arch,
        frame.layer
    );
    debug_assert_eq!(
        timeline.macs(),
        frame.macs,
        "{}/{}: step MACs diverge from the schedule (flexcheck FXC09 attribution-exactness)",
        frame.arch,
        frame.layer
    );
    rec.record(timeline);
    if let Some(mut hb) = hb {
        spatial(&mut hb);
        rec.record_spatial(hb.finish());
    }
}

/// Merges adjacent equal steps of `runs` into maximal runs and drops
/// empty ones, so a producer may emit a run in pieces.
pub fn maximal(runs: impl IntoIterator<Item = (Step, u64)>) -> impl Iterator<Item = (Step, u64)> {
    let mut runs = runs.into_iter().filter(|&(_, count)| count > 0).peekable();
    std::iter::from_fn(move || {
        let (step, mut count) = runs.next()?;
        while let Some((_, more)) = runs.next_if(|(next, _)| *next == step) {
            count += more;
        }
        Some((step, count))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrib::LossLedger;
    use crate::cycles::{Aggregate, Recorder};
    use crate::spatial::CellRect;
    use std::sync::Arc;

    fn step(i: u64) -> Step {
        Step::new(Pass {
            cause: StallCause::EdgeFragmentation,
            cycles: 4,
            macs: 4 * (i + 1),
            rects: CellRect::full(1, 3).into(),
        })
        .stall(StallCause::PipelineFill, u64::from(i == 0) * 2)
    }

    fn steps() -> impl Iterator<Item = (Step, u64)> {
        (0..3u64).map(|i| (step(i), 1))
    }

    fn frame() -> LayerFrame<'static> {
        LayerFrame {
            arch: "A",
            layer: "L",
            rows: 1,
            cols: 3,
            cycles: 14,
            macs: 24,
            steps: 3,
        }
    }

    #[test]
    fn one_fold_feeds_timeline_and_heatmap_alike() {
        let rec = Arc::new(Recorder::with_spatial());
        fold(&SinkHandle::new(rec.clone()), &frame(), steps(), |_| {});
        let tl = rec.take();
        let ledger = LossLedger::from_timeline(&tl[0]);
        let mut agg = Aggregate::default();
        for (step, _) in steps() {
            step.for_each_span(|kind, cycles, macs| agg.add(kind, cycles, macs));
        }
        assert_eq!(
            ledger,
            LossLedger::from_timeline(&agg.timeline(tl[0].ctx.clone()))
        );
        let sp = &rec.take_spatial()[0];
        assert_eq!(sp.busy_total(), ledger.busy_pe_cycles);
        for cause in StallCause::ALL {
            assert_eq!(sp.lost_total(cause), ledger.lost(cause), "{cause:?}");
        }
    }

    #[test]
    #[should_panic(expected = "A/L: a 65536×65536 engine has more PEs than a u32 counts")]
    fn a_pe_count_past_u32_fails_loudly() {
        // 2³² PEs: the old conversion saturated to u32::MAX. A
        // cycle-only recorder keeps nothing of size rows·cols.
        let rec = Arc::new(Recorder::new());
        let frame = LayerFrame {
            rows: 1 << 16,
            cols: 1 << 16,
            ..frame()
        };
        fold(&SinkHandle::new(rec), &frame, steps(), |_| {});
    }

    #[test]
    fn an_unobserved_fold_never_steps() {
        let mut stepped = false;
        let lazy = std::iter::from_fn(|| {
            stepped = true;
            None
        });
        fold(&SinkHandle::none(), &frame(), lazy, |_| {});
        assert!(!stepped);
        // A cycle-only recorder gets no heatmap.
        let rec = Arc::new(Recorder::new());
        fold(&SinkHandle::new(rec.clone()), &frame(), steps(), |_| {
            panic!("no spatial record was asked for")
        });
        assert_eq!(rec.take().len(), 1);
    }

    #[test]
    fn a_run_folds_like_its_copies() {
        // 1000 steps flush every 4 (MAX_EVENTS_PER_LAYER = 256), so the
        // runs of 3, 6 and 991 straddle flush-group boundaries.
        let runs = [(step(0), 3), (step(1), 6), (step(2), 991)];
        let frame = LayerFrame {
            cycles: 1000 * 4 + 3 * 2,
            macs: 3 * 4 + 6 * 8 + 991 * 12,
            steps: 1000,
            ..frame()
        };
        let expanded = runs
            .iter()
            .flat_map(|&(step, count)| std::iter::repeat_n((step, 1), count as usize));
        let by_run = Arc::new(Recorder::with_spatial());
        fold(&SinkHandle::new(by_run.clone()), &frame, runs, |_| {});
        let by_step = Arc::new(Recorder::with_spatial());
        fold(&SinkHandle::new(by_step.clone()), &frame, expanded, |_| {});
        let timeline = by_run.take();
        // One event per flush group, plus the fill in the first.
        assert_eq!(timeline[0].events.len(), 250 + 1);
        assert_eq!(timeline, by_step.take());
        assert_eq!(by_run.take_spatial(), by_step.take_spatial());
    }

    #[test]
    fn maximal_merges_equal_neighbours_and_drops_empty_runs() {
        let runs = [
            (step(0), 1),
            (step(1), 2),
            (step(2), 0),
            (step(1), 3),
            (step(2), 1),
            (step(1), 1),
        ];
        let merged: Vec<_> = maximal(runs).collect();
        assert_eq!(
            merged,
            [(step(0), 1), (step(1), 5), (step(2), 1), (step(1), 1)]
        );
        assert_eq!(maximal([]).count(), 0);
    }
}
