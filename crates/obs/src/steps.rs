//! One step schedule per architecture, folded into every report.
//!
//! Each simulator describes a layer once, as a sequence of [`Step`]s —
//! a FlexFlow row-batch, a Systolic (m-group, input map), a 2D-Mapping
//! tile, a Tiling (m-tile, n-tile) — next to the closed-form
//! [`Aggregate`](crate::cycles::Aggregate) of those steps. [`fold`] feeds each step once into the
//! layer's cycle timeline (through a [`Coalescer`]) and heatmap
//! (through a [`HeatmapBuilder`]) and hands both, finished, to the
//! attached [`Recorder`](crate::cycles::Recorder); with nothing
//! attached it returns before the first step, so unobserved runs stay
//! closed-form.

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
    /// Number of steps (sets the coalescer's flush period).
    pub steps: u64,
}

/// Folds `steps` once into the layer's cycle timeline and, when the
/// recorder keeps them, its heatmap (`spatial` then adds the
/// architecture's banks and contention matrices), and hands the
/// attached recorder the finished timeline, then the spatial record.
/// Does nothing when no recorder is attached.
pub fn fold(
    sink: &SinkHandle,
    frame: &LayerFrame,
    steps: impl IntoIterator<Item = Step>,
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
    for step in steps {
        feed(&step, &mut co, hb.as_mut());
    }
    let pes = u32::try_from(frame.rows * frame.cols).unwrap_or(u32::MAX);
    let timeline = LayerTimeline {
        ctx: LayerCtx::new(frame.arch, frame.layer, pes),
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

/// Feeds one step into the coalescer and, when live, the heatmap. Kept
/// out of the generic [`fold`] so the per-step work compiles, inlined,
/// in this crate.
fn feed(step: &Step, co: &mut Coalescer, hb: Option<&mut HeatmapBuilder>) {
    step.for_each_span(|kind, cycles, macs| co.push(kind, cycles, macs));
    co.step();
    if let Some(hb) = hb {
        for (&cause, &cycles) in StallCause::ALL.iter().zip(&step.stalls) {
            hb.stall(cause, cycles);
        }
        let p = &step.pass;
        hb.pass(p.cause, p.rects, p.cycles, p.macs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrib::LossLedger;
    use crate::cycles::{Aggregate, Recorder};
    use crate::spatial::CellRect;
    use std::sync::Arc;

    fn steps() -> impl Iterator<Item = Step> {
        (0..3u64).map(|i| {
            Step::new(Pass {
                cause: StallCause::EdgeFragmentation,
                cycles: 4,
                macs: 4 * (i + 1),
                rects: CellRect::full(1, 3).into(),
            })
            .stall(StallCause::PipelineFill, u64::from(i == 0) * 2)
        })
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
        for step in steps() {
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
}
