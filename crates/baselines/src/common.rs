//! Shared plumbing for the baseline simulators.

use flexsim_arch::accelerator::price_layer;
use flexsim_arch::buffer::sample_buffers;
use flexsim_arch::stats::{EventCounts, LayerResult, Traffic};
use flexsim_arch::Accelerator;
use flexsim_model::ConvLayer;
use flexsim_obs::cycles::SinkHandle;
use flexsim_obs::steps::{self, LayerFrame, Step};
use flexsim_obs::telemetry;

/// Ceiling division.
#[inline]
pub(crate) fn cdiv(a: usize, b: usize) -> usize {
    a.div_ceil(b)
}

/// The tile classes of one axis of extent `x` stepped by `t`: the full
/// tiles, then the clamped last one, as `(extent, tiles)`.
fn classes(x: usize, t: usize) -> impl Iterator<Item = (usize, u64)> + Clone {
    [
        (t, (x / t) as u64),
        (x % t, u64::from(!x.is_multiple_of(t))),
    ]
    .into_iter()
    .filter(|&(_, tiles)| tiles > 0)
}

/// A row-major walk over an `outer × inner` tile grid, each axis
/// `(extent, tile)` with its last tile clamped: the tile count, and the
/// maximal runs `((outer extent, inner extent), tiles)` of equal tiles.
/// The runs cost O(outer tiles) only where the inner axis is ragged and
/// every row therefore ends in a tile of its own.
pub(crate) fn grid(
    (x, tx): (usize, usize),
    (y, ty): (usize, usize),
) -> (u64, impl Iterator<Item = ((usize, usize), u64)>) {
    let cols = classes(y, ty);
    let ragged = cols.clone().count() > 1;
    let runs = classes(x, tx).flat_map(move |(row, rows)| {
        // Rows of one inner class merge; ragged rows repeat their classes.
        let (repeats, merged) = if ragged { (rows, 1) } else { (1, rows) };
        let cols = cols.clone();
        (0..repeats).flat_map(move |_| {
            cols.clone()
                .map(move |(col, tiles)| ((row, col), tiles * merged))
        })
    });
    ((cdiv(x, tx) * cdiv(y, ty)) as u64, runs)
}

/// The `run_conv` of every baseline. The layer's cycles and MACs are
/// those of `acc`'s aggregate; `steps` (the step count and its runs)
/// are folded for the attached recorder on a `rows × cols` heatmap;
/// `analyze` gives the on-chip events and traffic for the layer's cycle
/// total. The heatmap samples the
/// three Table 5 buffers (the baselines stream operands, so residency
/// is flat). The baselines have no shared adder-tree ports or CDB, so
/// both contention matrices stay empty.
pub(crate) fn run_conv<A: Accelerator>(
    acc: &A,
    sink: &SinkHandle,
    layer: &ConvLayer,
    (rows, cols): (usize, usize),
    (steps, runs): (u64, impl Iterator<Item = (Step, u64)>),
    analyze: impl FnOnce(u64) -> (EventCounts, Traffic),
) -> LayerResult {
    let (agg, (events, traffic)) = {
        let _schedule = telemetry::phase(telemetry::Phase::Schedule);
        let agg = acc.aggregate(layer);
        (agg, analyze(agg.cycles()))
    };
    let frame = LayerFrame {
        arch: acc.name(),
        layer: layer.name(),
        rows,
        cols,
        cycles: agg.cycles(),
        macs: agg.macs(),
        steps,
    };
    steps::fold(sink, &frame, runs, |hb| {
        sample_buffers(hb, layer, frame.cycles);
    });
    price_layer(acc, layer, &agg, events, traffic)
}

#[cfg(test)]
mod tests {
    use super::{cdiv, grid};
    use crate::{Mapping2d, Systolic, TilingArray};
    use flexsim_arch::Accelerator;
    use flexsim_obs::attrib::{LossLedger, StallCause};
    use flexsim_obs::cycles::{Recorder, SinkHandle};
    use std::sync::Arc;

    #[test]
    fn baseline_cycle_events_match_analytic_totals() {
        // LeNet-5 (even layers, clamps amortized) and PV (odd sizes,
        // edge tiles everywhere) exercise both the exact and the
        // clamped emission paths.
        for net in [
            flexsim_model::workloads::lenet5(),
            flexsim_model::workloads::pv(),
        ] {
            let mut accs: Vec<Box<dyn Accelerator>> = vec![
                Box::new(Systolic::dc_cnn()),
                Box::new(Mapping2d::shidiannao()),
                Box::new(TilingArray::diannao()),
            ];
            for acc in &mut accs {
                let rec = Arc::new(Recorder::new());
                acc.attach_sink(SinkHandle::new(rec.clone()));
                let summary = acc.run_network(&net);
                let timelines = rec.take();
                assert_eq!(timelines.len(), summary.layers.len());
                for (tl, lr) in timelines.iter().zip(&summary.layers) {
                    let tag = format!("{}/{}/{}", lr.arch, net.name(), lr.layer);
                    assert_eq!(tl.ctx.arch, lr.arch, "{tag}");
                    assert_eq!(tl.total_cycles(), lr.cycles, "{tag}");
                    assert_eq!(tl.macs(), lr.macs, "{tag}");
                    // Trace-derived occupancy equals analytic
                    // utilization.
                    let occ = tl.occupancy().utilization();
                    assert!(
                        (occ - lr.utilization()).abs() < 1e-9,
                        "{tag}: {occ} vs {}",
                        lr.utilization()
                    );
                }
            }
        }
    }

    #[test]
    fn grid_runs_expand_to_the_row_major_tile_walk() {
        for (x, tx, y, ty) in (1..=9).flat_map(|x| {
            (1..=4).flat_map(move |tx| {
                (1..=9).flat_map(move |y| (1..=4).map(move |ty| (x, tx, y, ty)))
            })
        }) {
            let cols = cdiv(y, ty);
            let walk: Vec<_> = (0..cdiv(x, tx) * cols)
                .map(|t| (tx.min(x - t / cols * tx), ty.min(y - t % cols * ty)))
                .collect();
            let (steps, runs) = grid((x, tx), (y, ty));
            let runs: Vec<_> = runs.collect();
            let tag = format!("{x}/{tx} x {y}/{ty}");
            assert_eq!(steps, walk.len() as u64, "{tag}");
            assert!(
                runs.windows(2).all(|w| w[0].0 != w[1].0),
                "{tag}: not maximal"
            );
            let expanded: Vec<_> = runs
                .iter()
                .flat_map(|&(tile, n)| std::iter::repeat_n(tile, n as usize))
                .collect();
            assert_eq!(expanded, walk, "{tag}");
            if ty == 1 {
                // Systolic's (m-group, input map) walk: at most 2 runs.
                assert!(runs.len() <= 2, "{tag}");
            }
        }
    }

    #[test]
    fn baseline_spatial_records_reproduce_the_loss_ledgers() {
        for net in [
            flexsim_model::workloads::lenet5(),
            flexsim_model::workloads::pv(),
        ] {
            let mut accs: Vec<Box<dyn Accelerator>> = vec![
                Box::new(Systolic::dc_cnn()),
                Box::new(Mapping2d::shidiannao()),
                Box::new(TilingArray::diannao()),
            ];
            for acc in &mut accs {
                let rec = Arc::new(Recorder::with_spatial());
                acc.attach_sink(SinkHandle::new(rec.clone()));
                acc.run_network(&net);
                let ledgers: Vec<LossLedger> =
                    rec.take().iter().map(LossLedger::from_timeline).collect();
                let spatials = rec.take_spatial();
                assert_eq!(spatials.len(), ledgers.len());
                for (sp, led) in spatials.iter().zip(&ledgers) {
                    let tag = format!("{}/{}/{}", sp.arch, net.name(), sp.layer);
                    assert_eq!(sp.arch, led.arch, "{tag}");
                    assert_eq!(sp.pe_count() as u32, led.pe_count, "{tag}");
                    assert_eq!(sp.total_cycles, led.total_cycles, "{tag}");
                    assert_eq!(sp.busy_total(), led.busy_pe_cycles, "{tag}");
                    for cause in StallCause::ALL {
                        assert_eq!(sp.lost_total(cause), led.lost(cause), "{tag} {cause:?}");
                    }
                    assert_eq!(sp.banks.len(), 3, "{tag}");
                    for bank in &sp.banks {
                        assert_eq!(bank.sampled_cycles, sp.total_cycles, "{tag}/{}", bank.bank);
                    }
                }
            }
        }
    }
}
