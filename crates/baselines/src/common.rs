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

/// The `run_conv` of every baseline. The layer's cycles and MACs are
/// those of `acc`'s aggregate; `steps` are folded into the attached
/// sink on a `rows × cols` heatmap; `analyze` gives the on-chip events
/// and traffic for the layer's cycle total. The heatmap samples the
/// three Table 5 buffers (the baselines stream operands, so residency
/// is flat). The baselines have no shared adder-tree ports or CDB, so
/// both contention matrices stay empty.
pub(crate) fn run_conv<A: Accelerator>(
    acc: &A,
    sink: &SinkHandle,
    layer: &ConvLayer,
    (rows, cols): (usize, usize),
    steps: impl ExactSizeIterator<Item = Step>,
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
        steps: steps.len() as u64,
    };
    steps::fold(sink, &frame, steps, |hb| {
        sample_buffers(hb, layer, frame.cycles);
    });
    price_layer(acc, layer, &agg, events, traffic)
}

#[cfg(test)]
mod tests {
    use crate::{Mapping2d, Systolic, TilingArray};
    use flexsim_arch::Accelerator;
    use flexsim_obs::attrib::{LossLedger, StallCause};
    use flexsim_obs::cycles::{CycleRecorder, SinkHandle};
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
                let rec = Arc::new(CycleRecorder::new());
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
                let rec = Arc::new(CycleRecorder::with_spatial());
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
