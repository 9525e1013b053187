//! Shared plumbing for the baseline simulators: their `run_conv` tail.
//! Their step schedules walk their tile grids with
//! [`flexsim_dataflow::loopnest::grid`], as FlexFlow's does.

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
pub(crate) mod tests {
    use crate::{Mapping2d, Systolic, TilingArray};
    use flexsim_arch::Accelerator;
    use flexsim_model::tensor::KernelSet;
    use flexsim_model::{ConvLayer, Fx16, Tensor3};
    use flexsim_obs::attrib::{LossLedger, StallCause};
    use flexsim_obs::cycles::{Recorder, SinkHandle};
    use flexsim_testkit::prop::fnv1a;
    use flexsim_testkit::SplitMix64;
    use std::sync::Arc;

    /// Seeded operands for `layer` whose magnitudes are all at least 3/4
    /// of full scale, signs mixed: three same-sign products saturate an
    /// `Acc32`, so an output depends on the order its MACs ran in.
    pub(crate) fn full_scale_layer_data(layer: &ConvLayer, seed: u64) -> (Tensor3, KernelSet) {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut word = || {
            let magnitude = rng.gen_range(24_576i16..=32_767);
            Fx16::from_raw(if rng.gen_bool() {
                magnitude
            } else {
                -magnitude
            })
        };
        let s_in = layer.input_size();
        let input = Tensor3::from_fn(layer.n(), s_in, s_in, |_, _, _| word());
        let kernels = KernelSet::from_fn(layer.m(), layer.n(), layer.k(), |_, _, _, _| word());
        (input, kernels)
    }

    /// FNV-1a of `t`'s raw words, little-endian, in `(map, row, col)`
    /// order.
    pub(crate) fn digest(t: &Tensor3) -> u64 {
        let bytes: Vec<u8> = t
            .as_slice()
            .iter()
            .flat_map(|v| v.raw().to_le_bytes())
            .collect();
        fnv1a(&bytes)
    }

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
