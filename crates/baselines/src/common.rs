//! Shared plumbing for the baseline simulators.

use flexsim_arch::dram::conv_layer_traffic;
use flexsim_arch::energy::EnergyModel;
use flexsim_arch::stats::{mirror_layer, EventCounts, LayerResult, Traffic};
use flexsim_model::ConvLayer;
use flexsim_obs::cycles::SinkHandle;
use flexsim_obs::steps::{self, LayerFrame, Step};

/// Table 5 on-chip buffer capacity per buffer, in 16-bit words
/// (32 KB each).
pub(crate) const BUFFER_WORDS: u64 = 16 * 1024;

/// Raw outcome of a layer simulation before energy pricing.
#[derive(Clone, Debug, Default)]
pub(crate) struct Outcome {
    pub cycles: u64,
    pub macs: u64,
    pub events: EventCounts,
    pub traffic: Traffic,
}

/// Assembles a [`LayerResult`]: charges DRAM traffic, idle PE-cycles, and
/// prices energy.
pub(crate) fn finish(
    arch: &str,
    layer: &ConvLayer,
    pe_count: usize,
    mut outcome: Outcome,
    energy: &EnergyModel,
    area_mm2: f64,
) -> LayerResult {
    let dram = conv_layer_traffic(layer, BUFFER_WORDS, BUFFER_WORDS);
    outcome.events.dram_reads = dram.reads;
    outcome.events.dram_writes = dram.writes;
    let pe_cycles = outcome.cycles.saturating_mul(pe_count as u64);
    outcome.events.idle_pe_cycles = pe_cycles.saturating_sub(outcome.macs);
    let energy_breakdown = energy.energy(&outcome.events, outcome.cycles, area_mm2);
    let result = LayerResult {
        arch: arch.to_owned(),
        layer: layer.name().to_owned(),
        pe_count,
        clock_ghz: 1.0,
        cycles: outcome.cycles,
        macs: outcome.macs,
        events: outcome.events,
        traffic: outcome.traffic,
        energy: energy_breakdown,
    };
    // Single chokepoint for all three baselines: every produced layer
    // is mirrored into the global metrics registry exactly once.
    mirror_layer(&result);
    result
}

/// Ceiling division.
#[inline]
pub(crate) fn cdiv(a: usize, b: usize) -> usize {
    a.div_ceil(b)
}

/// Folds a baseline layer's steps into the attached sink. The heatmap
/// samples the three Table 5 on-chip buffers: each holds the layer's
/// working set clamped at capacity for the full layer (the baselines
/// stream operands, so residency is flat), so every bank covers exactly
/// the layer's cycles, as flexcheck FXC13's dropped-sample check
/// requires. The baselines have no shared adder-tree ports or CDB, so
/// both contention matrices stay empty.
pub(crate) fn observe(
    sink: &SinkHandle,
    frame: &LayerFrame,
    layer: &ConvLayer,
    steps: impl IntoIterator<Item = Step>,
) {
    steps::fold(sink, frame, steps, |hb| {
        for (bank, words) in [
            ("neuron-in", layer.input_neurons()),
            ("kernel", layer.synapses()),
            ("neuron-out", layer.output_neurons()),
        ] {
            hb.bank_sample(bank, BUFFER_WORDS, words.min(BUFFER_WORDS), frame.cycles);
        }
    });
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
