//! The common interface every simulated architecture implements.

use crate::area::AreaBreakdown;
use crate::buffer::BUFFER_WORDS;
use crate::dram::conv_layer_traffic;
use crate::energy::EnergyModel;
use crate::stats::{EventCounts, LayerResult, RunSummary, Traffic};
use flexsim_model::{ConvLayer, Network};
use flexsim_obs::cycles::{Aggregate, LayerCtx, LayerTimeline, SinkHandle};
use flexsim_obs::{span, telemetry};

/// A simulated CNN accelerator.
///
/// Implementations exist for the paper's three baselines
/// (`flexsim-baselines`) and for FlexFlow itself (`flexflow`). The
/// experiment harness drives everything through this trait.
///
/// `Send` is a supertrait: simulators are plain data plus an optional
/// [`SinkHandle`] (itself `Send + Sync`), and the parallel experiment
/// scheduler (`flexsim-pool`) moves boxed accelerators into worker
/// threads. An implementation holding `Rc`/`RefCell` state would be
/// rejected here at compile time.
///
/// # Example
///
/// ```no_run
/// use flexsim_arch::Accelerator;
/// use flexsim_model::workloads;
///
/// fn report(acc: &mut dyn Accelerator) {
///     let summary = acc.run_network(&workloads::lenet5());
///     println!("{summary}");
/// }
/// ```
pub trait Accelerator: Send {
    /// Human-readable architecture name (e.g. `"Systolic"`).
    fn name(&self) -> &str;

    /// Number of processing elements in the computing engine.
    fn pe_count(&self) -> usize;

    /// Simulates one CONV layer, returning timing, traffic, and energy.
    fn run_conv(&mut self, layer: &ConvLayer) -> LayerResult;

    /// Estimated chip area.
    fn area(&self) -> AreaBreakdown;

    /// Attaches the observer; subsequent `run_conv` calls fold each
    /// layer's step schedule into its cycle timeline and, when the
    /// recorder keeps them, its per-PE heatmap/bank/contention record
    /// (flexcheck FXC13 gates those against the loss ledgers), and hand
    /// both to the recorder once per layer. The default implementation
    /// ignores the sink, so architectures without instrumentation
    /// remain valid.
    fn attach_sink(&mut self, _sink: SinkHandle) {}

    /// The closed-form per-cause aggregate of the step schedule
    /// `run_conv` folds for `layer`, computed without stepping.
    fn aggregate(&self, layer: &ConvLayer) -> Aggregate;

    /// [`Accelerator::aggregate`] as the timeline `run_conv` would
    /// record for `layer`. Its loss ledger equals the recorded one
    /// (flexcheck FXC10).
    fn predict_layer(&self, layer: &ConvLayer) -> LayerTimeline {
        let ctx = LayerCtx::for_engine(self.name(), layer.name(), self.pe_count(), 1);
        self.aggregate(layer).timeline(ctx)
    }

    /// [`Accelerator::predict_layer`] for every CONV layer of a
    /// workload, planned as [`Accelerator::run_network`] plans it.
    fn predict_network(&self, net: &Network) -> Vec<LayerTimeline> {
        net.conv_layers().map(|l| self.predict_layer(l)).collect()
    }

    /// Simulates every CONV layer of a workload in order.
    fn run_network(&mut self, net: &Network) -> RunSummary {
        run_layers(self, net, |acc, _, layer| acc.run_conv(layer))
    }
}

/// The frame of every [`Accelerator::run_network`]: simulates the CONV
/// layers of `net` in order with `run(acc, index, layer)` inside the
/// workload span and the simulate phase, with one layer span per layer
/// (the telemetry layer-sim histogram is a fold over those spans).
pub fn run_layers<A: Accelerator + ?Sized>(
    acc: &mut A,
    net: &Network,
    mut run: impl FnMut(&mut A, usize, &ConvLayer) -> LayerResult,
) -> RunSummary {
    let arch = acc.name().to_owned();
    let _workload = span("workload", format!("{arch}/{}", net.name()));
    let _simulate = telemetry::phase(telemetry::Phase::Simulate);
    let layers = net
        .conv_layers()
        .enumerate()
        .map(|(i, layer)| {
            let _layer = span("layer", format!("{arch}/{}", layer.name()));
            run(acc, i, layer)
        })
        .collect();
    RunSummary {
        arch,
        workload: net.name().to_owned(),
        layers,
    }
}

/// The pricing tail of every [`Accelerator::run_conv`]: `layer`'s
/// cycles and useful MACs are those of its schedule's aggregate `agg`;
/// `events` and `traffic` are what the architecture's dataflow moves on
/// chip. Charges DRAM traffic at the Table 5 buffer size and the idle
/// PE-cycles, and prices energy with the 65 nm event model. It writes
/// no process-global state: the returned result is the only record.
pub fn price_layer<A: Accelerator + ?Sized>(
    acc: &A,
    layer: &ConvLayer,
    agg: &Aggregate,
    mut events: EventCounts,
    traffic: Traffic,
) -> LayerResult {
    let (cycles, macs) = (agg.cycles(), agg.macs());
    let dram = conv_layer_traffic(layer, BUFFER_WORDS, BUFFER_WORDS);
    events.dram_reads = dram.reads;
    events.dram_writes = dram.writes;
    let pe_cycles = cycles.saturating_mul(acc.pe_count() as u64);
    events.idle_pe_cycles = pe_cycles.saturating_sub(macs);
    let energy = EnergyModel::tsmc65().energy(&events, cycles, acc.area().total_mm2());
    LayerResult {
        arch: acc.name().to_owned(),
        layer: layer.name().to_owned(),
        pe_count: acc.pe_count(),
        cycles,
        macs,
        events,
        traffic,
        energy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy::EnergyBreakdown;
    use crate::stats::{EventCounts, Traffic};
    use flexsim_model::workloads;
    use flexsim_obs::attrib::StallCause;
    use flexsim_obs::cycles::CycleEventKind;

    /// A trivial ideal accelerator: one MAC per PE per cycle, perfect
    /// utilization — used to validate the trait's default method.
    struct Ideal {
        pes: usize,
    }

    impl Accelerator for Ideal {
        fn name(&self) -> &str {
            "Ideal"
        }
        fn pe_count(&self) -> usize {
            self.pes
        }
        fn run_conv(&mut self, layer: &ConvLayer) -> LayerResult {
            let macs = layer.macs();
            LayerResult {
                arch: self.name().into(),
                layer: layer.name().into(),
                pe_count: self.pes,
                cycles: macs.div_ceil(self.pes as u64),
                macs,
                events: EventCounts {
                    macs,
                    ..Default::default()
                },
                traffic: Traffic::default(),
                energy: EnergyBreakdown::default(),
            }
        }
        fn aggregate(&self, layer: &ConvLayer) -> Aggregate {
            let macs = layer.macs();
            let mut agg = Aggregate::default();
            let pass = CycleEventKind::Pass(StallCause::MappingResidueIdle);
            agg.add(pass, macs.div_ceil(self.pes as u64), macs);
            agg
        }
        fn area(&self) -> AreaBreakdown {
            AreaBreakdown::default()
        }
    }

    #[test]
    fn default_run_network_covers_all_conv_layers() {
        let mut acc = Ideal { pes: 256 };
        let summary = acc.run_network(&workloads::lenet5());
        assert_eq!(summary.layers.len(), 2);
        assert_eq!(summary.macs(), workloads::lenet5().conv_macs());
        // An ideal engine approaches 100% utilization on large layers.
        assert!(summary.utilization() > 0.95);
        // The default prediction covers the same layers and cycles.
        let predicted = acc.predict_network(&workloads::lenet5());
        assert_eq!(predicted.len(), 2);
        let cycles: u64 = predicted.iter().map(LayerTimeline::total_cycles).sum();
        assert_eq!(cycles, summary.cycles());
    }

    #[test]
    fn trait_is_object_safe() {
        let mut acc = Ideal { pes: 4 };
        let dyn_acc: &mut dyn Accelerator = &mut acc;
        assert_eq!(dyn_acc.name(), "Ideal");
    }

    #[test]
    fn boxed_accelerators_are_send() {
        fn assert_send<T: Send + ?Sized>() {}
        assert_send::<Box<dyn Accelerator>>();
    }
}
