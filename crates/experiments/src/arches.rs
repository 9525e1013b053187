//! Factories for the four evaluated architectures at the paper's
//! configurations (Section 6.1.1) and at the Fig. 19 scales, behind
//! the [`ArchSet`] builder, plus [`run_pair`]: the one way a report
//! command runs a (network, architecture) pair.
//!
//! ```no_run
//! use flexsim_experiments::arches::ArchSet;
//! use flexsim_model::workloads;
//!
//! let net = workloads::alexnet();
//! for mut acc in ArchSet::builder().scale(32).build(&net) {
//!     let _ = acc.run_network(&net);
//! }
//! ```

use crate::experiment::TaskCtx;
use flexcheck::{ArchParams, Diagnostic};
use flexflow::FlexFlow;
use flexsim_arch::{Accelerator, RunSummary};
use flexsim_baselines::{Mapping2d, Systolic, TilingArray};
use flexsim_model::Network;
use flexsim_obs::attrib::{ledgers, LossLedger};
use flexsim_obs::cycles::{Recorder, SinkHandle};
use flexsim_obs::spatial::LayerSpatial;
use std::sync::Arc;

/// The four architecture names in the paper's presentation order.
pub const ARCH_NAMES: [&str; 4] = ["Systolic", "2D-Mapping", "Tiling", "FlexFlow"];

/// Every [`ARCH_NAMES`] index, in order.
pub const ALL_ARCHES: [usize; ARCH_NAMES.len()] = [0, 1, 2, 3];

/// The paper's evaluation scale: every engine is a ~256-PE,
/// 16×16-equivalent configuration (Section 6.1.1).
pub const PAPER_SCALE: usize = 16;

/// The four architectures configured for one workload, in
/// [`ARCH_NAMES`] order. Build one with [`ArchSet::builder`].
pub struct ArchSet {
    accs: Vec<Box<dyn Accelerator>>,
}

impl ArchSet {
    /// Starts a builder with the paper defaults: ~256-PE scale, no
    /// cycle sink.
    pub fn builder() -> ArchSetBuilder {
        ArchSetBuilder {
            scale: PAPER_SCALE,
            sink: SinkHandle::none(),
        }
    }

    /// The configured accelerators, consuming the set.
    pub fn into_vec(self) -> Vec<Box<dyn Accelerator>> {
        self.accs
    }

    /// Number of architectures (always [`ARCH_NAMES`]`.len()`).
    pub fn len(&self) -> usize {
        self.accs.len()
    }

    /// Never true — the set always holds all four architectures.
    pub fn is_empty(&self) -> bool {
        self.accs.is_empty()
    }
}

impl IntoIterator for ArchSet {
    type Item = Box<dyn Accelerator>;
    type IntoIter = std::vec::IntoIter<Box<dyn Accelerator>>;

    fn into_iter(self) -> Self::IntoIter {
        self.accs.into_iter()
    }
}

/// Configures and builds an [`ArchSet`] (see [`ArchSet::builder`]).
/// Callers choose scale and cycle-sink wiring explicitly instead of
/// inheriting a process-global sink. Every build passes the flexcheck
/// pre-simulation gate ([`crate::lint::gate`]; `--no-lint` disarms it).
#[derive(Clone)]
pub struct ArchSetBuilder {
    scale: usize,
    sink: SinkHandle,
}

impl ArchSetBuilder {
    /// Engine scale `d` (a `d×d`-equivalent PE budget). Defaults to
    /// the paper's 16 (~256 PEs).
    pub fn scale(mut self, d: usize) -> ArchSetBuilder {
        self.scale = d;
        self
    }

    /// The observer every built simulator attaches (default: none):
    /// cycle timelines, plus heatmaps when its recorder keeps them (the
    /// `flexsim heatmap` path).
    pub fn sink(mut self, sink: SinkHandle) -> ArchSetBuilder {
        self.sink = sink;
        self
    }

    /// Builds all four architectures for `net`, in [`ARCH_NAMES`]
    /// order.
    pub fn build(self, net: &Network) -> ArchSet {
        crate::lint::gate(net, self.scale);
        let accs = (0..ARCH_NAMES.len())
            .map(|idx| self.make(net, idx))
            .collect();
        ArchSet { accs }
    }

    /// Builds just the architecture at `arch_idx` (an index into
    /// [`ARCH_NAMES`]) — what per-(workload, architecture) pool tasks
    /// use so each task constructs only its own simulator.
    ///
    /// # Panics
    ///
    /// Panics if `arch_idx >= ARCH_NAMES.len()`.
    pub fn build_one(self, net: &Network, arch_idx: usize) -> Box<dyn Accelerator> {
        assert!(arch_idx < ARCH_NAMES.len(), "arch index {arch_idx}");
        crate::lint::gate(net, self.scale);
        self.make(net, arch_idx)
    }

    fn make(&self, net: &Network, idx: usize) -> Box<dyn Accelerator> {
        let d = self.scale;
        let mut acc: Box<dyn Accelerator> = match idx {
            // The systolic array side is `paper_suite`'s widest-kernel
            // rule, so the prover and the linter see the same engine.
            0 => Box::new(Systolic::scaled_to(
                ArchParams::paper_suite(net)[0].array_k,
                d * d,
            )),
            1 => Box::new(Mapping2d::new(d, d)),
            2 => Box::new(TilingArray::new(d, d)),
            _ => Box::new(FlexFlow::new(d)),
        };
        acc.attach_sink(self.sink.clone());
        acc
    }
}

/// Checks that every CONV layer of `net` fits the loss ledgers: on
/// each paper-scale engine, the layer's cycles (as
/// [`Accelerator::run_network`] plans them) times the engine's PE count
/// must fit in `u64`. The error names the first layer that does not.
pub fn check_pe_cycles(net: &Network) -> Result<(), String> {
    let builder = ArchSet::builder();
    for idx in ALL_ARCHES {
        let acc = builder.make(net, idx);
        for tl in acc.predict_network(net) {
            let (cycles, pes) = (tl.total_cycles(), tl.ctx.pe_count);
            if cycles.checked_mul(u64::from(pes)).is_none() {
                return Err(format!(
                    "node `{}`: {cycles} cycles × {pes} PEs on {} overflow u64 PE-cycles \
                     (shrink the layer's maps, kernel, or input size)",
                    tl.ctx.layer,
                    acc.name()
                ));
            }
        }
    }
    Ok(())
}

/// Everything one (network, architecture) run produced.
pub struct PairRun {
    /// Architecture name (an [`ARCH_NAMES`] entry).
    pub arch: &'static str,
    /// Configured PE count.
    pub pe_count: usize,
    /// The simulator's per-layer results.
    pub summary: RunSummary,
    /// One loss ledger per simulated layer, folded from the recorded
    /// cycle timelines.
    pub ledgers: Vec<LossLedger>,
    /// One spatial record per layer (empty unless asked for).
    pub spatials: Vec<LayerSpatial>,
    /// flexcheck FXC09 findings on [`PairRun::ledgers`] (empty when
    /// every ledger balances). The caller decides what a finding means.
    pub diags: Vec<Diagnostic>,
    /// The accelerator, kept for callers that query its closed forms.
    pub acc: Box<dyn Accelerator>,
}

/// Runs `net` on the architecture at `arch_idx` (paper scale) with a
/// private cycle recorder — spatial records too when `spatial` is set
/// — and checks the recorded ledgers against FXC09. The ledgers and
/// spatial records are folded from that recorder whether or not the
/// task is traced; its timelines then go to `tctx`'s recorder, when
/// it has one.
///
/// # Panics
///
/// Panics if `arch_idx >= ARCH_NAMES.len()`, or when the pre-simulation
/// gate refuses the workload.
pub fn run_pair(tctx: &TaskCtx, net: &Network, arch_idx: usize, spatial: bool) -> PairRun {
    let rec = Arc::new(if spatial {
        Recorder::with_spatial()
    } else {
        Recorder::new()
    });
    let mut acc = ArchSet::builder()
        .sink(SinkHandle::new(rec.clone()))
        .build_one(net, arch_idx);
    let summary = acc.run_network(net);
    let timelines = rec.take();
    let ledgers = ledgers(&timelines);
    if let Some(trace) = tctx.sink().recorder() {
        trace.record_all(timelines);
    }
    PairRun {
        arch: ARCH_NAMES[arch_idx],
        pe_count: acc.pe_count(),
        summary,
        diags: flexcheck::check_ledgers(&ledgers),
        ledgers,
        spatials: rec.take_spatial(),
        acc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentCtx;
    use flexsim_model::workloads;

    #[test]
    fn paper_scale_is_about_256_pes() {
        for acc in ArchSet::builder().build(&workloads::lenet5()) {
            let pes = acc.pe_count();
            assert!((240..=260).contains(&pes), "{}: {pes}", acc.name());
        }
    }

    #[test]
    fn alexnet_gets_11x11_systolic_via_the_kernel_rule() {
        // AlexNet's C1 kernels are 11×11 — the widest in Table 1 — so
        // the widest-kernel rule yields 11×11 arrays (2 of them keep
        // the scale near 256). Every other workload stays at the 6×6
        // DC-CNN default.
        let array_k = |net: &Network| ArchParams::paper_suite(net)[0].array_k;
        assert_eq!(array_k(&workloads::alexnet()), 11);
        let sys = ArchSet::builder().build_one(&workloads::alexnet(), 0);
        assert_eq!(sys.pe_count(), 242);
        for net in workloads::all() {
            if net.name() != "AlexNet" {
                assert_eq!(array_k(&net), 6, "{}", net.name());
            }
        }
    }

    #[test]
    fn scaling_covers_fig19_range() {
        for d in [8usize, 16, 32, 64] {
            for acc in ArchSet::builder().scale(d).build(&workloads::alexnet()) {
                assert!(acc.pe_count() > 0);
                // One 11x11 systolic array (121 PEs) is the minimum engine
                // even when the budget is 8x8.
                assert!(acc.pe_count() <= (d * d).max(121));
            }
        }
    }

    #[test]
    fn builder_wires_the_given_sink() {
        // The pair runner attaches its own recorder through the
        // builder's sink, with spatial records only on request, and
        // hands the recorded timelines on to a traced task's recorder.
        let net = workloads::lenet5();
        for idx in 0..ARCH_NAMES.len() {
            let plain = run_pair(&TaskCtx::default(), &net, idx, false);
            assert_eq!(plain.arch, plain.acc.name());
            assert_eq!(plain.ledgers.len(), plain.summary.layers.len());
            assert!(
                plain.diags.is_empty(),
                "{}",
                flexcheck::render(&plain.diags)
            );
            assert!(plain.spatials.is_empty());
            let trace = Arc::new(Recorder::new());
            let traced = ExperimentCtx::serial("pair").traced(trace.clone());
            let spatial = traced.map(
                vec![()],
                |()| "pair".to_owned(),
                move |tctx, ()| {
                    let run = run_pair(tctx, &workloads::lenet5(), idx, true);
                    (run.spatials.len(), run.ledgers)
                },
            );
            let (spatials, ledgers) = &spatial[0];
            assert_eq!(*spatials, ledgers.len());
            assert_eq!(*ledgers, plain.ledgers);
            // The handed-on timelines carry the task's experiment tag.
            let mut handed = flexsim_obs::attrib::ledgers(&trace.take());
            for ledger in &mut handed {
                assert_eq!(ledger.experiment, "pair");
                ledger.experiment.clear();
            }
            assert_eq!(handed, plain.ledgers);
        }
    }
}
