//! Factories for the four evaluated architectures at the paper's
//! configurations (Section 6.1.1) and at the Fig. 19 scales, behind
//! the [`ArchSet`] builder.
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

use flexcheck::ArchParams;
use flexflow::FlexFlow;
use flexsim_arch::Accelerator;
use flexsim_baselines::{Mapping2d, Systolic, TilingArray};
use flexsim_model::Network;
use flexsim_obs::cycles::SinkHandle;

/// The four architecture names in the paper's presentation order.
pub const ARCH_NAMES: [&str; 4] = ["Systolic", "2D-Mapping", "Tiling", "FlexFlow"];

/// The paper's evaluation scale: every engine is a ~256-PE,
/// 16×16-equivalent configuration (Section 6.1.1).
const PAPER_SCALE: usize = 16;

/// The four architectures configured for one workload, in
/// [`ARCH_NAMES`] order. Build one with [`ArchSet::builder`].
pub struct ArchSet {
    accs: Vec<Box<dyn Accelerator>>,
}

impl ArchSet {
    /// Starts a builder with the paper defaults: ~256-PE scale, no
    /// cycle sink, lint gate armed.
    pub fn builder() -> ArchSetBuilder {
        ArchSetBuilder {
            scale: PAPER_SCALE,
            sink: SinkHandle::none(),
            lint: true,
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
/// Callers choose scale, cycle-sink wiring, and lint gating
/// explicitly instead of inheriting a process-global sink.
#[derive(Clone)]
pub struct ArchSetBuilder {
    scale: usize,
    sink: SinkHandle,
    lint: bool,
}

impl ArchSetBuilder {
    /// Engine scale `d` (a `d×d`-equivalent PE budget). Defaults to
    /// the paper's 16 (~256 PEs).
    pub fn scale(mut self, d: usize) -> ArchSetBuilder {
        self.scale = d;
        self
    }

    /// The observer every built simulator attaches (default: none):
    /// cycle timelines, plus heatmaps when the sink asks for them (the
    /// `flexsim heatmap` path).
    pub fn sink(mut self, sink: SinkHandle) -> ArchSetBuilder {
        self.sink = sink;
        self
    }

    /// Arms or disarms the flexcheck pre-simulation gate for this
    /// build (default: armed; also subject to the process-wide
    /// `--no-lint` switch).
    pub fn lint(mut self, on: bool) -> ArchSetBuilder {
        self.lint = on;
        self
    }

    /// Builds all four architectures for `net`, in [`ARCH_NAMES`]
    /// order.
    pub fn build(self, net: &Network) -> ArchSet {
        if self.lint {
            crate::lint::gate(net, self.scale);
        }
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
        if self.lint {
            crate::lint::gate(net, self.scale);
        }
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
        if self.sink.is_attached() {
            acc.attach_sink(self.sink.clone());
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        use flexsim_obs::cycles::{CycleRecorder, SinkHandle};
        use std::sync::Arc;
        let net = workloads::lenet5();
        let rec = Arc::new(CycleRecorder::new());
        let set = ArchSet::builder()
            .sink(SinkHandle::new(rec.clone()))
            .build(&net);
        for mut acc in set {
            acc.run_network(&net);
        }
        assert!(!rec.take().is_empty());
    }
}
