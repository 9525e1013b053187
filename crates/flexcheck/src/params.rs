//! Target-hardware parameters the rules check a schedule against.
//!
//! A compiled `Program` bakes in the compiler's assumptions (paper
//! Table 5: 128-word local stores, `D`-banked buffers). [`ArchParams`]
//! describes the hardware the program is about to be *simulated on*;
//! the rules prove the program's resource claims against it. Shrinking
//! a field below the compiled assumption is how the mutation harness
//! provokes each capacity rule.

use flexflow::local_store::STORE_WORDS;
use flexsim_model::{ConvLayer, Network};

/// Which of the four evaluated architectures a parameter set describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ArchKind {
    /// The FlexFlow `D×D` engine (full 8-rule check).
    FlexFlow,
    /// DC-CNN-style systolic arrays (geometry + bank rules).
    Systolic,
    /// ShiDianNao-style 2D neuron mapping (geometry + bank rules).
    Mapping2d,
    /// DianNao-style `⟨Tm,Tn⟩` tiling array (geometry + bank rules).
    Tiling,
}

impl ArchKind {
    /// Paper-order presentation name.
    pub fn name(self) -> &'static str {
        match self {
            ArchKind::FlexFlow => "FlexFlow",
            ArchKind::Systolic => "Systolic",
            ArchKind::Mapping2d => "2D-Mapping",
            ArchKind::Tiling => "Tiling",
        }
    }
}

/// The hardware budget a schedule must fit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArchParams {
    /// Architecture family.
    pub kind: ArchKind,
    /// Engine side: `D` for FlexFlow, `⟨Tr,Tc⟩ = ⟨d,d⟩` for 2D-Mapping,
    /// `⟨Tm,Tn⟩ = ⟨d,d⟩` for Tiling.
    pub d: usize,
    /// Per-PE local-store capacity in 16-bit words (FlexFlow only).
    pub store_words: usize,
    /// Physical banks per on-chip buffer (conflict-free words/cycle).
    pub buffer_banks: usize,
    /// Systolic array side `K` (Systolic only; 0 elsewhere).
    pub array_k: usize,
}

impl ArchParams {
    /// FlexFlow at engine side `d` with the paper's Table 5 stores and
    /// `d`-banked buffers.
    pub fn flexflow(d: usize) -> Self {
        ArchParams {
            kind: ArchKind::FlexFlow,
            d,
            store_words: STORE_WORDS,
            buffer_banks: d,
            array_k: 0,
        }
    }

    /// The paper's 16×16 FlexFlow configuration.
    pub fn flexflow_paper() -> Self {
        ArchParams::flexflow(16)
    }

    /// A systolic engine of `array_k × array_k` arrays.
    pub fn systolic(array_k: usize) -> Self {
        ArchParams {
            kind: ArchKind::Systolic,
            d: array_k,
            store_words: 0,
            buffer_banks: array_k,
            array_k,
        }
    }

    /// A `d×d` 2D-Mapping (ShiDianNao-style) engine.
    pub fn mapping2d(d: usize) -> Self {
        ArchParams {
            kind: ArchKind::Mapping2d,
            d,
            store_words: 0,
            buffer_banks: d,
            array_k: 0,
        }
    }

    /// A `⟨Tm,Tn⟩ = ⟨d,d⟩` tiling (DianNao-style) engine.
    pub fn tiling(d: usize) -> Self {
        ArchParams {
            kind: ArchKind::Tiling,
            d,
            store_words: 0,
            buffer_banks: d,
            array_k: 0,
        }
    }

    /// The paper's four Section 6.1.1 configurations for a workload:
    /// Systolic, 16×16 2D-Mapping, ⟨16,16⟩ Tiling, 16×16 FlexFlow.
    ///
    /// The systolic array must be at least as wide as the widest
    /// convolution kernel it executes, so its side is
    /// `max(6, widest conv kernel)`: the DC-CNN 6×6 default, and the
    /// paper's 11×11 arrays for AlexNet's 11×11 C1 kernels, without
    /// naming any workload.
    pub fn paper_suite(net: &Network) -> [ArchParams; 4] {
        let array_k = net
            .conv_layers()
            .map(ConvLayer::k)
            .max()
            .unwrap_or(0)
            .max(6);
        [
            ArchParams::systolic(array_k),
            ArchParams::mapping2d(16),
            ArchParams::tiling(16),
            ArchParams::flexflow_paper(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_flexflow_matches_table5() {
        let p = ArchParams::flexflow_paper();
        assert_eq!(p.d, 16);
        assert_eq!(p.store_words, 128); // 256 B of 16-bit words
        assert_eq!(p.buffer_banks, 16);
    }

    #[test]
    fn alexnet_gets_11x11_systolic() {
        use flexsim_model::workloads;
        let suite = ArchParams::paper_suite(&workloads::alexnet());
        assert_eq!(suite[0].array_k, 11);
        let suite = ArchParams::paper_suite(&workloads::lenet5());
        assert_eq!(suite[0].array_k, 6);
        assert_eq!(suite[3].kind, ArchKind::FlexFlow);
    }
}
