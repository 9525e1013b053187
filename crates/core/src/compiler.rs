//! The FlexFlow compiler (Section 5).
//!
//! The compiler's workload analyzer ([`flexsim_dataflow::search`])
//! chooses the unrolling factors for every CONV layer under the engine
//! and IADP coupling constraints, then code generation lowers the
//! network to the [`crate::isa`] instruction stream the on-chip decoder
//! executes.

use crate::isa::Instr;
use flexsim_dataflow::search::{best_unroll, plan_network, LayerChoice};
use flexsim_model::{Layer, Network};
use std::fmt;

/// A compiled network: the instruction stream. Its `Configure`
/// instructions are the factor plan: [`crate::FlexFlow::execute`] runs
/// each CONV/FC layer on the unroll of its layer's live `Configure`.
#[derive(Clone, Debug, PartialEq)]
pub struct Program {
    name: String,
    d: usize,
    instrs: Vec<Instr>,
}

impl Program {
    /// Assembles a program from parts, bypassing the compiler. The
    /// normal route is [`Compiler::compile`] or [`Compiler::lower`];
    /// this exists so verifier harnesses (`flexcheck`'s mutation
    /// tests) can construct deliberately ill-formed programs the
    /// compiler would never emit.
    pub fn from_parts(name: impl Into<String>, d: usize, instrs: Vec<Instr>) -> Self {
        Program {
            name: name.into(),
            d,
            instrs,
        }
    }

    /// Workload name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Engine side the program was compiled for.
    pub fn d(&self) -> usize {
        self.d
    }

    /// The instruction stream.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Encodes the stream to 64-bit words (what the decoder ingests).
    pub fn encode(&self) -> Vec<u64> {
        self.instrs.iter().map(Instr::encode).collect()
    }

    /// The "assemble language code" listing.
    pub fn disassemble(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "; {} on {}x{} FlexFlow", self.name, self.d, self.d)?;
        for (pc, i) in self.instrs.iter().enumerate() {
            writeln!(f, "{pc:4}: {i}")?;
        }
        Ok(())
    }
}

/// The compiler.
///
/// # Example
///
/// ```
/// use flexflow::Compiler;
/// use flexsim_model::workloads;
///
/// let program = Compiler::new(16).compile(&workloads::lenet5());
/// assert_eq!(program.disassemble().matches("cfg ").count(), 2);
/// assert!(program.disassemble().contains("conv"));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Compiler {
    d: usize,
}

impl Compiler {
    /// Creates a compiler targeting a `d×d` engine.
    ///
    /// # Panics
    ///
    /// Panics if `d` is zero.
    pub fn new(d: usize) -> Self {
        assert!(d > 0, "engine side must be non-zero");
        Compiler { d }
    }

    /// Target engine side.
    pub fn d(&self) -> usize {
        self.d
    }

    /// Compiles a network: plans factors, then lowers to instructions.
    ///
    /// # Panics
    ///
    /// As [`Compiler::lower`].
    pub fn compile(&self, net: &Network) -> Program {
        self.lower(net, plan_network(net, self.d))
    }

    /// Lowers a network to instructions with explicit per-CONV-layer
    /// choices, one per CONV layer in network order: the planner's in
    /// [`Compiler::compile`], the mapping tuner's winners otherwise.
    /// Each choice's unroll becomes its layer's `Configure`. FC layers
    /// keep their per-layer optimum as uncoupled 1×1 views.
    ///
    /// # Panics
    ///
    /// Panics if `conv_choices` has fewer entries than the network has
    /// CONV layers, or if the network has more than 256 layers (the
    /// ISA's 8-bit layer index).
    pub fn lower(&self, net: &Network, conv_choices: Vec<LayerChoice>) -> Program {
        assert!(
            net.layers().len() <= 256,
            "ISA supports at most 256 layers per program"
        );
        let mut conv_unrolls = conv_choices.into_iter().map(|c| c.unroll);
        let mut instrs = Vec::new();
        for step in net.steps() {
            let layer = step.index as u8;
            let unroll = match step.layer {
                Layer::Conv(_) => conv_unrolls.next().expect("one choice per CONV layer"),
                // Pooling subsamples in place on the output buffer,
                // before the swap of the preceding CONV takes effect;
                // the decoder reorders accordingly, so the stream is
                // simply Pool.
                Layer::Pool(_) => {
                    instrs.push(Instr::Pool { layer });
                    continue;
                }
                // FC layers run on the same engine as 1x1 convolutions
                // over a flattened input.
                Layer::Fc(fc) => best_unroll(&fc.as_conv(), self.d, None).unroll,
            };
            instrs.extend([
                Instr::Configure { layer, unroll },
                Instr::LoadKernels { layer },
                Instr::Conv { layer },
                Instr::SwapBuffers,
            ]);
        }
        instrs.push(Instr::Halt);
        Program {
            name: net.name().to_owned(),
            d: self.d,
            instrs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsim_model::workloads;

    #[test]
    fn lenet_program_shape() {
        let p = Compiler::new(16).compile(&workloads::lenet5());
        // 2 conv layers (4 instrs each) + 1 pool + halt.
        assert_eq!(p.instrs().len(), 2 * 4 + 1 + 1);
        assert_eq!(p.instrs().last(), Some(&Instr::Halt));
        assert_eq!(p.d(), 16);
    }

    #[test]
    fn program_encodes_and_decodes() {
        let p = Compiler::new(16).compile(&workloads::pv());
        let words = p.encode();
        for (w, i) in words.iter().zip(p.instrs()) {
            assert_eq!(Instr::decode(*w).unwrap(), *i);
        }
    }

    #[test]
    fn disassembly_lists_every_instr() {
        let p = Compiler::new(16).compile(&workloads::fr());
        let asm = p.disassemble();
        assert_eq!(asm.lines().count(), p.instrs().len() + 1); // + header
        assert!(asm.contains("cfg"));
        assert!(asm.contains("halt"));
    }

    #[test]
    #[should_panic(expected = "at most 256 layers")]
    fn lowering_rejects_more_layers_than_the_isa_indexes() {
        let net = (0..257)
            .fold(Network::builder("deep"), |b, _| {
                b.conv(flexsim_model::ConvLayer::new("C", 1, 1, 4, 1))
            })
            .build();
        let _ = Compiler::new(16).lower(&net, Vec::new());
    }

    #[test]
    fn choices_follow_network_conv_order() {
        let net = workloads::pv();
        let p = Compiler::new(16).compile(&net);
        let names: Vec<_> = p
            .instrs()
            .iter()
            .filter_map(|i| match *i {
                Instr::Configure { layer, .. } => Some(net.layers()[layer as usize].name()),
                _ => None,
            })
            .collect();
        assert_eq!(names, vec!["C1", "C3", "C5", "C6", "C7"]);
    }
}
