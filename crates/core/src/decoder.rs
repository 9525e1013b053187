//! The on-chip instruction decoder (Fig. 6's fourth component).
//!
//! The decoder ingests the compiler's 64-bit words, validates the
//! stream's protocol, and drives the engine. Protocol rules it
//! enforces (violations are configuration bugs the hardware would
//! reject):
//!
//! * a `Conv` must be preceded by a `Configure` *and* a `LoadKernels`
//!   for the same layer since the last `Conv`;
//! * `Configure` factors must fit the engine (`Tn·Ti·Tj ≤ D`,
//!   `Tm·Tr·Tc ≤ D`);
//! * the stream must terminate with `Halt`, and nothing may follow it.

use crate::isa::{DecodeInstrError, Instr};
use flexsim_dataflow::Unroll;
use std::fmt;

/// A protocol or encoding error found while decoding a stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeProgramError {
    /// A word failed instruction decoding.
    BadWord {
        /// Position in the stream.
        pc: usize,
        /// The underlying encoding error.
        source: DecodeInstrError,
    },
    /// `Configure` factors exceed the engine.
    OversizedFactors {
        /// Position in the stream.
        pc: usize,
        /// The offending factors.
        unroll: Unroll,
    },
    /// A `Conv` arrived without a prior `Configure` for its layer.
    ConvWithoutConfigure {
        /// Position in the stream.
        pc: usize,
        /// The targeted layer index.
        layer: u8,
    },
    /// A `Conv` arrived without a prior `LoadKernels` for its layer.
    ConvWithoutKernels {
        /// Position in the stream.
        pc: usize,
        /// The targeted layer index.
        layer: u8,
    },
    /// The stream did not end with `Halt`.
    MissingHalt,
    /// Instructions followed `Halt`.
    TrailingWords {
        /// Position of the first trailing word.
        pc: usize,
    },
}

impl fmt::Display for DecodeProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeProgramError::BadWord { pc, source } => {
                write!(f, "pc {pc}: {source}")
            }
            DecodeProgramError::OversizedFactors { pc, unroll } => {
                write!(f, "pc {pc}: factors {unroll} exceed the engine")
            }
            DecodeProgramError::ConvWithoutConfigure { pc, layer } => {
                write!(f, "pc {pc}: conv L{layer} without a configure")
            }
            DecodeProgramError::ConvWithoutKernels { pc, layer } => {
                write!(f, "pc {pc}: conv L{layer} without loaded kernels")
            }
            DecodeProgramError::MissingHalt => f.write_str("stream does not end with halt"),
            DecodeProgramError::TrailingWords { pc } => {
                write!(f, "pc {pc}: instructions after halt")
            }
        }
    }
}

impl std::error::Error for DecodeProgramError {}

/// The decoder: validates an encoded stream against the engine size and
/// yields the instruction sequence.
///
/// # Example
///
/// ```
/// use flexflow::decoder::Decoder;
/// use flexflow::Compiler;
/// use flexsim_model::workloads;
///
/// let program = Compiler::new(16).compile(&workloads::lenet5());
/// let decoded = Decoder::new(16).decode_stream(&program.encode())?;
/// assert_eq!(decoded.len(), program.instrs().len());
/// # Ok::<(), flexflow::decoder::DecodeProgramError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decoder {
    d: usize,
}

impl Decoder {
    /// Creates a decoder for a `d×d` engine.
    ///
    /// # Panics
    ///
    /// Panics if `d` is zero.
    pub fn new(d: usize) -> Self {
        assert!(d > 0, "engine side must be non-zero");
        Decoder { d }
    }

    /// Engine side `D`.
    pub fn d(&self) -> usize {
        self.d
    }

    /// Decodes and protocol-checks a whole stream.
    ///
    /// # Errors
    ///
    /// Returns the first [`DecodeProgramError`] encountered.
    pub fn decode_stream(&self, words: &[u64]) -> Result<Vec<Instr>, DecodeProgramError> {
        let mut out = Vec::with_capacity(words.len());
        // Per-layer readiness state since the last Conv.
        let mut configured = [false; 256];
        let mut loaded = [false; 256];
        let mut halted_at: Option<usize> = None;
        for (pc, &word) in words.iter().enumerate() {
            if halted_at.is_some() {
                return Err(DecodeProgramError::TrailingWords { pc });
            }
            let instr =
                Instr::decode(word).map_err(|source| DecodeProgramError::BadWord { pc, source })?;
            match instr {
                Instr::Configure { layer, unroll } => {
                    if unroll.rows_used() > self.d || unroll.cols_used() > self.d {
                        return Err(DecodeProgramError::OversizedFactors { pc, unroll });
                    }
                    configured[layer as usize] = true;
                }
                Instr::LoadKernels { layer } => {
                    loaded[layer as usize] = true;
                }
                Instr::Conv { layer } => {
                    // A Conv consumes its layer's Configure and kernels.
                    if !std::mem::take(&mut configured[layer as usize]) {
                        return Err(DecodeProgramError::ConvWithoutConfigure { pc, layer });
                    }
                    if !std::mem::take(&mut loaded[layer as usize]) {
                        return Err(DecodeProgramError::ConvWithoutKernels { pc, layer });
                    }
                }
                Instr::Pool { .. } | Instr::SwapBuffers => {}
                Instr::Halt => halted_at = Some(pc),
            }
            out.push(instr);
        }
        if halted_at.is_none() {
            return Err(DecodeProgramError::MissingHalt);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::Compiler;
    use flexsim_model::workloads;

    #[test]
    fn compiler_output_always_decodes() {
        for net in workloads::all() {
            let program = Compiler::new(16).compile(&net);
            let decoded = Decoder::new(16)
                .decode_stream(&program.encode())
                .expect("compiler output must be protocol-clean");
            assert_eq!(decoded, program.instrs());
        }
    }

    #[test]
    fn conv_requires_configure() {
        let words = vec![
            Instr::LoadKernels { layer: 0 }.encode(),
            Instr::Conv { layer: 0 }.encode(),
            Instr::Halt.encode(),
        ];
        let err = Decoder::new(16).decode_stream(&words).unwrap_err();
        assert!(matches!(
            err,
            DecodeProgramError::ConvWithoutConfigure { pc: 1, layer: 0 }
        ));
    }

    #[test]
    fn a_repeated_conv_needs_a_fresh_configure_and_kernels() {
        let configure = Instr::Configure {
            layer: 0,
            unroll: Unroll::scalar(),
        };
        let load = Instr::LoadKernels { layer: 0 };
        let conv = Instr::Conv { layer: 0 };
        let decode = |stream: &[Instr]| {
            let words: Vec<u64> = stream.iter().map(Instr::encode).collect();
            Decoder::new(16).decode_stream(&words)
        };
        assert_eq!(
            decode(&[configure, load, conv, conv, Instr::Halt]),
            Err(DecodeProgramError::ConvWithoutConfigure { pc: 3, layer: 0 })
        );
        assert_eq!(
            decode(&[configure, load, conv, configure, conv, Instr::Halt]),
            Err(DecodeProgramError::ConvWithoutKernels { pc: 4, layer: 0 })
        );
        let rerun = [configure, load, conv, configure, load, conv, Instr::Halt];
        assert_eq!(decode(&rerun).as_deref(), Ok(&rerun[..]));
    }

    #[test]
    fn conv_requires_loaded_kernels() {
        let words = vec![
            Instr::Configure {
                layer: 2,
                unroll: Unroll::scalar(),
            }
            .encode(),
            Instr::Conv { layer: 2 }.encode(),
            Instr::Halt.encode(),
        ];
        let err = Decoder::new(16).decode_stream(&words).unwrap_err();
        assert!(matches!(
            err,
            DecodeProgramError::ConvWithoutKernels { pc: 1, layer: 2 }
        ));
    }

    #[test]
    fn oversized_factors_rejected_by_small_engines() {
        // Factors fine for 16x16 but not for 4x4.
        let words = vec![
            Instr::Configure {
                layer: 0,
                unroll: Unroll::new(8, 1, 1, 2, 1, 8),
            }
            .encode(),
            Instr::Halt.encode(),
        ];
        assert!(Decoder::new(16).decode_stream(&words).is_ok());
        let err = Decoder::new(4).decode_stream(&words).unwrap_err();
        assert!(matches!(
            err,
            DecodeProgramError::OversizedFactors { pc: 0, .. }
        ));
    }

    #[test]
    fn halt_must_terminate_and_be_last() {
        let no_halt = vec![Instr::SwapBuffers.encode()];
        assert_eq!(
            Decoder::new(16).decode_stream(&no_halt).unwrap_err(),
            DecodeProgramError::MissingHalt
        );
        let trailing = vec![Instr::Halt.encode(), Instr::SwapBuffers.encode()];
        assert!(matches!(
            Decoder::new(16).decode_stream(&trailing).unwrap_err(),
            DecodeProgramError::TrailingWords { pc: 1 }
        ));
    }

    #[test]
    fn bad_words_are_located() {
        let words = vec![Instr::Halt.encode() ^ (0x7 << 60)];
        let err = Decoder::new(16).decode_stream(&words).unwrap_err();
        assert!(matches!(err, DecodeProgramError::BadWord { pc: 0, .. }));
        assert!(err.to_string().contains("pc 0"));
    }
}
