//! Diagnostics: rule identifiers, severities, source locations, and
//! findings.
//!
//! Every rule violation is reported as a [`Diagnostic`] carrying a
//! stable [`RuleId`] (so dynamic simulator asserts can name the static
//! rule that should have caught the bug first), a [`Severity`], a
//! [`Location`] into the `Program`/layer, a human-readable message, and
//! a fix hint.

use std::fmt;

/// The static rules, named after the hardware invariant each proves.
///
/// Codes are stable (`FXC01`–`FXC13`); dynamic `debug_assert!`s in the
/// simulators reference them so a runtime trip names the static rule
/// that missed it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RuleId {
    /// `FXC01` — per-PE resident operand slice fits the local store.
    LsCapacity,
    /// `FXC02` — no two producers drive the same common-data bus in one
    /// logical step (the Relax-Alignment column-injectivity property).
    CdbRace,
    /// `FXC03` — no two output neurons of one row-batch contend for the
    /// same PE row's adder-tree port.
    AdderTreePort,
    /// `FXC04` — every residency slot table of the PE array's
    /// `StorePlan` fits its 32-bit slot index; a warning, since a layer
    /// past it still runs in the analytic model.
    FsmBounds,
    /// `FXC05` — ISA invariants: decoder round-trip, protocol order,
    /// no dead or unreachable instructions.
    IsaProtocol,
    /// `FXC06` — `Unroll::satisfies` holds and the `Mapping` row/col
    /// occupancy is consistent with the engine size.
    UnrollBounds,
    /// `FXC07` — IADP/tiling/2D-mapping bank usage fits the physical
    /// buffer banks (conflict-free streaming).
    BankConflict,
    /// `FXC08` — statically derived MAC/cycle accounting equals the
    /// `analytic::Schedule`'s (utilization sanity).
    UtilSanity,
    /// `FXC09` — a layer's loss ledger balances:
    /// `busy + Σ attributed_lost == total_cycles × num_pes` with zero
    /// unattributed PE-cycles.
    AttributionExactness,
    /// `FXC10` — the symbolic evaluator's closed-form prediction equals
    /// the engine-recorded cycles and per-cause loss ledger exactly.
    CycleExactness,
    /// `FXC11` — every instruction's effect is visited by the abstract
    /// interpreter; symbolic state is never discarded unread.
    IsaCoverage,
    /// `FXC12` — symbolic interval disjointness: bus, adder-tree-port,
    /// and bank access sets are pairwise disjoint (the `O(1)` closed
    /// form subsuming the `FXC02`/`FXC03`/`FXC07` enumerations).
    InterferenceFreedom,
    /// `FXC13` — a layer's spatial heatmap reproduces its loss ledger
    /// exactly: per-cause cell sums equal `ledger.lost(cause)`, the
    /// busy plane sums to `busy_pe_cycles`, and every bank watermark
    /// covers the full layer duration.
    SpatialExactness,
}

impl RuleId {
    /// All rules, in code order.
    pub const ALL: [RuleId; 13] = [
        RuleId::LsCapacity,
        RuleId::CdbRace,
        RuleId::AdderTreePort,
        RuleId::FsmBounds,
        RuleId::IsaProtocol,
        RuleId::UnrollBounds,
        RuleId::BankConflict,
        RuleId::UtilSanity,
        RuleId::AttributionExactness,
        RuleId::CycleExactness,
        RuleId::IsaCoverage,
        RuleId::InterferenceFreedom,
        RuleId::SpatialExactness,
    ];

    /// Stable short code (`FXC01`…).
    pub fn code(self) -> &'static str {
        match self {
            RuleId::LsCapacity => "FXC01",
            RuleId::CdbRace => "FXC02",
            RuleId::AdderTreePort => "FXC03",
            RuleId::FsmBounds => "FXC04",
            RuleId::IsaProtocol => "FXC05",
            RuleId::UnrollBounds => "FXC06",
            RuleId::BankConflict => "FXC07",
            RuleId::UtilSanity => "FXC08",
            RuleId::AttributionExactness => "FXC09",
            RuleId::CycleExactness => "FXC10",
            RuleId::IsaCoverage => "FXC11",
            RuleId::InterferenceFreedom => "FXC12",
            RuleId::SpatialExactness => "FXC13",
        }
    }

    /// Kebab-case rule name.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::LsCapacity => "ls-capacity",
            RuleId::CdbRace => "cdb-race",
            RuleId::AdderTreePort => "adder-tree-port",
            RuleId::FsmBounds => "fsm-bounds",
            RuleId::IsaProtocol => "isa-protocol",
            RuleId::UnrollBounds => "unroll-bounds",
            RuleId::BankConflict => "bank-conflict",
            RuleId::UtilSanity => "util-sanity",
            RuleId::AttributionExactness => "attribution-exactness",
            RuleId::CycleExactness => "cycle-exactness",
            RuleId::IsaCoverage => "isa-coverage",
            RuleId::InterferenceFreedom => "interference-freedom",
            RuleId::SpatialExactness => "spatial-exactness",
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.code(), self.name())
    }
}

/// How serious a finding is. Ordered so `max()` gives the report level.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational note, never gates anything.
    Info,
    /// Suspicious but simulable (e.g. a functional-model limitation).
    Warning,
    /// A proven resource violation; simulation would corrupt state or
    /// trip a dynamic assert. Gates `flexsim lint` and the experiments.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Where in the program/network a finding points.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Location {
    /// Layer name (e.g. `"C5"`), when the finding is per-layer.
    pub layer: Option<String>,
    /// Instruction index in the program stream, when per-instruction.
    pub pc: Option<usize>,
}

impl Location {
    /// A layer-scoped location.
    pub fn layer(name: impl Into<String>) -> Self {
        Location {
            layer: Some(name.into()),
            pc: None,
        }
    }

    /// An instruction-scoped location.
    pub fn pc(pc: usize) -> Self {
        Location {
            layer: None,
            pc: Some(pc),
        }
    }

    /// A program-wide location.
    pub fn program() -> Self {
        Location::default()
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.layer, self.pc) {
            (Some(l), Some(pc)) => write!(f, "{l} (pc {pc})"),
            (Some(l), None) => f.write_str(l),
            (None, Some(pc)) => write!(f, "pc {pc}"),
            (None, None) => f.write_str("program"),
        }
    }
}

/// One finding: a rule, a severity, a location, and what to do about it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: RuleId,
    /// How serious the finding is.
    pub severity: Severity,
    /// Where it points.
    pub location: Location,
    /// What is wrong, with the offending numbers.
    pub message: String,
    /// How to fix it.
    pub hint: String,
}

impl Diagnostic {
    /// An `Error`-severity finding.
    pub fn error(
        rule: RuleId,
        location: Location,
        message: impl Into<String>,
        hint: impl Into<String>,
    ) -> Self {
        Diagnostic {
            rule,
            severity: Severity::Error,
            location,
            message: message.into(),
            hint: hint.into(),
        }
    }

    /// A `Warning`-severity finding.
    pub fn warning(
        rule: RuleId,
        location: Location,
        message: impl Into<String>,
        hint: impl Into<String>,
    ) -> Self {
        Diagnostic {
            rule,
            severity: Severity::Warning,
            location,
            message: message.into(),
            hint: hint.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.rule, self.location, self.message
        )?;
        if !self.hint.is_empty() {
            write!(f, " (hint: {})", self.hint)?;
        }
        Ok(())
    }
}

/// True if any diagnostic is `Error`-severity (the lint gate condition).
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// Renders diagnostics one per line (empty string when clean).
pub fn render(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_unique() {
        let codes: Vec<_> = RuleId::ALL.iter().map(|r| r.code()).collect();
        let mut dedup = codes.clone();
        dedup.dedup();
        assert_eq!(codes.len(), 13);
        assert_eq!(codes, dedup);
        assert_eq!(RuleId::LsCapacity.code(), "FXC01");
        assert_eq!(RuleId::UtilSanity.code(), "FXC08");
        assert_eq!(RuleId::AttributionExactness.code(), "FXC09");
        assert_eq!(RuleId::CycleExactness.code(), "FXC10");
        assert_eq!(RuleId::IsaCoverage.code(), "FXC11");
        assert_eq!(RuleId::InterferenceFreedom.code(), "FXC12");
        assert_eq!(RuleId::SpatialExactness.code(), "FXC13");
    }

    #[test]
    fn display_reads_like_a_compiler_diagnostic() {
        let d = Diagnostic::error(
            RuleId::LsCapacity,
            Location::layer("C5"),
            "slice of 140 words exceeds the 128-word store",
            "increase Tn or accept more segments",
        );
        let s = d.to_string();
        assert!(s.starts_with("error[FXC01 ls-capacity] C5:"), "{s}");
        assert!(s.contains("hint:"), "{s}");
    }

    #[test]
    fn severity_orders_for_gating() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
        let diags = [Diagnostic::warning(
            RuleId::CdbRace,
            Location::program(),
            "w",
            "",
        )];
        assert!(!has_errors(&diags));
    }
}
