//! # flexcheck — static schedule/mapping verifier for the simulators
//!
//! A compiled FlexFlow [`Program`](flexflow::Program) (and each
//! baseline's tiling plan) makes resource claims: operand slices fit
//! the 256 B local stores, no two producers drive one common data bus
//! in a cycle, the PE array's residency slot tables stay indexable, the
//! instruction stream obeys the decoder protocol. The cycle-stepped simulators
//! *check* most of those claims with runtime asserts — after minutes of
//! simulation, at one failing cycle. `flexcheck` *proves* them up
//! front, in microseconds, without stepping a single cycle:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `FXC01 ls-capacity` | per-PE resident slice ≤ local-store words |
//! | `FXC02 cdb-race` | per-step vertical-bus injectivity (no write-write race) |
//! | `FXC03 adder-tree-port` | per-batch PE-row/adder-port injectivity |
//! | `FXC04 fsm-bounds` | compiled layers' PE-array slot tables fit its 32-bit slot index (warning: analytic only past it) |
//! | `FXC05 isa-protocol` | encode/decode round-trip, the decoder's stream protocol (the decode `FlexFlow::execute` runs), no dead code |
//! | `FXC06 unroll-bounds` | Constraint (1): factors fit the layer and the engine |
//! | `FXC07 bank-conflict` | IADP/tiling/2D-mapping bank usage ≤ physical banks |
//! | `FXC08 util-sanity` | schedule loop counts/MACs/cycles equal their closed forms |
//! | `FXC09 attribution-exactness` | loss ledger balances: busy + Σ lost = cycles × PEs |
//! | `FXC10 cycle-exactness` | symbolic prediction == engine-recorded cycles and ledger |
//! | `FXC11 isa-coverage` | every instruction observed; no symbolic state dies unread |
//! | `FXC12 interference-freedom` | bus/port/bank access intervals pairwise disjoint |
//! | `FXC13 spatial-exactness` | heatmap cell sums == ledger per cause; banks cover the layer |
//!
//! Each [`LayerPlan`] derives from the `Configure` its `Conv` runs, so
//! on a compiled program `FXC02`, `FXC03` and `FXC12` hold by
//! construction, as `FXC13` does; they stay checks.
//!
//! The techniques are static by construction: rules 2–3 abstract-
//! interpret the residue algebra of the Section 4.3
//! [`Mapping`](flexflow::mapping::Mapping) (injectivity over residue
//! classes), rule 4 sizes the PE array's own
//! [`StorePlan`](flexflow::array::StorePlan), and rules 1 and 8
//! re-derive the [`analytic`](flexflow::analytic) arithmetic from the
//! layer shape.
//!
//! Entry points:
//!
//! * [`check`] — lint a compiled [`Program`](flexflow::Program) against
//!   an [`ArchParams`];
//! * [`check_network`] — lint a workload on any of the four evaluated
//!   architectures (compiles first when the target is FlexFlow);
//! * `flexsim lint` — the CLI front-end over every Table 1 workload ×
//!   all four architectures (exits non-zero on any `Error`).
//!
//! The experiments crate calls [`check_network`] before *every*
//! simulation; a failing program refuses to simulate unless the user
//! passes `--no-lint`.
//!
//! Soundness is demonstrated, not assumed: for each rule the mutation
//! harness (`tests/integration_flexcheck.rs`) corrupts one field of a
//! clean schedule and asserts the corruption trips *exactly that rule*
//! statically. Where the simulators guard the same invariant at
//! runtime, the harness drives the corruption into that guard too
//! (static ⊆ dynamic):
//!
//! * `FXC01` — `flexflow::local_store::check_address`, the bound the
//!   PE array checks on every store access;
//! * `FXC04` — the PE array's slot-index assert as it prepares its
//!   stores, over the same [`StorePlan`](flexflow::array::StorePlan);
//! * `FXC02` (and `FXC12`'s bus side) — `flexflow::cdb::StepClaims`, in
//!   debug builds;
//! * `FXC05` — the on-chip [`Decoder`](flexflow::decoder::Decoder),
//!   whose decode `FlexFlow::execute` runs;
//! * `FXC06` — the scheduler's occupancy assert;
//! * `FXC08` — the PE array's functional MAC count;
//! * `FXC09`–`FXC11`, `FXC13` — recorded ledgers, timelines and
//!   heatmaps, compared with their closed forms.
//!
//! `FXC03` (adder-tree ports) and `FXC07` (buffer banks) are
//! static-only: no simulator claims a row port or steps a bank access.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod diag;
pub mod params;
pub mod plan;
pub mod rules;
pub mod symbolic;

pub use diag::{has_errors, render, Diagnostic, Location, RuleId, Severity};
pub use params::{ArchKind, ArchParams};
pub use plan::{BatchShape, LayerPlan, WalkShape};
pub use rules::{
    check, check_candidate, check_layer_plan, check_ledger, check_ledgers, check_network,
    check_spatial, check_spatials, check_store_plan,
};
pub use symbolic::{
    check_cycle_exactness, check_cycle_exactness_all, check_interference, check_isa_coverage,
};
