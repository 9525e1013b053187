//! The static rules.
//!
//! Each rule proves one hardware invariant *without stepping the
//! simulator*, by abstract-interpreting the residue algebra of the
//! [`flexflow::mapping::Mapping`] (rules 2, 3) or the arithmetic
//! identities of the [`flexflow::analytic`] schedule (rules 1, 8).
//! Rule 4 sizes the PE array's own [`StorePlan`], whose slot-index
//! bound the array asserts when it prepares its stores. Rule 5 drives
//! the on-chip [`Decoder`] front-end over the encoded stream (still
//! static: no engine cycle executes), rule 6 re-checks Constraint (1),
//! and rule 7 checks IADP bank fits for all four architectures.
//!
//! Every rule with a runtime counterpart is *sound relative to the
//! dynamic simulators*: a schedule that passes it cannot trip that
//! assert (the mutation harness in `tests/integration_flexcheck.rs`
//! demonstrates the contrapositive). Rules 3 and 7 have no runtime
//! counterpart; the crate docs list which guard backs each rule.

use crate::diag::{Diagnostic, Location, RuleId};
use crate::params::{ArchKind, ArchParams};
use crate::plan::LayerPlan;
use flexflow::analytic::{PIPELINE_FILL_CYCLES, SEGMENT_STALL_CYCLES};
use flexflow::array::StorePlan;
use flexflow::compiler::Program;
use flexflow::decoder::{DecodeProgramError, Decoder};
use flexflow::isa::Instr;
use flexflow::local_store::STORE_WORDS;
use flexsim_dataflow::utilization::ceil_div;
use flexsim_model::{ConvLayer, Layer, Network};
use flexsim_obs::attrib::LossLedger;
use flexsim_obs::spatial::LayerSpatial;
use std::collections::HashMap;

/// Runs the per-layer rules that can reject a layer (`FXC01`–`FXC03`,
/// `FXC06`–`FXC08`) over one [`LayerPlan`] against the target hardware.
pub fn check_layer_plan(plan: &LayerPlan, arch: &ArchParams) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let at = || Location::layer(plan.layer.name());
    let u = plan.mapping;

    // FXC06 — Constraint (1): factors within the layer and the engine.
    if !u.satisfies(plan.layer, arch.d, None) {
        diags.push(Diagnostic::error(
            RuleId::UnrollBounds,
            at(),
            format!(
                "unroll {u} violates Constraint (1) for {} (M={}, N={}, S={}, K={}) on a {d}x{d} engine",
                plan.layer.name(),
                plan.layer.m(),
                plan.layer.n(),
                plan.layer.s(),
                plan.layer.k(),
                d = arch.d
            ),
            "clamp each factor to its loop bound and the engine occupancy",
        ));
    }

    // FXC01 — the per-segment resident slice fits the local stores.
    if plan.slice_words > arch.store_words {
        diags.push(Diagnostic::error(
            RuleId::LsCapacity,
            at(),
            format!(
                "per-PE resident slice of {} operand words exceeds the {}-word local store \
                 (chunks={}, segments={})",
                plan.slice_words, arch.store_words, plan.schedule.chunks, plan.schedule.segments
            ),
            "re-segment the chunk walk for the target store, or enlarge Tn/Ti/Tj",
        ));
    }

    // FXC02 — vertical-bus write-write races (column injectivity).
    diags.extend(rule_cdb_race(plan));

    // FXC03 — adder-tree row-port conflicts (row injectivity).
    diags.extend(rule_adder_tree_port(plan));

    // FXC07 — IADP bank layouts fit the physical buffer banks.
    for (buffer, used) in plan.overflowing_banks(arch.buffer_banks) {
        diags.push(Diagnostic::error(
            RuleId::BankConflict,
            at(),
            format!(
                "IADP {buffer}-buffer layout needs {used} banks but the buffer has {}",
                arch.buffer_banks
            ),
            "reduce the factor product or add buffer banks",
        ));
    }

    // FXC08 — utilization sanity: the schedule's loop counts, MACs and
    // cycle total must equal their closed forms.
    diags.extend(rule_util_sanity(plan));

    diags
}

/// `FXC04`: every residency slot table of `store`, the functional PE
/// array's [`StorePlan`] for `plan`'s layer and mapping, fits the
/// array's 32-bit slot index. Past it the layer runs in the analytic
/// model only, so the finding is a warning. [`check`] runs it on every
/// compiled layer; a tuner candidate skips it, since a warning never
/// prunes one.
pub fn check_store_plan(plan: &LayerPlan, store: &StorePlan) -> Vec<Diagnostic> {
    [("neuron", &store.neuron), ("kernel", &store.kernel)]
        .into_iter()
        .filter(|(_, sizes)| !sizes.fits_slot_index())
        .map(|(kind, sizes)| {
            Diagnostic::warning(
                RuleId::FsmBounds,
                Location::layer(plan.layer.name()),
                format!(
                    "unroll {} needs {} {kind}-store slots, more than the PE array's \
                     32-bit slot index: the layer is outside the functional PE array \
                     (analytic only)",
                    plan.mapping, sizes.slots
                ),
                "the cycle model covers it; bit-exact replay does not",
            )
        })
        .collect()
}

/// `FXC02`: symbolic interval disjointness of one logical step — the
/// walk's operand offsets drive distinct vertical buses
/// ([`LayerPlan::walk_fits_mapping`]).
fn rule_cdb_race(plan: &LayerPlan) -> Vec<Diagnostic> {
    if plan.walk_fits_mapping() {
        return Vec::new();
    }
    let (u, w) = (plan.mapping, plan.walk);
    // The first collision of the lexicographic walk from residue
    // (0, 0, 0): the offset one full period into the overflowing
    // coordinate re-lands on bus 0 — the same bus the enumeration used
    // to report.
    let col = 0;
    vec![Diagnostic::error(
        RuleId::CdbRace,
        Location::layer(plan.layer.name()),
        format!(
            "two producers drive vertical bus {col} in one step: \
             walk <Tn={}, Ti={}, Tj={}> is wider than the mapping's \
             residue classes <Tn={}, Ti={}, Tj={}>",
            w.tn, w.ti, w.tj, u.tn, u.ti, u.tj
        ),
        "program the Configure walk with the same <Tn,Ti,Tj> the \
         mapping was planned for",
    )]
}

/// `FXC03`: the row-side mirror of [`rule_cdb_race`] — a row-batch's
/// outputs own distinct adder-tree ports
/// ([`LayerPlan::batch_fits_mapping`]).
fn rule_adder_tree_port(plan: &LayerPlan) -> Vec<Diagnostic> {
    if plan.batch_fits_mapping() {
        return Vec::new();
    }
    let (u, b) = (plan.mapping, plan.batch);
    // As in rule_cdb_race: the first collision of the enumeration's
    // lexicographic walk is the wraparound onto row 0.
    let row = 0;
    vec![Diagnostic::error(
        RuleId::AdderTreePort,
        Location::layer(plan.layer.name()),
        format!(
            "two output neurons contend for PE row {row}'s adder-tree \
             port in one batch: batch <Tm={}, Tr={}, Tc={}> vs \
             mapping <Tm={}, Tr={}, Tc={}>",
            b.tm, b.tr, b.tc, u.tm, u.tr, u.tc
        ),
        "program the Configure batch with the same <Tm,Tr,Tc> the \
         mapping was planned for",
    )]
}

/// `FXC08`: re-derives the schedule's loop counts, MAC total, and cycle
/// total from the layer shape and checks them against the `Schedule`'s
/// own claims, including that the claimed MACs are issuable by
/// `parallel_macs` lanes.
fn rule_util_sanity(plan: &LayerPlan) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let at = || Location::layer(plan.layer.name());
    let u = plan.mapping;
    let l = &plan.layer;
    let sch = &plan.schedule;

    let chunks = (ceil_div(l.n(), u.tn) * ceil_div(l.k(), u.ti) * ceil_div(l.k(), u.tj)) as u64;
    let batches = (ceil_div(l.m(), u.tm) * ceil_div(l.s(), u.tr) * ceil_div(l.s(), u.tc)) as u64;
    if sch.chunks != chunks || sch.row_batches != batches {
        diags.push(Diagnostic::error(
            RuleId::UtilSanity,
            at(),
            format!(
                "schedule loop counts diverge from the layer: chunks {} (expected {chunks}), \
                 row-batches {} (expected {batches})",
                sch.chunks, sch.row_batches
            ),
            "rebuild the schedule from the planned unroll",
        ));
    }
    if sch.macs != l.macs() {
        diags.push(Diagnostic::error(
            RuleId::UtilSanity,
            at(),
            format!(
                "schedule claims {} MACs; the layer computes {}",
                sch.macs,
                l.macs()
            ),
            "every MAC must be issued exactly once",
        ));
    }
    let expected_cycles = batches * chunks
        + batches * (sch.segments - 1) * SEGMENT_STALL_CYCLES
        + PIPELINE_FILL_CYCLES;
    if sch.cycles != expected_cycles {
        diags.push(Diagnostic::error(
            RuleId::UtilSanity,
            at(),
            format!(
                "schedule claims {} cycles; batches*chunks + stalls + fill = {expected_cycles}",
                sch.cycles
            ),
            "recompute cycles from the loop counts and segment stalls",
        ));
    }
    let lane_budget = batches * chunks * u.parallel_macs() as u64;
    if sch.macs > lane_budget {
        diags.push(Diagnostic::error(
            RuleId::UtilSanity,
            at(),
            format!(
                "schedule claims {} MACs but {} steps of {} parallel lanes issue at most \
                 {lane_budget}",
                sch.macs,
                batches * chunks,
                u.parallel_macs()
            ),
            "the statically derived parallel MACs bound the schedule's total",
        ));
    }
    diags
}

/// Lints one tuner candidate unrolling for `layer`: derives the
/// [`LayerPlan`] and runs the per-layer rules (`FXC01`–`FXC03`,
/// `FXC06`–`FXC08`) over it. The flexcheck rules act here as the
/// search's legality oracle, and the plan they pass carries the
/// candidate's closed-form [`Schedule`](flexflow::analytic::Schedule),
/// so the tuner scores a legal candidate without rebuilding it. The
/// program-level rules still apply later: `FXC04` and `FXC05` on the
/// assembled tuned program ([`check`]) and `FXC09` on the simulated
/// ledgers ([`check_ledgers`]).
///
/// # Errors
///
/// Returns the error diagnostics when a rule rejects the candidate: the
/// `FXC06` derive error alone when it over-occupies the engine (no
/// schedule exists, so there is nothing further to check), else the
/// per-layer rules' findings.
pub fn check_candidate<'a>(
    layer: &'a ConvLayer,
    layer_index: usize,
    u: flexsim_dataflow::Unroll,
    arch: &ArchParams,
) -> Result<LayerPlan<'a>, Vec<Diagnostic>> {
    let plan = LayerPlan::derive(layer, layer_index, u, arch.d, arch.store_words)
        .map_err(|diag| vec![diag])?;
    let diags = check_layer_plan(&plan, arch);
    if crate::diag::has_errors(&diags) {
        Err(diags)
    } else {
        Ok(plan)
    }
}

/// Full FlexFlow program check: rule `FXC05` over the instruction
/// stream, then the per-layer rules and `FXC04` over every compiled
/// CONV/FC layer.
///
/// Each `Conv`'s [`LayerPlan`] derives from the `Configure` it runs
/// (its layer's live one, as in [`flexflow::FlexFlow::execute`]); `net`
/// supplies the layer shapes, which a program names by index only.
pub fn check(program: &Program, net: &Network, arch: &ArchParams) -> Vec<Diagnostic> {
    let mut diags = check_isa(program, net);
    // FXC11 — the abstract interpreter must observe every instruction's
    // effect (no symbolic state discarded unread).
    diags.extend(crate::symbolic::check_isa_coverage(program));

    let layers = net.layers();
    let mut configured: HashMap<u8, flexsim_dataflow::Unroll> = HashMap::new();
    for instr in program.instrs() {
        match *instr {
            Instr::Configure { layer, unroll } => {
                configured.insert(layer, unroll);
            }
            Instr::Conv { layer } => {
                let Some(u) = configured.remove(&layer) else {
                    continue; // the decoder's rejection, reported by check_isa
                };
                let view = match layers.get(layer as usize) {
                    Some(Layer::Conv(c)) => c.clone(),
                    Some(Layer::Fc(fc)) => fc.as_conv(),
                    _ => continue, // already reported by check_isa
                };
                match LayerPlan::derive(&view, layer as usize, u, program.d(), STORE_WORDS) {
                    Ok(plan) => {
                        diags.extend(check_layer_plan(&plan, arch));
                        let store = StorePlan::new(&view, u);
                        diags.extend(check_store_plan(&plan, &store));
                    }
                    Err(diag) => diags.push(diag),
                }
            }
            _ => {}
        }
    }
    diags
}

/// `FXC05`: ISA invariants. Encode-range and round-trip per
/// instruction, the on-chip decoder's stream protocol (the decode
/// [`flexflow::FlexFlow::execute`] runs), instruction targets
/// cross-checked against the network's layer kinds, and dead-code
/// detection (a `Configure` no `Conv` consumes, reported in pc order).
fn check_isa(program: &Program, net: &Network) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let layers = net.layers();

    // Encode range first: Instr::encode panics above 128, so the
    // round-trip/stream checks only run on encodable programs.
    let mut encodable = true;
    for (pc, instr) in program.instrs().iter().enumerate() {
        if let Instr::Configure { unroll: u, .. } = instr {
            for f in [u.tm, u.tn, u.tr, u.tc, u.ti, u.tj] {
                if f > 128 {
                    encodable = false;
                    diags.push(Diagnostic::error(
                        RuleId::IsaProtocol,
                        Location::pc(pc),
                        format!("unrolling factor {f} exceeds the ISA's 7-bit field (max 128)"),
                        "no factor may exceed 128",
                    ));
                }
            }
        }
    }
    if encodable {
        let words = program.encode();
        for (pc, (word, instr)) in words.iter().zip(program.instrs()).enumerate() {
            if Instr::decode(*word).ok().as_ref() != Some(instr) {
                diags.push(Diagnostic::error(
                    RuleId::IsaProtocol,
                    Location::pc(pc),
                    format!("instruction `{instr}` does not round-trip through the encoder"),
                    "encoder and decoder must agree on every field",
                ));
            }
        }
        if let Err(e) = Decoder::new(program.d()).decode_stream(&words) {
            let pc = match e {
                DecodeProgramError::BadWord { pc, .. }
                | DecodeProgramError::OversizedFactors { pc, .. }
                | DecodeProgramError::ConvWithoutConfigure { pc, .. }
                | DecodeProgramError::ConvWithoutKernels { pc, .. }
                | DecodeProgramError::TrailingWords { pc } => Some(pc),
                DecodeProgramError::MissingHalt => None,
            };
            let loc = pc.map_or_else(Location::program, Location::pc);
            diags.push(Diagnostic::error(
                RuleId::IsaProtocol,
                loc,
                format!("the on-chip decoder rejects the stream: {e}"),
                "emit Configure/LoadKernels before Conv and terminate with a single Halt",
            ));
        }
    }

    // Targets must exist and match the layer kind the opcode drives.
    let mut live_configure: HashMap<u8, usize> = HashMap::new();
    for (pc, instr) in program.instrs().iter().enumerate() {
        let (layer, wants_conv) = match *instr {
            Instr::Configure { layer, .. } => {
                live_configure.insert(layer, pc);
                (layer, true)
            }
            Instr::LoadKernels { layer } => (layer, true),
            Instr::Conv { layer } => {
                live_configure.remove(&layer);
                (layer, true)
            }
            Instr::Pool { layer } => (layer, false),
            Instr::SwapBuffers | Instr::Halt => continue,
        };
        match layers.get(layer as usize) {
            None => diags.push(Diagnostic::error(
                RuleId::IsaProtocol,
                Location::pc(pc),
                format!(
                    "`{instr}` targets layer L{layer}, but the network has {} layers",
                    layers.len()
                ),
                "layer indices follow network order",
            )),
            Some(Layer::Pool(_)) if wants_conv => diags.push(Diagnostic::error(
                RuleId::IsaProtocol,
                Location::pc(pc),
                format!("`{instr}` targets pooling layer L{layer}"),
                "Configure/LoadKernels/Conv drive CONV or FC layers only",
            )),
            Some(Layer::Conv(_) | Layer::Fc(_)) if !wants_conv => {
                diags.push(Diagnostic::error(
                    RuleId::IsaProtocol,
                    Location::pc(pc),
                    format!("`{instr}` targets non-pooling layer L{layer}"),
                    "Pool drives pooling layers only",
                ));
            }
            _ => {}
        }
    }
    let mut dead: Vec<(usize, u8)> = live_configure
        .into_iter()
        .map(|(layer, pc)| (pc, layer))
        .collect();
    dead.sort_unstable();
    for (pc, layer) in dead {
        diags.push(Diagnostic::warning(
            RuleId::IsaProtocol,
            Location::pc(pc),
            format!("dead code: Configure for L{layer} is never consumed by a Conv"),
            "remove the configure or add the missing Conv",
        ));
    }
    diags
}

/// Lints a workload against one architecture. FlexFlow compiles the
/// network and runs the full static program check (rules 1–8); the
/// baselines run the geometry and bank rules that apply to their
/// dataflow. Rule 9 ([`check_ledger`]) runs post-simulation, over the
/// recorded loss ledgers.
pub fn check_network(net: &Network, arch: &ArchParams) -> Vec<Diagnostic> {
    match arch.kind {
        ArchKind::FlexFlow => {
            let program = flexflow::Compiler::new(arch.d).compile(net);
            check(&program, net, arch)
        }
        ArchKind::Systolic => check_systolic(net, arch),
        ArchKind::Mapping2d => check_mapping2d(net, arch),
        ArchKind::Tiling => check_tiling(net, arch),
    }
}

/// `FXC09`: a recorded layer's loss attribution must balance exactly —
/// `busy + Σ attributed_lost == total_cycles × num_pes`, with the
/// events tiling the timeline (no gaps, no overlap) and zero
/// unattributed PE-cycles. Unlike rules 1–8 this checks a *dynamic*
/// artifact (the emitted ledger), but it is still a closed identity: a
/// violation means a simulator's emitter dropped, double-counted, or
/// mislabeled a loss, never a modeling judgment call.
pub fn check_ledger(ledger: &LossLedger) -> Vec<Diagnostic> {
    if ledger.is_exact() {
        return Vec::new();
    }
    let mut diags = Vec::new();
    if ledger.covered_cycles != ledger.total_cycles {
        diags.push(Diagnostic::error(
            RuleId::AttributionExactness,
            Location::layer(&ledger.layer),
            format!(
                "{}: events cover {} of {} cycles (gap or overlap in the timeline)",
                ledger.arch, ledger.covered_cycles, ledger.total_cycles
            ),
            "every emitted event must tile the layer timeline back to back",
        ));
    }
    if ledger.unattributed() != 0 {
        diags.push(Diagnostic::error(
            RuleId::AttributionExactness,
            Location::layer(&ledger.layer),
            format!(
                "{}: busy {} + attributed {} != total {} PE-cycles ({} unattributed)",
                ledger.arch,
                ledger.busy_pe_cycles,
                ledger.attributed_lost(),
                ledger.total_pe_cycles(),
                ledger.unattributed()
            ),
            "attribute every lost PE-cycle to a StallCause; no bucketless losses",
        ));
    }
    diags
}

/// [`check_ledger`] over a batch (one ledger per recorded layer).
pub fn check_ledgers(ledgers: &[LossLedger]) -> Vec<Diagnostic> {
    ledgers.iter().flat_map(check_ledger).collect()
}

/// `FXC13`: a layer's spatial heatmap must reproduce its loss ledger
/// exactly — the same hard-identity discipline as `FXC09`/`FXC10`,
/// applied to the spatial planes:
///
/// * the array geometry matches (`rows × cols == pe_count`, and both
///   records agree on the PE count and total cycles);
/// * the busy plane sums to `busy_pe_cycles`;
/// * for every [`StallCause`], the per-cell loss sums to
///   `ledger.lost(cause)`;
/// * every bank watermark covers the full layer duration
///   (`sampled_cycles == total_cycles` — a dropped sample is a hole in
///   the occupancy story) and never exceeds its capacity.
///
/// A violation means a simulator's spatial emitter distributed work to
/// the wrong cells, dropped a sample, or a consumer tampered with the
/// planes — never a modeling judgment call.
///
/// [`StallCause`]: flexsim_obs::attrib::StallCause
pub fn check_spatial(spatial: &LayerSpatial, ledger: &LossLedger) -> Vec<Diagnostic> {
    use flexsim_obs::attrib::StallCause;
    let mut diags = Vec::new();
    let at = || Location::layer(&spatial.layer);
    if spatial.pe_count() != ledger.pe_count as usize {
        diags.push(Diagnostic::error(
            RuleId::SpatialExactness,
            at(),
            format!(
                "{}: heatmap geometry {}x{} = {} cells != {} PEs in the ledger",
                spatial.arch,
                spatial.rows,
                spatial.cols,
                spatial.pe_count(),
                ledger.pe_count
            ),
            "emit one heatmap cell per physical PE",
        ));
    }
    if spatial.total_cycles != ledger.total_cycles {
        diags.push(Diagnostic::error(
            RuleId::SpatialExactness,
            at(),
            format!(
                "{}: heatmap spans {} cycles, ledger {}",
                spatial.arch, spatial.total_cycles, ledger.total_cycles
            ),
            "build the heatmap over the same cycle span the ledger covers",
        ));
    }
    if spatial.busy_total() != ledger.busy_pe_cycles {
        diags.push(Diagnostic::error(
            RuleId::SpatialExactness,
            at(),
            format!(
                "{}: busy plane sums to {} PE-cycles, ledger says {}",
                spatial.arch,
                spatial.busy_total(),
                ledger.busy_pe_cycles
            ),
            "distribute every useful MAC to exactly one cell",
        ));
    }
    for cause in StallCause::ALL {
        let cells = spatial.lost_total(cause);
        let want = ledger.lost(cause);
        if cells != want {
            diags.push(Diagnostic::error(
                RuleId::SpatialExactness,
                at(),
                format!(
                    "{}: {} cells sum to {} lost PE-cycles, ledger says {}",
                    spatial.arch,
                    cause.name(),
                    cells,
                    want
                ),
                "charge every lost PE-cycle to exactly one (cell, cause)",
            ));
        }
    }
    for bank in &spatial.banks {
        if bank.sampled_cycles != spatial.total_cycles {
            diags.push(Diagnostic::error(
                RuleId::SpatialExactness,
                at(),
                format!(
                    "{}: bank {} sampled {} of {} cycles (dropped sample)",
                    spatial.arch, bank.bank, bank.sampled_cycles, spatial.total_cycles
                ),
                "bank occupancy samples must cover the whole layer",
            ));
        }
        if bank.high_water_words > bank.capacity_words {
            diags.push(Diagnostic::error(
                RuleId::SpatialExactness,
                at(),
                format!(
                    "{}: bank {} high-water {} words exceeds its {}-word capacity",
                    spatial.arch, bank.bank, bank.high_water_words, bank.capacity_words
                ),
                "clamp modeled residency to the physical bank size",
            ));
        }
    }
    diags
}

/// [`check_spatial`] over a batch: every spatial record is paired with
/// the ledger of the same `(arch, layer)`; an unpaired record is
/// itself a violation (a heatmap nobody's ledger vouches for).
pub fn check_spatials(spatials: &[LayerSpatial], ledgers: &[LossLedger]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for spatial in spatials {
        match ledgers
            .iter()
            .find(|l| l.arch == spatial.arch && l.layer == spatial.layer)
        {
            Some(ledger) => diags.extend(check_spatial(spatial, ledger)),
            None => diags.push(Diagnostic::error(
                RuleId::SpatialExactness,
                Location::layer(&spatial.layer),
                format!(
                    "{}: heatmap recorded but no loss ledger for this layer",
                    spatial.arch
                ),
                "record the cycle timeline alongside the spatial sink",
            )),
        }
    }
    diags
}

/// CONV views of every layer a program computes on the engine (CONV
/// layers as-is, FC layers as 1×1 convolutions).
fn conv_views(net: &Network) -> Vec<ConvLayer> {
    net.layers()
        .iter()
        .filter_map(|l| match l {
            Layer::Conv(c) => Some(c.clone()),
            Layer::Fc(fc) => Some(fc.as_conv()),
            Layer::Pool(_) => None,
        })
        .collect()
}

/// Systolic rules: the kernel must fit the `K×K` array (rule 6's
/// geometry analogue), row injection must fit the banks (rule 7), and
/// non-unit strides are flagged for the functional model (warning).
fn check_systolic(net: &Network, arch: &ArchParams) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for layer in conv_views(net) {
        if layer.k() > arch.array_k {
            diags.push(Diagnostic::error(
                RuleId::UnrollBounds,
                Location::layer(layer.name()),
                format!(
                    "kernel K={} exceeds the {}x{} systolic array",
                    layer.k(),
                    arch.array_k,
                    arch.array_k
                ),
                "use an array at least K wide (the paper gives AlexNet 11x11 arrays)",
            ));
        }
        if arch.array_k > arch.buffer_banks {
            diags.push(Diagnostic::error(
                RuleId::BankConflict,
                Location::layer(layer.name()),
                format!(
                    "streaming {} kernel rows per cycle needs {} banks, buffer has {}",
                    arch.array_k, arch.array_k, arch.buffer_banks
                ),
                "banks must cover the array side",
            ));
        }
        if layer.stride() != 1 {
            diags.push(Diagnostic::warning(
                RuleId::UnrollBounds,
                Location::layer(layer.name()),
                format!(
                    "stride {} is outside the functional systolic model (analytic only)",
                    layer.stride()
                ),
                "the cycle model covers it; bit-exact replay does not",
            ));
        }
    }
    diags
}

/// 2D-Mapping rules: per-step edge injection (`max(Tr,Tc)` words) must
/// fit the banks; non-unit strides are functional-model warnings.
fn check_mapping2d(net: &Network, arch: &ArchParams) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for layer in conv_views(net) {
        if arch.d > arch.buffer_banks {
            diags.push(Diagnostic::error(
                RuleId::BankConflict,
                Location::layer(layer.name()),
                format!(
                    "injecting a {}-wide tile edge per step needs {} banks, buffer has {}",
                    arch.d, arch.d, arch.buffer_banks
                ),
                "banks must cover the tile edge",
            ));
        }
        if layer.stride() != 1 {
            diags.push(Diagnostic::warning(
                RuleId::UnrollBounds,
                Location::layer(layer.name()),
                format!(
                    "stride {} is outside the functional 2D-mapping model (analytic only)",
                    layer.stride()
                ),
                "the cycle model covers it; bit-exact replay does not",
            ));
        }
    }
    diags
}

/// Tiling rules: the `Tn` input lanes and `Tm` output lanes streamed
/// each cycle must fit the neuron-buffer banks.
fn check_tiling(net: &Network, arch: &ArchParams) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for layer in conv_views(net) {
        for (what, lanes) in [("input (Tn)", arch.d), ("output (Tm)", arch.d)] {
            if lanes > arch.buffer_banks {
                diags.push(Diagnostic::error(
                    RuleId::BankConflict,
                    Location::layer(layer.name()),
                    format!(
                        "streaming {lanes} {what} lanes per cycle needs {lanes} banks, \
                         buffer has {}",
                        arch.buffer_banks
                    ),
                    "banks must cover the lane count",
                ));
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::has_errors;
    use flexsim_dataflow::Unroll;
    use flexsim_model::workloads;

    fn plan_for(layer: &ConvLayer, u: Unroll) -> LayerPlan<'_> {
        LayerPlan::derive(layer, 0, u, 16, STORE_WORDS).unwrap()
    }

    #[test]
    fn paper_c1_plan_is_clean() {
        let layer = ConvLayer::new("C1", 2, 1, 8, 4);
        let plan = plan_for(&layer, Unroll::new(2, 1, 1, 2, 1, 4));
        let diags = check_layer_plan(&plan, &ArchParams::flexflow_paper());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn candidate_api_matches_per_plan_checks() {
        let arch = ArchParams::flexflow_paper();
        let layer = ConvLayer::new("C3", 16, 6, 10, 5);
        // A clean candidate yields its plan…
        let ok = Unroll::new(16, 3, 1, 1, 1, 5);
        let plan = check_candidate(&layer, 0, ok, &arch).unwrap();
        assert_eq!(plan, plan_for(&layer, ok));
        // …an over-occupying one exactly the FXC06 derive error…
        let fat = Unroll::new(16, 4, 2, 1, 2, 4);
        let diags = check_candidate(&layer, 0, fat, &arch).unwrap_err();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, RuleId::UnrollBounds);
        // …and one exceeding a layer bound trips FXC06 via the plan.
        let wide = Unroll::new(16, 8, 1, 1, 1, 2); // Tn=8 > N=6
        assert!(has_errors(
            &check_candidate(&layer, 0, wide, &arch).unwrap_err()
        ));
    }

    /// The candidates of `all` that every per-layer rule accepts, in
    /// input order, and how many a rule rejected.
    fn legal_in_order(layer: &ConvLayer, index: usize, all: &[Unroll]) -> (Vec<Unroll>, usize) {
        let arch = ArchParams::flexflow_paper();
        let legal: Vec<Unroll> = all
            .iter()
            .filter_map(|&u| check_candidate(layer, index, u, &arch).ok())
            .map(|plan| plan.mapping)
            .collect();
        let pruned = all.len() - legal.len();
        (legal, pruned)
    }

    #[test]
    fn prune_keeps_legal_candidates_in_input_order() {
        let layer = ConvLayer::new("C3", 16, 6, 10, 5);
        let a = Unroll::new(16, 3, 1, 1, 1, 5);
        let bad = Unroll::new(16, 8, 1, 1, 1, 2); // Tn=8 > N=6
        let b = Unroll::new(8, 2, 1, 2, 1, 5);
        assert_eq!(legal_in_order(&layer, 0, &[a, bad, b]), (vec![a, b], 1));
    }

    #[test]
    fn prune_accepts_the_full_tuner_search_space() {
        // The tuner's exhaustive enumeration already respects
        // Constraint (1) and layer bounds, so flexcheck rejects nothing
        // on a plain CONV layer — the oracle matters for capacity
        // edge shapes and for corrupted tables, not the common case.
        let layer = ConvLayer::new("C3", 12, 8, 20, 3).with_input_size(22);
        let all = flexsim_dataflow::tune::full_candidates(&layer, 16, Some(6));
        let (legal, pruned) = legal_in_order(&layer, 2, &all);
        assert_eq!(pruned + legal.len(), all.len());
        assert!(!legal.is_empty());
    }

    #[test]
    fn oversized_slot_table_warns_without_pruning() {
        // 16 maps of 8,388,613², one 6×6 conv to 16 maps: 16 PE rows
        // of the planned unroll key 12,884,909,568 neuron slots.
        let layer = ConvLayer::new("mid", 16, 16, 8_388_608, 6);
        let u = Unroll::new(16, 16, 1, 1, 1, 1);
        let diags = check_store_plan(&plan_for(&layer, u), &StorePlan::new(&layer, u));
        assert_eq!(diags.len(), 1, "{}", crate::render(&diags));
        assert_eq!(diags[0].rule, RuleId::FsmBounds);
        assert_eq!(diags[0].severity, crate::Severity::Warning);
        assert!(diags[0].message.contains("12884909568 neuron-store slots"));
        let arch = ArchParams::flexflow_paper();
        assert_eq!(check_candidate(&layer, 0, u, &arch).unwrap().mapping, u);
    }

    #[test]
    fn every_workload_is_clean_on_every_architecture() {
        for net in workloads::all() {
            for arch in ArchParams::paper_suite(&net) {
                let diags = check_network(&net, &arch);
                assert!(
                    !has_errors(&diags),
                    "{} on {}: {}",
                    net.name(),
                    arch.kind.name(),
                    crate::diag::render(&diags)
                );
            }
        }
    }

    #[test]
    fn widened_walk_races_the_bus() {
        let layer = ConvLayer::new("C1", 4, 2, 12, 5).with_input_size(16);
        let u = Unroll::new(2, 2, 1, 2, 1, 2);
        let mut plan = plan_for(&layer, u);
        plan.walk.tj = 4; // the sequencer walks twice the mapped lanes
        let diags = check_layer_plan(&plan, &ArchParams::flexflow_paper());
        assert!(diags.iter().all(|d| d.rule == RuleId::CdbRace), "{diags:?}");
        assert!(has_errors(&diags));
    }

    #[test]
    fn dead_configures_are_reported_in_pc_order() {
        // Two Configures after their layers' last Conv, the later layer
        // first: the warnings follow the stream, not the layer index.
        let net = workloads::lenet5();
        let program = flexflow::Compiler::new(16).compile(&net);
        let mut instrs = program.instrs().to_vec();
        let halt = instrs.len() - 1;
        for layer in [2, 0] {
            let unroll = Unroll::scalar();
            instrs.insert(instrs.len() - 1, Instr::Configure { layer, unroll });
        }
        let mutated = Program::from_parts(program.name(), program.d(), instrs);
        let diags = check(&mutated, &net, &ArchParams::flexflow_paper());
        let found: Vec<_> = diags
            .iter()
            .map(|d| (d.rule, d.severity, d.location.pc, d.message.as_str()))
            .collect();
        let dead = |layer| format!("dead code: Configure for L{layer} is never consumed by a Conv");
        let (first, second) = (dead(2), dead(0));
        let warning = crate::Severity::Warning;
        assert_eq!(
            found,
            [
                (RuleId::IsaProtocol, warning, Some(halt), first.as_str()),
                (
                    RuleId::IsaProtocol,
                    warning,
                    Some(halt + 1),
                    second.as_str()
                ),
            ]
        );
    }

    #[test]
    fn compiled_lenet_program_passes_full_check() {
        let net = workloads::lenet5();
        let program = flexflow::Compiler::new(16).compile(&net);
        let diags = check(&program, &net, &ArchParams::flexflow_paper());
        assert!(diags.is_empty(), "{}", crate::diag::render(&diags));
    }
}
