//! Mutation harness for the `flexcheck` static verifier.
//!
//! The verifier's contract has two sides, and this suite proves both
//! per rule:
//!
//! * **Static precision** — corrupting exactly one field of a clean
//!   schedule trips exactly the rule that owns that invariant (every
//!   reported diagnostic carries that rule's id, and at least one is an
//!   `Error`; `FXC04` reports a warning, since a layer past the PE
//!   array's slot index still runs in the analytic model).
//! * **Dynamic soundness** — the same corruption, driven into the
//!   cycle-level hardware models, is caught at runtime (an assert
//!   naming the rule, a decoder rejection, or a measured/claimed
//!   divergence). Statically-clean schedules therefore cannot trip the
//!   dynamic guards: static ⊆ dynamic.
//!
//! Layout: one `fxcNN_static_*` test asserting rule exactness for each
//! of the plan rules (`FXC01`–`FXC08`) and the symbolic rules
//! (`FXC10`–`FXC12`), and one `fxcNN_dynamic_*` test demonstrating the
//! runtime catch for each rule the simulator guards. `FXC03` (row
//! ports) and `FXC07` (buffer banks) are static-only: no simulator
//! claims a row port or steps a bank access. Then the all-clean sweep
//! and a seeded sweep holding every architecture's step fold to its
//! closed form.

use flexcheck::{check, check_layer_plan, check_network, check_store_plan, has_errors, render};
use flexcheck::{
    check_cycle_exactness_all, check_interference, check_spatial, ArchParams, LayerPlan, RuleId,
    Severity,
};
use flexflow::array::{PeArray, StorePlan};
use flexflow::cdb::StepClaims;
use flexflow::compiler::Program;
use flexflow::decoder::Decoder;
use flexflow::local_store::{check_address, STORE_WORDS};
use flexflow::mapping::Mapping;
use flexflow::{analytic, Compiler, FlexFlow};
use flexsim_arch::Accelerator;
use flexsim_baselines::{Mapping2d, Systolic, TilingArray};
use flexsim_dataflow::Unroll;
use flexsim_experiments::arches::{ArchSet, ARCH_NAMES};
use flexsim_model::reference;
use flexsim_model::{workloads, ConvLayer, Network};
use flexsim_obs::attrib::{ledgers, LossLedger, StallCause};
use flexsim_obs::cycles::{CycleEvent, CycleEventKind, Recorder, SinkHandle};
use flexsim_testkit::{prop, prop_assert, prop_assert_eq};
use std::sync::Arc;

/// A deep layer whose chunk walk needs 3 segments on the paper store:
/// `chunks = 96·3·1 = 288`, `slice = 96` resident words per segment.
fn deep_layer() -> ConvLayer {
    ConvLayer::new("C5", 16, 96, 8, 3)
}

fn deep_unroll() -> Unroll {
    Unroll::new(2, 1, 2, 2, 1, 3) // 8 rows x 3 cols
}

/// A wide layer/unroll pair occupying 12 PE columns (for the bank
/// rule): `chunks = 3·3·2 = 18`, single segment.
fn wide_layer() -> ConvLayer {
    ConvLayer::new("C3", 16, 6, 10, 5)
}

fn wide_unroll() -> Unroll {
    Unroll::new(2, 2, 1, 2, 2, 3) // 4 rows x 12 cols
}

fn plan(layer: &ConvLayer, u: Unroll) -> LayerPlan<'_> {
    LayerPlan::derive(layer, 0, u, 16, STORE_WORDS).expect("clean plan derives")
}

/// Asserts every diagnostic names `rule` and at least one is an error —
/// the "trips exactly that rule" obligation.
fn assert_only(diags: &[flexcheck::Diagnostic], rule: RuleId) {
    assert!(!diags.is_empty(), "expected {rule} to fire");
    for d in diags {
        assert_eq!(d.rule, rule, "foreign rule fired:\n{}", render(diags));
    }
    assert!(
        diags.iter().any(|d| d.severity == Severity::Error),
        "{rule} fired only below Error:\n{}",
        render(diags)
    );
}

// ---------------------------------------------------------------- clean

#[test]
fn every_workload_is_error_free_on_all_four_architectures() {
    for net in workloads::all() {
        for arch in ArchParams::paper_suite(&net) {
            let diags = check_network(&net, &arch);
            assert!(
                !has_errors(&diags),
                "{} on {}:\n{}",
                net.name(),
                arch.kind.name(),
                render(&diags)
            );
        }
    }
}

#[test]
fn flexflow_programs_are_completely_clean() {
    // On FlexFlow itself not even warnings: the compiler emits no dead
    // code and every plan is bank/store/bus-safe by construction.
    for net in workloads::all() {
        let program = Compiler::new(16).compile(&net);
        let diags = check(&program, &net, &ArchParams::flexflow_paper());
        assert!(diags.is_empty(), "{}:\n{}", net.name(), render(&diags));
    }
}

#[test]
fn harness_base_plans_are_clean() {
    let arch = ArchParams::flexflow_paper();
    for (layer, u) in [(deep_layer(), deep_unroll()), (wide_layer(), wide_unroll())] {
        let p = plan(&layer, u);
        let diags = check_layer_plan(&p, &arch);
        assert!(diags.is_empty(), "{u}:\n{}", render(&diags));
    }
    assert_eq!(plan(&deep_layer(), deep_unroll()).slice_words, 96);
}

// --------------------------------------------- FXC01 local-store capacity

#[test]
fn fxc01_static_half_size_store_cannot_hold_the_slice() {
    // Corruption: the target hardware's store is halved (the ablation
    // configuration); the 96-word slice no longer fits.
    let mut arch = ArchParams::flexflow_paper();
    arch.store_words = 64;
    let diags = check_layer_plan(&plan(&deep_layer(), deep_unroll()), &arch);
    assert_only(&diags, RuleId::LsCapacity);
}

#[test]
#[should_panic(expected = "address out of range")]
fn fxc01_dynamic_half_size_store_overflows() {
    // The same slice streamed into a 64-word store runs off its end,
    // through the bound the PE array checks on every store access.
    let layer = deep_layer();
    let p = plan(&layer, deep_unroll());
    for addr in 0..p.slice_words {
        check_address(addr, 64);
    }
}

// ------------------------------------------------------- FXC02 CDB race

#[test]
fn fxc02_static_widened_walk_races_the_vertical_buses() {
    // Corruption: the Configure instruction walks Tj=6 synapse columns
    // per step while the mapping only spreads 3 residue classes.
    let layer = deep_layer();
    let mut p = plan(&layer, deep_unroll());
    p.walk.tj = 2 * p.mapping.tj;
    let diags = check_layer_plan(&p, &ArchParams::flexflow_paper());
    assert_only(&diags, RuleId::CdbRace);
}

#[test]
#[cfg_attr(debug_assertions, should_panic(expected = "FXC02"))]
fn fxc02_dynamic_widened_walk_trips_the_bus_guard() {
    // Replaying one corrupted step against the hardware's per-cycle
    // write-exclusivity guard: the 4th..6th synapse-column offsets land
    // on already-claimed buses.
    let u = deep_unroll();
    let mapping = Mapping::new(u);
    let mut claims = StepClaims::new(u.cols_used());
    for dn in 0..u.tn {
        for di in 0..u.ti {
            for dj in 0..2 * u.tj {
                claims.claim(mapping.operand_col(dn, 0, 0, di, dj, 1, 1));
            }
        }
    }
}

// ----------------------------------------------- FXC03 adder-tree ports
// Static-only: the PE array derives each output's row from the mapping
// and claims no port, so there is no runtime guard to trip.

#[test]
fn fxc03_static_widened_batch_contends_for_row_ports() {
    // Corruption: the Configure batch covers Tc=4 output columns while
    // the mapping owns 2 residue classes.
    let layer = deep_layer();
    let mut p = plan(&layer, deep_unroll());
    p.batch.tc = 2 * p.mapping.tc;
    let diags = check_layer_plan(&p, &ArchParams::flexflow_paper());
    assert_only(&diags, RuleId::AdderTreePort);
}

// ------------------------------------------- FXC04 slot-table bounds
// A warning, not an error: a layer past the PE array's 32-bit slot
// index still runs in the analytic model.

#[test]
fn fxc04_static_oversized_neuron_slot_table_warns() {
    // Corruption: the plan's store plan keys one neuron slot past
    // u32::MAX.
    let layer = deep_layer();
    let p = plan(&layer, deep_unroll());
    let mut store = StorePlan::new(p.layer, p.mapping);
    assert!(check_store_plan(&p, &store).is_empty());
    store.neuron.slots = u64::from(u32::MAX) + 1;
    let diags = check_store_plan(&p, &store);
    assert_eq!(diags.len(), 1, "{}", render(&diags));
    assert_eq!(diags[0].rule, RuleId::FsmBounds);
    assert_eq!(diags[0].severity, Severity::Warning);
    assert!(!has_errors(&diags));
}

#[test]
#[should_panic(expected = "exceed the PE array's 32-bit slot index")]
fn fxc04_dynamic_oversized_slot_table_panics() {
    // 256² output positions on 65,536 PE rows, each keying the 271²
    // neurons of its stripe: 65,536·271² > u32::MAX neuron slots. The
    // array panics while sizing its stores, before allocating a slot.
    let layer = ConvLayer::new("C", 1, 1, 256, 16);
    let u = Unroll::new(1, 1, 256, 256, 16, 16);
    let (input, kernels) = reference::random_layer_data(&layer, 3);
    PeArray::new(1 << 16).run_layer(&layer, u, &input, &kernels);
}

// ------------------------------------------------- FXC05 ISA protocol

#[test]
fn fxc05_static_dropped_halt_breaks_the_stream_protocol() {
    let net = workloads::lenet5();
    let compiled = Compiler::new(16).compile(&net);
    let mut instrs = compiled.instrs().to_vec();
    assert_eq!(instrs.pop(), Some(flexflow::isa::Instr::Halt));
    let corrupted = Program::from_parts("LeNet-5", 16, instrs);
    let diags = check(&corrupted, &net, &ArchParams::flexflow_paper());
    assert_only(&diags, RuleId::IsaProtocol);
}

#[test]
fn fxc05_dynamic_decoder_rejects_the_haltless_stream() {
    let net = workloads::lenet5();
    let compiled = Compiler::new(16).compile(&net);
    let mut words = compiled.encode();
    words.pop(); // drop the Halt word
    assert!(Decoder::new(16).decode_stream(&words).is_err());
}

// ------------------------------------------------ FXC06 unroll bounds

#[test]
fn fxc06_static_over_occupied_engine_is_rejected_at_derive() {
    // Corruption: 32 PE rows demanded of a 16x16 engine.
    let u = Unroll::new(8, 1, 2, 2, 1, 1);
    let err = LayerPlan::derive(&deep_layer(), 0, u, 16, STORE_WORDS).unwrap_err();
    assert_eq!(err.rule, RuleId::UnrollBounds);
    assert_eq!(err.severity, Severity::Error);
}

#[test]
#[should_panic(expected = "unrolling exceeds")]
fn fxc06_dynamic_over_occupied_engine_panics_the_scheduler() {
    let u = Unroll::new(8, 1, 2, 2, 1, 1);
    analytic::schedule(&deep_layer(), u, 16, STORE_WORDS);
}

// ------------------------------------------------ FXC07 bank conflicts
// Static-only: no simulator steps individual buffer-bank accesses.

#[test]
fn fxc07_static_halved_banks_cannot_stream_the_iadp_layout() {
    // Corruption: 8-bank buffers under a 12-column IADP layout.
    let mut arch = ArchParams::flexflow_paper();
    arch.buffer_banks = 8;
    let diags = check_layer_plan(&plan(&wide_layer(), wide_unroll()), &arch);
    assert_only(&diags, RuleId::BankConflict);
}

// -------------------------------------------- FXC08 utilization sanity

#[test]
fn fxc08_static_tampered_mac_count_breaks_the_identities() {
    let layer = wide_layer();
    let mut p = plan(&layer, wide_unroll());
    p.schedule.macs += 1;
    let diags = check_layer_plan(&p, &ArchParams::flexflow_paper());
    assert_only(&diags, RuleId::UtilSanity);
}

#[test]
fn fxc08_dynamic_functional_macs_diverge_from_the_tampered_claim() {
    // The cycle-stepped array measures the true MAC count; the engine's
    // schedule-vs-trace asserts would reject the tampered claim.
    let layer = wide_layer();
    let u = wide_unroll();
    let tampered = plan(&layer, u).schedule.macs + 1;
    let (input, kernels) = reference::random_layer_data(&layer, 7);
    let report = PeArray::new(16).run_layer(&layer, u, &input, &kernels);
    assert_eq!(report.macs, layer.macs());
    assert_ne!(report.macs, tampered);
}

// ------------------------------------------- FXC10 cycle exactness

/// Engine-recorded per-layer ledgers of `net` on a `d×d` FlexFlow.
fn recorded_flexflow(net: &Network, d: usize) -> Vec<LossLedger> {
    let rec = Arc::new(Recorder::new());
    let mut engine = FlexFlow::new(d);
    engine.attach_sink(SinkHandle::new(rec.clone()));
    let _ = engine.run_network(net);
    ledgers(&rec.take())
}

#[test]
fn fxc10_static_tampered_prediction_trips_cycle_exactness() {
    // Corruption: the symbolic evaluator's first claim is off by one
    // cycle — the weakest possible divergence the rule must still see.
    let net = workloads::lenet5();
    let mut predicted = ledgers(&FlexFlow::new(16).predict_network(&net));
    predicted[0].total_cycles += 1;
    let diags = check_cycle_exactness_all(&predicted, &recorded_flexflow(&net, 16));
    assert_only(&diags, RuleId::CycleExactness);
}

#[test]
fn fxc10_dynamic_tampered_recording_diverges_from_the_proof() {
    // The mirror corruption: the engine-side recording gains a stall
    // span the hardware never executed; the untouched prediction
    // rejects it (both the cycle total and the fill bucket move).
    let net = workloads::lenet5();
    let predicted = ledgers(&FlexFlow::new(16).predict_network(&net));
    let rec = Arc::new(Recorder::new());
    let mut engine = FlexFlow::new(16);
    engine.attach_sink(SinkHandle::new(rec.clone()));
    let _ = engine.run_network(&net);
    let mut timelines = rec.take();
    let end = timelines[0]
        .events
        .iter()
        .map(|e| e.start_cycle + e.cycles)
        .max()
        .unwrap();
    timelines[0].events.push(CycleEvent::new(
        CycleEventKind::Stall(StallCause::PipelineFill),
        end,
        4,
        0,
    ));
    let diags = check_cycle_exactness_all(&predicted, &ledgers(&timelines));
    assert_only(&diags, RuleId::CycleExactness);
}

#[test]
fn fxc10_holds_on_all_table1_pairs() {
    // The prover's clean sweep: on every (workload, architecture) pair
    // the closed-form prediction equals the recorded run exactly.
    for net in workloads::all() {
        for (idx, arch) in ARCH_NAMES.iter().enumerate() {
            let rec = Arc::new(Recorder::new());
            let mut acc = ArchSet::builder()
                .sink(SinkHandle::new(rec.clone()))
                .build_one(&net, idx);
            let predicted = ledgers(&acc.predict_network(&net));
            let _ = acc.run_network(&net);
            let diags = check_cycle_exactness_all(&predicted, &ledgers(&rec.take()));
            assert!(
                diags.is_empty(),
                "{}/{arch}:\n{}",
                net.name(),
                render(&diags)
            );
        }
    }
}

// --------------------------------------------- FXC11 ISA coverage

/// `net`'s compiled program with its first `Configure` duplicated in
/// place: the first copy's symbolic state dies unread (shadowed).
fn shadowed_program(net: &Network) -> (Program, usize) {
    let program = Compiler::new(16).compile(net);
    let mut instrs = program.instrs().to_vec();
    let pos = instrs
        .iter()
        .position(|i| matches!(i, flexflow::isa::Instr::Configure { .. }))
        .unwrap();
    let dup = instrs[pos];
    instrs.insert(pos + 1, dup);
    (
        Program::from_parts(program.name().to_owned(), program.d(), instrs),
        pos,
    )
}

#[test]
fn fxc11_static_shadowed_configure_trips_isa_coverage() {
    // Corruption: a Configure overwritten before any Conv observes it.
    // FXC05's protocol/dead-code checks cannot see it (the stream still
    // round-trips and every instruction is reachable); only the
    // symbolic liveness walk does — the full check() reports exactly
    // the coverage rule.
    let net = workloads::lenet5();
    let (mutated, pos) = shadowed_program(&net);
    let diags = check(&mutated, &net, &ArchParams::flexflow_paper());
    assert_only(&diags, RuleId::IsaCoverage);
    assert_eq!(diags[0].location.pc, Some(pos));
}

#[test]
fn fxc11_dynamic_shadowed_claim_diverges_from_the_overriding_run() {
    // Why shadowing matters at runtime: the engine runs each Conv on its
    // layer's *last* Configure, so a proof timed from the shadowed
    // claim's factors no longer matches the hardware. Shadow C1's
    // Configure with a fully serial unroll: the executed program runs
    // the overriding (compiler's) factors, in the cycles the recorded
    // run of those factors takes, and the exactness check rejects the
    // serial claim against that run.
    let net = workloads::lenet5();
    let (program, pos) = shadowed_program(&net);
    let mut instrs = program.instrs().to_vec();
    let flexflow::isa::Instr::Configure { layer, .. } = instrs[pos] else {
        panic!("pc {pos} is not the shadowed Configure");
    };
    let serial = Unroll::scalar();
    instrs[pos] = flexflow::isa::Instr::Configure {
        layer,
        unroll: serial,
    };
    let shadowed = Program::from_parts(program.name(), program.d(), instrs);
    let convs: Vec<&ConvLayer> = net.conv_layers().collect();
    let (input, k1) = reference::random_layer_data(convs[0], 21);
    let (_, k2) = reference::random_layer_data(convs[1], 22);
    let trace = FlexFlow::new(16).execute(&shadowed, &net, input, &[k1, k2]);
    let flexflow::engine::StepTrace::Conv {
        cycles: executed, ..
    } = trace.steps[0]
    else {
        panic!("C1 runs first");
    };
    let recorded = recorded_flexflow(&net, 16);
    let shadowed_claim =
        LossLedger::from_timeline(&FlexFlow::new(16).predict_with(convs[0], serial));
    assert_eq!(executed, recorded[0].total_cycles);
    assert_ne!(executed, shadowed_claim.total_cycles);
    let diags = flexcheck::check_cycle_exactness(&shadowed_claim, &recorded[0]);
    assert_only(&diags, RuleId::CycleExactness);
}

// ------------------------------------- FXC12 interference freedom

#[test]
fn fxc12_static_widened_walk_breaks_interval_disjointness() {
    // Same corruption family as FXC02, caught by the O(1) interval
    // form: the walk's bus interval escapes its residue period.
    let layer = wide_layer();
    let mut p = plan(&layer, wide_unroll());
    p.walk.tj += 1;
    let diags = check_interference(&p, &ArchParams::flexflow_paper());
    assert_only(&diags, RuleId::InterferenceFreedom);
    assert!(
        diags[0].message.contains("bus access intervals"),
        "{}",
        diags[0].message
    );
}

#[test]
#[cfg_attr(debug_assertions, should_panic(expected = "FXC02"))]
fn fxc12_dynamic_widened_walk_collides_on_a_claimed_bus() {
    // The interval overlap FXC12 proves statically is a literal bus
    // collision at runtime — on the wide 12-column configuration, a
    // distinct instance from the FXC02 harness's deep one.
    let u = wide_unroll();
    let mapping = Mapping::new(u);
    let mut claims = StepClaims::new(u.cols_used());
    for dn in 0..u.tn {
        for di in 0..u.ti {
            for dj in 0..u.tj + 1 {
                claims.claim(mapping.operand_col(dn, 0, 0, di, dj, 1, 1));
            }
        }
    }
}

#[test]
fn a_7x7_stem_proves_and_lints_clean_on_a_7x7_systolic_array() {
    // The widest kernel, not the workload's name, sizes the systolic
    // array: a lone 7×7 conv gets 7×7 arrays in the linter, the
    // builder and the prover alike, so all four pairs prove and the
    // sweep is clean.
    let net = flexsim_model::ffnet::parse_network(
        r#"{"name":"stem7","input":{"maps":3,"size":22},"nodes":[{"id":"c1","op":"conv","m":8,"k":7}]}"#,
    )
    .expect("stem7 parses");
    assert_eq!(ArchParams::paper_suite(&net)[0].array_k, 7);
    let ctx = flexsim_experiments::ExperimentCtx::serial("prove");
    let outcomes =
        flexsim_experiments::prove::run_workloads(&ctx, std::slice::from_ref(&net), false);
    assert_eq!(outcomes.len(), 4);
    for o in &outcomes {
        assert!(o.proved(), "{}: {}", o.arch, render(&o.diags));
    }
    let (result, errors) = flexsim_experiments::lint::run_workloads(&[net]);
    assert_eq!(errors, 0, "{result}");
    assert!(
        result.to_string().contains("0 errors, 0 warnings"),
        "{result}"
    );
}

// ------------------------------- one step schedule per architecture

#[test]
fn step_folds_equal_the_closed_forms_on_every_architecture() {
    // Seeded sweep over random small layers on small engines of all
    // four architectures, reaching strides, edge tiles (S not a
    // multiple of the array side), partial m-groups (M not a multiple
    // of the array count) and Systolic kernels wider than the array.
    // For each layer the closed-form aggregate's ledger equals the
    // ledger of the folded steps cause by cause, the folded heatmap
    // passes FXC13 against it, and the timeline covers exactly the
    // LayerResult's cycles.
    prop::check(
        "step_folds_equal_the_closed_forms",
        512,
        (
            0usize..=3,  // architecture
            1usize..=20, // M
            1usize..=6,  // N
            1usize..=12, // S
            1usize..=7,  // K
            1usize..=3,  // stride
            2usize..=8,  // engine side
            1usize..=4,  // systolic arrays
        ),
        |&(arch, m, n, s, k, stride, side, arrays)| {
            let layer = ConvLayer::new("P", m, n, s, k).with_stride(stride);
            let mut acc: Box<dyn Accelerator> = match arch {
                0 => Box::new(Systolic::new(side.min(6), arrays)),
                1 => Box::new(Mapping2d::new(side, side + 1)),
                2 => Box::new(TilingArray::new(side, side + 1)),
                _ => Box::new(FlexFlow::new(side * 2)),
            };
            let rec = Arc::new(Recorder::with_spatial());
            acc.attach_sink(SinkHandle::new(rec.clone()));
            let result = acc.run_conv(&layer);
            let timeline = rec.take().remove(0);
            let folded = LossLedger::from_timeline(&timeline);
            let closed = LossLedger::from_timeline(&acc.predict_layer(&layer));
            let tag = format!("{} on {layer:?}", acc.name());
            prop_assert_eq!(closed, folded.clone(), "{tag}");
            prop_assert!(folded.is_exact(), "{tag}: unbalanced ledger");
            let diags = check_spatial(&rec.take_spatial()[0], &folded);
            prop_assert!(diags.is_empty(), "{tag}:\n{}", render(&diags));
            prop_assert_eq!(timeline.total_cycles(), result.cycles, "{tag}");
            Ok(())
        },
    );
}
