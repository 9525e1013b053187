//! Compiler → ISA → engine integration.
//!
//! The Section 5 toolchain: the workload analyzer plans unrolling
//! factors, code generation emits the instruction stream, the decoder
//! ingests 64-bit words, and the engine executes them functionally.

use flexflow::compiler::Program;
use flexflow::isa::Instr;
use flexflow::{Compiler, FlexFlow};
use flexsim_dataflow::search::plan_network;
use flexsim_dataflow::Unroll;
use flexsim_model::tensor::KernelSet;
use flexsim_model::{reference, workloads, ConvLayer};

/// The unrolls `program`'s `Configure` instructions program, in stream
/// order: its factor plan, one per CONV/FC layer.
fn configured(program: &Program) -> Vec<Unroll> {
    program
        .instrs()
        .iter()
        .filter_map(|i| match *i {
            Instr::Configure { unroll, .. } => Some(unroll),
            _ => None,
        })
        .collect()
}

#[test]
fn every_workload_compiles_with_feasible_plans() {
    for net in flexsim_model::workloads::all() {
        let program = Compiler::new(16).compile(&net);
        let plan = configured(&program);
        assert_eq!(plan.len(), net.conv_layers().count());
        for (layer, u) in net.conv_layers().zip(plan) {
            assert!(
                u.cols_used() <= 16 && u.rows_used() <= 16,
                "{}/{}: infeasible plan {u}",
                net.name(),
                layer.name(),
            );
            assert_eq!(u, u.clamped_to(layer));
        }
        // The stream always terminates with Halt and round-trips the
        // binary encoding.
        assert_eq!(program.instrs().last(), Some(&Instr::Halt));
        for word in program.encode() {
            Instr::decode(word).expect("compiler emits decodable words");
        }
    }
}

#[test]
fn decoded_program_configures_the_planned_factors() {
    let net = workloads::lenet5();
    let program = Compiler::new(16).compile(&net);
    let mut decoded = Vec::new();
    for word in program.encode() {
        if let Instr::Configure { unroll, .. } = Instr::decode(word).unwrap() {
            decoded.push(unroll);
        }
    }
    let planned: Vec<_> = plan_network(&net, 16).iter().map(|c| c.unroll).collect();
    assert_eq!(decoded, planned);
}

/// LeNet-5's kernels (one set per CONV layer) and input, seeded.
fn lenet5_data(net: &flexsim_model::Network) -> (flexsim_model::Tensor3, Vec<KernelSet>) {
    let convs: Vec<&ConvLayer> = net.conv_layers().collect();
    let (input, k1) = reference::random_layer_data(convs[0], 555);
    let (_, k2) = reference::random_layer_data(convs[1], 556);
    (input, vec![k1, k2])
}

#[test]
fn execution_runs_the_configured_factors() {
    // The Configure words are the plan that runs: rewrite every one to
    // the scalar unroll and the engine takes longer, with the same bits.
    let net = workloads::lenet5();
    let program = Compiler::new(16).compile(&net);
    let scalar = Program::from_parts(
        program.name(),
        program.d(),
        program
            .instrs()
            .iter()
            .map(|&i| match i {
                Instr::Configure { layer, .. } => Instr::Configure {
                    layer,
                    unroll: Unroll::scalar(),
                },
                other => other,
            })
            .collect(),
    );
    let (input, kernels) = lenet5_data(&net);
    let mut ff = FlexFlow::paper_config();
    let planned = ff.execute(&program, &net, input.clone(), &kernels);
    let serial = ff.execute(&scalar, &net, input.clone(), &kernels);
    assert_ne!(serial.cycles, planned.cycles);
    assert!(serial.cycles > planned.cycles);
    assert_eq!(serial.output, reference::network(&net, &input, &kernels));
    assert_eq!(serial.output, planned.output);
}

#[test]
#[should_panic(expected = "the decoder rejects the program: pc 1: conv L0 without a configure")]
fn execution_panics_on_a_stream_the_decoder_rejects() {
    let net = workloads::lenet5();
    let program = Compiler::new(16).compile(&net);
    let mut instrs = program.instrs().to_vec();
    assert!(matches!(
        instrs.remove(0),
        Instr::Configure { layer: 0, .. }
    ));
    let unconfigured = Program::from_parts(program.name(), program.d(), instrs);
    let (input, kernels) = lenet5_data(&net);
    FlexFlow::paper_config().execute(&unconfigured, &net, input, &kernels);
}

#[test]
fn lenet5_end_to_end_execution_is_bit_exact() {
    // LeNet-5's printed chain is exactly consistent (C1 32→28, pool →14,
    // C3 →10), so the whole network runs functionally through the
    // engine: conv on the PE array, pooling on the pooling unit,
    // ping-pong buffer swaps in between.
    let net = workloads::lenet5();
    let program = Compiler::new(16).compile(&net);
    let mut ff = FlexFlow::paper_config();

    let convs: Vec<&ConvLayer> = net.conv_layers().collect();
    let (input, k1) = reference::random_layer_data(convs[0], 555);
    let (_, k2) = reference::random_layer_data(convs[1], 556);
    let trace = ff.execute(&program, &net, input.clone(), &[k1.clone(), k2.clone()]);

    // Golden chain.
    let c1_out = reference::conv(convs[0], &input, &k1);
    let pooled = reference::pool(net.layers()[1].as_pool().unwrap(), &c1_out);
    let want = reference::conv(convs[1], &pooled, &k2);

    assert_eq!(trace.output, want);
    assert_eq!(trace.output.maps(), 16);
    assert_eq!(trace.output.rows(), 10);
    assert_eq!(trace.steps.len(), 3); // conv, pool, conv
}

#[test]
fn execution_cycles_match_per_layer_schedules() {
    let net = workloads::chained_toy();
    let program = Compiler::new(8).compile(&net);
    let mut ff = FlexFlow::new(8);
    let convs: Vec<&ConvLayer> = net.conv_layers().collect();
    let (input, k1) = reference::random_layer_data(convs[0], 42);
    let (_, k2) = reference::random_layer_data(convs[1], 43);
    let trace = ff.execute(&program, &net, input, &[k1, k2]);

    let mut want_conv_cycles = 0u64;
    for (layer, u) in net.conv_layers().zip(configured(&program)) {
        want_conv_cycles += flexflow::analytic::schedule_default(layer, u, 8).cycles;
    }
    let got_conv_cycles: u64 = trace
        .steps
        .iter()
        .filter_map(|s| match s {
            flexflow::engine::StepTrace::Conv { cycles, .. } => Some(*cycles),
            _ => None,
        })
        .sum();
    assert_eq!(got_conv_cycles, want_conv_cycles);
    assert!(trace.cycles > got_conv_cycles); // pooling adds cycles
}

#[test]
fn disassembly_is_stable_and_complete() {
    let net = workloads::pv();
    let program = Compiler::new(16).compile(&net);
    let asm = program.disassemble();
    // 5 conv layers x (cfg + ldker + conv + swap) + 2 pools + halt.
    assert_eq!(asm.matches("conv ").count(), 5);
    assert_eq!(asm.matches("pool ").count(), 2);
    assert_eq!(asm.matches("cfg ").count(), 5);
    assert!(asm.ends_with("halt\n"));
}

#[test]
fn plans_differ_across_engine_scales() {
    // The compiler adapts factors to the engine: an 8x8 engine cannot
    // reuse a 32x32 plan.
    let net = workloads::lenet5();
    let small = Compiler::new(8).compile(&net);
    let large = Compiler::new(32).compile(&net);
    let (small, large) = (configured(&small), configured(&large));
    for (s, l) in small.iter().zip(&large) {
        assert!(s.rows_used() <= 8 && s.cols_used() <= 8);
        assert!(l.rows_used() <= 32 && l.cols_used() <= 32);
    }
    let small_par: usize = small.iter().map(Unroll::parallel_macs).sum();
    let large_par: usize = large.iter().map(Unroll::parallel_macs).sum();
    assert!(large_par > small_par);
}

#[test]
fn fc_layers_execute_as_1x1_convolutions() {
    use flexsim_model::{FcLayer, Network, PoolKind, PoolLayer};

    // conv (2@4x4) -> pool -> flatten (2*2*2 = 8) -> fc (8 -> 5)
    let net = Network::builder("with-fc")
        .conv(ConvLayer::new("C1", 2, 1, 4, 3))
        .pool(PoolLayer::new("P2", PoolKind::Max, 2, 2, 4))
        .layer(FcLayer::new("F3", 8, 5))
        .build();
    let program = Compiler::new(8).compile(&net);
    assert_eq!(configured(&program).len(), 2); // conv + fc

    let c1 = net.conv_layer("C1").unwrap();
    let (input, k1) = reference::random_layer_data(c1, 91);
    let fc_view = FcLayer::new("F3", 8, 5).as_conv();
    let (_, kfc) = reference::random_layer_data(&fc_view, 92);

    let mut ff = FlexFlow::new(8);
    let trace = ff.execute(&program, &net, input.clone(), &[k1.clone(), kfc.clone()]);

    // Golden chain: conv -> pool -> flatten -> fc (dot products).
    let mid = reference::conv(c1, &input, &k1);
    let pooled = reference::pool(net.layers()[1].as_pool().unwrap(), &mid);
    let flat: Vec<flexsim_model::Fx16> = pooled.as_slice().to_vec();
    let mut weights: Vec<flexsim_model::Fx16> = Vec::new();
    for o in 0..5 {
        for i in 0..8 {
            weights.push(kfc[(o, i, 0, 0)]);
        }
    }
    let want = reference::fc(&FcLayer::new("F3", 8, 5), &flat, &weights);

    assert_eq!(trace.output.maps(), 5);
    for (o, &w) in want.iter().enumerate() {
        assert_eq!(trace.output[(o, 0, 0)], w, "fc output {o}");
    }
}

#[test]
fn lenet5_full_runs_end_to_end_with_classifier() {
    use flexsim_model::{Fx16, Layer};

    let net = workloads::lenet5_full();
    let program = Compiler::new(16).compile(&net);
    assert_eq!(configured(&program).len(), 5); // 2 conv + 3 fc

    // Kernels for every Conv instruction, in network order.
    let mut kernels: Vec<KernelSet> = Vec::new();
    let mut seed = 700u64;
    for layer in net.layers() {
        match layer {
            Layer::Conv(c) => {
                let (_, k) = reference::random_layer_data(c, seed);
                kernels.push(k);
                seed += 1;
            }
            Layer::Fc(f) => {
                let view = f.as_conv();
                let (_, k) = reference::random_layer_data(&view, seed);
                kernels.push(k);
                seed += 1;
            }
            Layer::Pool(_) => {}
        }
    }

    let c1 = net.conv_layer("C1").unwrap();
    let (input, _) = reference::random_layer_data(c1, 699);
    let mut ff = FlexFlow::paper_config();
    let trace = ff.execute(&program, &net, input.clone(), &kernels);

    // Final classifier output: 10 logits.
    assert_eq!(trace.output.maps(), 10);
    assert_eq!((trace.output.rows(), trace.output.cols()), (1, 1));
    assert_eq!(trace.steps.len(), 7); // 2 conv + 2 pool + 3 fc

    // Verify against the golden chain.
    let mut current = input;
    let mut kidx = 0usize;
    for layer in net.layers() {
        current = match layer {
            Layer::Conv(c) => {
                let out = reference::conv(c, &current, &kernels[kidx]);
                kidx += 1;
                out
            }
            Layer::Pool(p) => reference::pool(p, &current),
            Layer::Fc(f) => {
                let flat: Vec<Fx16> = current.as_slice().to_vec();
                let mut weights: Vec<Fx16> = Vec::new();
                for o in 0..f.outputs() {
                    for i in 0..f.inputs() {
                        weights.push(kernels[kidx][(o, i, 0, 0)]);
                    }
                }
                kidx += 1;
                let out = reference::fc(f, &flat, &weights);
                flexsim_model::Tensor3::from_fn(f.outputs(), 1, 1, |m, _, _| out[m])
            }
        };
    }
    assert_eq!(trace.output, current);
}
