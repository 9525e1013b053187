//! Quickstart: compile LeNet-5 for a 16×16 FlexFlow, run it
//! functionally end-to-end on real data, and print its assembly (whose
//! `cfg` lines are the per-layer plan) and statistics.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use flexflow::{Compiler, FlexFlow};
use flexsim_arch::Accelerator;
use flexsim_model::{reference, workloads, ConvLayer};

fn main() {
    // 1. Pick a workload (Table 1's LeNet-5) and compile it.
    let net = workloads::lenet5();
    println!("{net}");
    let compiler = Compiler::new(16);
    let program = compiler.compile(&net);

    // The `cfg` lines are the per-layer factor plan the engine runs.
    println!("-- assembly --\n{}", program.disassemble());

    // 2. Execute it functionally: real 16-bit fixed-point data through
    //    the cycle-stepped PE array and the pooling unit.
    let convs: Vec<&ConvLayer> = net.conv_layers().collect();
    let (input, k1) = reference::random_layer_data(convs[0], 7);
    let (_, k2) = reference::random_layer_data(convs[1], 8);
    let mut ff = FlexFlow::paper_config();
    let trace = ff.execute(&program, &net, input.clone(), &[k1.clone(), k2.clone()]);
    println!("-- functional execution --");
    for step in &trace.steps {
        match step {
            flexflow::engine::StepTrace::Conv {
                layer,
                cycles,
                macs,
            } => {
                println!("  conv {layer}: {cycles} cycles, {macs} MACs");
            }
            flexflow::engine::StepTrace::Pool {
                layer,
                cycles,
                alu_ops,
            } => {
                println!("  pool {layer}: {cycles} cycles, {alu_ops} ALU ops");
            }
        }
    }
    println!("  total: {} cycles", trace.cycles);

    // 3. Verify against the golden reference — the dataflow computes the
    //    exact same bits.
    let mid = reference::conv(convs[0], &input, &k1);
    let pooled = reference::pool(net.layers()[1].as_pool().unwrap(), &mid);
    let want = reference::conv(convs[1], &pooled, &k2);
    assert_eq!(trace.output, want, "functional output must be bit-exact");
    println!("  output verified bit-exact against the golden reference");

    // 4. The analytic path: timing / utilization / power for the same
    //    workload (what the paper's evaluation figures use).
    let summary = ff.run_network(&net);
    println!("\n-- analytic summary --");
    for layer in &summary.layers {
        println!("  {layer}");
    }
    println!(
        "  workload: {:.1}% utilization, {:.0} GOPS, {:.2} W, {:.2} mm²",
        summary.utilization() * 100.0,
        summary.gops(),
        summary.power_w(),
        ff.area().total_mm2()
    );
}
