//! PE-occupancy visualization: time-resolved utilization sparklines for
//! every layer of a workload, under the planned factors and under
//! deliberately bad single-parallelism mappings — Fig. 15's bars, but
//! you can see *where* the PEs go idle. Each sparkline is the recorded
//! cycle timeline's occupancy.
//!
//! ```text
//! cargo run --release --example pe_occupancy [workload]
//! ```

use flexflow::FlexFlow;
use flexsim_arch::Accelerator;
use flexsim_dataflow::search::{best_unroll_in_style, plan_network};
use flexsim_dataflow::{Style, Unroll};
use flexsim_model::{workloads, ConvLayer};
use flexsim_obs::cycles::{Recorder, SinkHandle};
use flexsim_obs::OccupancyTimeline;
use std::sync::Arc;

/// The recorded occupancy of `layer` under `u` on a `d×d` FlexFlow.
fn occupancy(layer: &ConvLayer, u: Unroll, d: usize) -> OccupancyTimeline {
    let rec = Arc::new(Recorder::new());
    let mut ff = FlexFlow::new(d);
    ff.attach_sink(SinkHandle::new(rec.clone()));
    let _ = ff.run_conv_with(layer, u);
    rec.take()[0].occupancy()
}

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "LeNet-5".into());
    let net = workloads::all()
        .into_iter()
        .find(|n| n.name().eq_ignore_ascii_case(&name))
        .unwrap_or_else(workloads::lenet5);
    let d = 16;
    println!(
        "{} on a {d}x{d} FlexFlow — per-cycle PE occupancy\n",
        net.name()
    );

    let plan = plan_network(&net, d);
    let idxs = net.conv_indices();
    for (pos, (layer, choice)) in net.conv_layers().zip(&plan).enumerate() {
        let bound = net
            .successor_coupling(idxs[pos])
            .map(|c| c.pool_window * c.next_conv.k());
        println!("{layer}");
        let planned = occupancy(layer, choice.unroll, d);
        println!("  planned {:<24} {planned}", choice.unroll.to_string());
        for (label, style) in [
            ("SP-only (Systolic-like)", Style::systolic()),
            ("NP-only (2D-Map-like)", Style::mapping2d()),
            ("FP-only (Tiling-like)", Style::tiling()),
        ] {
            let restricted = best_unroll_in_style(layer, d, bound, style);
            let t = occupancy(layer, restricted.unroll, d);
            println!("  {label:<32} {t}");
        }
        println!();
    }
    println!(
        "(each character is a time bucket; height = mean busy PEs out of {})",
        d * d
    );
}
