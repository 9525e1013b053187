//! The `network-exec` workload: whole networks compiled to FlexFlow
//! programs and executed on the cycle-stepped engine, against the
//! golden reference network walk.

use crate::run::{Bench, Checked};
use crate::trace::Tracer;
use flexflow::engine::{ExecutionTrace, StepTrace};
use flexflow::{Compiler, FlexFlow};
use flexsim_model::tensor::KernelSet;
use flexsim_model::{reference, Layer, Network, Tensor3, WorkloadRegistry};
use std::collections::BTreeMap;

/// Engine side of the paper's configuration.
const D: usize = 16;

/// The networks, as registry references: the fully connected LeNet-5
/// and the DAG example files (residual add, per-map depthwise concat,
/// dilated layers).
pub const NETS: [(&str, &str); 4] = [
    ("lenet5-full", "lenet5full"),
    (
        "resnet-block",
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../examples/resnet_block.ffnet"
        ),
    ),
    (
        "mobilenet-block",
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../examples/mobilenet_block.ffnet"
        ),
    ),
    (
        "dilated",
        concat!(env!("CARGO_MANIFEST_DIR"), "/../examples/dilated.ffnet"),
    ),
];

struct Prepared {
    key: &'static str,
    net: Network,
    macs: u64,
    input: Tensor3,
    kernels: Vec<KernelSet>,
}

/// Set-up state: resolved networks and their operands.
pub struct NetworkExec {
    nets: Vec<Prepared>,
    compiler: Compiler,
    engine: FlexFlow,
}

/// MACs of every CONV and FC layer (FC layers run as 1×1 convolutions).
fn network_macs(net: &Network) -> u64 {
    net.layers()
        .iter()
        .map(|l| match l {
            Layer::Conv(c) => c.macs(),
            Layer::Fc(f) => f.macs(),
            Layer::Pool(_) => 0,
        })
        .sum()
}

impl NetworkExec {
    /// Resolves the networks and generates network `i`'s input and
    /// weights at seed `seed + i`.
    ///
    /// # Errors
    ///
    /// A network reference that does not resolve.
    pub fn setup(seed: u64, tr: &mut Tracer) -> Result<NetworkExec, String> {
        let registry = WorkloadRegistry::new();
        let mut nets = Vec::with_capacity(NETS.len());
        for ((key, path), seed) in NETS.into_iter().zip(seed..) {
            let net = tr
                .time("model.registry.resolve", key, 0, || registry.resolve(path))
                .map_err(|e| format!("{key}: {e}"))?;
            let (input, kernels) = reference::random_network_data(&net, seed);
            nets.push(Prepared {
                key,
                macs: network_macs(&net),
                net,
                input,
                kernels,
            });
        }
        Ok(NetworkExec {
            nets,
            compiler: Compiler::new(D),
            engine: FlexFlow::new(D),
        })
    }
}

/// One network's engine trace and reference output.
pub struct NetOutputs {
    engine: ExecutionTrace,
    reference: Tensor3,
}

impl Bench for NetworkExec {
    type Output = Vec<NetOutputs>;

    fn pass(&mut self, tr: &mut Tracer) -> Vec<NetOutputs> {
        let mut outs = Vec::with_capacity(self.nets.len());
        for p in &self.nets {
            let program = tr.time("core.compiler.compile", p.key, 0, || {
                self.compiler.compile(&p.net)
            });
            let input = p.input.clone();
            let engine = tr.time("core.engine.execute", p.key, p.macs, || {
                self.engine.execute(&program, &p.net, input, &p.kernels)
            });
            let reference = tr.time("model.reference.network", p.key, p.macs, || {
                reference::network(&p.net, &p.input, &p.kernels)
            });
            outs.push(NetOutputs { engine, reference });
        }
        outs
    }

    fn check(&self, outs: Vec<NetOutputs>) -> Checked {
        let mut checked = Checked::default();
        let (mut cycles, mut conv_steps) = (0, 0);
        for (p, o) in self.nets.iter().zip(&outs) {
            if o.engine.output != o.reference {
                checked.errors.push(format!(
                    "{}: engine output differs from the reference",
                    p.key
                ));
            }
            let engine_macs: u64 = o
                .engine
                .steps
                .iter()
                .map(|s| match s {
                    StepTrace::Conv { macs, .. } => *macs,
                    StepTrace::Pool { .. } => 0,
                })
                .sum();
            if engine_macs != p.macs {
                checked.errors.push(format!(
                    "{}: engine ran {engine_macs} MACs, network has {}",
                    p.key, p.macs
                ));
            }
            checked.work += (2 * p.macs) as f64 / 1e6;
            cycles += o.engine.cycles;
            conv_steps += o
                .engine
                .steps
                .iter()
                .filter(|s| matches!(s, StepTrace::Conv { .. }))
                .count() as u64;
        }
        checked.counts = BTreeMap::from([
            ("core.engine.execute.conv_steps", conv_steps),
            ("core.engine.execute.cycles", cycles),
        ]);
        checked
    }
}
