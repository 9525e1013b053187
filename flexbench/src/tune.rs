//! The `tune-search` workload: the compiler's joint planner and the
//! exhaustive mapping tuner over the Table 1 nets, the latter fanned
//! over the work-stealing pool.

use crate::run::{Bench, Checked};
use crate::trace::Tracer;
use flexsim_dataflow::search::{plan_network, LayerChoice};
use flexsim_experiments::tune::{tune_workloads_with, Budget, TuneOutcome, VerifyMode};
use flexsim_experiments::ExperimentCtx;
use flexsim_model::{workloads, Network};
use std::collections::BTreeMap;

/// Engine side of the paper's configuration.
const D: usize = 16;

/// Most pool workers the workload uses.
pub const MAX_WORKERS: usize = 2;

/// Pool workers on this host: `min(2, available parallelism)`.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(MAX_WORKERS))
}

/// Set-up state: the Table 1 nets and a pooled experiment context.
pub struct TuneSearch {
    nets: Vec<Network>,
    ctx: ExperimentCtx,
}

impl TuneSearch {
    /// Builds the nets and a pool of [`workers`] executors.
    pub fn setup() -> TuneSearch {
        TuneSearch {
            nets: workloads::all(),
            ctx: ExperimentCtx::parallel("flexbench", workers()),
        }
    }
}

/// The planner's choices per net and the tuner's outcomes.
pub struct TuneOutputs {
    plans: Vec<Vec<LayerChoice>>,
    tuned: Vec<TuneOutcome>,
}

impl Bench for TuneSearch {
    type Output = TuneOutputs;

    fn pass(&mut self, tr: &mut Tracer) -> TuneOutputs {
        let plans = self
            .nets
            .iter()
            .map(|net| {
                tr.time("dataflow.search.plan_network", net.name(), 0, || {
                    plan_network(net, D)
                })
            })
            .collect();
        // One net per call, so that the yardstick can run between nets
        // (see `yardstick`).
        let tuned = self
            .nets
            .iter()
            .flat_map(|net| {
                tr.time("experiments.tune", net.name(), 0, || {
                    tune_workloads_with(
                        &self.ctx,
                        std::slice::from_ref(net),
                        Budget::Full,
                        VerifyMode::Engine,
                    )
                })
            })
            .collect();
        TuneOutputs { plans, tuned }
    }

    fn check(&self, out: TuneOutputs) -> Checked {
        let mut checked = Checked::default();
        for (net, plan) in self.nets.iter().zip(&out.plans) {
            if plan.len() != net.conv_layers().count() {
                checked
                    .errors
                    .push(format!("{}: plan covers {} layers", net.name(), plan.len()));
            }
        }
        let (mut enumerated, mut pruned, mut scored, mut recovered) = (0, 0, 0, 0);
        for t in &out.tuned {
            for l in &t.layers {
                enumerated += l.enumerated as u64;
                pruned += l.pruned as u64;
                scored += l.scored as u64;
            }
            match u64::try_from(t.recovered_pe_cycles()) {
                Ok(r) => recovered += r,
                Err(_) => checked
                    .errors
                    .push(format!("{}: tuning lost PE-cycles", t.workload)),
            }
        }
        checked.work = scored as f64;
        checked.counts = BTreeMap::from([
            ("experiments.tune.enumerated", enumerated),
            ("experiments.tune.pruned", pruned),
            ("experiments.tune.recovered_pe_cycles", recovered),
            ("experiments.tune.scored", scored),
        ]);
        checked
    }
}
