//! The `analytic-suite` workload: the closed-form timing models with
//! every observer attached — the report sweep, the static verifier,
//! the cycle-exactness prover, the loss profile, the spatial heatmaps —
//! and the same (workload, arch) pairs with no observer at all.

use crate::run::{Bench, Checked};
use crate::trace::Tracer;
use flexsim_arch::stats::RunSummary;
use flexsim_experiments::arches::{ArchSet, ARCH_NAMES};
use flexsim_experiments::heatmap::{self, ArchHeat};
use flexsim_experiments::prove::{self, ProveOutcome};
use flexsim_experiments::{lint, profile, run_suite, Experiment, ExperimentCtx, ExperimentResult};
use flexsim_experiments::{SuiteConfig, SuiteReport, REGISTRY};
use flexsim_model::{workloads, Network};
use std::collections::BTreeMap;

/// Metric keys of the four architectures, in [`ARCH_NAMES`] order.
pub const ARCH_KEYS: [&str; 4] = ["systolic", "mapping2d", "tiling", "flexflow"];

/// Set-up state: the Table 1 nets, the sweep's experiments and a
/// one-thread experiment context.
pub struct AnalyticSuite {
    nets: Vec<Network>,
    sweep: Vec<&'static dyn Experiment>,
    ctx: ExperimentCtx,
}

impl AnalyticSuite {
    /// Builds the nets and the serial context.
    pub fn setup() -> AnalyticSuite {
        AnalyticSuite {
            nets: workloads::all(),
            sweep: REGISTRY.iter().filter(|e| e.in_sweep()).copied().collect(),
            ctx: ExperimentCtx::serial("flexbench"),
        }
    }

    fn pairs(&self) -> impl Iterator<Item = (&Network, usize)> {
        self.nets
            .iter()
            .flat_map(|net| (0..ARCH_NAMES.len()).map(move |idx| (net, idx)))
    }
}

fn pair_label(net: &Network, idx: usize) -> String {
    format!("{}/{}", ARCH_KEYS[idx], net.name())
}

/// Everything one pass produced.
pub struct SuiteOutputs {
    suite: SuiteReport,
    lint_errors: usize,
    proofs: Vec<ProveOutcome>,
    profiles: Vec<ExperimentResult>,
    heats: Vec<ArchHeat>,
    plain: Vec<RunSummary>,
}

impl Bench for AnalyticSuite {
    type Output = SuiteOutputs;

    fn pass(&mut self, tr: &mut Tracer) -> SuiteOutputs {
        let config = SuiteConfig {
            jobs: 1,
            trace: false,
        };
        let suite = tr.time("experiments.run_suite", "sweep", 0, || {
            run_suite(&self.sweep, &config)
        });
        let (_, lint_errors) = tr.time("flexcheck.lint", "table1", 0, lint::run);
        // The prover and the profile run one net per call, so that the
        // yardstick can run between nets (see `yardstick`).
        let proofs = self
            .nets
            .iter()
            .flat_map(|net| {
                tr.time("flexcheck.prove", net.name(), 0, || {
                    prove::run_workloads(&self.ctx, std::slice::from_ref(net), false)
                })
            })
            .collect();
        let profiles = self
            .nets
            .iter()
            .map(|net| {
                tr.time("experiments.profile", net.name(), 0, || {
                    profile::run_workloads(&self.ctx, std::slice::from_ref(net))
                })
            })
            .collect();
        let heats = self
            .pairs()
            .map(|(net, idx)| {
                tr.time(
                    "experiments.heatmap.simulate",
                    &pair_label(net, idx),
                    0,
                    || heatmap::simulate(net, idx),
                )
            })
            .collect();
        let plain = self
            .pairs()
            .map(|(net, idx)| {
                tr.time("arch.run_network", &pair_label(net, idx), 0, || {
                    ArchSet::builder().build_one(net, idx).run_network(net)
                })
            })
            .collect();
        SuiteOutputs {
            suite,
            lint_errors,
            proofs,
            profiles,
            heats,
            plain,
        }
    }

    fn check(&self, out: SuiteOutputs) -> Checked {
        let mut checked = Checked::default();
        let mut err = |msg: String| checked.errors.push(msg);
        for f in &out.suite.failures {
            err(format!("experiment {} failed: {}", f.id, f.message));
        }
        if out.suite.results.len() != self.sweep.len() {
            err(format!(
                "{} of {} sweep results",
                out.suite.results.len(),
                self.sweep.len()
            ));
        }
        if out.lint_errors > 0 {
            err(format!("lint reported {} errors", out.lint_errors));
        }
        for (net, profile) in self.nets.iter().zip(&out.profiles) {
            if profile.table.rows().is_empty() {
                err(format!("{}: profile report has no rows", net.name()));
            }
        }
        let mut proved = 0;
        for p in &out.proofs {
            if p.proved() && p.recorded.iter().all(|l| l.is_exact()) {
                proved += 1;
            } else {
                err(format!("{}/{}: not proved cycle-exact", p.workload, p.arch));
            }
        }
        let (mut busy, mut lost, mut cells, mut cycles) = (0, 0, 0, 0);
        for (((net, idx), heat), plain) in self.pairs().zip(&out.heats).zip(&out.plain) {
            let pair = pair_label(net, idx);
            if !heat.diags.is_empty() {
                err(format!("{pair}: {} heatmap diagnostics", heat.diags.len()));
            }
            if !heat.ledgers.iter().all(|l| l.is_exact()) {
                err(format!("{pair}: a loss ledger is not exact"));
            }
            let observed: u64 = heat.ledgers.iter().map(|l| l.total_cycles).sum();
            if observed != plain.cycles() {
                err(format!(
                    "{pair}: {observed} cycles with observers, {} without",
                    plain.cycles()
                ));
            }
            busy += heat.ledgers.iter().map(|l| l.busy_pe_cycles).sum::<u64>();
            lost += heat
                .ledgers
                .iter()
                .map(|l| l.attributed_lost())
                .sum::<u64>();
            cells += heat
                .spatials
                .iter()
                .map(|s| s.pe_count() as u64)
                .sum::<u64>();
            cycles += plain.cycles();
        }
        checked.work = out.plain.len() as f64;
        checked.counts = BTreeMap::from([
            ("arch.run_network.cycles", cycles),
            ("flexcheck.prove.pairs_proved", proved),
            ("obs.heatmap.cells", cells),
            ("obs.ledger.busy_pe_cycles", busy),
            ("obs.ledger.lost_pe_cycles", lost),
        ]);
        checked
    }
}
