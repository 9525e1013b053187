//! Named metrics, and the per-layer metrics a traced run derives from
//! its spans and exact counts.
//!
//! Every per-layer metric is reported on every workload; one whose
//! layer the workload does not call reads 0.

use crate::analytic::ARCH_KEYS;
use crate::expected::Counts;
use crate::stats::median;
use crate::trace::Span;
use crate::{layers, network};
use flexsim_testkit::json::Json;

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// Unit, as `BENCHMARK.json` lists it.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
    /// Samples the value summarizes.
    pub samples: usize,
}

impl Metric {
    /// A metric from its parts.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            samples,
        }
    }

    /// `{"value", "unit"}`, the form of the run's result line.
    pub fn result_json(&self) -> Json {
        Json::obj([
            ("value", Json::Float(self.value)),
            ("unit", Json::str(self.unit)),
        ])
    }

    /// `{"value", "unit", "samples"}`, the form of the run record.
    pub fn record_json(&self) -> Json {
        Json::obj([
            ("value", Json::Float(self.value)),
            ("unit", Json::str(self.unit)),
            ("samples", Json::Int(self.samples as i64)),
        ])
    }
}

/// Calls, summed self time and summed work of the spans named `name`
/// whose label passes `label`.
struct Agg {
    calls: usize,
    self_ns: f64,
    work: f64,
}

impl Agg {
    fn per_call(&self, scale: f64) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns / self.calls as f64 / scale
        }
    }

    fn per_work(&self) -> f64 {
        ratio(self.self_ns, self.work)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer metrics of a traced run: host costs from the spans'
/// self times (`self_ns`, parallel to `spans`), exact counts of one
/// pass, and the tracing overhead between the traced and untraced
/// pass times.
pub fn per_layer(
    spans: &[Span],
    self_ns: &[u64],
    counts: &Counts,
    traced: &[f64],
    untraced: &[f64],
) -> Vec<Metric> {
    let agg = |name: &str, label: &dyn Fn(&str) -> bool| {
        let mut a = Agg {
            calls: 0,
            self_ns: 0.0,
            work: 0.0,
        };
        for (s, &ns) in spans.iter().zip(self_ns) {
            if s.name == name && label(&s.label) {
                a.calls += 1;
                a.self_ns += ns as f64;
                a.work += s.work as f64;
            }
        }
        a
    };
    let all = |name: &str| agg(name, &|_| true);
    let count = |name: &str| counts.get(name).copied().unwrap_or(0) as f64;
    let passes = spans.iter().filter(|s| s.name == "pass").count() as f64;
    let n = traced.len();
    let mut out = Vec::new();
    let exact = |out: &mut Vec<Metric>, names: &[&str]| {
        out.extend(
            names
                .iter()
                .map(|name| Metric::new(*name, "count", count(name), n)),
        );
    };

    // core: the cycle-stepped PE array and the network engine.
    let array = all("core.array.run_layer");
    let reference = all("model.reference.conv");
    out.push(Metric::new(
        "core.array.run_layer.ns_per_mac",
        "ns/MAC",
        array.per_work(),
        array.calls,
    ));
    out.push(Metric::new(
        "core.array.run_layer.ratio_to_reference",
        "ratio",
        ratio(array.per_work(), reference.per_work()),
        array.calls,
    ));
    for case in layers::small().into_iter().chain(layers::large()) {
        let a = agg("core.array.run_layer", &|l| l == case.key);
        out.push(Metric::new(
            format!("core.array.run_layer.ns_per_mac.{}", case.key),
            "ns/MAC",
            a.per_work(),
            a.calls,
        ));
    }
    exact(
        &mut out,
        &[
            "core.array.macs",
            "core.array.cycles",
            "core.array.bus_words",
            "core.array.store_reads",
            "core.array.store_writes",
            "core.array.adder_tree_adds",
        ],
    );
    out.push(Metric::new(
        "core.array.operand_reuse",
        "ratio",
        ratio(
            count("core.array.store_reads"),
            count("core.array.store_writes"),
        ),
        n,
    ));
    let execute = all("core.engine.execute");
    out.push(Metric::new(
        "core.engine.execute.ns_per_mac",
        "ns/MAC",
        execute.per_work(),
        execute.calls,
    ));
    out.push(Metric::new(
        "core.engine.execute.us_per_conv_step",
        "us",
        ratio(
            execute.self_ns / 1e3,
            count("core.engine.execute.conv_steps") * passes,
        ),
        execute.calls,
    ));
    for (key, _) in network::NETS {
        let a = agg("core.engine.execute", &|l| l == key);
        out.push(Metric::new(
            format!("core.engine.execute.us.{key}"),
            "us",
            a.per_call(1e3),
            a.calls,
        ));
    }
    exact(
        &mut out,
        &[
            "core.engine.execute.cycles",
            "core.engine.execute.conv_steps",
        ],
    );
    let compile = all("core.compiler.compile");
    out.push(Metric::new(
        "core.compiler.compile.us",
        "us",
        compile.per_call(1e3),
        compile.calls,
    ));

    // baselines and model.
    for sim in ["systolic", "mapping2d", "tiling"] {
        let a = all(&format!("baselines.{sim}.forward"));
        out.push(Metric::new(
            format!("baselines.{sim}.forward.ns_per_mac"),
            "ns/MAC",
            a.per_work(),
            a.calls,
        ));
    }
    out.push(Metric::new(
        "model.reference.conv.ns_per_mac",
        "ns/MAC",
        reference.per_work(),
        reference.calls,
    ));
    let net_ref = all("model.reference.network");
    out.push(Metric::new(
        "model.reference.network.us",
        "us",
        net_ref.per_call(1e3),
        net_ref.calls,
    ));
    let resolve = all("model.registry.resolve");
    out.push(Metric::new(
        "model.registry.resolve.us",
        "us",
        resolve.per_call(1e3),
        resolve.calls,
    ));

    // arch and obs: the same (workload, arch) pairs plain and observed.
    let plain = all("arch.run_network");
    out.push(Metric::new(
        "arch.run_network.us",
        "us",
        plain.per_call(1e3),
        plain.calls,
    ));
    for key in ARCH_KEYS {
        let a = agg("arch.run_network", &|l| l.split('/').next() == Some(key));
        out.push(Metric::new(
            format!("arch.run_network.us.{key}"),
            "us",
            a.per_call(1e3),
            a.calls,
        ));
    }
    exact(&mut out, &["arch.run_network.cycles"]);
    let heat = all("experiments.heatmap.simulate");
    out.push(Metric::new(
        "obs.observer_overhead_ratio",
        "ratio",
        ratio(heat.self_ns, plain.self_ns),
        heat.calls,
    ));
    exact(
        &mut out,
        &[
            "obs.ledger.busy_pe_cycles",
            "obs.ledger.lost_pe_cycles",
            "obs.heatmap.cells",
        ],
    );

    // flexcheck.
    let lint = all("flexcheck.lint");
    out.push(Metric::new(
        "flexcheck.lint.ms",
        "ms",
        lint.per_call(1e6),
        lint.calls,
    ));
    // The prover, the profile and the tuner run one net per call; their
    // metrics are per pass.
    let per_pass = |a: &Agg, scale: f64| ratio(a.self_ns / scale, passes);
    let prove = all("flexcheck.prove");
    out.push(Metric::new(
        "flexcheck.prove.ms",
        "ms",
        per_pass(&prove, 1e6),
        prove.calls,
    ));
    exact(&mut out, &["flexcheck.prove.pairs_proved"]);
    out.push(Metric::new(
        "flexcheck.prune_ratio",
        "ratio",
        ratio(
            count("experiments.tune.pruned"),
            count("experiments.tune.enumerated"),
        ),
        n,
    ));

    // experiments and dataflow.
    let suite = all("experiments.run_suite");
    out.push(Metric::new(
        "experiments.run_suite.ms",
        "ms",
        suite.per_call(1e6),
        suite.calls,
    ));
    let profile = all("experiments.profile");
    out.push(Metric::new(
        "experiments.profile.ms",
        "ms",
        per_pass(&profile, 1e6),
        profile.calls,
    ));
    out.push(Metric::new(
        "experiments.heatmap.ms",
        "ms",
        per_pass(&heat, 1e6),
        heat.calls,
    ));
    let tune = all("experiments.tune");
    out.push(Metric::new(
        "experiments.tune.ms",
        "ms",
        per_pass(&tune, 1e6),
        tune.calls,
    ));
    out.push(Metric::new(
        "experiments.tune.us_per_candidate",
        "us",
        ratio(per_pass(&tune, 1e3), count("experiments.tune.scored")),
        tune.calls,
    ));
    exact(
        &mut out,
        &[
            "experiments.tune.enumerated",
            "experiments.tune.pruned",
            "experiments.tune.scored",
            "experiments.tune.recovered_pe_cycles",
        ],
    );
    let plan = all("dataflow.search.plan_network");
    out.push(Metric::new(
        "dataflow.search.plan_network.us",
        "us",
        plan.per_call(1e3),
        plan.calls,
    ));

    let overhead = match (median(traced), median(untraced)) {
        (Some(t), Some(u)) => (t / u - 1.0) * 100.0,
        _ => 0.0,
    };
    out.push(Metric::new("trace_overhead_pct", "%", overhead, n));
    out
}
