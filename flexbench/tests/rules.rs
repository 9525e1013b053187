//! The benchmark's own rules: percentiles, quartiles, span self time,
//! the workloads' layer regimes, the compare verdicts, and agreement
//! between the metrics the binary emits and `BENCHMARK.json`.

use flexbench::compare::{load_specs, verdict, Spec, Verdict};
use flexbench::expected::Counts;
use flexbench::layers;
use flexbench::metrics::per_layer;
use flexbench::stats::{median, percentile, quartiles};
use flexbench::trace::{self_times, Span};
use flexflow::analytic::schedule_default;
use flexflow::local_store::STORE_WORDS;
use flexsim_dataflow::search::best_unroll;
use flexsim_testkit::json::Json;
use std::path::Path;

fn samples(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn p50_needs_twenty_samples_and_p90_a_hundred() {
    assert_eq!(percentile(&samples(19), 50), None);
    assert_eq!(percentile(&samples(20), 50), Some(10.0));
    assert_eq!(percentile(&samples(99), 90), None);
    assert_eq!(percentile(&samples(100), 90), Some(90.0));
    assert_eq!(percentile(&samples(999), 99), None);
    assert!(percentile(&samples(1000), 99).is_some());
    // The median is the same nearest rank, without the sample guard.
    assert_eq!(median(&samples(20)), percentile(&samples(20), 50));
    assert_eq!(median(&samples(4)), Some(2.0));
    assert_eq!(median(&[]), None);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    assert_eq!(quartiles(&samples(10)), Some([2.75, 5.5, 8.25]));
    // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
    assert_eq!(quartiles(&[1.0]), None);
}

fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        name: "s",
        label: String::new(),
        pass: Some(0),
        parent,
        start_ns,
        end_ns,
        work: 0,
    }
}

#[test]
fn self_time_subtracts_overlapping_children_once() {
    let spans = [
        span(None, 0, 100),
        span(Some(0), 10, 50),
        span(Some(0), 30, 70),
        // Nested inside the first child: covers nothing new.
        span(Some(0), 20, 40),
        // Reaches past the parent's end: clipped.
        span(Some(0), 90, 120),
        span(Some(1), 15, 25),
    ];
    let self_ns = self_times(&spans);
    // Children cover [10, 70) and [90, 100): 70 of the parent's 100.
    assert_eq!(self_ns[0], 30);
    assert_eq!(self_ns[1], 30);
    assert_eq!(self_ns[2], 40);
    assert_eq!(self_ns[5], 10);
}

fn overflows_local_stores(case: &layers::LayerCase) -> bool {
    let u = best_unroll(&case.layer, 16, None).unroll;
    let sch = schedule_default(&case.layer, u, 16);
    sch.m_groups * sch.chunks > STORE_WORDS as u64
}

#[test]
fn small_layers_keep_kernels_resident_and_the_vgg_part_overflows() {
    for case in layers::small() {
        assert!(!overflows_local_stores(&case), "{} overflows", case.key);
    }
    let large = layers::large();
    assert!(large[0].layer.stride() > 1, "AlexNet C1 is strided");
    assert!(overflows_local_stores(&large[1]), "VGG-11 C12 part fits");
}

fn spec(lower_is_better: bool, bound: Option<f64>) -> Spec {
    Spec {
        lower_is_better,
        bound,
    }
}

#[test]
fn compare_verdicts_follow_the_win_rule_and_the_bound() {
    let base = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.01];
    let faster: Vec<f64> = base.iter().map(|v| v * 0.8).collect();
    let slower: Vec<f64> = base.iter().map(|v| v * 1.2).collect();
    let same: Vec<f64> = base.iter().rev().copied().collect();
    let lower = spec(true, Some(0.1));
    assert_eq!(verdict(&base, &faster, lower).0, Verdict::Improved);
    assert_eq!(verdict(&base, &slower, lower).0, Verdict::Regressed);
    assert_eq!(verdict(&base, &same, lower).0, Verdict::Unchanged);
    // A throughput: higher is better, so the faster set is worse.
    assert_eq!(
        verdict(&base, &faster, spec(false, Some(0.1))).0,
        Verdict::Regressed
    );
    // A spread wider than the bound leaves the verdict open, even for a
    // median worse by more than the bound,
    let noisy = [0.5, 1.5, 0.6, 1.4, 1.0, 0.7, 1.3, 0.8, 1.2, 1.0];
    let noisy_slower: Vec<f64> = noisy.iter().map(|v| v * 1.2).collect();
    assert_eq!(verdict(&noisy, &noisy, lower).0, Verdict::Unresolved);
    assert_eq!(verdict(&noisy, &noisy_slower, lower).0, Verdict::Unresolved);
    // ...while a win wider than the spread is still an improvement.
    let far_faster: Vec<f64> = noisy.iter().map(|v| v * 0.3).collect();
    assert_eq!(verdict(&noisy, &far_faster, lower).0, Verdict::Improved);
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

fn list<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    match doc {
        Json::Obj(pairs) => match pairs.iter().find(|(k, _)| k == key) {
            Some((_, Json::Arr(items))) => items,
            _ => panic!("BENCHMARK.json has no list {key}"),
        },
        _ => panic!("BENCHMARK.json is not an object"),
    }
}

fn str_field(item: &Json, key: &str) -> String {
    match item {
        Json::Obj(pairs) => match pairs.iter().find(|(k, _)| k == key) {
            Some((_, Json::Str(s))) => s.clone(),
            _ => panic!("entry has no string {key}"),
        },
        _ => panic!("entry is not an object"),
    }
}

#[test]
fn benchmark_json_lists_exactly_the_emitted_per_layer_metrics() {
    let doc = benchmark_json();
    let listed: Vec<(String, String)> = list(&doc, "per_layer")
        .iter()
        .map(|m| (str_field(m, "name"), str_field(m, "unit")))
        .collect();
    let emitted: Vec<(String, String)> = per_layer(&[], &[], &Counts::new(), &[], &[])
        .into_iter()
        .map(|m| (m.name, m.unit.to_owned()))
        .collect();
    assert_eq!(listed, emitted);
    let workloads: Vec<String> = list(&doc, "workloads")
        .iter()
        .map(|w| str_field(w, "name"))
        .collect();
    let names: Vec<String> = flexbench::run::Workload::ALL
        .iter()
        .map(|w| w.name().to_owned())
        .collect();
    assert_eq!(workloads, names);
    let specs = load_specs(Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../BENCHMARK.json"
    )))
    .unwrap();
    let end_to_end: Vec<String> = list(&doc, "end_to_end")
        .iter()
        .map(|m| str_field(m, "name"))
        .collect();
    assert_eq!(
        end_to_end,
        ["setup_s", "pass_s", "work_per_s", "peak_rss_mib"]
    );
    for name in &end_to_end {
        assert!(specs[name].bound.is_some(), "{name} has no bound");
    }
}
