//! End-to-end checks of the paper's headline claims across the whole
//! experiment harness.

use flexsim_arch::Accelerator;
use flexsim_experiments::arches::ArchSet;
use flexsim_experiments::{find, run_suite, SuiteConfig, REGISTRY};
use flexsim_model::{workloads, Network};

/// The four paper-scale (~256 PE) engines for `net`.
fn paper_arches(net: &Network) -> Vec<Box<dyn Accelerator>> {
    ArchSet::builder().build(net).into_vec()
}

#[test]
fn abstract_speedup_claims_hold_in_shape() {
    // "it acquires 2-10x performance speedup ... compared with three
    // state-of-the-art accelerator architectures". We verify the shape:
    // FlexFlow beats every baseline on every workload, and the speedup
    // over the *weakest* baseline reaches >5x somewhere while the
    // speedup over the *strongest* stays above 1x everywhere.
    let mut min_vs_best = f64::MAX;
    let mut max_vs_worst: f64 = 0.0;
    for net in workloads::all() {
        let mut gops = Vec::new();
        for mut acc in paper_arches(&net) {
            gops.push(acc.run_network(&net).gops());
        }
        let ff = gops[3];
        let best = gops[..3].iter().cloned().fold(f64::MIN, f64::max);
        let worst = gops[..3].iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            ff > best,
            "{}: FlexFlow {ff:.0} <= best baseline {best:.0}",
            net.name()
        );
        min_vs_best = min_vs_best.min(ff / best);
        max_vs_worst = max_vs_worst.max(ff / worst);
    }
    assert!(min_vs_best > 1.0);
    assert!(max_vs_worst > 5.0, "max speedup only {max_vs_worst:.1}x");
}

#[test]
fn abstract_efficiency_claims_hold_in_shape() {
    // "2.5-10x power efficiency improvement": FlexFlow has the best
    // GOPS/W on every workload and >2.5x over the weakest baseline on
    // the small nets.
    for net in workloads::all() {
        let mut eff = Vec::new();
        for mut acc in paper_arches(&net) {
            eff.push(acc.run_network(&net).efficiency_gops_per_w());
        }
        let ff = eff[3];
        for (i, &e) in eff[..3].iter().enumerate() {
            assert!(ff > e, "{}: baseline {i} more efficient", net.name());
        }
    }
    let lenet = workloads::lenet5();
    let mut worst = f64::MAX;
    let mut ff_eff = 0.0;
    for mut acc in paper_arches(&lenet) {
        let e = acc.run_network(&lenet).efficiency_gops_per_w();
        if acc.name() == "FlexFlow" {
            ff_eff = e;
        } else {
            worst = worst.min(e);
        }
    }
    assert!(ff_eff / worst > 2.5, "only {:.1}x", ff_eff / worst);
}

#[test]
fn areas_match_section_6_2_1_within_tolerance() {
    let net = workloads::lenet5();
    for (acc, (name, paper)) in paper_arches(&net)
        .iter()
        .zip(flexsim_experiments::paper::AREAS_MM2)
    {
        assert_eq!(acc.name(), name);
        let ours = acc.area().total_mm2();
        assert!(
            (ours - paper).abs() / paper < 0.08,
            "{name}: {ours:.2} vs paper {paper:.2} mm²"
        );
    }
}

#[test]
fn flexflow_area_is_largest_as_the_paper_reports() {
    // "The area of FlexFlow is slightly larger than other baselines
    // since the local stores equipped in each PE dictating part of area
    // budget."
    let net = workloads::lenet5();
    let areas: Vec<f64> = paper_arches(&net)
        .iter()
        .map(|a| a.area().total_mm2())
        .collect();
    let ff = areas[3];
    for &a in &areas[..3] {
        assert!(ff > a);
        assert!(ff / a < 1.35, "FlexFlow should be only slightly larger");
    }
}

#[test]
fn routing_share_declines_with_scale() {
    // Section 6.2.5's 28.3% -> 25.97% -> 21.3% trend: the CDB share of
    // FlexFlow's area/power budget declines as the engine grows.
    let mut prev = f64::MAX;
    for d in [16usize, 32, 64] {
        let ff = flexflow::FlexFlow::new(d);
        let share = ff.area().interconnect_fraction();
        assert!(share < prev, "share must decline at {d}x{d}");
        prev = share;
    }
}

#[test]
fn all_experiments_run_and_render() {
    let experiments: Vec<_> = REGISTRY.iter().filter(|e| e.in_sweep()).copied().collect();
    let report = run_suite(&experiments, &SuiteConfig::default());
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    // `profile` and `tune` are opt-in diagnostics excluded from the
    // sweep.
    let swept = flexsim_experiments::experiment_ids()
        .iter()
        .filter(|&&id| id != "profile" && id != "tune")
        .count();
    assert_eq!(report.results.len(), swept);
    // The committed `results/` are what `flexsim --out results all`
    // writes: every sweep result must reproduce its pair byte for byte,
    // which pins the priced layers of all four architectures.
    let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let committed = |ext: &str, id: &str| {
        let path = results.join(format!("{id}.{ext}"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    };
    for r in &report.results {
        assert!(!r.table.rows().is_empty(), "{} is empty", r.id);
        let text = r.to_string();
        assert!(text.contains(&r.id));
        assert!(
            text == committed("txt", &r.id),
            "results/{}.txt drifted",
            r.id
        );
        let json = r.to_json();
        assert!(json.contains(&r.id));
        assert!(
            json == committed("json", &r.id),
            "results/{}.json drifted",
            r.id
        );
    }
    assert_eq!(
        std::fs::read_dir(&results).unwrap().count(),
        2 * report.results.len(),
        "results/ holds exactly one .txt and one .json per sweep result"
    );
}

#[test]
fn experiment_lookup_by_id_and_alias() {
    for id in flexsim_experiments::experiment_ids() {
        assert_eq!(
            find(id).map(flexsim_experiments::Experiment::id),
            Some(*id),
            "{id} not resolvable"
        );
    }
    for (alias, id) in [
        ("fig1", "fig01"),
        ("table3", "table03"),
        ("table7", "table07"),
    ] {
        assert_eq!(find(alias).unwrap().id(), id);
    }
    assert!(find("fig99").is_none());
}

#[test]
fn dram_acc_per_op_beats_eyeriss_baseline() {
    // Table 7's headline: FlexFlow 0.0049 < Eyeriss 0.006 Acc/Op.
    let net = workloads::alexnet();
    let t = flexsim_arch::dram::network_traffic(&net, 16 * 1024, 16 * 1024);
    let per_op = t.per_op(net.conv_macs());
    assert!(
        per_op < 0.006 * 1.6,
        "acc/op {per_op:.4} too far above Eyeriss"
    );
    assert!(per_op > 0.002, "acc/op {per_op:.4} implausibly low");
}
