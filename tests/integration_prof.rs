//! Property suite for exact cycle-loss attribution (flexcheck FXC09)
//! and the `flexsim profile` report.
//!
//! Three layers of guarantees:
//!
//! 1. **Exactness identity** — for every (workload, architecture) pair
//!    of the Table 1 sweep, every layer's ledger balances:
//!    `busy_pe_cycles + Σ attributed_lost == total_cycles × pe_count`,
//!    with busy PE-cycles equal to the analytic MAC count. No
//!    "unattributed" bucket exists to hide an emitter bug in.
//! 2. **Taxonomy reachability** — every [`StallCause`] variant is
//!    actually produced by some simulator on some Table 1 layer; a
//!    cause that nothing can emit is dead weight in the taxonomy.
//! 3. **Mutation coverage** — corrupting a timeline (gap, overlap)
//!    trips exactly flexcheck rule FXC09, proving the gate detects the
//!    corruption classes it claims to.

use flexsim_experiments::arches::{ArchSet, ARCH_NAMES};
use flexsim_model::registry::WorkloadRegistry;
use flexsim_model::workloads;
use flexsim_obs::attrib::{ledgers, LossLedger, StallCause};
use flexsim_obs::cycles::{
    CycleEvent, CycleEventKind, LayerCtx, LayerTimeline, Recorder, SinkHandle,
};
use flexsim_testkit::json::Json;
use std::collections::HashSet;
use std::sync::Arc;

/// Runs `net` on the architecture at `idx`, returning the run summary
/// and one ledger per simulated layer.
fn run_with_ledgers(
    net: &flexsim_model::Network,
    idx: usize,
) -> (flexsim_arch::RunSummary, Vec<LossLedger>) {
    let rec = Arc::new(Recorder::new());
    let mut acc = ArchSet::builder()
        .sink(SinkHandle::new(rec.clone()))
        .build_one(net, idx);
    let summary = acc.run_network(net);
    (summary, ledgers(&rec.take()))
}

#[test]
fn exactness_identity_holds_for_every_workload_and_arch() {
    for net in workloads::all() {
        for (idx, arch) in ARCH_NAMES.iter().enumerate() {
            let (summary, layer_ledgers) = run_with_ledgers(&net, idx);
            assert_eq!(
                layer_ledgers.len(),
                summary.layers.len(),
                "{}/{arch}: one timeline per layer",
                net.name()
            );
            for (lr, ledger) in summary.layers.iter().zip(&layer_ledgers) {
                assert_eq!(lr.layer, ledger.layer, "{}/{arch}", net.name());
                assert!(
                    ledger.is_exact(),
                    "{}/{arch}/{}: busy {} + lost {} != {} x {} (unattributed {})",
                    net.name(),
                    lr.layer,
                    ledger.busy_pe_cycles,
                    ledger.attributed_lost(),
                    ledger.total_cycles,
                    ledger.pe_count,
                    ledger.unattributed()
                );
                // Busy PE-cycles are exactly the layer's useful MACs.
                assert_eq!(
                    ledger.busy_pe_cycles,
                    lr.macs,
                    "{}/{arch}/{}",
                    net.name(),
                    lr.layer
                );
                // The FXC09 gate agrees with is_exact().
                assert!(flexcheck::check_ledger(ledger).is_empty());
            }
        }
    }
}

#[test]
fn every_stall_cause_is_reachable_on_the_table1_sweep() {
    let mut seen: HashSet<&'static str> = HashSet::new();
    for net in workloads::all() {
        for idx in 0..ARCH_NAMES.len() {
            let (_, layer_ledgers) = run_with_ledgers(&net, idx);
            for ledger in &layer_ledgers {
                for cause in StallCause::ALL {
                    if ledger.lost(cause) > 0 {
                        seen.insert(cause.name());
                    }
                }
            }
        }
    }
    let all: HashSet<&'static str> = StallCause::ALL.iter().map(|c| c.name()).collect();
    let missing: Vec<_> = all.difference(&seen).collect();
    assert!(
        missing.is_empty(),
        "unreachable stall causes (dead taxonomy variants): {missing:?}"
    );
}

/// A clean synthetic timeline: fill stall, busy pass, spill stall.
fn clean_timeline() -> LayerTimeline {
    LayerTimeline {
        ctx: LayerCtx::new("MutArch", "C1", 4),
        events: vec![
            CycleEvent::new(CycleEventKind::Stall(StallCause::PipelineFill), 0, 8, 0),
            CycleEvent::new(
                CycleEventKind::Pass(StallCause::MappingResidueIdle),
                8,
                10,
                30,
            ),
            CycleEvent::new(
                CycleEventKind::Stall(StallCause::PsumSpillRoundTrip),
                18,
                2,
                0,
            ),
        ],
    }
}

#[test]
fn mutation_gap_and_overlap_trip_exactly_fxc09() {
    // The clean timeline passes the gate.
    let clean = LossLedger::from_timeline(&clean_timeline());
    assert!(flexcheck::check_ledger(&clean).is_empty());

    // Mutation 1: a gap — the pass starts 3 cycles late.
    let mut gapped = clean_timeline();
    gapped.events[1].start_cycle += 3;
    let ledger = LossLedger::from_timeline(&gapped);
    let diags = flexcheck::check_ledger(&ledger);
    assert!(!diags.is_empty(), "gap not caught");
    for d in &diags {
        assert_eq!(d.rule, flexcheck::RuleId::AttributionExactness, "{d}");
        assert_eq!(d.severity, flexcheck::Severity::Error, "{d}");
    }

    // Mutation 2: an overlap — the spill starts inside the pass.
    let mut overlapped = clean_timeline();
    overlapped.events[2].start_cycle -= 2;
    let ledger = LossLedger::from_timeline(&overlapped);
    let diags = flexcheck::check_ledger(&ledger);
    assert!(!diags.is_empty(), "overlap not caught");
    assert!(diags
        .iter()
        .all(|d| d.rule == flexcheck::RuleId::AttributionExactness));

    // check_ledgers aggregates over layers: one bad layer taints the
    // batch, the clean one contributes nothing.
    let batch = [
        LossLedger::from_timeline(&clean_timeline()),
        LossLedger::from_timeline(&gapped),
    ];
    assert_eq!(flexcheck::check_ledgers(&batch).len(), diags.len());
}

#[test]
fn every_cause_flows_from_event_to_ledger() {
    // One synthetic event per cause: the cause must survive the
    // event → ledger pipeline unmerged.
    for cause in StallCause::ALL {
        let tl = LayerTimeline {
            ctx: LayerCtx::new("CauseArch", "L", 2),
            events: vec![
                CycleEvent::new(CycleEventKind::Stall(cause), 0, 5, 0),
                CycleEvent::new(CycleEventKind::Pass(cause), 5, 5, 10),
            ],
        };
        let ledger = LossLedger::from_timeline(&tl);
        assert!(ledger.is_exact());
        // 5×2 stall + (5×2−10) pass remainder, all on this cause.
        assert_eq!(ledger.lost(cause), 10);
        assert_eq!(ledger.attributed_lost(), 10);
        assert_eq!(ledger.busy_pe_cycles, 10);
    }
}

#[test]
fn profile_report_json_parses_and_balances() {
    // What the ci.sh smoke stage asserts, hermetically: the profile
    // report's JSON is well-formed, covers every architecture, and is
    // produced only after every ledger passed the FXC09 gate (the run
    // panics otherwise).
    let ctx = flexsim_experiments::ExperimentCtx::serial("profile");
    let net = WorkloadRegistry::new().resolve("lenet-5").unwrap();
    let result = flexsim_experiments::profile::run_workloads(&ctx, &[net]);
    let parsed = Json::parse(&result.to_json()).expect("profile JSON parses");
    let text = parsed.pretty();
    for arch in ARCH_NAMES {
        assert!(text.contains(arch), "missing {arch}");
    }
    assert!(text.contains("(all)"), "missing aggregate rows");
}
