//! Property tests of the unrolling compiler: the factor search's
//! choices must *cover* every loop bound without waste, its predicted
//! utilization `Ut` must match what the cycle-level FlexFlow simulator
//! actually achieves during PE-active cycles, and the closed-form runs
//! of `analytic::steps` must expand to the PE array's row-batch walk.

use flexflow::analytic::{
    self, schedule_default, Schedule, PIPELINE_FILL_CYCLES, SEGMENT_STALL_CYCLES,
};
use flexflow::array::PeArray;
use flexsim_dataflow::loopnest::grid;
use flexsim_dataflow::search::{best_unroll, plan_network};
use flexsim_dataflow::utilization::{ceil_div, tile_count, total_utilization};
use flexsim_dataflow::Unroll;
use flexsim_model::{reference, ConvLayer, Layer, Network, PoolKind, PoolLayer, WorkloadRegistry};
use flexsim_obs::attrib::StallCause;
use flexsim_obs::spatial::CellRect;
use flexsim_obs::steps::{Pass, Step};
use flexsim_testkit::prop::{self, option_of};
use flexsim_testkit::{prop_assert, prop_assert_eq};

const CASES: u32 = 64;
const D: usize = 16;

/// `layer`'s tile grid under `u` over the six Fig. 4 axes `(M,Tm)
/// (N,Tn) (S,Tr) (S,Tc) (K,Ti) (K,Tj)`: the tile count and the MACs
/// the tiles cover (each run weighted by its length).
fn fig4_tiles_and_macs(layer: &ConvLayer, u: Unroll) -> (u64, u64) {
    let (tiles, runs) = grid([
        (layer.m(), u.tm),
        (layer.n(), u.tn),
        (layer.s(), u.tr),
        (layer.s(), u.tc),
        (layer.k(), u.ti),
        (layer.k(), u.tj),
    ]);
    let macs = runs
        .map(|(tile, n)| tile.iter().product::<usize>() as u64 * n)
        .sum();
    (tiles, macs)
}

/// Raw `(m, n, s, k)` parameters for a small random CONV layer.
fn small_layer_params() -> (
    std::ops::RangeInclusive<usize>,
    std::ops::RangeInclusive<usize>,
    std::ops::RangeInclusive<usize>,
    std::ops::RangeInclusive<usize>,
) {
    (1..=6, 1..=5, 2..=9, 1..=5)
}

fn small_layer((m, n, s, k): (usize, usize, usize, usize)) -> ConvLayer {
    ConvLayer::new(format!("U{m}x{n}x{s}x{k}"), m, n, s, k)
}

/// Asserts one factor divides-or-covers its loop bound: it never
/// exceeds the bound, and the last tile of the `⌈bound/factor⌉` walk is
/// non-empty (no fully wasted tile).
fn assert_covers(factor: usize, bound: usize, what: &str) -> Result<(), String> {
    prop_assert!(factor >= 1, "{what}: zero factor");
    prop_assert!(
        factor <= bound,
        "{what}: factor {factor} exceeds loop bound {bound}"
    );
    let tiles = ceil_div(bound, factor);
    prop_assert!(
        factor * (tiles - 1) < bound,
        "{what}: last of {tiles} tiles is empty (factor {factor}, bound {bound})"
    );
    Ok(())
}

fn assert_unroll_covers(u: &Unroll, layer: &ConvLayer) -> Result<(), String> {
    assert_covers(u.tm, layer.m(), "Tm")?;
    assert_covers(u.tn, layer.n(), "Tn")?;
    assert_covers(u.tr, layer.s(), "Tr")?;
    assert_covers(u.tc, layer.s(), "Tc")?;
    assert_covers(u.ti, layer.k(), "Ti")?;
    assert_covers(u.tj, layer.k(), "Tj")?;
    Ok(())
}

#[test]
fn search_factors_divide_or_cover_loop_bounds() {
    // best_unroll never picks a factor that overshoots its bound or
    // schedules an empty trailing tile, under any R·C bound.
    prop::check(
        "search_factors_divide_or_cover_loop_bounds",
        CASES,
        (small_layer_params(), option_of(1usize..=8)),
        |&(lp, rc_bound)| {
            let layer = small_layer(lp);
            let choice = best_unroll(&layer, D, rc_bound);
            assert_unroll_covers(&choice.unroll, &layer)?;
            // Coverage also means the tile walk reproduces the exact
            // MAC total — no work dropped, none invented.
            let (tiles, walked) = fig4_tiles_and_macs(&layer, choice.unroll);
            prop_assert_eq!(walked, layer.macs());
            prop_assert_eq!(tiles, tile_count(&layer, &choice.unroll));
            Ok(())
        },
    );
}

#[test]
fn planner_factors_divide_or_cover_across_networks() {
    // The whole-network planner (with IADP coupling) obeys the same
    // coverage discipline on every layer it plans.
    prop::check(
        "planner_factors_divide_or_cover_across_networks",
        CASES,
        (1usize..=8, 4usize..=12, 1usize..=4, 1usize..=8, 1usize..=3),
        |&(m1, s1, k1, m2, k2)| {
            let s2_in = (s1 / 2).max(k2);
            let s2 = (s2_in - k2 + 1).max(1);
            let net = Network::builder("prop")
                .conv(ConvLayer::new("C1", m1, 1, s1, k1))
                .pool(PoolLayer::new("P", PoolKind::Max, 2, m1, s1))
                .conv(ConvLayer::new("C2", m2, m1, s2, k2).with_input_size(s2_in))
                .build();
            for (layer, choice) in net.conv_layers().zip(plan_network(&net, D)) {
                assert_unroll_covers(&choice.unroll, layer)?;
            }
            Ok(())
        },
    );
}

#[test]
fn predicted_utilization_matches_simulated_pe_active_cycles() {
    // The model's Ut (Eqs. 2-4) must equal the *simulated* occupancy:
    // executed MACs over PE-active compute steps times D² — measured by
    // the cycle-level array, not the analytic schedule.
    prop::check(
        "predicted_utilization_matches_simulated_pe_active_cycles",
        CASES,
        (small_layer_params(), 0u64..=9_999),
        |&(lp, seed)| {
            let layer = small_layer(lp);
            let choice = best_unroll(&layer, D, None);
            let (input, kernels) = reference::random_layer_data(&layer, seed);
            let mut array = PeArray::new(D);
            let report = array.run_layer(&layer, choice.unroll, &input, &kernels);

            prop_assert_eq!(report.compute_steps, tile_count(&layer, &choice.unroll));
            let simulated = report.macs as f64 / (report.compute_steps as f64 * (D * D) as f64);
            let predicted = total_utilization(&layer, &choice.unroll, D);
            prop_assert!(
                (simulated - predicted).abs() < 1e-9,
                "{}: predicted Ut {predicted} vs simulated {simulated}",
                layer.name()
            );
            // The search's own bookkeeping agrees with both.
            prop_assert!((choice.total_utilization() - predicted).abs() < 1e-9);
            Ok(())
        },
    );
}

#[test]
fn utilization_prediction_holds_under_arbitrary_feasible_unrollings() {
    // Not just the search's picks: any feasible unrolling's predicted
    // Ut matches the simulated PE-active occupancy (folding six raw
    // factor draws into the loop bounds as 1 + (raw-1) % bound).
    let f = || 1usize..=8;
    prop::check(
        "utilization_prediction_holds_under_arbitrary_feasible_unrollings",
        CASES,
        prop::filter(
            (
                small_layer_params(),
                (f(), f(), f(), f(), f(), f()),
                0u64..=9_999,
            ),
            |&(lp, (rm, rn, rr, rc, ri, rj), _)| {
                let layer = small_layer(lp);
                let fold = |raw: usize, bound: usize| 1 + (raw - 1) % bound;
                let u = Unroll::new(
                    fold(rm, layer.m()),
                    fold(rn, layer.n()),
                    fold(rr, layer.s()),
                    fold(rc, layer.s()),
                    fold(ri, layer.k()),
                    fold(rj, layer.k()),
                );
                u.rows_used() <= D && u.cols_used() <= D
            },
        ),
        |&(lp, (rm, rn, rr, rc, ri, rj), seed)| {
            let layer = small_layer(lp);
            let fold = |raw: usize, bound: usize| 1 + (raw - 1) % bound;
            let u = Unroll::new(
                fold(rm, layer.m()),
                fold(rn, layer.n()),
                fold(rr, layer.s()),
                fold(rc, layer.s()),
                fold(ri, layer.k()),
                fold(rj, layer.k()),
            );
            let (input, kernels) = reference::random_layer_data(&layer, seed);
            let mut array = PeArray::new(D);
            let report = array.run_layer(&layer, u, &input, &kernels);
            let simulated = report.macs as f64 / (report.compute_steps as f64 * (D * D) as f64);
            let predicted = total_utilization(&layer, &u, D);
            prop_assert!(
                (simulated - predicted).abs() < 1e-9,
                "{} under {u}: predicted {predicted} vs simulated {simulated}",
                layer.name()
            );
            Ok(())
        },
    );
}

/// The row-batches of `PeArray::run_layer`, one step each: row stripes
/// outer, column tiles, then output-map groups, each batch computing its
/// `tr·tc·tm` output neurons over all `N·K²` taps.
fn batch_walk_steps<'a>(
    layer: &'a ConvLayer,
    sch: &'a Schedule,
) -> impl Iterator<Item = Step> + 'a {
    let u = sch.unroll;
    let (m, n, s, k) = (layer.m(), layer.n(), layer.s(), layer.k());
    let rects = CellRect::full(u.rows_used(), u.cols_used()).into();
    let batches = (0..s).step_by(u.tr).flat_map(move |r0| {
        (0..s).step_by(u.tc).flat_map(move |c0| {
            (0..m)
                .step_by(u.tm)
                .map(move |m0| u.tr.min(s - r0) * u.tc.min(s - c0) * u.tm.min(m - m0))
        })
    });
    batches.enumerate().map(move |(batch, neurons)| {
        Step::new(Pass {
            cause: StallCause::MappingResidueIdle,
            cycles: sch.chunks,
            macs: (neurons * n * k * k) as u64,
            rects,
        })
        .stall(
            StallCause::PipelineFill,
            u64::from(batch == 0) * PIPELINE_FILL_CYCLES,
        )
        .stall(
            StallCause::PsumSpillRoundTrip,
            (sch.segments - 1) * SEGMENT_STALL_CYCLES,
        )
    })
}

/// Expands the runs of `analytic::steps` step by step against the batch
/// walk, and checks that they are maximal. Returns the run count.
fn runs_expand_to_the_batch_walk(layer: &ConvLayer, u: Unroll, d: usize) -> Result<u64, String> {
    let sch = schedule_default(layer, u, d);
    let mut walk = batch_walk_steps(layer, &sch);
    let (mut batch, mut runs) = (0u64, 0u64);
    let mut last: Option<Step> = None;
    for (step, count) in analytic::steps(layer, &sch) {
        prop_assert!(count > 0, "{} under {u}: empty run", layer.name());
        prop_assert!(
            last != Some(step),
            "{} under {u}: runs not maximal at batch {batch}",
            layer.name()
        );
        for _ in 0..count {
            let want = walk.next();
            prop_assert_eq!(
                Some(step),
                want,
                "{} under {u}, batch {batch}",
                layer.name()
            );
            batch += 1;
        }
        last = Some(step);
        runs += 1;
    }
    prop_assert!(
        walk.next().is_none(),
        "{} under {u}: runs end early",
        layer.name()
    );
    prop_assert_eq!(batch, sch.row_batches);
    Ok(runs)
}

/// Every CONV and FC layer (FC as a 1×1 convolution) of `net`.
fn layers(net: &Network) -> Vec<ConvLayer> {
    net.layers()
        .iter()
        .filter_map(|l| match l {
            Layer::Conv(c) => Some(c.clone()),
            Layer::Fc(fc) => Some(fc.as_conv()),
            Layer::Pool(_) => None,
        })
        .collect()
}

#[test]
fn step_runs_expand_to_the_batch_walk_on_every_workload_layer() {
    let registry =
        WorkloadRegistry::new().with_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples"));
    let mut nets = flexsim_model::workloads::all();
    for name in ["resnet_block", "mobilenet_block", "dilated"] {
        nets.push(registry.resolve(name).expect("example parses"));
    }
    for net in &nets {
        for d in [4, 8, 16] {
            let mut runs = 0;
            for layer in layers(net) {
                let u = best_unroll(&layer, d, None).unroll;
                runs += runs_expand_to_the_batch_walk(&layer, u, d)
                    .unwrap_or_else(|e| panic!("{}: {e}", net.name()));
            }
            if net.name() == "VGG-11" {
                // Every factor divides its loop: per layer, the fill
                // batch and one run of the rest (409,688 batches at 16).
                assert_eq!(runs, 2 * 8, "VGG-11 at d = {d}");
            }
        }
    }
}

/// Legalizes random factors into a `d×d` engine: clamp to the layer's
/// loop bounds, then shed occupancy until the unroll fits.
fn legalize(u: Unroll, layer: &ConvLayer, d: usize) -> Unroll {
    let mut u = u.clamped_to(layer);
    while u.rows_used() > d {
        if u.tm >= u.tr && u.tm >= u.tc {
            u.tm -= 1;
        } else if u.tr >= u.tc {
            u.tr -= 1;
        } else {
            u.tc -= 1;
        }
    }
    while u.cols_used() > d {
        if u.tn >= u.ti && u.tn >= u.tj {
            u.tn -= 1;
        } else if u.ti >= u.tj {
            u.ti -= 1;
        } else {
            u.tj -= 1;
        }
    }
    u
}

#[test]
fn step_runs_expand_to_the_batch_walk_on_random_layers() {
    // Strided and dilated layers; factors that leave edge tiles on
    // every loop and partial output-map and input-map groups. The
    // property keeps its first name, which seeds its 512 cases.
    let f = || 1usize..=9;
    prop::check(
        "step_runs_expand_to_the_tile_walk_on_random_layers",
        512,
        (
            (1usize..=40, 1usize..=24, 1usize..=20, 1usize..=5),
            (1usize..=3, 1usize..=3, 0usize..=2),
            (f(), f(), f(), f(), f(), f()),
        ),
        |&((m, n, s, k), (stride, dilation, d), (tm, tn, tr, tc, ti, tj))| {
            let d = [4, 8, 16][d];
            let layer = ConvLayer::new("R", m, n, s, k)
                .with_stride(stride)
                .with_dilation(dilation);
            let u = legalize(Unroll::new(tm, tn, tr, tc, ti, tj), &layer, d);
            runs_expand_to_the_batch_walk(&layer, u, d).map(|_| ())
        },
    );
}
