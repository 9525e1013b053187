//! Property-based cross-crate invariants (flexsim-testkit harness).

use flexflow::array::PeArray;
use flexflow::isa::Instr;
use flexsim_dataflow::loopnest::grid;
use flexsim_dataflow::search::best_unroll;
use flexsim_dataflow::utilization::{tile_count, total_utilization};
use flexsim_dataflow::Unroll;
use flexsim_model::{reference, ConvLayer};
use flexsim_testkit::prop::{self, filter, option_of};
use flexsim_testkit::{prop_assert, prop_assert_eq};

const CASES: u32 = 64;

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
    (1..=4, 1..=4, 2..=8, 1..=4)
}

fn small_layer((m, n, s, k): (usize, usize, usize, usize)) -> ConvLayer {
    ConvLayer::new(format!("C{m}x{n}x{s}x{k}"), m, n, s, k)
}

/// Raw parameters for a layer plus an unrolling: the six factor draws
/// are folded into each loop bound with `1 + (raw - 1) % bound`, which
/// keeps every factor in `1..=bound` while sampling all of them.
type LayerUnrollParams = (
    (usize, usize, usize, usize),
    (usize, usize, usize, usize, usize, usize),
);

fn layer_unroll(params: LayerUnrollParams) -> (ConvLayer, Unroll) {
    let (lp, (rm, rn, rr, rc, ri, rj)) = params;
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
    (layer, u)
}

/// Strategy: a layer with a feasible unrolling for a D=16 engine.
fn feasible_layer_unroll() -> impl prop::Strategy<Value = LayerUnrollParams> {
    let factor = || 1usize..=8;
    filter(
        (
            small_layer_params(),
            (factor(), factor(), factor(), factor(), factor(), factor()),
        ),
        |&params| {
            let (_, u) = layer_unroll(params);
            u.rows_used() <= 16 && u.cols_used() <= 16
        },
    )
}

#[test]
fn flexflow_array_always_bit_exact() {
    // The FlexFlow array computes the reference convolution under any
    // feasible unrolling on any small layer.
    prop::check(
        "flexflow_array_always_bit_exact",
        CASES,
        (feasible_layer_unroll(), 0u64..=9_999),
        |&(params, seed)| {
            let (layer, u) = layer_unroll(params);
            let (input, kernels) = reference::random_layer_data(&layer, seed);
            let want = reference::conv(&layer, &input, &kernels);
            let mut array = PeArray::new(16);
            let report = array.run_layer(&layer, u, &input, &kernels);
            prop_assert_eq!(report.output, want, "unroll {}", u);
            prop_assert_eq!(report.macs, layer.macs());
            Ok(())
        },
    );
}

#[test]
fn utilization_identity_universal() {
    // The utilization identity Ut·tiles·D² = MACs holds for every
    // feasible unrolling.
    prop::check(
        "utilization_identity_universal",
        CASES,
        feasible_layer_unroll(),
        |&params| {
            let (layer, u) = layer_unroll(params);
            let d = 16usize;
            let ut = total_utilization(&layer, &u, d);
            let tiles = tile_count(&layer, &u) as f64;
            let macs = layer.macs() as f64;
            prop_assert!((ut * tiles * (d * d) as f64 - macs).abs() < 1e-6 * macs.max(1.0));
            prop_assert!(ut > 0.0 && ut <= 1.0 + 1e-12);
            Ok(())
        },
    );
}

#[test]
fn tiles_partition_the_loop_nest() {
    // Tile iteration covers each MAC exactly once for any unrolling.
    prop::check(
        "tiles_partition_the_loop_nest",
        CASES,
        feasible_layer_unroll(),
        |&params| {
            let (layer, u) = layer_unroll(params);
            let (tiles, macs) = fig4_tiles_and_macs(&layer, u);
            prop_assert_eq!(macs, layer.macs());
            prop_assert_eq!(tiles, tile_count(&layer, &u));
            Ok(())
        },
    );
}

#[test]
fn search_respects_constraints() {
    // The factor search always returns a constraint-satisfying unroll
    // that beats (or ties) the scalar mapping.
    prop::check(
        "search_respects_constraints",
        CASES,
        (small_layer_params(), option_of(1usize..=8)),
        |&(lp, bound)| {
            let layer = small_layer(lp);
            let choice = best_unroll(&layer, 16, bound);
            prop_assert!(choice.unroll.satisfies(&layer, 16, bound));
            let scalar = total_utilization(&layer, &Unroll::scalar(), 16);
            prop_assert!(choice.total_utilization() >= scalar - 1e-12);
            Ok(())
        },
    );
}

#[test]
fn schedule_cycles_lower_bounded_by_macs() {
    // The analytic schedule's cycle count is consistent with its own
    // batch/chunk decomposition and never undercounts the MAC bound.
    prop::check(
        "schedule_cycles_lower_bounded_by_macs",
        CASES,
        feasible_layer_unroll(),
        |&params| {
            let (layer, u) = layer_unroll(params);
            let sch = flexflow::analytic::schedule_default(&layer, u, 16);
            prop_assert!(sch.cycles * 256 >= sch.macs);
            prop_assert!(sch.cycles >= sch.row_batches * sch.chunks);
            prop_assert!(sch.utilization() <= 1.0);
            Ok(())
        },
    );
}

#[test]
fn isa_round_trip_fuzz() {
    // ISA words round-trip for arbitrary factor combinations and layer
    // indices.
    let f = || 1usize..=128;
    prop::check(
        "isa_round_trip_fuzz",
        CASES,
        (0u8..=255, f(), f(), f(), f(), f(), f()),
        |&(layer_idx, tm, tn, tr, tc, ti, tj)| {
            let i = Instr::Configure {
                layer: layer_idx,
                unroll: Unroll::new(tm, tn, tr, tc, ti, tj),
            };
            prop_assert_eq!(Instr::decode(i.encode()).unwrap(), i);
            Ok(())
        },
    );
}

#[test]
fn fixed_point_mac_close_to_float() {
    // Fixed-point multiply-accumulate agrees with wide float math
    // within one rounding step.
    let r = || -500i16..=500;
    prop::check(
        "fixed_point_mac_close_to_float",
        CASES,
        (r(), r(), r(), r()),
        |&(a, b, c, d)| {
            use flexsim_model::{Acc32, Fx16};
            let (fa, fb, fc, fd) = (
                Fx16::from_raw(a),
                Fx16::from_raw(b),
                Fx16::from_raw(c),
                Fx16::from_raw(d),
            );
            let mut acc = Acc32::ZERO;
            acc.mac(fa, fb);
            acc.mac(fc, fd);
            let float = fa.to_f64() * fb.to_f64() + fc.to_f64() * fd.to_f64();
            prop_assert!((acc.to_f64() - float).abs() < 1e-9);
            prop_assert!((acc.to_fx16().to_f64() - float).abs() <= 1.0 / 512.0 + 1e-12);
            Ok(())
        },
    );
}

#[test]
fn dram_traffic_monotone_in_buffer_size() {
    // DRAM traffic estimation is monotone: shrinking the buffers never
    // reduces traffic.
    prop::check(
        "dram_traffic_monotone_in_buffer_size",
        CASES,
        small_layer_params(),
        |&lp| {
            use flexsim_arch::dram::conv_layer_traffic;
            let layer = small_layer(lp);
            let big = conv_layer_traffic(&layer, 1 << 20, 1 << 20);
            let small = conv_layer_traffic(&layer, 64, 64);
            prop_assert!(small.reads >= big.reads);
            prop_assert_eq!(small.writes, big.writes);
            Ok(())
        },
    );
}
