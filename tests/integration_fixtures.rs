//! Golden fixture tests: committed checksums of reference-convolution
//! outputs for one layer of each Table 1 workload.
//!
//! The checksums in `tests/fixtures/golden_checksums.txt` pin the exact
//! Q7.8 output bits of the golden reference on fixed seeds. The test
//! then requires all four architecture simulators to reproduce those
//! bits exactly. This catches two failure classes the property suites
//! can't: a *semantics drift* of the reference itself (e.g. a rounding
//! change in `Fx16`/`Acc32`, or a PRNG change altering the committed
//! operand streams), and any simulator regression on real workload
//! shapes.
//!
//! `tests/fixtures/pe_array_counters.txt` pins every counter of the
//! cycle-stepped FlexFlow PE array on a seeded sweep of random layers:
//! strides, dilations, edge tiles, partial groups, both engine sizes,
//! and both local-store overflow regimes (kernel store and neuron
//! store). A rewrite of `PeArray::run_layer` must reproduce every line.
//!
//! `tests/fixtures/report_checksums.txt` pins the `flexsim` binary's
//! JSON reports: one line per command with its exit code, stdout byte
//! length and stdout FNV-1a digest. A refactor that claims
//! byte-identical reports must reproduce every line.
//!
//! Regenerate after an intentional numerics change with:
//! `FLEXSIM_REGEN_FIXTURES=1 cargo test -q -p flexsim-experiments --test integration_fixtures`

use flexflow::analytic::schedule_default;
use flexflow::array::{FunctionalReport, PeArray};
use flexflow::local_store::STORE_WORDS;
use flexflow::mapping::Mapping;
use flexsim_baselines::{Mapping2d, Systolic, TilingArray};
use flexsim_dataflow::search::best_unroll;
use flexsim_dataflow::Unroll;
use flexsim_model::{reference, workloads, ConvLayer, Network, Tensor3};
use flexsim_testkit::prop::fnv1a;
use flexsim_testkit::SplitMix64;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::Command;

/// One pinned valid-convolution layer per Table 1 workload, with a
/// fixed operand seed. AlexNet's only unpadded CONV layer is C1 (its
/// later layers use same-padding, which the bit-exact functional
/// simulators don't model); everywhere else the last CONV layer is
/// both unpadded and small enough for the cycle-level simulators.
fn fixture_layers() -> Vec<(Network, &'static str, u64)> {
    vec![
        (workloads::pv(), "C7", 41),
        (workloads::fr(), "C3", 42),
        (workloads::lenet5(), "C3", 43),
        (workloads::hg(), "C3", 44),
        (workloads::alexnet(), "C1", 45),
        (workloads::vgg11(), "C12", 46),
    ]
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(name)
}

/// The committed fixture lines of `name`, or the lines written in their
/// place under `FLEXSIM_REGEN_FIXTURES` (then `None`).
fn committed_lines(name: &str, header: &str, lines: &[String]) -> Option<Vec<String>> {
    let path = fixture_path(name);
    if std::env::var("FLEXSIM_REGEN_FIXTURES").is_ok() {
        let mut body = String::from(header);
        for line in lines {
            let _ = writeln!(body, "{line}");
        }
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, body).unwrap();
        eprintln!("regenerated {}", path.display());
        return None;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); regenerate with FLEXSIM_REGEN_FIXTURES=1",
            path.display()
        )
    });
    Some(
        committed
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
            .map(str::to_owned)
            .collect(),
    )
}

/// FNV-1a over the output tensor's raw Q7.8 words (little-endian), plus
/// its shape — any single flipped output bit changes the digest.
fn tensor_checksum(t: &Tensor3) -> u64 {
    let mut bytes = Vec::with_capacity(t.maps() * t.rows() * t.cols() * 2 + 12);
    for &dim in &[t.maps(), t.rows(), t.cols()] {
        bytes.extend_from_slice(&(dim as u32).to_le_bytes());
    }
    for m in 0..t.maps() {
        for r in 0..t.rows() {
            for c in 0..t.cols() {
                bytes.extend_from_slice(&t[(m, r, c)].raw().to_le_bytes());
            }
        }
    }
    fnv1a(&bytes)
}

fn render_line(net: &str, layer: &ConvLayer, seed: u64, checksum: u64) -> String {
    format!(
        "{net} {name} seed={seed} m={m} out={s}x{s} checksum={checksum:016x}",
        name = layer.name(),
        m = layer.m(),
        s = layer.s(),
    )
}

fn golden_lines() -> Vec<(String, ConvLayer, Tensor3, u64)> {
    fixture_layers()
        .into_iter()
        .map(|(net, layer_name, seed)| {
            let layer = net
                .conv_layer(layer_name)
                .unwrap_or_else(|| panic!("{} has no layer {layer_name}", net.name()))
                .clone();
            assert!(
                layer.is_valid_convolution(),
                "fixture layers must be functional"
            );
            let (input, kernels) = reference::random_layer_data(&layer, seed);
            let want = reference::conv(&layer, &input, &kernels);
            let line = render_line(net.name(), &layer, seed, tensor_checksum(&want));
            (line, layer, want, seed)
        })
        .collect()
}

#[test]
fn reference_outputs_match_committed_checksums() {
    let golden: Vec<String> = golden_lines().into_iter().map(|(line, ..)| line).collect();
    let Some(committed) = committed_lines(
        "golden_checksums.txt",
        "# Golden reference-convolution checksums, one layer per Table 1 workload.\n\
         # Format: <workload> <layer> seed=<s> m=<maps> out=<RxC> checksum=<fnv1a64>\n\
         # Regenerate: FLEXSIM_REGEN_FIXTURES=1 cargo test -q -p flexsim-experiments --test integration_fixtures\n",
        &golden,
    ) else {
        return;
    };
    assert_eq!(
        committed.len(),
        golden.len(),
        "fixture file entry count drifted; regenerate if intentional"
    );
    for (line, want) in golden.iter().zip(&committed) {
        assert_eq!(
            line, want,
            "golden reference output drifted from the committed fixture; \
             if the numerics change is intentional, regenerate the fixtures"
        );
    }
}

#[test]
fn all_simulators_reproduce_fixture_outputs_bit_exactly() {
    for (_, layer, want, seed) in golden_lines() {
        let (input, kernels) = reference::random_layer_data(&layer, seed);

        // The functional Systolic and 2D-Mapping models are stride-1
        // machines; AlexNet C1 (stride 4) is covered by the other two.
        if layer.stride() == 1 {
            assert_eq!(
                Systolic::dc_cnn().forward(&layer, &input, &kernels),
                want,
                "Systolic drifted on fixture {}",
                layer.name()
            );
            assert_eq!(
                Mapping2d::shidiannao().forward(&layer, &input, &kernels),
                want,
                "2D-Mapping drifted on fixture {}",
                layer.name()
            );
        }
        assert_eq!(
            TilingArray::diannao().forward(&layer, &input, &kernels),
            want,
            "Tiling drifted on fixture {}",
            layer.name()
        );
        let choice = best_unroll(&layer, 16, None);
        let mut array = PeArray::new(16);
        let report = array.run_layer(&layer, choice.unroll, &input, &kernels);
        assert_eq!(
            report.output,
            want,
            "FlexFlow drifted on fixture {}",
            layer.name()
        );
    }
}

// ------------------------------------------------- PE-array counter sweep

/// Layers in the counter sweep; each runs under two unrollings.
const SWEEP_LAYERS: u64 = 64;

/// A random small valid convolution: stride 1–3, dilation 1–2, and now
/// and then an input wider than the windows need.
fn sweep_layer(rng: &mut SplitMix64) -> ConvLayer {
    let (m, n) = (rng.gen_range(1..=16usize), rng.gen_range(1..=16usize));
    let (s, k) = (rng.gen_range(2..=12usize), rng.gen_range(1..=5usize));
    let (stride, dilation) = (rng.gen_range(1..=3usize), rng.gen_range(1..=2usize));
    let layer = ConvLayer::new(format!("C{m}x{n}x{s}x{k}"), m, n, s, k)
        .with_stride(stride)
        .with_dilation(dilation);
    let extra = if rng.gen_bool() {
        0
    } else {
        rng.gen_range(0..=2usize)
    };
    let s_in = layer.input_size() + extra;
    layer.with_input_size(s_in)
}

/// A random unrolling other than `best` that satisfies Constraint (1)
/// on a `d×d` engine, dilation coprimality included.
fn other_unroll(rng: &mut SplitMix64, layer: &ConvLayer, d: usize, best: Unroll) -> Unroll {
    let mut factor = |bound: usize| rng.gen_range(1..=bound.min(d));
    loop {
        let u = Unroll::new(
            factor(layer.m()),
            factor(layer.n()),
            factor(layer.s()),
            factor(layer.s()),
            factor(layer.k()),
            factor(layer.k()),
        );
        if u != best && u.satisfies(layer, d, None) {
            return u;
        }
    }
}

/// Which local stores overflow: the kernel store when the map groups'
/// chunks outnumber its words (kernels are re-broadcast every column
/// tile), the neuron store when one PE sees more distinct neurons in a
/// row stripe than it has words. Counted here from the mapping alone.
fn regime(layer: &ConvLayer, u: Unroll, d: usize) -> &'static str {
    let sch = schedule_default(layer, u, d);
    let kernels_overflow = sch.m_groups * sch.chunks > STORE_WORDS as u64;
    let map = Mapping::new(u);
    let (stride, dil, s) = (layer.stride(), layer.dilation(), layer.s());
    let s_in = layer.input_size();
    let neurons_overflow = (0..s).step_by(u.tr).any(|r0| {
        let mut seen: HashMap<(usize, usize), HashSet<usize>> = HashMap::new();
        for om in 0..u.tm.min(layer.m()) {
            for r in r0..(r0 + u.tr).min(s) {
                for c in 0..s {
                    let row = map.output_row(om, r, c);
                    for inm in 0..layer.n() {
                        for i in 0..layer.k() {
                            for j in 0..layer.k() {
                                let col = map.operand_col(inm, r, c, i, j, stride, dil);
                                let (ir, ic) = (r * stride + i * dil, c * stride + j * dil);
                                let id = (inm * s_in + ir) * s_in + ic;
                                seen.entry((row, col)).or_default().insert(id);
                            }
                        }
                    }
                }
            }
        }
        seen.values().any(|ids| ids.len() > STORE_WORDS)
    });
    match (kernels_overflow, neurons_overflow) {
        (false, false) => "resident",
        (true, false) => "kernel-overflow",
        (false, true) => "neuron-overflow",
        (true, true) => "both-overflow",
    }
}

/// Every counter of a report except the output, in field order.
fn report_counters(r: &FunctionalReport) -> [u64; 10] {
    [
        r.cycles,
        r.compute_steps,
        r.macs,
        r.vertical_bus_words,
        r.horizontal_bus_words,
        r.max_vertical_bus_words,
        r.max_horizontal_bus_words,
        r.store_reads,
        r.store_writes,
        r.adder_tree_adds,
    ]
}

/// Runs the sweep: one fixture line per (layer, unrolling), each
/// checked bit-exact against the reference convolution.
fn counter_sweep() -> Vec<String> {
    let mut rng = SplitMix64::new(0x00F1_E7F1_0C0F_FEE5);
    let mut lines = Vec::new();
    for index in 0..SWEEP_LAYERS {
        let d = *rng.choose(&[4, 16]);
        let layer = sweep_layer(&mut rng);
        let best = best_unroll(&layer, d, None).unroll;
        let other = other_unroll(&mut rng, &layer, d, best);
        let seed = 1000 + index;
        let (input, kernels) = reference::random_layer_data(&layer, seed);
        let want = reference::conv(&layer, &input, &kernels);
        for u in [best, other] {
            let report = PeArray::new(d).run_layer(&layer, u, &input, &kernels);
            assert_eq!(report.output, want, "{} under {u} at d={d}", layer.name());
            let counters: Vec<String> = report_counters(&report)
                .iter()
                .map(u64::to_string)
                .collect();
            lines.push(format!(
                "{name} s_in={s_in} stride={stride} dilation={dilation} \
                 unroll={unroll} d={d} seed={seed} regime={regime} \
                 counters={counters} checksum={checksum:016x}",
                name = layer.name(),
                s_in = layer.input_size(),
                stride = layer.stride(),
                dilation = layer.dilation(),
                unroll = [u.tm, u.tn, u.tr, u.tc, u.ti, u.tj]
                    .map(|t: usize| t.to_string())
                    .join(","),
                regime = regime(&layer, u, d),
                counters = counters.join(","),
                checksum = tensor_checksum(&report.output),
            ));
        }
    }
    lines
}

#[test]
fn pe_array_counters_match_the_committed_sweep() {
    let sweep = counter_sweep();
    for regime in ["resident", "kernel-overflow", "neuron-overflow"] {
        assert!(
            sweep
                .iter()
                .any(|l| l.contains(&format!("regime={regime}"))),
            "the sweep has no {regime} case"
        );
    }
    let Some(committed) = committed_lines(
        "pe_array_counters.txt",
        "# Every FunctionalReport counter of the FlexFlow PE array on a seeded random sweep.\n\
         # Counters: cycles, compute steps, MACs, vertical and horizontal bus words, busiest\n\
         # vertical and horizontal bus, store reads, store writes, adder-tree adds.\n\
         # Regenerate: FLEXSIM_REGEN_FIXTURES=1 cargo test -q -p flexsim-experiments --test integration_fixtures\n",
        &sweep,
    ) else {
        return;
    };
    assert_eq!(committed.len(), sweep.len(), "sweep entry count drifted");
    for (line, want) in sweep.iter().zip(&committed) {
        assert_eq!(
            line, want,
            "a PE-array counter drifted from the committed sweep"
        );
    }
}

// ------------------------------------------------------ report checksums

/// Every builtin workload plus the shipped `.ffnet` examples, in the
/// `flexsim workloads` order.
const REPORT_WORKLOADS: [&str; 12] = [
    "pv",
    "fr",
    "lenet",
    "hg",
    "alexnet",
    "vgg",
    "lenet5full",
    "paper-example",
    "toy",
    "examples/dilated.ffnet",
    "examples/mobilenet_block.ffnet",
    "examples/resnet_block.ffnet",
];

/// The pinned `flexsim` command lines: `--json run|prove|profile|heatmap`
/// on every workload, `--json lint`, and the smoke-budget tuner on PV
/// with and without `--static`.
fn report_commands() -> Vec<Vec<&'static str>> {
    let mut commands = Vec::new();
    for workload in REPORT_WORKLOADS {
        for command in ["run", "prove", "profile", "heatmap"] {
            commands.push(vec!["--json", command, workload]);
        }
    }
    commands.push(vec!["--json", "lint"]);
    commands.push(vec!["--json", "--budget", "smoke", "tune", "pv"]);
    commands.push(vec![
        "--json", "--budget", "smoke", "tune", "pv", "--static",
    ]);
    commands
}

#[test]
fn reports_match_committed_checksums() {
    // Run from the repository root, where `lint` and `workloads` find
    // `examples/*.ffnet`.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let lines: Vec<String> = report_commands()
        .iter()
        .map(|args| {
            let out = Command::new(env!("CARGO_BIN_EXE_flexsim"))
                .args(args)
                .current_dir(&root)
                .output()
                .expect("flexsim runs");
            format!(
                "{} exit={} bytes={} fnv={:016x}",
                args.join(" "),
                out.status.code().map_or(-1, i64::from),
                out.stdout.len(),
                fnv1a(&out.stdout)
            )
        })
        .collect();
    let Some(committed) = committed_lines(
        "report_checksums.txt",
        "# flexsim JSON reports, one command per line, run from the repository root.\n\
         # Format: <args> exit=<code> bytes=<stdout length> fnv=<fnv1a64 of stdout>\n\
         # Regenerate: FLEXSIM_REGEN_FIXTURES=1 cargo test -q -p flexsim-experiments --test integration_fixtures\n",
        &lines,
    ) else {
        return;
    };
    assert_eq!(committed.len(), lines.len(), "report command count drifted");
    for (line, want) in lines.iter().zip(&committed) {
        assert_eq!(
            line, want,
            "a flexsim report drifted from its committed checksum"
        );
    }
}
