//! End-to-end tests of the workload frontend: `.ffnet` fixture nets,
//! CLI diagnostics, and the DAG-evaluation invariants.
//!
//! Three concerns:
//!
//! * **Fixture goldens** — the shipped `examples/*.ffnet` nets (a
//!   ResNet-style residual block, a MobileNet-style depthwise-separable
//!   block, and a dilated/strided context net) have committed full-net
//!   reference checksums in `tests/fixtures/ffnet_checksums.txt`, and
//!   every architecture's functional model must reproduce those bits
//!   exactly (the stride-1/dilation-1 Systolic and 2D-Mapping models
//!   cover the layers they support, as in `integration_fixtures`).
//! * **CLI diagnostics** — malformed `.ffnet` files each produce one
//!   actionable error with line/path context and exit code 2 from
//!   `flexsim run`.
//! * **Schedule invariance** — a property test: any legal random DAG's
//!   functional reference output is invariant under permutation of the
//!   node insertion order (which permutes the topological linearization
//!   the whole stack consumes).
//!
//! Regenerate the checksums after an intentional numerics change with:
//! `FLEXSIM_REGEN_FIXTURES=1 cargo test -q -p flexsim-experiments --test integration_ffnet`

use flexflow::array::PeArray;
use flexflow::{Compiler, FlexFlow};
use flexsim_baselines::{Mapping2d, Systolic, TilingArray};
use flexsim_dataflow::search::best_unroll;
use flexsim_model::graph::{Graph, GraphBuilder, GraphOp};
use flexsim_model::tensor::KernelSet;
use flexsim_model::{reference, Layer, Network, Shape, Tensor3, WorkloadRegistry};
use flexsim_testkit::prop::{self, fnv1a};
use flexsim_testkit::{prop_assert_eq, SplitMix64};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::Command;

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

/// The shipped fixture nets with their pinned operand seeds.
fn fixture_nets() -> Vec<(Network, u64)> {
    let reg = WorkloadRegistry::new().with_dir(repo_path("examples"));
    vec![
        (reg.resolve("resnet_block").expect("fixture parses"), 47),
        (reg.resolve("mobilenet_block").expect("fixture parses"), 48),
        (reg.resolve("dilated").expect("fixture parses"), 49),
    ]
}

/// FNV-1a over shape + raw Q7.8 little-endian words (the same digest
/// as `integration_fixtures`).
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

fn render_line(net: &Network, seed: u64, out: &Tensor3) -> String {
    format!(
        "{name} seed={seed} layers={layers} out={m}x{r}x{c} checksum={checksum:016x}",
        name = net.name(),
        layers = net.layers().len(),
        m = out.maps(),
        r = out.rows(),
        c = out.cols(),
        checksum = tensor_checksum(out),
    )
}

// ------------------------------------------------- fixture net goldens

#[test]
fn fixture_nets_match_committed_checksums() {
    let path = repo_path("tests/fixtures/ffnet_checksums.txt");
    let golden: Vec<String> = fixture_nets()
        .into_iter()
        .map(|(net, seed)| {
            let (input, kernels) = reference::random_network_data(&net, seed);
            let out = reference::network(&net, &input, &kernels);
            render_line(&net, seed, &out)
        })
        .collect();
    if std::env::var("FLEXSIM_REGEN_FIXTURES").is_ok() {
        let mut body = String::from(
            "# Golden full-network reference checksums for the shipped .ffnet fixtures.\n\
             # Format: <net> seed=<s> layers=<n> out=<MxRxC> checksum=<fnv1a64>\n\
             # Regenerate: FLEXSIM_REGEN_FIXTURES=1 cargo test -q -p flexsim-experiments --test integration_ffnet\n",
        );
        for line in &golden {
            let _ = writeln!(body, "{line}");
        }
        std::fs::write(&path, body).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); regenerate with FLEXSIM_REGEN_FIXTURES=1",
            path.display()
        )
    });
    let committed: Vec<&str> = committed
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .collect();
    assert_eq!(committed.len(), golden.len(), "fixture entry count drifted");
    for (line, want) in golden.iter().zip(&committed) {
        assert_eq!(
            line, want,
            "fixture net reference output drifted from the committed checksum"
        );
    }
}

#[test]
fn flexflow_engine_runs_fixture_nets_bit_exactly() {
    // The compiled program executed on the cycle-stepped engine must
    // reproduce the full-net golden reference output — DAG routing
    // (residual add, concat of per-map depthwise outputs, slices),
    // pooling, and dilated/strided layers included.
    for (net, seed) in fixture_nets() {
        let (input, kernels) = reference::random_network_data(&net, seed);
        let want = reference::network(&net, &input, &kernels);
        let program = Compiler::new(16).compile(&net);
        let trace = FlexFlow::new(16).execute(&program, &net, input, &kernels);
        assert_eq!(trace.output, want, "{} engine output drifted", net.name());
        assert!(trace.cycles > 0);
    }
}

#[test]
fn all_simulators_reproduce_fixture_layers_bit_exactly() {
    // Per CONV layer of each fixture net, with the layer's *actual*
    // in-network input (routing materialized from the reference walk):
    // all four architectures' functional models must match the
    // reference. Systolic and 2D-Mapping are stride-1/dilation-1
    // machines and skip the layers they cannot express (the dilated
    // fixture exists to exercise exactly that split).
    for (net, seed) in fixture_nets() {
        let (source, kernels) = reference::random_network_data(&net, seed);
        let mut outputs: Vec<Option<Tensor3>> = vec![None; net.layers().len()];
        let mut kernel_iter = kernels.iter();
        for step in net.steps() {
            let data = step.input.materialize(&source, &outputs);
            let out = match step.layer {
                Layer::Conv(layer) => {
                    let kset = kernel_iter.next().expect("kernel per conv");
                    let want = reference::conv(layer, &data, kset);
                    if layer.stride() == 1 && layer.dilation() == 1 {
                        assert_eq!(
                            Systolic::dc_cnn().forward(layer, &data, kset),
                            want,
                            "Systolic drifted on {}/{}",
                            net.name(),
                            layer.name()
                        );
                        assert_eq!(
                            Mapping2d::shidiannao().forward(layer, &data, kset),
                            want,
                            "2D-Mapping drifted on {}/{}",
                            net.name(),
                            layer.name()
                        );
                    }
                    assert_eq!(
                        TilingArray::diannao().forward(layer, &data, kset),
                        want,
                        "Tiling drifted on {}/{}",
                        net.name(),
                        layer.name()
                    );
                    let choice = best_unroll(layer, 16, None);
                    let mut array = PeArray::new(16);
                    let report = array.run_layer(layer, choice.unroll, &data, kset);
                    assert_eq!(
                        report.output,
                        want,
                        "FlexFlow drifted on {}/{}",
                        net.name(),
                        layer.name()
                    );
                    want
                }
                Layer::Pool(pool) => reference::pool(pool, &data),
                Layer::Fc(_) => {
                    let _ = kernel_iter.next();
                    continue; // no FC layers in the shipped fixtures
                }
            };
            outputs[step.index] = Some(out);
        }
    }
}

// ----------------------------------------------------- CLI diagnostics

/// Writes `text` to a scratch `.ffnet` file and runs
/// `flexsim run <file>`, returning (exit code, stderr).
fn run_cli_on(text: &str, tag: &str) -> (Option<i32>, String) {
    let dir = std::env::temp_dir().join(format!("flexsim-ffnet-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join(format!("{tag}.ffnet"));
    std::fs::write(&file, text).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_flexsim"))
        .args(["run", file.to_str().unwrap()])
        .output()
        .expect("flexsim runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn malformed_ffnet_files_produce_actionable_errors_and_exit_2() {
    // One case per failure class: unknown field, shape mismatch at a
    // join, cycle, dangling edge, a raw syntax error, and a layer whose
    // m·n·k²·s² MAC count overflows u64. Each must exit 2 with a single
    // diagnostic naming where the problem is.
    let cases: [(&str, &str, &str); 6] = [
        (
            "unknown_field",
            r#"{"name": "x", "input": {"maps": 1, "size": 8},
               "nodes": [{"id": "c1", "op": "conv", "m": 2, "kernel": 3}]}"#,
            "nodes[0].kernel",
        ),
        (
            "shape_mismatch",
            r#"{"name": "x", "input": {"maps": 2, "size": 8},
               "nodes": [
                 {"id": "c1", "op": "conv", "m": 4, "k": 3},
                 {"id": "sum", "op": "add", "in": ["c1", "input"]}]}"#,
            "sum",
        ),
        (
            "cycle",
            r#"{"name": "x", "input": {"maps": 1, "size": 8},
               "nodes": [
                 {"id": "a", "op": "conv", "m": 2, "k": 1, "in": "b"},
                 {"id": "b", "op": "conv", "m": 2, "k": 1, "in": "a"}]}"#,
            "cycle",
        ),
        (
            "dangling_edge",
            r#"{"name": "x", "input": {"maps": 1, "size": 8},
               "nodes": [{"id": "c1", "op": "conv", "m": 2, "k": 3, "in": "ghost"}]}"#,
            "ghost",
        ),
        (
            "syntax_error",
            "{\"name\": \"x\",\n  \"input\": {\"maps\": 1, \"size\": 8},\n  \"nodes\": [}",
            ".ffnet:3:",
        ),
        (
            "mac_overflow",
            r#"{"name":"huge","input":{"maps":4000000000,"size":4000000000},"nodes":[{"id":"c","op":"conv","m":4000000000,"k":4000000000}]}"#,
            "node `c`",
        ),
    ];
    for (tag, text, needle) in cases {
        let (code, stderr) = run_cli_on(text, tag);
        assert_eq!(code, Some(2), "{tag}: expected exit 2\n{stderr}");
        assert!(
            stderr.contains(needle),
            "{tag}: diagnostic should mention {needle:?}\n{stderr}"
        );
        assert!(
            stderr.contains(&format!("{tag}.ffnet")),
            "{tag}: diagnostic should name the file\n{stderr}"
        );
        // One actionable error, not a spray: a single flexsim: line.
        assert_eq!(
            stderr.matches("flexsim: ").count(),
            1,
            "{tag}: expected exactly one diagnostic\n{stderr}"
        );
    }
}

#[test]
fn run_on_a_fixture_reports_all_four_architectures() {
    let out = Command::new(env!("CARGO_BIN_EXE_flexsim"))
        .args([
            "run",
            repo_path("examples/resnet_block.ffnet").to_str().unwrap(),
        ])
        .output()
        .expect("flexsim runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    for arch in ["Systolic", "2D-Mapping", "Tiling", "FlexFlow"] {
        assert!(stdout.contains(arch), "missing {arch}:\n{stdout}");
    }
    assert!(stdout.contains("exact"), "{stdout}");
    assert!(!stdout.contains("VIOLATED"), "{stdout}");
}

#[test]
fn lint_on_a_fixture_lints_only_that_net() {
    let out = Command::new(env!("CARGO_BIN_EXE_flexsim"))
        .args([
            "--json",
            "lint",
            repo_path("examples/resnet_block.ffnet").to_str().unwrap(),
        ])
        .output()
        .expect("flexsim runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    flexsim_testkit::json::Json::parse(&stdout).expect("valid JSON");
    assert!(stdout.contains("\"units_total\": 4"), "{stdout}");
    assert_eq!(stdout.matches("\"workload\": \"resnet-block\"").count(), 4);
    assert!(!stdout.contains("LeNet-5"), "{stdout}");
}

#[test]
fn lint_on_an_unresolvable_reference_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_flexsim"))
        .args(["lint", "no-such-workload"])
        .output()
        .expect("flexsim runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("no-such-workload"), "{stderr}");
    assert!(out.stdout.is_empty());
}

#[test]
fn workloads_json_lists_the_fixture_nets() {
    let out = Command::new(env!("CARGO_BIN_EXE_flexsim"))
        .current_dir(repo_path(""))
        .args(["workloads", "--json"])
        .output()
        .expect("flexsim runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    let doc = flexsim_testkit::json::Json::parse(&stdout).expect("valid JSON");
    // Byte-stable: re-emitting the parsed document is the identity.
    let mut roundtrip = doc.pretty();
    roundtrip.push('\n');
    assert_eq!(roundtrip, stdout);
    for name in ["resnet_block", "mobilenet_block", "dilated", "AlexNet"] {
        assert!(stdout.contains(name), "missing {name}:\n{stdout}");
    }
}

// ------------------------------------------- schedule-invariance property

/// One randomly generated node: id, op, and input refs — kept abstract
/// so the same spec can be inserted in any topological order.
#[derive(Clone, Debug)]
struct NodeSpec {
    id: String,
    op: GraphOp,
    inputs: Vec<String>,
}

/// Generates a legal random DAG over `rng`: a mix of shape-preserving
/// 1×1 convs, shrinking k×k convs, residual adds over equal shapes,
/// and concats over equal sizes. Every node's shape is tracked so all
/// joins are legal by construction.
fn random_dag(rng: &mut SplitMix64) -> (Shape, Vec<NodeSpec>) {
    let source = Shape {
        maps: rng.gen_range(1usize..=3),
        size: rng.gen_range(6usize..=9),
    };
    let mut values: Vec<(String, Shape)> = vec![("input".to_owned(), source)];
    let mut specs = Vec::new();
    let n_nodes = rng.gen_range(3usize..=6);
    for i in 0..n_nodes {
        let id = format!("n{i}");
        let (op, inputs, shape) = match rng.bounded(4) {
            // Residual add: two distinct prior values with equal shape.
            0 if equal_shape_pair(&values).is_some() => {
                let (a, b, shape) = equal_shape_pair(&values).unwrap();
                (GraphOp::Add, vec![a, b], shape)
            }
            // Concat: two prior values with equal size.
            1 if equal_size_pair(&values).is_some() => {
                let (a, b, sa, sb) = equal_size_pair(&values).unwrap();
                (
                    GraphOp::Concat,
                    vec![a, b],
                    Shape {
                        maps: sa.maps + sb.maps,
                        size: sa.size,
                    },
                )
            }
            // Shrinking conv over any prior value.
            2 => {
                let (from, shape) = pick(rng, &values);
                let k = rng.gen_range(1usize..=3.min(shape.size));
                let m = rng.gen_range(1usize..=4);
                (
                    GraphOp::conv(m, k),
                    vec![from],
                    Shape {
                        maps: m,
                        size: shape.size - k + 1,
                    },
                )
            }
            // Shape-preserving 1×1 conv (keeps join candidates alive).
            _ => {
                let (from, shape) = pick(rng, &values);
                let m = rng.gen_range(1usize..=4);
                (
                    GraphOp::conv(m, 1),
                    vec![from],
                    Shape {
                        maps: m,
                        size: shape.size,
                    },
                )
            }
        };
        values.push((id.clone(), shape));
        specs.push(NodeSpec { id, op, inputs });
    }
    (source, specs)
}

fn pick(rng: &mut SplitMix64, values: &[(String, Shape)]) -> (String, Shape) {
    let (id, shape) = &values[rng.bounded(values.len() as u64) as usize];
    (id.clone(), *shape)
}

fn equal_shape_pair(values: &[(String, Shape)]) -> Option<(String, String, Shape)> {
    for (i, (a, sa)) in values.iter().enumerate() {
        for (b, sb) in &values[i + 1..] {
            if sa == sb {
                return Some((a.clone(), b.clone(), *sa));
            }
        }
    }
    None
}

fn equal_size_pair(values: &[(String, Shape)]) -> Option<(String, String, Shape, Shape)> {
    for (i, (a, sa)) in values.iter().enumerate() {
        for (b, sb) in &values[i + 1..] {
            if sa.size == sb.size {
                return Some((a.clone(), b.clone(), *sa, *sb));
            }
        }
    }
    None
}

/// Builds the DAG from `specs` inserted in the given order.
fn build_in_order(source: Shape, specs: &[NodeSpec], order: &[usize]) -> Graph {
    let mut b = GraphBuilder::new("prop-dag", source);
    for &i in order {
        let spec = &specs[i];
        b = b.node(
            &spec.id,
            spec.op.clone(),
            spec.inputs.iter().map(String::as_str),
        );
    }
    // Fixed output regardless of insertion order: the last-generated
    // node (every permutation contains it).
    b.output(&specs[specs.len() - 1].id)
        .build()
        .expect("legal DAG")
}

/// A random insertion order that respects dependencies: repeatedly
/// pick any not-yet-inserted node whose inputs are all available.
fn random_topo_order(rng: &mut SplitMix64, specs: &[NodeSpec]) -> Vec<usize> {
    let mut placed: Vec<usize> = Vec::new();
    let available = |placed: &[usize], i: usize| {
        specs[i]
            .inputs
            .iter()
            .all(|inp| inp == "input" || placed.iter().any(|&p| specs[p].id == *inp))
    };
    while placed.len() < specs.len() {
        let ready: Vec<usize> = (0..specs.len())
            .filter(|i| !placed.contains(i) && available(&placed, *i))
            .collect();
        let pick = ready[rng.bounded(ready.len() as u64) as usize];
        placed.push(pick);
    }
    placed
}

/// Kernels keyed by layer name, so the same weights follow a layer
/// through any linearization.
fn kernels_by_name(net: &Network, kernels: &[KernelSet]) -> HashMap<String, KernelSet> {
    net.steps()
        .filter(|s| !matches!(s.layer, Layer::Pool(_)))
        .zip(kernels)
        .map(|(s, k)| (s.layer.name().to_owned(), k.clone()))
        .collect()
}

#[test]
fn reference_output_is_invariant_under_topological_permutation() {
    prop::check(
        "reference_output_is_invariant_under_topological_permutation",
        64,
        0u64..=999_999,
        |&seed| {
            let mut rng = SplitMix64::new(seed);
            let (source, specs) = random_dag(&mut rng);
            let base_order: Vec<usize> = (0..specs.len()).collect();
            let net_a = build_in_order(source, &specs, &base_order)
                .into_network()
                .map_err(|e| format!("base DAG failed to lower: {e}"))?;
            let (input, kernels) = reference::random_network_data(&net_a, seed);
            let named = kernels_by_name(&net_a, &kernels);
            let want = reference::network(&net_a, &input, &kernels);
            let perm = random_topo_order(&mut rng, &specs);
            let net_b = build_in_order(source, &specs, &perm)
                .into_network()
                .map_err(|e| format!("permuted DAG failed to lower: {e}"))?;
            let kernels_b: Vec<KernelSet> = net_b
                .steps()
                .filter(|s| !matches!(s.layer, Layer::Pool(_)))
                .map(|s| named[s.layer.name()].clone())
                .collect();
            let got = reference::network(&net_b, &input, &kernels_b);
            prop_assert_eq!(
                tensor_checksum(&got),
                tensor_checksum(&want),
                "permutation {:?} changed the output",
                perm
            );
            Ok(())
        },
    );
}
