//! The Table-1 layer table and the `layers-small` / `layers-large`
//! workloads: every bit-exact functional simulator on single CONV
//! layers, against the golden reference convolution.

use crate::run::{Bench, Checked};
use crate::trace::Tracer;
use flexflow::array::{FunctionalReport, PeArray};
use flexsim_baselines::{Mapping2d, Systolic, TilingArray};
use flexsim_dataflow::search::best_unroll;
use flexsim_dataflow::Unroll;
use flexsim_model::tensor::KernelSet;
use flexsim_model::{reference, workloads, ConvLayer, Network, Tensor3};
use flexsim_testkit::prop::fnv1a;
use std::collections::BTreeMap;

/// Engine side of the paper's configuration.
const D: usize = 16;

/// One benchmarked layer.
#[derive(Clone, Debug)]
pub struct LayerCase {
    /// Metric key, e.g. `lenet5-c3` or `alexnet-c1-m4`.
    pub key: &'static str,
    /// Table 1 workload the layer comes from (its display name).
    pub net: String,
    /// The layer, possibly cut to its first output maps.
    pub layer: ConvLayer,
    /// Whether `tests/fixtures/golden_checksums.txt` pins the layer's
    /// reference output at the fixture seed.
    pub fixture: bool,
}

/// Layer `name` of a Table 1 network, cut to its first `maps` output
/// maps when given (same input, window, stride and activation).
fn table1(key: &'static str, net: Network, name: &str, maps: Option<usize>) -> LayerCase {
    let full = net
        .conv_layer(name)
        .unwrap_or_else(|| panic!("{} has no layer {name}", net.name()));
    let layer = match maps {
        None => full.clone(),
        Some(m) => ConvLayer::new(full.name(), m, full.n(), full.s(), full.k())
            .with_stride(full.stride())
            .with_dilation(full.dilation())
            .with_input_size(full.input_size())
            .with_activation(full.activation()),
    };
    LayerCase {
        key,
        net: net.name().to_owned(),
        layer,
        fixture: false,
    }
}

/// The `layers-small` table. Every kernel set fits the 128-word local
/// stores, so kernels stay resident for the whole layer. The first
/// four are the golden-fixture layers, which the fixtures pin at seeds
/// 41..44 — the seeds they get at the default seed 41.
pub fn small() -> Vec<LayerCase> {
    let fixture = |case: LayerCase| LayerCase {
        fixture: true,
        ..case
    };
    vec![
        fixture(table1("pv-c7", workloads::pv(), "C7", None)),
        fixture(table1("fr-c3", workloads::fr(), "C3", None)),
        fixture(table1("lenet5-c3", workloads::lenet5(), "C3", None)),
        fixture(table1("hg-c3", workloads::hg(), "C3", None)),
        table1("lenet5-c1", workloads::lenet5(), "C1", None),
    ]
}

/// The `layers-large` table: AlexNet C1 (stride 4, 11×11 window) and
/// VGG-11 C12, whose kernel chunks overflow the local stores so kernels
/// are re-broadcast every column tile. Both are cut to their first
/// output maps to keep a pass short; the cut keeps the window, stride
/// and store-overflow regime of the full layer.
pub fn large() -> Vec<LayerCase> {
    vec![
        table1("alexnet-c1-m4", workloads::alexnet(), "C1", Some(4)),
        table1("vgg11-c12-m8", workloads::vgg11(), "C12", Some(8)),
    ]
}

/// FNV-1a over an output tensor's shape and raw Q7.8 words — the digest
/// `tests/fixtures/golden_checksums.txt` pins.
fn tensor_checksum(t: &Tensor3) -> u64 {
    let mut bytes = Vec::with_capacity(t.len() * 2 + 12);
    for dim in [t.maps(), t.rows(), t.cols()] {
        bytes.extend_from_slice(
            &u32::try_from(dim)
                .expect("tensor dim fits u32")
                .to_le_bytes(),
        );
    }
    for v in t.as_slice() {
        bytes.extend_from_slice(&v.raw().to_le_bytes());
    }
    fnv1a(&bytes)
}

/// The fixture-file line for a layer's reference output.
fn golden_line(case: &LayerCase, seed: u64, checksum: u64) -> String {
    format!(
        "{} {} seed={seed} m={} out={s}x{s} checksum={checksum:016x}",
        case.net,
        case.layer.name(),
        case.layer.m(),
        s = case.layer.s(),
    )
}

struct Prepared {
    case: LayerCase,
    seed: u64,
    input: Tensor3,
    kernels: KernelSet,
    unroll: Unroll,
}

/// Set-up state of a layers workload.
pub struct Layers {
    layers: Vec<Prepared>,
    array: PeArray,
    systolic: Systolic,
    mapping2d: Mapping2d,
    tiling: TilingArray,
    golden: Option<Vec<String>>,
}

impl Layers {
    /// Generates operands (layer `i` at seed `seed + i`) and picks each
    /// layer's unrolling. `golden` holds the fixture lines the
    /// reference outputs must reproduce, when the seed is the fixtures'.
    pub fn setup(cases: Vec<LayerCase>, seed: u64, golden: Option<Vec<String>>) -> Layers {
        let layers = cases
            .into_iter()
            .zip(seed..)
            .map(|(case, seed)| {
                let (input, kernels) = reference::random_layer_data(&case.layer, seed);
                let unroll = best_unroll(&case.layer, D, None).unroll;
                Prepared {
                    case,
                    seed,
                    input,
                    kernels,
                    unroll,
                }
            })
            .collect();
        Layers {
            layers,
            array: PeArray::new(D),
            systolic: Systolic::dc_cnn(),
            mapping2d: Mapping2d::shidiannao(),
            tiling: TilingArray::diannao(),
            golden,
        }
    }
}

/// Every simulator's output on one layer.
pub struct LayerOutputs {
    reference: Tensor3,
    array: FunctionalReport,
    /// `None` where the simulator cannot run the layer (stride > 1).
    systolic: Option<Tensor3>,
    mapping2d: Option<Tensor3>,
    tiling: Tensor3,
}

impl Bench for Layers {
    type Output = Vec<LayerOutputs>;

    fn pass(&mut self, tr: &mut Tracer) -> Vec<LayerOutputs> {
        let mut outs = Vec::with_capacity(self.layers.len());
        for p in &self.layers {
            let (l, x, w, key) = (&p.case.layer, &p.input, &p.kernels, p.case.key);
            let macs = l.macs();
            // Systolic and 2D-Mapping are stride-1 machines.
            let stride1 = l.stride() == 1 && l.dilation() == 1;
            let reference = tr.time("model.reference.conv", key, macs, || {
                reference::conv(l, x, w)
            });
            let array = tr.time("core.array.run_layer", key, macs, || {
                self.array.run_layer(l, p.unroll, x, w)
            });
            let systolic = stride1.then(|| {
                tr.time("baselines.systolic.forward", key, macs, || {
                    self.systolic.forward(l, x, w)
                })
            });
            let mapping2d = stride1.then(|| {
                tr.time("baselines.mapping2d.forward", key, macs, || {
                    self.mapping2d.forward(l, x, w)
                })
            });
            let tiling = tr.time("baselines.tiling.forward", key, macs, || {
                self.tiling.forward(l, x, w)
            });
            outs.push(LayerOutputs {
                reference,
                array,
                systolic,
                mapping2d,
                tiling,
            });
        }
        outs
    }

    fn check(&self, outs: Vec<LayerOutputs>) -> Checked {
        let mut checked = Checked::default();
        let mut counts = BTreeMap::new();
        for (p, o) in self.layers.iter().zip(&outs) {
            let key = p.case.key;
            let want = &o.reference;
            let mut expect_eq = |sim: &str, got: &Tensor3| {
                if got != want {
                    checked
                        .errors
                        .push(format!("{key}: {sim} output differs from the reference"));
                }
            };
            expect_eq("FlexFlow PeArray", &o.array.output);
            if let Some(t) = &o.systolic {
                expect_eq("Systolic", t);
            }
            if let Some(t) = &o.mapping2d {
                expect_eq("2D-Mapping", t);
            }
            expect_eq("Tiling", &o.tiling);
            if let (true, Some(golden)) = (p.case.fixture, &self.golden) {
                let line = golden_line(&p.case, p.seed, tensor_checksum(want));
                if !golden.contains(&line) {
                    checked
                        .errors
                        .push(format!("{key}: `{line}` is not in the golden fixtures"));
                }
            }
            let sims = 3 + u64::from(o.systolic.is_some()) + u64::from(o.mapping2d.is_some());
            checked.work += (sims * p.case.layer.macs()) as f64 / 1e6;
            let r = &o.array;
            for (name, v) in [
                ("core.array.macs", r.macs),
                ("core.array.cycles", r.cycles),
                (
                    "core.array.bus_words",
                    r.vertical_bus_words + r.horizontal_bus_words,
                ),
                ("core.array.store_reads", r.store_reads),
                ("core.array.store_writes", r.store_writes),
                ("core.array.adder_tree_adds", r.adder_tree_adds),
            ] {
                *counts.entry(name).or_insert(0) += v;
            }
        }
        checked.counts = counts;
        checked
    }
}
