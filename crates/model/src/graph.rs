//! Layer-graph frontend: build a CNN as a DAG of named nodes, validate
//! it (shape inference with explicit diagnostics), and lower it to a
//! topologically scheduled [`Network`].
//!
//! This is the programmatic side of the workload frontend; `.ffnet`
//! files ([`crate::ffnet`]) parse into the same [`GraphBuilder`] calls.
//! Six node kinds cover the modern-net shapes the Table 1 chains never
//! exercise:
//!
//! * `conv` / `pool` / `fc` — compute nodes, lowered to [`Layer`]s;
//! * `concat` / `add` / `slice` — routing nodes, lowered to
//!   [`DataRef`] expressions (no engine cycles — the ping-pong buffers
//!   route maps for free);
//! * `dwconv` — a depthwise convolution, desugared at lowering into one
//!   single-map conv per channel (slice routing in, concat out), so the
//!   simulators and checkers only ever see ordinary CONV layers.
//!
//! Input shapes are inferred along the DAG from the graph's declared
//! source shape, so a node only states what the layer adds (`m`, `k`,
//! stride, …) — never the redundant `n`/`s_in` a chain would repeat.

use crate::layer::{Activation, ConvLayer, FcLayer, Layer, PoolKind, PoolLayer};
use crate::network::{DataRef, Network, Shape};
use std::collections::HashMap;
use std::fmt;

/// The reserved node id naming the graph's input tensor.
pub const SOURCE_ID: &str = "input";

/// What a graph node computes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphOp {
    /// A convolution: `m` output maps of `k × k` taps. `n` and the
    /// input size are inferred from the node's input.
    Conv {
        /// Output feature maps (`M`).
        m: usize,
        /// Kernel side length (`K`).
        k: usize,
        /// Convolution stride.
        stride: usize,
        /// Kernel dilation.
        dilation: usize,
        /// Post-accumulation activation.
        activation: Activation,
    },
    /// A depthwise convolution: one `k × k` kernel per input map,
    /// desugared into per-map single-channel convolutions.
    DwConv {
        /// Kernel side length (`K`).
        k: usize,
        /// Convolution stride.
        stride: usize,
        /// Kernel dilation.
        dilation: usize,
        /// Post-accumulation activation.
        activation: Activation,
    },
    /// A non-overlapping pooling layer.
    Pool {
        /// The reduction kind.
        kind: PoolKind,
        /// Window side length (also the stride).
        window: usize,
    },
    /// A fully-connected layer over the flattened input.
    Fc {
        /// Output activations.
        outputs: usize,
        /// Post-accumulation activation.
        activation: Activation,
    },
    /// Map-axis concatenation of two or more inputs.
    Concat,
    /// Element-wise saturating sum of two or more same-shape inputs.
    Add,
    /// The map subrange `[from, to)` of one input.
    Slice {
        /// First map (inclusive).
        from: usize,
        /// Last map (exclusive).
        to: usize,
    },
}

impl GraphOp {
    fn kind_name(&self) -> &'static str {
        match self {
            GraphOp::Conv { .. } => "conv",
            GraphOp::DwConv { .. } => "dwconv",
            GraphOp::Pool { .. } => "pool",
            GraphOp::Fc { .. } => "fc",
            GraphOp::Concat => "concat",
            GraphOp::Add => "add",
            GraphOp::Slice { .. } => "slice",
        }
    }
}

/// One named node: an op plus the ids it reads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GraphNode {
    /// The node's unique id (also the lowered layer's name).
    pub id: String,
    /// What the node computes.
    pub op: GraphOp,
    /// Ids of the nodes (or [`SOURCE_ID`]) this node reads.
    pub inputs: Vec<String>,
}

/// A diagnostic from graph validation or lowering: which node is wrong,
/// what is wrong, and what would fix it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GraphError {
    /// The offending node id (`None` for whole-graph problems).
    pub node: Option<String>,
    /// What is wrong.
    pub message: String,
    /// What would fix it.
    pub hint: String,
}

impl GraphError {
    fn at(node: &str, message: impl Into<String>, hint: impl Into<String>) -> GraphError {
        GraphError {
            node: Some(node.to_owned()),
            message: message.into(),
            hint: hint.into(),
        }
    }

    fn graph(message: impl Into<String>, hint: impl Into<String>) -> GraphError {
        GraphError {
            node: None,
            message: message.into(),
            hint: hint.into(),
        }
    }
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.node {
            Some(n) => write!(f, "node `{n}`: {} ({})", self.message, self.hint),
            None => write!(f, "{} ({})", self.message, self.hint),
        }
    }
}

impl std::error::Error for GraphError {}

/// Incremental builder for a layer [`Graph`].
///
/// # Example
///
/// ```
/// use flexsim_model::graph::{GraphBuilder, GraphOp};
/// use flexsim_model::{Activation, Shape};
///
/// let net = GraphBuilder::new("res", Shape { maps: 4, size: 10 })
///     .node("c1", GraphOp::conv(4, 1), ["input"])
///     .node("c2", GraphOp::conv(4, 1), ["c1"])
///     .node("sum", GraphOp::Add, ["c1", "c2"])
///     .output("sum")
///     .build()
///     .unwrap()
///     .into_network()
///     .unwrap();
/// assert_eq!(net.conv_layers().count(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    name: String,
    source: Shape,
    nodes: Vec<GraphNode>,
    output: Option<String>,
}

impl GraphOp {
    /// A stride-1, dense, linear `conv` node.
    pub fn conv(m: usize, k: usize) -> GraphOp {
        GraphOp::Conv {
            m,
            k,
            stride: 1,
            dilation: 1,
            activation: Activation::None,
        }
    }

    /// A stride-1, dense depthwise `dwconv` node.
    pub fn dwconv(k: usize) -> GraphOp {
        GraphOp::DwConv {
            k,
            stride: 1,
            dilation: 1,
            activation: Activation::None,
        }
    }

    /// A max-`pool` node.
    pub fn max_pool(window: usize) -> GraphOp {
        GraphOp::Pool {
            kind: PoolKind::Max,
            window,
        }
    }
}

impl GraphBuilder {
    /// Starts a graph whose source tensor has `source.maps` maps of
    /// `source.size × source.size`.
    pub fn new(name: impl Into<String>, source: Shape) -> GraphBuilder {
        GraphBuilder {
            name: name.into(),
            source,
            nodes: Vec::new(),
            output: None,
        }
    }

    /// Adds a node reading the named `inputs` (node ids or
    /// [`SOURCE_ID`]).
    pub fn node<I: Into<String>>(
        mut self,
        id: impl Into<String>,
        op: GraphOp,
        inputs: impl IntoIterator<Item = I>,
    ) -> Self {
        self.nodes.push(GraphNode {
            id: id.into(),
            op,
            inputs: inputs.into_iter().map(Into::into).collect(),
        });
        self
    }

    /// Selects the node whose value is the network output. Defaults to
    /// the last added node.
    pub fn output(mut self, id: impl Into<String>) -> Self {
        self.output = Some(id.into());
        self
    }

    /// Validates the graph structure (ids, edges, acyclicity, arity)
    /// and returns the scheduled [`Graph`].
    ///
    /// # Errors
    ///
    /// Returns the first structural [`GraphError`]: a duplicate or
    /// reserved id, a dangling edge, a cycle, wrong arity, or a missing
    /// output.
    pub fn build(self) -> Result<Graph, GraphError> {
        let output = match self.output {
            Some(id) => id,
            None => match self.nodes.last() {
                Some(n) => n.id.clone(),
                None => {
                    return Err(GraphError::graph(
                        "the graph has no nodes",
                        "add at least one compute node",
                    ))
                }
            },
        };
        let mut index: HashMap<&str, usize> = HashMap::new();
        for (i, node) in self.nodes.iter().enumerate() {
            if node.id == SOURCE_ID {
                return Err(GraphError::at(
                    &node.id,
                    format!("`{SOURCE_ID}` is reserved for the graph source"),
                    "rename the node",
                ));
            }
            if index.insert(&node.id, i).is_some() {
                return Err(GraphError::at(
                    &node.id,
                    "duplicate node id",
                    "every node needs a unique id",
                ));
            }
        }
        for node in &self.nodes {
            let want = match &node.op {
                GraphOp::Concat | GraphOp::Add => 2..=usize::MAX,
                _ => 1..=1,
            };
            if !want.contains(&node.inputs.len()) {
                return Err(GraphError::at(
                    &node.id,
                    format!(
                        "`{}` takes {} input(s), got {}",
                        node.op.kind_name(),
                        if *want.start() == *want.end() {
                            want.start().to_string()
                        } else {
                            format!("{}+", want.start())
                        },
                        node.inputs.len()
                    ),
                    "fix the `in` list",
                ));
            }
            for input in &node.inputs {
                if input != SOURCE_ID && !index.contains_key(input.as_str()) {
                    return Err(GraphError::at(
                        &node.id,
                        format!("dangling edge: input `{input}` names no node"),
                        format!("declare `{input}` or reference `{SOURCE_ID}`"),
                    ));
                }
            }
        }
        if output != SOURCE_ID && !index.contains_key(output.as_str()) {
            return Err(GraphError::graph(
                format!("output `{output}` names no node"),
                "point `output` at a declared node id",
            ));
        }
        // Kahn's algorithm, stable by insertion order: schedule[i] is a
        // topological order, and a leftover node proves a cycle.
        let n = self.nodes.len();
        let mut indegree = vec![0usize; n];
        let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, node) in self.nodes.iter().enumerate() {
            for input in &node.inputs {
                if let Some(&p) = index.get(input.as_str()) {
                    indegree[i] += 1;
                    consumers[p].push(i);
                }
            }
        }
        let mut schedule = Vec::with_capacity(n);
        let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        ready.reverse(); // pop() takes the lowest insertion index first
        while let Some(i) = ready.pop() {
            schedule.push(i);
            let mut woke = Vec::new();
            for &c in &consumers[i] {
                indegree[c] -= 1;
                if indegree[c] == 0 {
                    woke.push(c);
                }
            }
            woke.sort_unstable();
            for c in woke.into_iter().rev() {
                ready.push(c);
            }
            ready.sort_unstable_by(|a, b| b.cmp(a));
        }
        if schedule.len() != n {
            let stuck = (0..n)
                .find(|&i| indegree[i] > 0)
                .map(|i| self.nodes[i].id.clone())
                .unwrap_or_default();
            return Err(GraphError::at(
                &stuck,
                "the graph has a cycle through this node",
                "remove the back edge; layer graphs must be acyclic",
            ));
        }
        Ok(Graph {
            name: self.name,
            source: self.source,
            nodes: self.nodes,
            schedule,
            output,
        })
    }
}

/// A structurally valid layer DAG with its topological schedule.
/// Produced by [`GraphBuilder::build`]; lower it with
/// [`Graph::into_network`].
#[derive(Clone, Debug)]
pub struct Graph {
    name: String,
    source: Shape,
    nodes: Vec<GraphNode>,
    /// Node indices in a topological order (stable by insertion).
    schedule: Vec<usize>,
    output: String,
}

impl Graph {
    /// The graph's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The declared source shape.
    pub fn source(&self) -> Shape {
        self.source
    }

    /// The nodes, in insertion order.
    pub fn nodes(&self) -> &[GraphNode] {
        &self.nodes
    }

    /// Infers every node's shape and lowers the graph to a [`Network`]:
    /// compute nodes become [`Layer`]s in schedule order, routing nodes
    /// become [`DataRef`] expressions, and `dwconv` desugars into
    /// per-map single-channel convolutions.
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] naming the node whose shapes don't
    /// check (concat size mismatch, add shape mismatch, slice out of
    /// range, kernel or window larger than its input, …).
    pub fn into_network(self) -> Result<Network, GraphError> {
        let mut layers: Vec<Layer> = Vec::new();
        let mut routing: Vec<DataRef> = Vec::new();
        // Per node: its value as a DataRef plus its inferred shape.
        let mut values: HashMap<&str, (DataRef, Shape)> = HashMap::new();
        for &ni in &self.schedule {
            let node = &self.nodes[ni];
            let id = node.id.as_str();
            let resolve = |input: &str| -> (DataRef, Shape) {
                if input == SOURCE_ID {
                    (DataRef::Source, self.source)
                } else {
                    values[input].clone()
                }
            };
            let (value, shape) = match &node.op {
                GraphOp::Conv {
                    m,
                    k,
                    stride,
                    dilation,
                    activation,
                } => {
                    let (input, shape) = resolve(&node.inputs[0]);
                    let layer =
                        conv_from_shape(id, *m, *k, *stride, *dilation, *activation, shape)?;
                    let out = Shape {
                        maps: *m,
                        size: layer.s(),
                    };
                    layers.push(Layer::Conv(layer));
                    routing.push(input);
                    (DataRef::Layer(layers.len() - 1), out)
                }
                GraphOp::DwConv {
                    k,
                    stride,
                    dilation,
                    activation,
                } => {
                    // Desugar: per input map, a 1→1 conv reading a map
                    // slice of the input; the node's value is the
                    // concat of the per-map outputs.
                    let (input, shape) = resolve(&node.inputs[0]);
                    let channel = Shape {
                        maps: 1,
                        size: shape.size,
                    };
                    let mut parts = Vec::with_capacity(shape.maps);
                    let mut out_size = 0;
                    for c in 0..shape.maps {
                        let name = format!("{id}#{c}");
                        let layer =
                            conv_from_shape(&name, 1, *k, *stride, *dilation, *activation, channel)
                                .map_err(|mut e| {
                                    e.node = Some(id.to_owned());
                                    e
                                })?;
                        out_size = layer.s();
                        layers.push(Layer::Conv(layer));
                        routing.push(DataRef::Slice {
                            of: Box::new(input.clone()),
                            from: c,
                            to: c + 1,
                        });
                        parts.push(DataRef::Layer(layers.len() - 1));
                    }
                    let out = Shape {
                        maps: shape.maps,
                        size: out_size,
                    };
                    let value = if parts.len() == 1 {
                        parts.pop().expect("one part")
                    } else {
                        DataRef::Concat(parts)
                    };
                    (value, out)
                }
                GraphOp::Pool { kind, window } => {
                    let (input, shape) = resolve(&node.inputs[0]);
                    if *window == 0 || *window > shape.size {
                        return Err(GraphError::at(
                            id,
                            format!(
                                "pool window {window} does not fit the {}x{} input",
                                shape.size, shape.size
                            ),
                            "use a window in [1, input size]",
                        ));
                    }
                    let layer = PoolLayer::new(id, *kind, *window, shape.maps, shape.size);
                    let out = Shape {
                        maps: shape.maps,
                        size: layer.output_size(),
                    };
                    layers.push(Layer::Pool(layer));
                    routing.push(input);
                    (DataRef::Layer(layers.len() - 1), out)
                }
                GraphOp::Fc {
                    outputs,
                    activation,
                } => {
                    let (input, shape) = resolve(&node.inputs[0]);
                    if *outputs == 0 {
                        return Err(GraphError::at(
                            id,
                            "fc outputs must be non-zero",
                            "set `outputs` ≥ 1",
                        ));
                    }
                    if !product_fits_u64(&[*outputs, shape.maps, shape.size, shape.size]) {
                        return Err(GraphError::at(
                            id,
                            format!(
                                "outputs·maps·size² = {outputs}·{}·{}² MACs overflows u64",
                                shape.maps, shape.size
                            ),
                            "shrink the layer's outputs or its input",
                        ));
                    }
                    let inputs = shape.maps * shape.size * shape.size;
                    let layer = FcLayer::new(id, inputs, *outputs).with_activation(*activation);
                    layers.push(Layer::Fc(layer));
                    routing.push(input);
                    (
                        DataRef::Layer(layers.len() - 1),
                        Shape {
                            maps: *outputs,
                            size: 1,
                        },
                    )
                }
                GraphOp::Concat => {
                    let resolved: Vec<(DataRef, Shape)> =
                        node.inputs.iter().map(|i| resolve(i)).collect();
                    let size = resolved[0].1.size;
                    for (input, (_, shape)) in node.inputs.iter().zip(&resolved) {
                        if shape.size != size {
                            return Err(GraphError::at(
                                id,
                                format!(
                                    "concat size mismatch: `{}` is {}x{} but `{}` is {}x{}",
                                    node.inputs[0], size, size, input, shape.size, shape.size
                                ),
                                "concat inputs must share the spatial size",
                            ));
                        }
                    }
                    let maps = resolved.iter().map(|(_, s)| s.maps).sum();
                    (
                        DataRef::Concat(resolved.into_iter().map(|(r, _)| r).collect()),
                        Shape { maps, size },
                    )
                }
                GraphOp::Add => {
                    let resolved: Vec<(DataRef, Shape)> =
                        node.inputs.iter().map(|i| resolve(i)).collect();
                    let shape = resolved[0].1;
                    for (input, (_, got)) in node.inputs.iter().zip(&resolved) {
                        if *got != shape {
                            return Err(GraphError::at(
                                id,
                                format!(
                                    "add shape mismatch: `{}` is {}@{}x{} but `{}` is {}@{}x{}",
                                    node.inputs[0],
                                    shape.maps,
                                    shape.size,
                                    shape.size,
                                    input,
                                    got.maps,
                                    got.size,
                                    got.size
                                ),
                                "add inputs must share maps and size",
                            ));
                        }
                    }
                    (
                        DataRef::Add(resolved.into_iter().map(|(r, _)| r).collect()),
                        shape,
                    )
                }
                GraphOp::Slice { from, to } => {
                    let (input, shape) = resolve(&node.inputs[0]);
                    if *from >= *to || *to > shape.maps {
                        return Err(GraphError::at(
                            id,
                            format!("slice [{from}, {to}) out of range for {} maps", shape.maps),
                            "use 0 ≤ from < to ≤ input maps",
                        ));
                    }
                    (
                        DataRef::Slice {
                            of: Box::new(input),
                            from: *from,
                            to: *to,
                        },
                        Shape {
                            maps: *to - *from,
                            size: shape.size,
                        },
                    )
                }
            };
            values.insert(id, (value, shape));
        }
        if layers.is_empty() {
            return Err(GraphError::graph(
                "the graph has no compute nodes",
                "routing alone is not a network; add conv/pool/fc nodes",
            ));
        }
        let output = if self.output == SOURCE_ID {
            DataRef::Source
        } else {
            values[self.output.as_str()].0.clone()
        };
        Ok(Network::from_parts(
            self.name,
            self.source,
            layers,
            routing,
            output,
        ))
    }
}

/// Whether the product of `factors` fits in `u64`, the width every
/// MAC, cycle and traffic total downstream is counted in.
fn product_fits_u64(factors: &[usize]) -> bool {
    factors
        .iter()
        .try_fold(1u64, |acc, &f| acc.checked_mul(f as u64))
        .is_some()
}

/// Builds a CONV layer from an inferred input shape, checking that the
/// dilated kernel fits, the stride tiles at least one output, and the
/// MAC count fits in `u64`.
fn conv_from_shape(
    name: &str,
    m: usize,
    k: usize,
    stride: usize,
    dilation: usize,
    activation: Activation,
    input: Shape,
) -> Result<ConvLayer, GraphError> {
    if m == 0 || k == 0 || stride == 0 || dilation == 0 {
        return Err(GraphError::at(
            name,
            "conv parameters must be non-zero",
            "m, k, stride, and dilation are all ≥ 1",
        ));
    }
    let k_ext = (k - 1).saturating_mul(dilation).saturating_add(1);
    if input.size < k_ext {
        return Err(GraphError::at(
            name,
            format!(
                "kernel extent {k_ext} (k={k}, dilation={dilation}) exceeds the \
                 {}x{} input",
                input.size, input.size
            ),
            "shrink the kernel/dilation or feed a larger input",
        ));
    }
    let s = (input.size - k_ext) / stride + 1;
    if !product_fits_u64(&[m, input.maps, k, k, s, s]) {
        return Err(GraphError::at(
            name,
            format!(
                "m·n·k²·s² = {m}·{}·{k}²·{s}² MACs overflows u64",
                input.maps
            ),
            "shrink the layer's maps, kernel, or input size",
        ));
    }
    Ok(ConvLayer::new(name, m, input.maps, s, k)
        .with_stride(stride)
        .with_dilation(dilation)
        .with_activation(activation)
        .with_input_size(input.size))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(maps: usize, size: usize) -> Shape {
        Shape { maps, size }
    }

    #[test]
    fn residual_block_lowers_with_routing() {
        // 1x1 convs preserve the spatial size, so the residual add is
        // shape-consistent (a k=3 branch would need same-size inputs).
        let net = GraphBuilder::new("res", shape(4, 12))
            .node("c1", GraphOp::conv(4, 1), ["input"])
            .node("c2", GraphOp::conv(4, 1), ["c1"])
            .node("sum", GraphOp::Add, ["c1", "c2"])
            .output("sum")
            .build()
            .unwrap()
            .into_network()
            .unwrap();
        assert_eq!(net.conv_layers().count(), 2);
        assert!(matches!(net.output(), DataRef::Add(parts) if parts.len() == 2));
    }

    #[test]
    fn shape_inference_feeds_the_chain() {
        let net = GraphBuilder::new("chain", shape(1, 14))
            .node("c1", GraphOp::conv(4, 3), ["input"])
            .node("p1", GraphOp::max_pool(2), ["c1"])
            .node("c2", GraphOp::conv(6, 3), ["p1"])
            .build()
            .unwrap()
            .into_network()
            .unwrap();
        let c1 = net.conv_layer("c1").unwrap();
        assert_eq!((c1.n(), c1.input_size(), c1.s()), (1, 14, 12));
        let c2 = net.conv_layer("c2").unwrap();
        assert_eq!((c2.n(), c2.input_size(), c2.s()), (4, 6, 4));
        assert!(c2.is_valid_convolution());
    }

    #[test]
    fn dwconv_desugars_to_per_map_convs() {
        let net = GraphBuilder::new("dw", shape(3, 8))
            .node("dw", GraphOp::dwconv(3), ["input"])
            .node("pw", GraphOp::conv(8, 1), ["dw"])
            .build()
            .unwrap()
            .into_network()
            .unwrap();
        // 3 depthwise single-map convs + 1 pointwise conv.
        assert_eq!(net.conv_layers().count(), 4);
        let dw0 = net.conv_layer("dw#0").unwrap();
        assert_eq!((dw0.m(), dw0.n(), dw0.s()), (1, 1, 6));
        let pw = net.conv_layer("pw").unwrap();
        assert_eq!((pw.m(), pw.n(), pw.k(), pw.s()), (8, 3, 1, 6));
        // The pointwise conv reads the concat of the three dw outputs.
        let step = net.step(3).unwrap();
        assert!(matches!(step.input, DataRef::Concat(parts) if parts.len() == 3));
    }

    #[test]
    fn concat_size_mismatch_is_diagnosed() {
        let err = GraphBuilder::new("bad", shape(2, 12))
            .node("a", GraphOp::conv(2, 3), ["input"])
            .node("b", GraphOp::conv(2, 5), ["input"])
            .node("cat", GraphOp::Concat, ["a", "b"])
            .build()
            .unwrap()
            .into_network()
            .unwrap_err();
        assert_eq!(err.node.as_deref(), Some("cat"));
        assert!(err.message.contains("concat size mismatch"), "{err}");
    }

    #[test]
    fn cycle_is_diagnosed() {
        let err = GraphBuilder::new("loopy", shape(2, 8))
            .node("a", GraphOp::conv(2, 1), ["b"])
            .node("b", GraphOp::conv(2, 1), ["a"])
            .build()
            .unwrap_err();
        assert!(err.message.contains("cycle"), "{err}");
    }

    #[test]
    fn dangling_edge_is_diagnosed() {
        let err = GraphBuilder::new("dangle", shape(2, 8))
            .node("a", GraphOp::conv(2, 1), ["ghost"])
            .build()
            .unwrap_err();
        assert_eq!(err.node.as_deref(), Some("a"));
        assert!(err.message.contains("dangling edge"), "{err}");
    }

    #[test]
    fn insertion_order_permutation_keeps_the_same_layers() {
        let a = GraphBuilder::new("g", shape(1, 10))
            .node("c1", GraphOp::conv(2, 3), ["input"])
            .node("c2", GraphOp::conv(2, 3), ["c1"])
            .build()
            .unwrap()
            .into_network()
            .unwrap();
        let b = GraphBuilder::new("g", shape(1, 10))
            .node("c2", GraphOp::conv(2, 3), ["c1"])
            .node("c1", GraphOp::conv(2, 3), ["input"])
            .build()
            .unwrap()
            .into_network()
            .unwrap();
        assert_eq!(a.layers(), b.layers());
    }

    #[test]
    fn slice_out_of_range_is_diagnosed() {
        let err = GraphBuilder::new("s", shape(4, 8))
            .node("cut", GraphOp::Slice { from: 2, to: 6 }, ["input"])
            .node("c", GraphOp::conv(2, 3), ["cut"])
            .build()
            .unwrap()
            .into_network()
            .unwrap_err();
        assert_eq!(err.node.as_deref(), Some("cut"));
        assert!(err.message.contains("out of range"), "{err}");
    }

    #[test]
    fn mac_counts_beyond_u64_are_diagnosed() {
        let huge = 4_000_000_000;
        let conv = GraphBuilder::new("huge", shape(huge, huge))
            .node("c", GraphOp::conv(huge, huge), ["input"])
            .build()
            .unwrap()
            .into_network()
            .unwrap_err();
        assert_eq!(conv.node.as_deref(), Some("c"));
        assert!(conv.message.contains("overflows u64"), "{conv}");
        let fc = GraphOp::Fc {
            outputs: huge,
            activation: Activation::None,
        };
        let fc = GraphBuilder::new("huge", shape(huge, huge))
            .node("f", fc, ["input"])
            .build()
            .unwrap()
            .into_network()
            .unwrap_err();
        assert_eq!(fc.node.as_deref(), Some("f"));
        assert!(fc.message.contains("overflows u64"), "{fc}");
        // Wide maps whose MAC count fits still lower.
        GraphBuilder::new("edge", shape(1 << 16, 1))
            .node("c", GraphOp::conv(1 << 16, 1), ["input"])
            .build()
            .unwrap()
            .into_network()
            .unwrap();
    }
}
