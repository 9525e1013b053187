//! Whole-network model: a topologically ordered sequence of layers plus
//! the routing graph connecting them and the metadata the FlexFlow
//! compiler needs (inter-layer coupling for the IADP constraint of
//! Section 5).
//!
//! A [`Network`] is a DAG, not just a chain: every layer reads a
//! [`DataRef`] — the network source, another layer's output, or a
//! routing expression (`concat` of branches, residual `add`, a map
//! `slice`) over those. Chain networks built with [`NetworkBuilder`]
//! are the degenerate case where layer `i` reads layer `i − 1`; DAGs
//! come from [`crate::graph::Graph`] (and `.ffnet` files via
//! [`crate::ffnet`]). The `layers()` slice is always a valid
//! topological schedule, so downstream crates that iterate it (engine,
//! compiler, flexcheck, tuner) are agnostic to chain-vs-DAG.

use crate::layer::{ConvLayer, Layer, PoolLayer};
use crate::tensor::Tensor3;
use std::fmt;

/// Where a layer (or the network output) reads its data from.
///
/// `Layer` indices always point *backwards* in [`Network::layers`]
/// order — the constructors enforce it — so evaluating layers in slice
/// order is a valid topological schedule.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum DataRef {
    /// The network's input tensor.
    Source,
    /// The output of `layers()[i]`.
    Layer(usize),
    /// Map-axis concatenation of the parts (all must share a spatial
    /// size).
    Concat(Vec<DataRef>),
    /// Element-wise saturating sum of same-shape parts (residual add).
    Add(Vec<DataRef>),
    /// The map subrange `[from, to)` of the inner reference.
    Slice {
        /// The sliced reference.
        of: Box<DataRef>,
        /// First map (inclusive).
        from: usize,
        /// Last map (exclusive).
        to: usize,
    },
}

impl DataRef {
    /// Does this reference read layer `index`'s output (directly or
    /// inside a routing expression)?
    pub fn reads_layer(&self, index: usize) -> bool {
        match self {
            DataRef::Source => false,
            DataRef::Layer(i) => *i == index,
            DataRef::Concat(parts) | DataRef::Add(parts) => {
                parts.iter().any(|p| p.reads_layer(index))
            }
            DataRef::Slice { of, .. } => of.reads_layer(index),
        }
    }

    /// Evaluates the routing expression over concrete tensors: `source`
    /// is the network input, `outputs[i]` holds layer `i`'s computed
    /// output (present for every layer the expression mentions).
    ///
    /// # Panics
    ///
    /// Panics if a referenced layer output is missing or the parts'
    /// shapes don't satisfy the concat/add/slice contracts.
    pub fn materialize(&self, source: &Tensor3, outputs: &[Option<Tensor3>]) -> Tensor3 {
        match self {
            DataRef::Source => source.clone(),
            DataRef::Layer(i) => outputs[*i]
                .as_ref()
                .unwrap_or_else(|| panic!("layer {i} output not yet computed"))
                .clone(),
            DataRef::Concat(parts) => {
                let tensors: Vec<Tensor3> = parts
                    .iter()
                    .map(|p| p.materialize(source, outputs))
                    .collect();
                Tensor3::concat_maps(&tensors.iter().collect::<Vec<_>>())
            }
            DataRef::Add(parts) => {
                let tensors: Vec<Tensor3> = parts
                    .iter()
                    .map(|p| p.materialize(source, outputs))
                    .collect();
                Tensor3::add_maps(&tensors.iter().collect::<Vec<_>>())
            }
            DataRef::Slice { of, from, to } => {
                of.materialize(source, outputs).slice_maps(*from, *to)
            }
        }
    }

    /// Largest layer index mentioned anywhere in the expression.
    fn max_layer(&self) -> Option<usize> {
        match self {
            DataRef::Source => None,
            DataRef::Layer(i) => Some(*i),
            DataRef::Concat(parts) | DataRef::Add(parts) => {
                parts.iter().filter_map(DataRef::max_layer).max()
            }
            DataRef::Slice { of, .. } => of.max_layer(),
        }
    }
}

impl fmt::Display for DataRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataRef::Source => write!(f, "source"),
            DataRef::Layer(i) => write!(f, "L{i}"),
            DataRef::Concat(parts) => {
                write!(f, "concat(")?;
                for (n, p) in parts.iter().enumerate() {
                    if n > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            DataRef::Add(parts) => {
                write!(f, "add(")?;
                for (n, p) in parts.iter().enumerate() {
                    if n > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            DataRef::Slice { of, from, to } => write!(f, "{of}[{from}..{to}]"),
        }
    }
}

/// The shape of the network's input tensor: `maps` feature maps of
/// `size × size`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Shape {
    /// Input feature maps.
    pub maps: usize,
    /// Input feature-map side length.
    pub size: usize,
}

/// One schedulable step of a network: the layer plus the routing
/// expression feeding it. Yielded by [`Network::steps`] — the iteration
/// API downstream crates use instead of indexing the layer `Vec`.
#[derive(Clone, Copy, Debug)]
pub struct Step<'a> {
    /// Position in [`Network::layers`] (the ISA's layer index).
    pub index: usize,
    /// The layer computed at this step.
    pub layer: &'a Layer,
    /// Where the layer reads its input.
    pub input: &'a DataRef,
}

/// A CNN workload: a named DAG of layers in topological order.
///
/// # Example
///
/// ```
/// use flexsim_model::{ConvLayer, Network};
///
/// let net = Network::builder("tiny")
///     .conv(ConvLayer::new("C1", 2, 1, 8, 4))
///     .conv(ConvLayer::new("C2", 2, 2, 4, 2).with_input_size(8))
///     .build();
/// assert_eq!(net.conv_layers().count(), 2);
/// assert!(net.total_ops() > 0);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Network {
    name: String,
    layers: Vec<Layer>,
    routing: Vec<DataRef>,
    output: DataRef,
    source: Shape,
}

impl Network {
    /// Starts building a chain network with the given name.
    pub fn builder(name: impl Into<String>) -> NetworkBuilder {
        NetworkBuilder {
            name: name.into(),
            layers: Vec::new(),
        }
    }

    /// Assembles a DAG network from explicit parts. `routing[i]` feeds
    /// `layers[i]`; `output` selects the network result. Used by the
    /// graph lowering ([`crate::graph::Graph::into_network`]) — chain
    /// workloads use [`Network::builder`].
    ///
    /// # Panics
    ///
    /// Panics if the part counts disagree, the network is empty, or a
    /// reference points at the current/a later layer (the slice must
    /// already be a topological order).
    pub fn from_parts(
        name: impl Into<String>,
        source: Shape,
        layers: Vec<Layer>,
        routing: Vec<DataRef>,
        output: DataRef,
    ) -> Network {
        assert!(!layers.is_empty(), "network must have at least one layer");
        assert_eq!(
            layers.len(),
            routing.len(),
            "one routing reference per layer required"
        );
        for (i, r) in routing.iter().enumerate() {
            assert!(
                r.max_layer().is_none_or(|m| m < i),
                "routing of layer {i} reads a non-earlier layer (not a topological order)"
            );
        }
        assert!(
            output.max_layer().is_none_or(|m| m < layers.len()),
            "output reads past the last layer"
        );
        Network {
            name: name.into(),
            layers,
            routing,
            output,
            source,
        }
    }

    /// The workload's name (e.g. `"LeNet-5"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All layers in topological (execution) order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// The shape of the network's input tensor.
    pub fn source(&self) -> Shape {
        self.source
    }

    /// The reference selecting the network's output.
    pub fn output(&self) -> &DataRef {
        &self.output
    }

    /// Iterates the topological schedule: every layer with the routing
    /// expression feeding it. This is the one iteration API engine,
    /// compiler, and checkers consume — chain and DAG networks look
    /// identical through it.
    pub fn steps(&self) -> impl Iterator<Item = Step<'_>> {
        self.layers
            .iter()
            .zip(&self.routing)
            .enumerate()
            .map(|(index, (layer, input))| Step {
                index,
                layer,
                input,
            })
    }

    /// The step computing `layers()[index]`, if it exists.
    pub fn step(&self, index: usize) -> Option<Step<'_>> {
        Some(Step {
            index,
            layer: self.layers.get(index)?,
            input: self.routing.get(index)?,
        })
    }

    /// Iterates over only the CONV layers, in schedule order.
    pub fn conv_layers(&self) -> impl Iterator<Item = &ConvLayer> {
        self.layers.iter().filter_map(Layer::as_conv)
    }

    /// Iterates `(schedule index, CONV layer)` pairs — the linearized
    /// conv schedule planners walk instead of indexing the layer `Vec`.
    pub fn conv_steps(&self) -> impl Iterator<Item = (usize, &ConvLayer)> {
        self.layers
            .iter()
            .enumerate()
            .filter_map(|(i, l)| l.as_conv().map(|c| (i, c)))
    }

    /// Finds a CONV layer by name.
    pub fn conv_layer(&self, name: &str) -> Option<&ConvLayer> {
        self.conv_layers().find(|l| l.name() == name)
    }

    /// Total arithmetic operations across all layers.
    pub fn total_ops(&self) -> u64 {
        self.layers.iter().map(Layer::ops).sum()
    }

    /// Total MACs across CONV layers only (the paper's evaluation unit).
    pub fn conv_macs(&self) -> u64 {
        self.conv_layers().map(ConvLayer::macs).sum()
    }

    /// For the CONV layer at `layers()[index]`, returns the successor
    /// CONV layer and the pooling window `P` between them (1 when no
    /// POOL layer intervenes). This drives the Section 5 coupling
    /// constraint `0 < Tr, Tc ≤ P · K'`.
    ///
    /// On a DAG the walk follows *consumers* of the layer's output
    /// (through pools and routing expressions); with several CONV
    /// consumers the most restrictive one — smallest `P · K'` — is
    /// returned, since it binds the constraint. Returns `None` when no
    /// CONV layer consumes this one's output (last layer, or an FC
    /// consumer).
    pub fn successor_coupling(&self, index: usize) -> Option<SuccessorCoupling<'_>> {
        let mut best: Option<SuccessorCoupling<'_>> = None;
        // (producer index, accumulated pool window) frontier; pools
        // forward their producer's data with a multiplied window.
        let mut frontier = vec![(index, 1usize)];
        let mut visited = vec![false; self.layers.len()];
        while let Some((src, window)) = frontier.pop() {
            for (j, r) in self.routing.iter().enumerate() {
                if !r.reads_layer(src) {
                    continue;
                }
                match &self.layers[j] {
                    Layer::Pool(p) => {
                        if !visited[j] {
                            visited[j] = true;
                            frontier.push((j, window * p.window()));
                        }
                    }
                    Layer::Conv(c) => {
                        let cand = SuccessorCoupling {
                            next_conv: c,
                            pool_window: window,
                        };
                        let tighter = best.is_none_or(|b| {
                            cand.pool_window * c.k() < b.pool_window * b.next_conv.k()
                        });
                        if tighter {
                            best = Some(cand);
                        }
                    }
                    Layer::Fc(_) => {}
                }
            }
        }
        best
    }

    /// The Section 5 coupling bound `P · K'` on the CONV layer at
    /// `layers()[index]`'s `Tr` and `Tc`, from
    /// [`Network::successor_coupling`]; `None` when no CONV layer
    /// consumes its output.
    pub fn rc_bound(&self, index: usize) -> Option<usize> {
        self.successor_coupling(index)
            .map(|c| c.pool_window * c.next_conv.k())
    }

    /// Indices (into [`Network::layers`]) of the CONV layers, in order.
    pub fn conv_indices(&self) -> Vec<usize> {
        self.conv_steps().map(|(i, _)| i).collect()
    }
}

impl fmt::Display for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} ({} layers):", self.name, self.layers.len())?;
        for step in self.steps() {
            match step.input {
                DataRef::Layer(i) if *i + 1 == step.index => writeln!(f, "  {}", step.layer)?,
                DataRef::Source if step.index == 0 => writeln!(f, "  {}", step.layer)?,
                other => writeln!(f, "  {}  <- {other}", step.layer)?,
            }
        }
        Ok(())
    }
}

/// The next CONV layer and the intervening pooling factor, for the
/// Section 5 coupling constraint.
#[derive(Clone, Copy, Debug)]
pub struct SuccessorCoupling<'a> {
    /// The next CONV layer in the network.
    pub next_conv: &'a ConvLayer,
    /// The product of pooling windows between the two CONV layers
    /// (`P` in the paper; 1 if they are adjacent).
    pub pool_window: usize,
}

/// Incremental builder for chain [`Network`]s (layer `i` reads layer
/// `i − 1`). DAGs are built through [`crate::graph::GraphBuilder`].
#[derive(Debug)]
pub struct NetworkBuilder {
    name: String,
    layers: Vec<Layer>,
}

impl NetworkBuilder {
    /// Appends a CONV layer.
    pub fn conv(mut self, layer: ConvLayer) -> Self {
        self.layers.push(Layer::Conv(layer));
        self
    }

    /// Appends a POOL layer.
    pub fn pool(mut self, layer: PoolLayer) -> Self {
        self.layers.push(Layer::Pool(layer));
        self
    }

    /// Appends any layer.
    pub fn layer(mut self, layer: impl Into<Layer>) -> Self {
        self.layers.push(layer.into());
        self
    }

    /// Finishes the network.
    ///
    /// # Panics
    ///
    /// Panics if the network has no layers.
    pub fn build(self) -> Network {
        assert!(
            !self.layers.is_empty(),
            "network must have at least one layer"
        );
        let source = match &self.layers[0] {
            Layer::Conv(c) => Shape {
                maps: c.n(),
                size: c.input_size(),
            },
            Layer::Pool(p) => Shape {
                maps: p.maps(),
                size: p.input_size(),
            },
            Layer::Fc(fc) => Shape {
                maps: fc.inputs(),
                size: 1,
            },
        };
        let routing = (0..self.layers.len())
            .map(|i| {
                if i == 0 {
                    DataRef::Source
                } else {
                    DataRef::Layer(i - 1)
                }
            })
            .collect();
        let output = DataRef::Layer(self.layers.len() - 1);
        Network {
            name: self.name,
            layers: self.layers,
            routing,
            output,
            source,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::PoolKind;

    fn toy() -> Network {
        Network::builder("toy")
            .conv(ConvLayer::new("C1", 2, 1, 8, 4))
            .pool(PoolLayer::new("P1", PoolKind::Max, 2, 2, 8))
            .conv(ConvLayer::new("C2", 2, 2, 4, 2).with_input_size(4))
            .build()
    }

    #[test]
    fn conv_layer_lookup() {
        let net = toy();
        assert_eq!(net.conv_layer("C2").unwrap().k(), 2);
        assert!(net.conv_layer("C9").is_none());
        assert_eq!(net.conv_indices(), vec![0, 2]);
    }

    #[test]
    fn successor_coupling_sees_through_pool() {
        let net = toy();
        let c = net.successor_coupling(0).unwrap();
        assert_eq!(c.next_conv.name(), "C2");
        assert_eq!(c.pool_window, 2);
        assert!(net.successor_coupling(2).is_none());
        assert_eq!(net.rc_bound(0), Some(2 * c.next_conv.k()));
        assert_eq!(net.rc_bound(2), None);
    }

    #[test]
    fn total_ops_sums_layers() {
        let net = toy();
        let conv_ops: u64 = net.conv_layers().map(ConvLayer::ops).sum();
        assert!(net.total_ops() > conv_ops); // pooling adds ops
        assert_eq!(net.conv_macs(), 2 * 64 * 16 + 2 * 16 * 2 * 4);
    }

    #[test]
    fn builder_networks_are_chains() {
        let net = toy();
        assert_eq!(net.source(), Shape { maps: 1, size: 11 });
        let steps: Vec<_> = net.steps().collect();
        assert_eq!(steps.len(), 3);
        assert_eq!(*steps[0].input, DataRef::Source);
        assert_eq!(*steps[1].input, DataRef::Layer(0));
        assert_eq!(*steps[2].input, DataRef::Layer(1));
        assert_eq!(*net.output(), DataRef::Layer(2));
        assert_eq!(net.step(2).unwrap().layer.name(), "C2");
        assert!(net.step(3).is_none());
    }

    #[test]
    fn dag_coupling_takes_the_most_restrictive_branch() {
        // source -> C1 -> {C2 (k=5), P -> C3 (k=2)}, output concat.
        let layers = vec![
            Layer::Conv(ConvLayer::new("C1", 4, 1, 12, 3)),
            Layer::Conv(ConvLayer::new("C2", 2, 4, 8, 5)),
            Layer::Pool(PoolLayer::new("P", PoolKind::Max, 2, 4, 12)),
            Layer::Conv(ConvLayer::new("C3", 2, 4, 5, 2)),
        ];
        let routing = vec![
            DataRef::Source,
            DataRef::Layer(0),
            DataRef::Layer(0),
            DataRef::Layer(2),
        ];
        let output = DataRef::Concat(vec![DataRef::Layer(1), DataRef::Layer(3)]);
        let net = Network::from_parts(
            "branchy",
            Shape { maps: 1, size: 14 },
            layers,
            routing,
            output,
        );
        // C2 binds at P·K' = 1·5 = 5; C3 binds at 2·2 = 4 — tighter.
        let c = net.successor_coupling(0).unwrap();
        assert_eq!(c.next_conv.name(), "C3");
        assert_eq!(c.pool_window, 2);
        assert!(net.successor_coupling(1).is_none());
    }

    #[test]
    #[should_panic(expected = "topological order")]
    fn forward_reference_rejected() {
        let layers = vec![
            Layer::Conv(ConvLayer::new("C1", 2, 2, 4, 2)),
            Layer::Conv(ConvLayer::new("C2", 2, 2, 4, 2)),
        ];
        let routing = vec![DataRef::Layer(1), DataRef::Source];
        let _ = Network::from_parts(
            "bad",
            Shape { maps: 2, size: 5 },
            layers,
            routing,
            DataRef::Layer(1),
        );
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn empty_network_rejected() {
        let _ = Network::builder("empty").build();
    }
}
