//! The static picture of one layer's execution that the rules inspect.
//!
//! A [`LayerPlan`] gathers everything the hardware is configured with
//! for one CONV layer — the *mapping* unroll that places data (IADP),
//! the *walk* and *batch* shapes the sequencer steps, the closed-form
//! [`Schedule`], and the per-segment resident slice — so each rule can
//! check one consistency edge of that picture. All of them derive from
//! the one `Unroll` a `Configure` instruction programs, so on a compiled
//! program the mapping-vs-shape rules hold by construction; the
//! mutation harness corrupts individual fields to prove each rule fires
//! on exactly its own invariant.

use crate::diag::{Diagnostic, Location, RuleId};
use flexflow::analytic::{self, Schedule};
use flexsim_dataflow::Unroll;
use flexsim_model::ConvLayer;

/// The operand offsets one logical step walks: `Tn·Ti·Tj` producers on
/// the vertical (neuron) buses. Programmed by `Configure`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalkShape {
    /// Input-map offsets per step.
    pub tn: usize,
    /// Synapse-row offsets per step.
    pub ti: usize,
    /// Synapse-column offsets per step.
    pub tj: usize,
}

/// The output offsets one row-batch covers: `Tm·Tr·Tc` adder-tree
/// (row) ports. Programmed by `Configure`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchShape {
    /// Output-map offsets per batch.
    pub tm: usize,
    /// Neuron-row offsets per batch.
    pub tr: usize,
    /// Neuron-column offsets per batch.
    pub tc: usize,
}

/// The complete static picture of one layer's execution.
#[derive(Clone, Debug, PartialEq)]
pub struct LayerPlan<'a> {
    /// CONV view of the layer (FC layers appear as 1×1 convolutions).
    pub layer: &'a ConvLayer,
    /// Index of the layer in the network/program.
    pub layer_index: usize,
    /// The unroll that places data (IADP) and sets the residue
    /// [`flexflow::mapping::Mapping`].
    pub mapping: Unroll,
    /// The per-step operand walk the sequencer is programmed with.
    pub walk: WalkShape,
    /// The per-batch output coverage the sequencer is programmed with.
    pub batch: BatchShape,
    /// The closed-form engine schedule (compiled-for store size).
    pub schedule: Schedule,
    /// Per-PE resident operand words per segment
    /// (`⌈chunks/segments⌉`) — the working set each local store holds.
    pub slice_words: usize,
}

impl<'a> LayerPlan<'a> {
    /// Derives the plan for `layer` configured with `u` (its
    /// `Configure` instruction's unroll).
    ///
    /// # Errors
    ///
    /// Returns the `FXC06` diagnostic when `u` over-occupies the `d×d`
    /// engine: no schedule exists, so the capacity rules have nothing to
    /// check (rule `FXC06` subsumes them).
    pub fn derive(
        layer: &'a ConvLayer,
        layer_index: usize,
        u: Unroll,
        d: usize,
        store_words: usize,
    ) -> Result<LayerPlan<'a>, Diagnostic> {
        if u.rows_used() > d || u.cols_used() > d {
            return Err(Diagnostic::error(
                RuleId::UnrollBounds,
                Location::layer(layer.name()),
                format!(
                    "unroll {u} occupies {}x{} PEs on a {d}x{d} engine",
                    u.rows_used(),
                    u.cols_used()
                ),
                format!("reduce the factors until Tm*Tr*Tc <= {d} and Tn*Ti*Tj <= {d}"),
            ));
        }
        let schedule = analytic::schedule(layer, u, d, store_words);
        let slice_words = schedule.chunks.div_ceil(schedule.segments) as usize;
        Ok(LayerPlan {
            layer,
            layer_index,
            mapping: u,
            walk: WalkShape {
                tn: u.tn,
                ti: u.ti,
                tj: u.tj,
            },
            batch: BatchShape {
                tm: u.tm,
                tr: u.tr,
                tc: u.tc,
            },
            schedule,
            slice_words,
        })
    }
}

impl LayerPlan<'_> {
    /// Whether one step's operand walk drives each vertical bus at most
    /// once (`FXC02`, and `FXC12`'s bus side). An offset lands on bus
    /// `(n mod Tn, i mod Ti, j mod Tj)` of the mapping, a mixed-radix
    /// index, so two offsets collide iff they are congruent in all
    /// three coordinates: iff some walk interval is wider than its
    /// residue period. `tests/proptests.rs` holds this equal to the
    /// exhaustive per-step enumeration.
    pub fn walk_fits_mapping(&self) -> bool {
        let (u, w) = (self.mapping, self.walk);
        w.tn <= u.tn && w.ti <= u.ti && w.tj <= u.tj
    }

    /// Whether one row-batch's outputs own distinct PE rows and so
    /// distinct adder-tree ports (`FXC03`, and `FXC12`'s port side):
    /// the row-side mirror of [`LayerPlan::walk_fits_mapping`] over the
    /// `(m mod Tm, r mod Tr, c mod Tc)` residues.
    pub fn batch_fits_mapping(&self) -> bool {
        let (u, b) = (self.mapping, self.batch);
        b.tm <= u.tm && b.tr <= u.tr && b.tc <= u.tc
    }

    /// The IADP buffer layouts, as `(buffer, banks used)`, that need
    /// more than `banks` physical banks to stream conflict-free
    /// (`FXC07`, and `FXC12`'s bank side): the neuron buffer spreads
    /// over the `Tn·Ti·Tj` columns, the kernel buffer over the
    /// `Tm·Tr·Tc` rows.
    pub fn overflowing_banks(&self, banks: usize) -> impl Iterator<Item = (&'static str, usize)> {
        let u = self.mapping;
        [("neuron", u.cols_used()), ("kernel", u.rows_used())]
            .into_iter()
            .filter(move |&(_, used)| used > banks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;
    use flexflow::local_store::STORE_WORDS;

    fn layer() -> ConvLayer {
        ConvLayer::new("C3", 16, 6, 10, 5)
    }

    #[test]
    fn well_formed_plan_derives() {
        let u = Unroll::new(16, 3, 1, 1, 1, 5);
        let layer = layer();
        let p = LayerPlan::derive(&layer, 0, u, 16, STORE_WORDS).unwrap();
        assert_eq!(p.slice_words as u64, p.schedule.chunks); // one segment
        assert_eq!(p.walk.tj, 5);
        assert_eq!(p.batch.tm, 16);
    }

    #[test]
    fn oversized_choice_is_fxc06() {
        let u = Unroll::new(8, 1, 2, 2, 1, 1); // 32 rows on a 16x16 engine
        let err = LayerPlan::derive(&layer(), 0, u, 16, STORE_WORDS).unwrap_err();
        assert_eq!(err.rule, RuleId::UnrollBounds);
        assert_eq!(err.severity, Severity::Error);
    }

    #[test]
    fn batch_wider_than_its_residue_period_shares_a_row_port() {
        let u = Unroll::new(2, 1, 2, 2, 1, 3);
        let layer = layer();
        let mut p = LayerPlan::derive(&layer, 0, u, 16, STORE_WORDS).unwrap();
        assert!(p.batch_fits_mapping() && p.walk_fits_mapping());
        p.batch.tc += 1; // output columns 0 and 2 land on one PE row
        assert!(!p.batch_fits_mapping());
        assert!(p.walk_fits_mapping(), "the bus side is independent");
    }

    #[test]
    fn overflowing_banks_names_each_oversubscribed_buffer() {
        // 4·2·2 = 16 rows and 1·1·5 = 5 columns: the kernel layout
        // needs 16 banks, the neuron layout 5.
        let u = Unroll::new(4, 1, 2, 2, 1, 5);
        let layer = layer();
        let p = LayerPlan::derive(&layer, 0, u, 16, STORE_WORDS).unwrap();
        assert_eq!(p.overflowing_banks(16).count(), 0);
        assert_eq!(p.overflowing_banks(8).collect::<Vec<_>>(), [("kernel", 16)]);
        assert_eq!(
            p.overflowing_banks(4).collect::<Vec<_>>(),
            [("neuron", 5), ("kernel", 16)]
        );
    }

    #[test]
    fn segmented_layer_slices_to_the_store() {
        // AlexNet-C5-like: chunks exceed the store, so segments > 1 and
        // the slice is at most the store.
        let deep = ConvLayer::new("C5", 192, 256, 13, 3).with_input_size(13);
        let u = Unroll::new(1, 1, 1, 13, 1, 3);
        let p = LayerPlan::derive(&deep, 0, u, 16, STORE_WORDS).unwrap();
        assert!(p.schedule.segments > 1);
        assert!(p.slice_words <= STORE_WORDS);
    }
}
