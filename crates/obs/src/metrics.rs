//! Labeled counter/gauge registry with snapshot-and-diff.
//!
//! Counters are monotonic `u64` cells keyed by a metric name plus a
//! sorted label set (`sim_busy_pe_cycles{arch="FlexFlow"}`). The
//! [`global`] registry holds the pool's counters and the loss-ledger
//! ([`crate::attrib::LossLedger::mirror`]) and spatial
//! ([`crate::spatial::LayerSpatial::mirror`]) series of the layers a
//! command traces, profiles or heatmaps; `--metrics` dumps it and
//! `--trace` embeds a snapshot. Simulating a layer writes nothing here:
//! its `LayerResult` is the only per-layer record.
//!
//! # Example
//!
//! ```
//! use flexsim_obs::metrics::Registry;
//!
//! let reg = Registry::new();
//! let before = reg.snapshot();
//! reg.add("sim_cycles", &[("arch", "Tiling")], 100);
//! reg.add("sim_cycles", &[("arch", "Tiling")], 20);
//! let delta = reg.snapshot().diff(&before);
//! assert_eq!(delta.get("sim_cycles", &[("arch", "Tiling")]), 120);
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

/// A metric identity: name plus sorted labels.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key {
    /// Metric name (`sim_busy_pe_cycles`, `pool_tasks_total`, …).
    pub name: String,
    /// Label pairs, sorted by key for a canonical identity.
    pub labels: Vec<(String, String)>,
}

impl Key {
    fn new(name: &str, labels: &[(&str, &str)]) -> Key {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect();
        labels.sort();
        Key {
            name: name.to_owned(),
            labels,
        }
    }
}

/// A registry of labeled `u64` counters and gauges.
#[derive(Debug, Default)]
pub struct Registry {
    cells: Mutex<BTreeMap<Key, u64>>,
}

impl Registry {
    /// Creates an empty registry.
    pub const fn new() -> Registry {
        Registry {
            cells: Mutex::new(BTreeMap::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<Key, u64>> {
        self.cells
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Adds `delta` to the counter `name{labels}` (creating it at 0).
    pub fn add(&self, name: &str, labels: &[(&str, &str)], delta: u64) {
        let mut cells = self.lock();
        let cell = cells.entry(Key::new(name, labels)).or_insert(0);
        *cell = cell.saturating_add(delta);
    }

    /// Sets the gauge `name{labels}` to `value`.
    pub fn set(&self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.lock().insert(Key::new(name, labels), value);
    }

    /// Raises the gauge `name{labels}` to at least `value` (a
    /// high-water mark).
    pub fn raise(&self, name: &str, labels: &[(&str, &str)], value: u64) {
        let mut cells = self.lock();
        let cell = cells.entry(Key::new(name, labels)).or_insert(0);
        *cell = (*cell).max(value);
    }

    /// Returns a point-in-time copy of every cell.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            cells: self.lock().clone(),
        }
    }

    /// Removes every cell (tests only; production counters are
    /// monotonic and diffed instead).
    pub fn clear(&self) {
        self.lock().clear();
    }
}

/// The process-wide registry the simulators mirror into.
pub fn global() -> &'static Registry {
    static GLOBAL: Registry = Registry::new();
    &GLOBAL
}

/// Escapes a label value for `name{k="v"}` rendering: backslashes and
/// double quotes get a backslash prefix, newlines become `\n`, and any
/// other control or non-ASCII character is hex-escaped as `\u{…}`.
/// Layer and workload names come from user-supplied `.ffnet` files, so
/// a hostile name (embedded quote, backslash, non-ASCII) must not be
/// able to break the one-line-per-cell dump format or forge an
/// ambiguous metric key.
pub fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c if c.is_ascii_control() || !c.is_ascii() => {
                let _ = write!(out, "\\u{{{:04x}}}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// An immutable point-in-time view of a [`Registry`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    cells: BTreeMap<Key, u64>,
}

impl Snapshot {
    /// The value of `name{labels}` (0 if absent).
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.cells
            .get(&Key::new(name, labels))
            .copied()
            .unwrap_or(0)
    }

    /// Sums every cell named `name` whose labels contain all of
    /// `label_filter` (an empty filter sums across all label sets).
    pub fn total(&self, name: &str, label_filter: &[(&str, &str)]) -> u64 {
        self.cells
            .iter()
            .filter(|(key, _)| {
                key.name == name
                    && label_filter.iter().all(|&(fk, fv)| {
                        key.labels
                            .iter()
                            .any(|(k, v)| k.as_str() == fk && v.as_str() == fv)
                    })
            })
            .map(|(_, v)| *v)
            .sum()
    }

    /// The cells that grew relative to `base` (monotonic counters:
    /// unchanged and absent cells are dropped).
    pub fn diff(&self, base: &Snapshot) -> Snapshot {
        let cells = self
            .cells
            .iter()
            .filter_map(|(key, v)| {
                let delta = v.saturating_sub(base.cells.get(key).copied().unwrap_or(0));
                (delta > 0).then(|| (key.clone(), delta))
            })
            .collect();
        Snapshot { cells }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when no cells are present.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Iterates cells in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (&Key, u64)> {
        self.cells.iter().map(|(k, v)| (k, *v))
    }

    /// Renders the snapshot as a Prometheus-style text dump, one
    /// `name{k="v",…} value` line per cell, sorted — byte-stable for a
    /// given set of cells.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for (key, value) in &self.cells {
            out.push_str(&key.name);
            if !key.labels.is_empty() {
                out.push('{');
                for (i, (k, v)) in key.labels.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{k}=\"{}\"", escape_label(v));
                }
                out.push('}');
            }
            let _ = writeln!(out, " {value}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_accumulates_and_labels_are_canonical() {
        let reg = Registry::new();
        reg.add("c", &[("b", "2"), ("a", "1")], 5);
        reg.add("c", &[("a", "1"), ("b", "2")], 7);
        let snap = reg.snapshot();
        assert_eq!(snap.get("c", &[("a", "1"), ("b", "2")]), 12);
        assert_eq!(snap.len(), 1);
    }

    #[test]
    fn gauge_set_overwrites() {
        let reg = Registry::new();
        reg.set("g", &[], 9);
        reg.set("g", &[], 3);
        assert_eq!(reg.snapshot().get("g", &[]), 3);
    }

    #[test]
    fn diff_keeps_only_growth() {
        let reg = Registry::new();
        reg.add("a", &[], 1);
        let base = reg.snapshot();
        reg.add("a", &[], 4);
        reg.add("b", &[("x", "y")], 2);
        let delta = reg.snapshot().diff(&base);
        assert_eq!(delta.get("a", &[]), 4);
        assert_eq!(delta.get("b", &[("x", "y")]), 2);
        assert_eq!(delta.len(), 2);
    }

    #[test]
    fn total_filters_by_label_subset() {
        let reg = Registry::new();
        reg.add("m", &[("arch", "A"), ("layer", "C1")], 10);
        reg.add("m", &[("arch", "A"), ("layer", "C2")], 20);
        reg.add("m", &[("arch", "B"), ("layer", "C1")], 40);
        let snap = reg.snapshot();
        assert_eq!(snap.total("m", &[("arch", "A")]), 30);
        assert_eq!(snap.total("m", &[]), 70);
        assert_eq!(snap.total("m", &[("arch", "C")]), 0);
    }

    #[test]
    fn dump_is_sorted_and_stable() {
        let reg = Registry::new();
        reg.add("b_metric", &[], 1);
        reg.add("a_metric", &[("arch", "X")], 2);
        let dump = reg.snapshot().dump();
        assert_eq!(dump, "a_metric{arch=\"X\"} 2\nb_metric 1\n");
    }

    #[test]
    fn hostile_label_values_cannot_break_the_dump() {
        let reg = Registry::new();
        // A layer name straight out of a hostile .ffnet file: embedded
        // quote, backslash, newline, and a non-ASCII character.
        reg.add("m", &[("layer", "C1\"} 99\nforged 1")], 3);
        reg.add("m", &[("layer", "C\\1é")], 4);
        let dump = reg.snapshot().dump();
        // Still one line per cell, values escaped, nothing forged.
        assert_eq!(
            dump,
            "m{layer=\"C1\\\"} 99\\nforged 1\"} 3\nm{layer=\"C\\\\1\\u{00e9}\"} 4\n"
        );
        assert_eq!(dump.lines().count(), 2);
    }

    #[test]
    fn escape_label_passes_plain_names_through() {
        assert_eq!(escape_label("FlexFlow"), "FlexFlow");
        assert_eq!(escape_label("conv2_3x3/s2"), "conv2_3x3/s2");
        assert_eq!(escape_label("a\"b"), "a\\\"b");
        assert_eq!(escape_label("a\\b"), "a\\\\b");
        assert_eq!(escape_label("tab\there"), "tab\\u{0009}here");
    }
}
