//! `flexbench compare BASE.jsonl NEW.jsonl`: per (workload, metric),
//! the medians, quartiles and win fraction of two sets of run records,
//! and one verdict under the bounds `BENCHMARK.json` fixes.
//!
//! A change improved a metric when it wins at least nine tenths of the
//! pairs (run i of BASE against run i of NEW, ties counting for
//! neither) and the medians differ by more than the BASE quartile
//! spread. Otherwise, where BASE's own spread is wider than the bound,
//! the verdict is unresolved, unless every NEW run beats every BASE
//! run; a median worse than BASE's by more than the metric's bound is
//! only a regression when BASE's spread is within that bound.

use crate::stats::{median, quartiles};
use flexsim_testkit::json::Json;
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// How a metric is judged.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spec {
    /// Whether a lower value is better.
    pub lower_is_better: bool,
    /// Share of the BASE median the metric may worsen by; `None` for
    /// per-layer metrics.
    pub bound: Option<f64>,
}

/// The outcome for one (workload, metric).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// NEW is better by the win rule.
    Improved,
    /// Within the bound, and BASE's spread is narrower than the bound.
    Unchanged,
    /// NEW's median is worse by more than the bound, and BASE's spread
    /// is within it (or, without a bound, NEW loses by the win rule).
    Regressed,
    /// BASE's spread is wider than the bound, and not every NEW run
    /// beats every BASE run.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// Judges NEW against BASE (values in run order, so that `base[i]` and
/// `new[i]` form a pair). Returns the verdict and the pairs NEW won.
pub fn verdict(base: &[f64], new: &[f64], spec: Spec) -> (Verdict, usize) {
    let better = |a: f64, b: f64| if spec.lower_is_better { a < b } else { a > b };
    let pairs = base.len().min(new.len());
    let wins = base
        .iter()
        .zip(new)
        .filter(|(b, n)| better(**n, **b))
        .count();
    let losses = base
        .iter()
        .zip(new)
        .filter(|(b, n)| better(**b, **n))
        .count();
    let (Some(mb), Some(mn)) = (median(base), median(new)) else {
        return (Verdict::Unresolved, wins);
    };
    let spread = quartiles(base).map_or(0.0, |[q1, _, q3]| q3 - q1);
    let gain = if spec.lower_is_better {
        mb - mn
    } else {
        mn - mb
    };
    if pairs > 0 && wins * 10 >= pairs * 9 && gain > spread {
        return (Verdict::Improved, wins);
    }
    let Some(bound) = spec.bound else {
        let lost = pairs > 0 && losses * 10 >= pairs * 9 && -gain > spread;
        return (
            if lost {
                Verdict::Regressed
            } else {
                Verdict::Unchanged
            },
            wins,
        );
    };
    let scale = mb.abs();
    let all_better = new.iter().all(|&n| base.iter().all(|&b| better(n, b)));
    if spread > bound * scale && !all_better {
        return (Verdict::Unresolved, wins);
    }
    if -gain > bound * scale {
        return (Verdict::Regressed, wins);
    }
    (Verdict::Unchanged, wins)
}

/// Metric specs from `BENCHMARK.json` (`end_to_end` with bounds,
/// `per_layer` without).
///
/// # Errors
///
/// An unreadable or malformed file.
pub fn load_specs(path: &Path) -> Result<BTreeMap<String, Spec>, String> {
    let bad = |why: String| format!("{}: {why}", path.display());
    let text = std::fs::read_to_string(path).map_err(|e| bad(e.to_string()))?;
    let doc = Json::parse(&text).map_err(|e| bad(e.to_string()))?;
    let mut specs = BTreeMap::new();
    for section in ["end_to_end", "per_layer"] {
        let Some(Json::Arr(items)) = field(&doc, section) else {
            return Err(bad(format!("no `{section}` list")));
        };
        for item in items {
            let (Some(Json::Str(name)), Some(Json::Str(better))) =
                (field(item, "name"), field(item, "better"))
            else {
                return Err(bad(format!("a `{section}` entry lacks name or better")));
            };
            let bound = match field(item, "bound") {
                Some(Json::Float(b)) => Some(*b),
                Some(Json::Int(b)) => Some(*b as f64),
                _ => None,
            };
            let lower_is_better = better == "lower";
            specs.insert(
                name.clone(),
                Spec {
                    lower_is_better,
                    bound,
                },
            );
        }
    }
    Ok(specs)
}

fn field<'a>(doc: &'a Json, key: &str) -> Option<&'a Json> {
    match doc {
        Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn number(v: &Json) -> Option<f64> {
    match v {
        Json::Float(f) => Some(*f),
        Json::Int(i) => Some(*i as f64),
        _ => None,
    }
}

/// Values per (workload, metric), in file order, from every run record
/// in a JSONL file (lines that are not run records are skipped).
///
/// # Errors
///
/// An unreadable file.
pub fn read_records(path: &Path) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for doc in text.lines().filter_map(|l| Json::parse(l).ok()) {
        let (Some(Json::Str(workload)), Some(Json::Obj(metrics))) =
            (field(&doc, "workload"), field(&doc, "metrics"))
        else {
            continue;
        };
        for (name, m) in metrics {
            if let Some(v) = field(m, "value").and_then(number) {
                values
                    .entry((workload.clone(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(values)
}

/// Compares two record files metric by metric. Returns the report and
/// whether any metric regressed.
///
/// # Errors
///
/// An unreadable or malformed input file.
pub fn compare(base: &Path, new: &Path, benchmark_json: &Path) -> Result<(String, bool), String> {
    let specs = load_specs(benchmark_json)?;
    let base = read_records(base)?;
    let new = read_records(new)?;
    let mut out = String::from(
        "workload        metric                                        base median [q1, q3] (n)        new median [q1, q3] (n)   wins  verdict\n",
    );
    let mut regressed = false;
    for (key @ (workload, metric), b) in &base {
        let (Some(spec), Some(n)) = (specs.get(metric), new.get(key)) else {
            continue;
        };
        let (v, wins) = verdict(b, n, *spec);
        regressed |= v == Verdict::Regressed;
        let show = |vals: &[f64]| {
            let mid = median(vals).unwrap_or(f64::NAN);
            let [q1, _, q3] = quartiles(vals).unwrap_or([mid; 3]);
            format!("{mid:>10.4e} [{q1:.3e}, {q3:.3e}] ({})", vals.len())
        };
        out.push_str(&format!(
            "{workload:<15} {metric:<45} {:>32} {:>32} {wins:>2}/{:<2} {v}\n",
            show(b),
            show(n),
            b.len().min(n.len()),
        ));
    }
    Ok((out, regressed))
}
