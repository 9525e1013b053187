//! The seed-independent exact counts every pass must reproduce
//! (`expected.json`, one object of counts per workload).

use flexsim_testkit::json::Json;
use std::collections::BTreeMap;
use std::path::Path;

/// Exact counts a pass produced, by metric name.
pub type Counts = BTreeMap<&'static str, u64>;

/// Exact counts a workload's passes must produce, by metric name.
pub type Expected = BTreeMap<String, u64>;

/// Reads `workload`'s expected counts. A workload missing from the
/// file expects no counts, so every pass that makes counts fails.
///
/// # Errors
///
/// An unreadable file, or one that is not an object of objects of
/// non-negative integers.
pub fn load(path: &Path, workload: &str) -> Result<Expected, String> {
    let bad = |why: &str| format!("{}: {why}", path.display());
    let text = std::fs::read_to_string(path).map_err(|e| bad(&e.to_string()))?;
    let doc = Json::parse(&text).map_err(|e| bad(&e.to_string()))?;
    let Json::Obj(workloads) = doc else {
        return Err(bad("not a JSON object"));
    };
    let Some((_, counts)) = workloads.into_iter().find(|(w, _)| w == workload) else {
        return Ok(Expected::new());
    };
    let Json::Obj(counts) = counts else {
        return Err(bad(&format!("{workload} is not an object")));
    };
    counts
        .into_iter()
        .map(|(name, v)| match v {
            Json::Int(n) if n >= 0 => Ok((name, n.unsigned_abs())),
            _ => Err(bad(&format!("{workload}.{name} is not a count"))),
        })
        .collect()
}

/// One message per count that differs from, is missing from, or is
/// absent in `expected`.
pub fn diff(counts: &Counts, expected: &Expected) -> Vec<String> {
    let mut errors: Vec<String> = counts
        .iter()
        .filter(|(name, got)| expected.get(**name) != Some(got))
        .map(|(name, got)| match expected.get(*name) {
            Some(want) => format!("count {name} = {got}, expected {want}"),
            None => format!("count {name} = {got} is not in the expected counts"),
        })
        .collect();
    errors.extend(
        expected
            .keys()
            .filter(|name| !counts.contains_key(name.as_str()))
            .map(|name| format!("count {name} was not produced")),
    );
    errors
}
