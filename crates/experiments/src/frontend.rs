//! `flexsim run` / `flexsim workloads` — the workload-frontend
//! commands behind the [`flexsim_model::WorkloadRegistry`].
//!
//! * `flexsim run WORKLOAD|PATH.ffnet` resolves one workload reference
//!   (built-in name, alias, `.ffnet` path, or a bare stem from
//!   `examples/`) and simulates it on all four architectures at the
//!   paper scale, checking every loss ledger against the FXC09
//!   exactness identity.
//! * `flexsim workloads` lists every resolvable workload with layer,
//!   CONV-MAC, and parameter counts, as a text table or byte-stable
//!   `--json`.
//!
//! Resolution failures — unknown names, unreadable files, `.ffnet`
//! parse or shape errors — are usage errors (exit 2) with the parser's
//! line/path diagnostic passed through verbatim.

use crate::arches::{check_pe_cycles, run_pair, ALL_ARCHES};
use crate::experiment::ExperimentCtx;
use crate::report::{pct, Table};
use flexsim_model::registry::{param_count, WorkloadSource};
use flexsim_model::{Network, WorkloadRegistry};
use flexsim_obs::attrib::LossLedger;
use flexsim_testkit::json::Json;

/// The search directory whose `*.ffnet` files resolve by bare stem.
pub const EXAMPLES_DIR: &str = "examples";

/// The registry every `flexsim` command resolves workload references
/// against: the built-ins plus `examples/*.ffnet`.
pub fn registry() -> WorkloadRegistry {
    WorkloadRegistry::new().with_dir(EXAMPLES_DIR)
}

/// Resolves a command's workload argument against [`registry`]: the
/// referenced workload, or all six Table 1 workloads when absent. The
/// error is the parser's or resolver's diagnostic, or a layer too large
/// for the loss ledgers ([`check_pe_cycles`]), for a usage-error exit
/// (2).
pub fn resolve(reference: Option<&str>) -> Result<Vec<Network>, String> {
    let Some(r) = reference else {
        return Ok(flexsim_model::workloads::all());
    };
    let net = registry().resolve(r).map_err(|e| e.to_string())?;
    check_pe_cycles(&net).map_err(|e| format!("{r}:{e}"))?;
    Ok(vec![net])
}

/// `flexsim run WORKLOAD|PATH.ffnet`: one workload on all four
/// architectures, fanned over `ctx`. Returns the report and the exit
/// code (0 ok, 1 on a ledger exactness failure).
pub fn run(ctx: &ExperimentCtx, net: &Network, reference: &str, json: bool) -> (String, i32) {
    let rows = ctx.map_pairs(std::slice::from_ref(net), &ALL_ARCHES, |tctx, net, idx| {
        let run = run_pair(tctx, net, idx, false);
        if !run.diags.is_empty() {
            eprintln!(
                "{}/{}: FXC09 exactness violated:\n{}",
                net.name(),
                run.arch,
                flexcheck::render(&run.diags)
            );
        }
        ArchRow {
            arch: run.arch,
            pe_count: run.pe_count,
            cycles: run.summary.cycles(),
            utilization: run.summary.utilization(),
            busy_pe_cycles: run.ledgers.iter().map(|l| l.busy_pe_cycles).sum(),
            lost_pe_cycles: run.ledgers.iter().map(LossLedger::attributed_lost).sum(),
            exact: run.diags.is_empty(),
        }
    });
    let failed = rows.iter().any(|r| !r.exact);
    let text = if json {
        let mut text = run_json(net, reference, &rows).pretty();
        text.push('\n');
        text
    } else {
        run_text(net, &rows)
    };
    (text, i32::from(failed))
}

/// One architecture's measurements for the `run` report.
struct ArchRow {
    arch: &'static str,
    pe_count: usize,
    cycles: u64,
    utilization: f64,
    busy_pe_cycles: u64,
    lost_pe_cycles: u64,
    exact: bool,
}

fn run_text(net: &Network, rows: &[ArchRow]) -> String {
    let mut table = Table::new([
        "Architecture",
        "PEs",
        "Cycles",
        "Utilization",
        "Busy PE-cycles",
        "Lost PE-cycles",
        "Ledger",
    ]);
    for r in rows {
        table.push_row([
            r.arch.to_owned(),
            r.pe_count.to_string(),
            r.cycles.to_string(),
            pct(r.utilization),
            r.busy_pe_cycles.to_string(),
            r.lost_pe_cycles.to_string(),
            if r.exact { "exact" } else { "VIOLATED" }.to_owned(),
        ]);
    }
    format!(
        "== run — {} ({} layers, {} CONV MACs, {} params) ==\n{table}",
        net.name(),
        net.layers().len(),
        net.conv_macs(),
        param_count(net),
    )
}

fn run_json(net: &Network, reference: &str, rows: &[ArchRow]) -> Json {
    Json::obj([
        ("command", Json::str("run")),
        ("reference", Json::str(reference)),
        ("workload", Json::str(net.name())),
        ("layers", Json::Int(net.layers().len() as i64)),
        ("conv_macs", Json::Int(net.conv_macs() as i64)),
        ("params", Json::Int(param_count(net) as i64)),
        (
            "architectures",
            Json::arr(rows.iter().map(|r| {
                Json::obj([
                    ("arch", Json::str(r.arch)),
                    ("pe_count", Json::Int(r.pe_count as i64)),
                    ("cycles", Json::Int(r.cycles as i64)),
                    ("utilization", Json::Float(r.utilization)),
                    ("busy_pe_cycles", Json::Int(r.busy_pe_cycles as i64)),
                    ("lost_pe_cycles", Json::Int(r.lost_pe_cycles as i64)),
                    ("ledger_exact", Json::Bool(r.exact)),
                ])
            })),
        ),
    ])
}

/// `flexsim workloads`: the registry listing with per-workload layer,
/// MAC, and parameter counts. Never fails: unparseable `.ffnet` files
/// are listed with their diagnostic.
pub fn workloads(json: bool) -> String {
    let reg = registry();
    let rows: Vec<EntryRow> = reg
        .entries()
        .into_iter()
        .map(|entry| {
            let (source, resolved) = match &entry.source {
                WorkloadSource::Builtin => (
                    "builtin".to_owned(),
                    reg.resolve(&entry.name).map_err(|e| e.to_string()),
                ),
                WorkloadSource::File(path) => (
                    path.display().to_string(),
                    reg.resolve(&path.display().to_string())
                        .map_err(|e| e.to_string()),
                ),
            };
            EntryRow {
                name: entry.name,
                aliases: entry.aliases.iter().map(|a| (*a).to_owned()).collect(),
                source,
                resolved,
            }
        })
        .collect();
    let builtin = rows.iter().filter(|r| r.source == "builtin").count();
    if json {
        let mut text = workloads_json(&rows, builtin).pretty();
        text.push('\n');
        text
    } else {
        workloads_text(&rows)
    }
}

/// One registry entry's listing row: counts when the workload
/// resolves, the diagnostic when it does not.
struct EntryRow {
    name: String,
    aliases: Vec<String>,
    source: String,
    resolved: Result<Network, String>,
}

fn workloads_text(rows: &[EntryRow]) -> String {
    let mut table = Table::new([
        "Workload",
        "Aliases",
        "Source",
        "Layers",
        "CONV MACs",
        "Params",
    ]);
    for r in rows {
        match &r.resolved {
            Ok(net) => table.push_row([
                r.name.clone(),
                r.aliases.join(", "),
                r.source.clone(),
                net.layers().len().to_string(),
                net.conv_macs().to_string(),
                param_count(net).to_string(),
            ]),
            Err(e) => table.push_row([
                r.name.clone(),
                r.aliases.join(", "),
                r.source.clone(),
                "-".to_owned(),
                "-".to_owned(),
                format!("unparseable: {e}"),
            ]),
        }
    }
    format!("== workloads — {} resolvable ==\n{table}", rows.len())
}

fn workloads_json(rows: &[EntryRow], builtin: usize) -> Json {
    Json::obj([
        ("command", Json::str("workloads")),
        ("total", Json::Int(rows.len() as i64)),
        ("builtin", Json::Int(builtin as i64)),
        ("ffnet", Json::Int((rows.len() - builtin) as i64)),
        (
            "workloads",
            Json::arr(rows.iter().map(|r| {
                let mut fields = vec![
                    ("name", Json::str(&r.name)),
                    ("aliases", Json::str_arr(&r.aliases)),
                    ("source", Json::str(&r.source)),
                ];
                match &r.resolved {
                    Ok(net) => fields.extend([
                        ("layers", Json::Int(net.layers().len() as i64)),
                        ("conv_macs", Json::Int(net.conv_macs() as i64)),
                        ("params", Json::Int(param_count(net) as i64)),
                    ]),
                    Err(e) => fields.push(("error", Json::str(e))),
                }
                Json::obj(fields)
            })),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_resolves_builtins_and_examples() {
        let reg = registry();
        assert_eq!(reg.resolve("lenet").unwrap().name(), "LeNet-5");
        assert_eq!(reg.search_dirs().len(), 1);
    }

    #[test]
    fn workloads_listing_counts_table1_builtins() {
        let reg = registry();
        let builtins = reg
            .entries()
            .iter()
            .filter(|e| e.source == WorkloadSource::Builtin)
            .count();
        assert!(builtins >= 9, "expected the built-in table, got {builtins}");
    }

    #[test]
    fn workloads_json_is_structured_per_entry() {
        let rows = vec![
            EntryRow {
                name: "good".to_owned(),
                aliases: vec!["g".to_owned()],
                source: "builtin".to_owned(),
                resolved: Ok(flexsim_model::workloads::lenet5()),
            },
            EntryRow {
                name: "bad".to_owned(),
                aliases: Vec::new(),
                source: "x.ffnet".to_owned(),
                resolved: Err("x.ffnet:3:1: boom".to_owned()),
            },
        ];
        let doc = workloads_json(&rows, 1);
        let text = doc.pretty();
        assert!(text.contains("\"total\": 2"));
        assert!(text.contains("\"builtin\": 1"));
        assert!(text.contains("\"ffnet\": 1"));
        assert!(text.contains("\"params\": 2550"));
        assert!(text.contains("\"error\""));
        // Byte-stable: re-parsing and re-printing is the identity.
        let reparsed = Json::parse(&text).unwrap();
        assert_eq!(reparsed.pretty(), text);
    }

    #[test]
    fn run_text_reports_every_architecture() {
        let net = flexsim_model::workloads::lenet5();
        let rows = vec![ArchRow {
            arch: "FlexFlow",
            pe_count: 256,
            cycles: 12_345,
            utilization: 0.875,
            busy_pe_cycles: 100,
            lost_pe_cycles: 7,
            exact: true,
        }];
        let text = run_text(&net, &rows);
        assert!(text.contains("LeNet-5"));
        assert!(text.contains("FlexFlow"));
        assert!(text.contains("12345"));
        assert!(text.contains("exact"));
    }
}
