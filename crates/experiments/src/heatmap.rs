//! `flexsim heatmap` — the spatial observability report.
//!
//! Simulates one workload on the selected architectures with a
//! spatial recorder attached ([`run_pair`]), gates every record against the
//! loss ledgers (flexcheck FXC13 — per-cause heatmap cell sums must equal
//! the ledger exactly), and renders per-PE utilization heatmaps,
//! per-bank occupancy watermarks, and contention summaries as an
//! ASCII report, byte-stable `--json`, or an `--svg` document.
//!
//! Architectures fan out over the pool ([`ExperimentCtx::map_pairs`],
//! bounded by `--jobs`); results come back in [`ARCH_NAMES`] order, so
//! output is byte-identical at every `--jobs` level.
//!
//! Exit status: 0 with every FXC13 identity holding, 1 on any
//! spatial-exactness violation, 2 on a resolution/usage error.

use crate::arches::{run_pair, ALL_ARCHES, ARCH_NAMES};
use crate::experiment::ExperimentCtx;
use crate::report::{pct, Table};
use flexcheck::Diagnostic;
use flexsim_model::Network;
use flexsim_obs::attrib::{LossLedger, StallCause};
use flexsim_obs::spatial::LayerSpatial;
use flexsim_testkit::json::Json;

/// The busy-fraction shade ramp, idle to saturated.
const RAMP: [char; 10] = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];

/// The ramp character for a busy fraction in `[0, 1]`.
pub fn shade(frac: f64) -> char {
    let idx = (frac.clamp(0.0, 1.0) * RAMP.len() as f64) as usize;
    RAMP[idx.min(RAMP.len() - 1)]
}

/// One architecture's spatial records, their paired ledgers, and the
/// FXC13 verdict.
pub struct ArchHeat {
    /// Architecture name (an [`ARCH_NAMES`] entry).
    pub arch: &'static str,
    /// Configured PE count.
    pub pe_count: usize,
    /// One spatial record per simulated layer, in layer order.
    pub spatials: Vec<LayerSpatial>,
    /// The loss ledgers the spatial records are gated against.
    pub ledgers: Vec<LossLedger>,
    /// FXC13 diagnostics (empty when every identity holds).
    pub diags: Vec<Diagnostic>,
}

/// `flexsim heatmap WORKLOAD|PATH.ffnet [--arch A] [--svg]`: the
/// report on stdout (`--json` wins over `--svg`) and the exit code;
/// `Err` on an unknown `--arch`.
pub fn heatmap(
    ctx: &ExperimentCtx,
    net: &Network,
    reference: &str,
    arch: Option<&str>,
    json: bool,
    svg: bool,
) -> Result<(String, i32), String> {
    let selected = select_arches(arch)?;
    let heats = ctx.map_pairs(std::slice::from_ref(net), &selected, |_, net, idx| {
        simulate(net, idx)
    });
    let failed = heats.iter().any(|h| flexcheck::has_errors(&h.diags));
    let text = if json {
        let mut text = heatmap_json(net, reference, &heats).pretty();
        text.push('\n');
        text
    } else if svg {
        heatmap_svg(net, &heats)
    } else {
        heatmap_text(net, &heats)
    };
    Ok((text, i32::from(failed)))
}

/// Resolves `--arch` to indices into [`ARCH_NAMES`]: all four when
/// absent, otherwise the case-insensitive name or unambiguous prefix.
pub fn select_arches(filter: Option<&str>) -> Result<Vec<usize>, String> {
    let Some(filter) = filter else {
        return Ok(ALL_ARCHES.to_vec());
    };
    let want = filter.to_ascii_lowercase();
    let name = |idx: &usize| ARCH_NAMES[*idx].to_ascii_lowercase();
    if let Some(idx) = ALL_ARCHES.into_iter().find(|i| name(i) == want) {
        return Ok(vec![idx]);
    }
    let prefixed: Vec<usize> = ALL_ARCHES
        .into_iter()
        .filter(|i| name(i).starts_with(&want))
        .collect();
    let names: Vec<&str> = prefixed.iter().map(|&i| ARCH_NAMES[i]).collect();
    match prefixed.len() {
        1 => Ok(prefixed),
        0 => Err(format!(
            "unknown architecture {filter:?}; available: {}",
            ARCH_NAMES.join(", ")
        )),
        _ => Err(format!(
            "ambiguous architecture {filter:?}; matches: {}",
            names.join(", ")
        )),
    }
}

/// Runs one architecture (an [`ARCH_NAMES`] index) with a spatial
/// recorder attached and gates the records (FXC13).
pub fn simulate(net: &Network, idx: usize) -> ArchHeat {
    let run = run_pair(net, idx, true);
    ArchHeat {
        arch: run.arch,
        pe_count: run.pe_count,
        diags: flexcheck::check_spatials(&run.spatials, &run.ledgers),
        spatials: run.spatials,
        ledgers: run.ledgers,
    }
}

/// Array-wide busy fraction of one layer record.
fn busy_fraction(sp: &LayerSpatial) -> f64 {
    let denom = sp.total_cycles.saturating_mul(sp.pe_count() as u64);
    if denom == 0 {
        return 0.0;
    }
    sp.busy_total() as f64 / denom as f64
}

/// The grep-able per-architecture verdict line (CI keys on `FXC13`).
fn fxc13_line(h: &ArchHeat) -> String {
    if h.diags.is_empty() {
        format!(
            "FXC13 spatial-exactness: ok ({} layers, {})\n",
            h.spatials.len(),
            h.arch
        )
    } else {
        format!(
            "FXC13 spatial-exactness: {} violation(s) ({})\n{}",
            h.diags.len(),
            h.arch,
            flexcheck::render(&h.diags)
        )
    }
}

fn heatmap_text(net: &Network, heats: &[ArchHeat]) -> String {
    let mut out = format!(
        "== heatmap — {} ({} layers) ==\nlegend: per-PE busy fraction, \
         idle ' ' through saturated '@' ({})\n",
        net.name(),
        net.layers().len(),
        RAMP.iter().collect::<String>().trim_start(),
    );
    for h in heats {
        out.push_str(&format!("\n-- {} ({} PEs) --\n", h.arch, h.pe_count));
        for sp in &h.spatials {
            out.push_str(&format!(
                "{}: {}x{} array, {} cycles, busy {}%\n",
                sp.layer,
                sp.rows,
                sp.cols,
                sp.total_cycles,
                pct(busy_fraction(sp)),
            ));
            for row in 0..sp.rows {
                out.push_str("  |");
                for col in 0..sp.cols {
                    out.push(shade(sp.busy_frac(row, col)));
                }
                out.push_str("|\n");
            }
            let losses: Vec<String> = StallCause::ALL
                .iter()
                .filter_map(|&cause| {
                    let lost = sp.lost_total(cause);
                    (lost > 0).then(|| format!("{}={lost}", cause.name()))
                })
                .collect();
            if !losses.is_empty() {
                out.push_str(&format!("  lost PE-cycles: {}\n", losses.join(", ")));
            }
            if !sp.adder_tree.is_empty() || !sp.cdb.is_empty() {
                out.push_str(&format!(
                    "  contention: adder-tree {} collisions / {} port pairs, \
                     cdb {} / {}\n",
                    sp.adder_tree.total(),
                    sp.adder_tree.pairs().len(),
                    sp.cdb.total(),
                    sp.cdb.pairs().len(),
                ));
            }
        }
        let mut banks = Table::new(["Layer", "Bank", "Capacity", "High water", "Mean", "Peak %"]);
        for sp in &h.spatials {
            for bank in &sp.banks {
                banks.push_row([
                    sp.layer.clone(),
                    bank.bank.clone(),
                    bank.capacity_words.to_string(),
                    bank.high_water_words.to_string(),
                    format!("{:.1}", bank.mean_words()),
                    pct(bank.high_water_words as f64 / bank.capacity_words as f64),
                ]);
            }
        }
        out.push_str(&banks.to_string());
        out.push_str(&fxc13_line(h));
    }
    out
}

fn heatmap_json(net: &Network, reference: &str, heats: &[ArchHeat]) -> Json {
    Json::obj([
        ("command", Json::str("heatmap")),
        ("reference", Json::str(reference)),
        ("workload", Json::str(net.name())),
        (
            "architectures",
            Json::arr(heats.iter().map(|h| {
                Json::obj([
                    ("arch", Json::str(h.arch)),
                    ("pe_count", Json::Int(h.pe_count as i64)),
                    ("fxc13_violations", Json::Int(h.diags.len() as i64)),
                    (
                        "layers",
                        Json::arr(h.spatials.iter().map(|sp| {
                            Json::obj([
                                ("layer", Json::str(&sp.layer)),
                                ("rows", Json::Int(sp.rows as i64)),
                                ("cols", Json::Int(sp.cols as i64)),
                                ("total_cycles", Json::Int(sp.total_cycles as i64)),
                                (
                                    "busy_pe_cycles",
                                    Json::arr(sp.busy.iter().map(|&b| Json::Int(b as i64))),
                                ),
                                (
                                    "lost_by_cause",
                                    Json::obj(StallCause::ALL.iter().map(|&cause| {
                                        (cause.name(), Json::Int(sp.lost_total(cause) as i64))
                                    })),
                                ),
                                (
                                    "banks",
                                    Json::arr(sp.banks.iter().map(|b| {
                                        Json::obj([
                                            ("bank", Json::str(&b.bank)),
                                            ("capacity_words", Json::Int(b.capacity_words as i64)),
                                            (
                                                "high_water_words",
                                                Json::Int(b.high_water_words as i64),
                                            ),
                                            ("mean_words", Json::Float(b.mean_words())),
                                            ("sampled_cycles", Json::Int(b.sampled_cycles as i64)),
                                        ])
                                    })),
                                ),
                                (
                                    "adder_tree_collisions",
                                    Json::Int(sp.adder_tree.total() as i64),
                                ),
                                ("cdb_collisions", Json::Int(sp.cdb.total() as i64)),
                            ])
                        })),
                    ),
                ])
            })),
        ),
    ])
}

/// Escapes the XML special characters for element text and attributes.
fn xml_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            _ => out.push(c),
        }
    }
    out
}

/// The fill color of a cell: a cold-to-hot ramp over the busy
/// fraction.
fn svg_color(frac: f64) -> String {
    let hot = (frac.clamp(0.0, 1.0) * 255.0).round() as u8;
    format!("#{:02x}30{:02x}", hot, 255 - hot)
}

fn heatmap_svg(net: &Network, heats: &[ArchHeat]) -> String {
    const CELL: usize = 10;
    const MARGIN: usize = 12;
    const LINE: usize = 16;
    let width = heats
        .iter()
        .flat_map(|h| h.spatials.iter())
        .map(|sp| sp.cols * CELL)
        .max()
        .unwrap_or(0)
        .max(360)
        + 2 * MARGIN;
    let mut body = String::new();
    let mut y = MARGIN + LINE;
    body.push_str(&format!(
        "  <text x=\"{MARGIN}\" y=\"{y}\" class=\"h\">heatmap — {}</text>\n",
        xml_escape(net.name()),
    ));
    y += LINE;
    for h in heats {
        y += LINE;
        body.push_str(&format!(
            "  <text x=\"{MARGIN}\" y=\"{y}\" class=\"h\">{} ({} PEs)</text>\n",
            xml_escape(h.arch),
            h.pe_count,
        ));
        y += LINE / 2;
        for sp in &h.spatials {
            y += LINE;
            body.push_str(&format!(
                "  <text x=\"{MARGIN}\" y=\"{y}\">{}: {} cycles, busy {}%</text>\n",
                xml_escape(&sp.layer),
                sp.total_cycles,
                pct(busy_fraction(sp)),
            ));
            y += LINE / 2;
            for row in 0..sp.rows {
                for col in 0..sp.cols {
                    body.push_str(&format!(
                        "  <rect x=\"{}\" y=\"{}\" width=\"{CELL}\" height=\"{CELL}\" \
                         fill=\"{}\"><title>{} r{row} c{col}: {} busy</title></rect>\n",
                        MARGIN + col * CELL,
                        y + row * CELL,
                        svg_color(sp.busy_frac(row, col)),
                        xml_escape(&sp.layer),
                        sp.busy_at(row, col),
                    ));
                }
            }
            y += sp.rows * CELL + LINE / 2;
        }
        y += LINE;
        let verdict = if h.diags.is_empty() {
            format!("FXC13 spatial-exactness: ok ({} layers)", h.spatials.len())
        } else {
            format!("FXC13 spatial-exactness: {} violation(s)", h.diags.len())
        };
        body.push_str(&format!(
            "  <text x=\"{MARGIN}\" y=\"{y}\">{}</text>\n",
            xml_escape(&verdict),
        ));
    }
    let height = y + MARGIN;
    format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{width}\" height=\"{height}\" \
         viewBox=\"0 0 {width} {height}\">\n  <style>text {{ font: 12px monospace; }} \
         .h {{ font-weight: bold; }}</style>\n{body}</svg>\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsim_model::workloads;

    /// The command's fan-out: `selected` architectures over `jobs`
    /// pool threads.
    fn heats(net: &Network, selected: &[usize], jobs: usize) -> Vec<ArchHeat> {
        ExperimentCtx::parallel("heatmap", jobs).map_pairs(
            std::slice::from_ref(net),
            selected,
            |_, net, idx| simulate(net, idx),
        )
    }

    #[test]
    fn shade_ramp_covers_the_unit_interval() {
        assert_eq!(shade(0.0), ' ');
        assert_eq!(shade(0.05), ' ');
        assert_eq!(shade(0.5), '+');
        assert_eq!(shade(0.99), '@');
        assert_eq!(shade(1.0), '@');
        assert_eq!(shade(-0.5), ' ');
        assert_eq!(shade(2.0), '@');
    }

    #[test]
    fn arch_filter_matches_names_and_prefixes() {
        assert_eq!(select_arches(None).unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(select_arches(Some("flexflow")).unwrap(), vec![3]);
        assert_eq!(select_arches(Some("FLEXFLOW")).unwrap(), vec![3]);
        assert_eq!(select_arches(Some("sys")).unwrap(), vec![0]);
        assert_eq!(select_arches(Some("2d")).unwrap(), vec![1]);
        assert_eq!(select_arches(Some("Ti")).unwrap(), vec![2]);
        assert!(select_arches(Some("eyeriss"))
            .unwrap_err()
            .contains("unknown"));
    }

    #[test]
    fn simulation_is_fxc13_clean_and_jobs_invariant() {
        let net = workloads::lenet5();
        let selected: Vec<usize> = (0..ARCH_NAMES.len()).collect();
        let serial = heats(&net, &selected, 1);
        for h in &serial {
            assert!(
                h.diags.is_empty(),
                "{}: {}",
                h.arch,
                flexcheck::render(&h.diags)
            );
            assert_eq!(h.spatials.len(), h.ledgers.len());
        }
        let parallel = heats(&net, &selected, 4);
        // Byte-identity across --jobs: every rendering agrees.
        assert_eq!(heatmap_text(&net, &serial), heatmap_text(&net, &parallel));
        assert_eq!(
            heatmap_json(&net, "lenet", &serial).pretty(),
            heatmap_json(&net, "lenet", &parallel).pretty()
        );
        assert_eq!(heatmap_svg(&net, &serial), heatmap_svg(&net, &parallel));
    }

    #[test]
    fn text_report_carries_heatmaps_banks_and_verdicts() {
        let net = workloads::lenet5();
        let heats = heats(&net, &[3], 1);
        let text = heatmap_text(&net, &heats);
        assert!(text.contains("== heatmap — LeNet-5"));
        assert!(text.contains("-- FlexFlow (256 PEs) --"));
        assert!(text.contains("FXC13 spatial-exactness: ok"));
        assert!(text.contains("neuron-in"));
        assert!(text.contains("local-store"));
        // 16 shade rows per layer, each framed by pipes.
        assert!(text
            .lines()
            .any(|l| l.starts_with("  |") && l.ends_with('|')));
    }

    #[test]
    fn json_report_is_byte_stable_and_exact() {
        let net = workloads::pv();
        let heats = heats(&net, &[0, 3], 2);
        let doc = heatmap_json(&net, "pv", &heats);
        let text = doc.pretty();
        assert!(text.contains("\"command\": \"heatmap\""));
        assert!(text.contains("\"fxc13_violations\": 0"));
        let reparsed = Json::parse(&text).unwrap();
        assert_eq!(reparsed.pretty(), text);
        // The serialized busy plane still sums to the ledger.
        for h in &heats {
            for (sp, led) in h.spatials.iter().zip(&h.ledgers) {
                assert_eq!(sp.busy_total(), led.busy_pe_cycles);
            }
        }
    }

    #[test]
    fn svg_report_is_well_formed_and_escaped() {
        let net = workloads::lenet5();
        let heats = heats(&net, &[3], 1);
        let svg = heatmap_svg(&net, &heats);
        assert!(svg.starts_with("<svg xmlns="));
        assert!(svg.ends_with("</svg>\n"));
        assert!(svg.contains("FXC13 spatial-exactness: ok"));
        assert!(svg.contains("<rect"));
        assert_eq!(
            xml_escape("a<b>&\"c\"'d'"),
            "a&lt;b&gt;&amp;&quot;c&quot;&apos;d&apos;"
        );
    }
}
