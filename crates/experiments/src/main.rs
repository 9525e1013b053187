//! `flexsim` — CLI driver for the FlexFlow (HPCA'17) evaluation
//! experiments.
//!
//! ```text
//! flexsim all                    # every table/figure, paper order
//! flexsim --jobs 4 --json fig15  # selected experiments, 4 threads, JSON
//! flexsim run net.ffnet          # one workload on all four architectures
//! flexsim heatmap pv --svg       # per-PE heatmaps as an SVG document
//! flexsim prove pv --mutate      # self-test: a corrupted prediction must fail
//! flexsim tune pv --budget smoke # auto-tune mappings, before/after attribution
//! flexsim bench check            # fail on a pass-time regression vs the history
//! flexsim --help                 # every command with its own options
//! ```
//!
//! [`cli::parse`] yields one typed [`Command`]; `main` runs it through
//! a single `match`, and every command's stdout, `--out`, `--trace`
//! and `--telemetry` output leaves through one emit path.
//! Output is byte-identical at every `--jobs` level: every multi-pair
//! command fans out through [`flexsim_experiments::ExperimentCtx::map`],
//! which returns results in submission order. A closed stdout pipe
//! (`flexsim ... | head`) ends the output quietly.
//!
//! Exit status: 0 on success, 1 when a check fails (lint errors, an
//! unproved pair, an inexact ledger, a failed experiment, a bench
//! regression), 2 on usage, resolution, or I/O errors.

use flexsim_experiments::cli::{self, Cli, Command, USAGE};
use flexsim_experiments::tune::{self, Budget};
use flexsim_experiments::{
    bench, experiment_ids, find, frontend, heatmap, lint, profile, prove, run_suite, stats,
    sweep_set, ExperimentCtx, ExperimentResult, SuiteConfig,
};
use flexsim_obs::cycles::LayerTimeline;
use flexsim_obs::telemetry::{self, Phase};
use flexsim_obs::{chrome, span};
use flexsim_testkit::json::Json;
use std::io::Write as _;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match cli::parse(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("flexsim: {msg}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    setup(&cli);
    let code = execute(&cli)
        .and_then(|out| finish(&cli, &out))
        .and_then(|code| write_telemetry(&cli).map(|()| code))
        .unwrap_or_else(|msg| {
            eprintln!("flexsim: {msg}");
            2
        });
    std::process::exit(code);
}

/// What one command produced, for the single emit path in [`finish`].
#[derive(Default)]
struct Output {
    /// Reports `--out DIR` writes, and stdout unless `doc` is set.
    results: Vec<ExperimentResult>,
    /// The command's own stdout document, printed instead of `results`.
    doc: Option<String>,
    /// Cycle timelines `--trace FILE` exports (suite runs collect them).
    timelines: Vec<LayerTimeline>,
    /// The command's exit status.
    code: i32,
}

impl Output {
    fn doc(doc: String, code: i32) -> Output {
        let doc = Some(doc);
        Output {
            doc,
            code,
            ..Output::default()
        }
    }

    fn results(results: Vec<ExperimentResult>, code: i32) -> Output {
        Output {
            results,
            code,
            ..Output::default()
        }
    }

    fn stdout(&self, json: bool) -> String {
        match &self.doc {
            Some(doc) => doc.clone(),
            None if json => {
                let blobs: Vec<String> =
                    self.results.iter().map(ExperimentResult::to_json).collect();
                format!("[{}]\n", blobs.join(",\n"))
            }
            None => self.results.iter().map(|r| format!("{r}\n")).collect(),
        }
    }
}

/// Process-wide switches the command line sets before anything runs.
fn setup(cli: &Cli) {
    // Host spans are opt-in; without `--trace` or telemetry the
    // recorder stays off and costs nothing.
    if cli.trace.is_some() {
        span::install_recorder();
        // The main thread doubles as pool worker 0; spawned workers
        // label themselves `flexsim-pool-N`.
        span::set_thread_label("flexsim-main (pool worker 0)");
    }
    // Host telemetry is opt-in (`--telemetry PATH`, or implied by
    // `stats`) and reads the same recorder as `--trace`. Enabling it
    // only records wall-clock observations — simulation output stays
    // byte-identical either way.
    if cli.telemetry.is_some() || cli.command == Command::Stats {
        telemetry::enable();
    }
    if let Some(path) = &cli.telemetry {
        // Flight dumps land next to the requested snapshot.
        let dir = std::path::Path::new(path)
            .parent()
            .filter(|p| !p.as_os_str().is_empty())
            .map_or_else(
                || std::path::PathBuf::from("."),
                std::path::Path::to_path_buf,
            );
        telemetry::flight::set_dir(Some(&dir));
    }
    lint::set_enabled(!cli.no_lint);
}

/// Runs the command. `Err` is a usage or resolution error (exit 2).
fn execute(cli: &Cli) -> Result<Output, String> {
    let ctx = |id: &str| ExperimentCtx::parallel(id, cli.jobs);
    Ok(match &cli.command {
        Command::Help => Output::doc(USAGE.to_owned(), 0),
        Command::List => Output::doc(
            experiment_ids()
                .iter()
                .map(|id| format!("{id}\n"))
                .collect(),
            0,
        ),
        Command::Experiments(ids) => experiments(cli, ids)?,
        Command::Run(workload) => {
            let net = frontend::resolve(Some(workload))?.remove(0);
            let (text, code) = frontend::run(&ctx("run"), &net, workload, cli.json);
            Output::doc(text, code)
        }
        Command::Heatmap {
            workload,
            arch,
            svg,
        } => {
            let net = frontend::resolve(Some(workload))?.remove(0);
            let (text, code) = heatmap::heatmap(
                &ctx("heatmap"),
                &net,
                workload,
                arch.as_deref(),
                cli.json,
                *svg,
            )?;
            Output::doc(text, code)
        }
        Command::Workloads => Output::doc(frontend::workloads(cli.json), 0),
        Command::Lint(workload) => {
            let nets = frontend::resolve(workload.as_deref())?;
            if cli.json {
                let (doc, errors) = lint::json_report(&nets);
                Output::doc(pretty(&doc), i32::from(errors > 0))
            } else {
                let (result, errors) = lint::run_workloads(&nets);
                Output::results(vec![result], i32::from(errors > 0))
            }
        }
        Command::Profile(workload) => {
            let nets = frontend::resolve(workload.as_deref())?;
            Output::results(vec![profile::run_workloads(&ctx("profile"), &nets)], 0)
        }
        Command::Prove { workload, mutate } => {
            let nets = frontend::resolve(workload.as_deref())?;
            let outcomes = prove::run_workloads(&ctx("prove"), &nets, *mutate);
            let mismatches = outcomes.iter().filter(|o| !o.proved()).count();
            eprintln!(
                "prove: {}/{} pairs proved (static == dynamic cycles + ledger)",
                outcomes.len() - mismatches,
                outcomes.len()
            );
            let mut out =
                Output::results(vec![prove::report(&outcomes)], i32::from(mismatches > 0));
            if cli.json {
                out.doc = Some(pretty(&prove::json_doc(&outcomes)));
            }
            out
        }
        Command::Tune { workload, budget } => {
            tune_workloads(&ctx("tune"), workload.as_deref(), *budget)?
        }
        Command::Stats => {
            let (result, failures) = stats::run(cli.jobs);
            Output::results(vec![result], i32::from(failures > 0))
        }
        Command::Bench(which) => Output::doc(String::new(), bench::run(which, cli.jobs)),
    })
}

/// Runs registry experiments through the suite (all of the sweep when
/// `ids` is empty or holds `all`).
fn experiments(cli: &Cli, ids: &[String]) -> Result<Output, String> {
    let experiments = {
        let _parse = telemetry::phase(Phase::Parse);
        if ids.is_empty() || ids.iter().any(|a| a == "all") {
            sweep_set()
        } else {
            ids.iter()
                .map(|id| {
                    find(id).ok_or_else(|| {
                        format!(
                            "unknown experiment {id:?}; available: {}",
                            experiment_ids().join(", ")
                        )
                    })
                })
                .collect::<Result<_, _>>()?
        }
    };
    let config = SuiteConfig {
        jobs: cli.jobs,
        trace: cli.trace.is_some(),
    };
    let report = run_suite(&experiments, &config);
    for f in &report.failures {
        eprintln!("experiment {} FAILED: {}", f.id, f.message);
    }
    let mut out = Output::results(report.results, i32::from(!report.failures.is_empty()));
    out.timelines = report.timelines;
    Ok(out)
}

/// `flexsim tune [WORKLOAD]`: the mapping auto-tuner. With no workload
/// it tunes the full Table 1 sweep and records `BENCH_tune.json`.
fn tune_workloads(
    ctx: &ExperimentCtx,
    workload: Option<&str>,
    budget: Budget,
) -> Result<Output, String> {
    let nets = frontend::resolve(workload)?;
    let outcomes = tune::tune_workloads(ctx, &nets, budget);
    if workload.is_none() {
        // Full-sweep runs are the recorded benchmark.
        std::fs::write(
            "BENCH_tune.json",
            pretty(&tune::bench_json(&outcomes, budget)),
        )
        .map_err(|e| format!("cannot write BENCH_tune.json: {e}"))?;
        let improved = outcomes.iter().filter(|o| o.improved()).count();
        eprintln!(
            "tune: budget {budget}, {improved}/{} workloads improved; wrote BENCH_tune.json",
            outcomes.len()
        );
    }
    Ok(Output::results(vec![tune::report(&outcomes, budget)], 0))
}

/// The single emit path: `--trace`, `--out`, then stdout.
/// Returns the command's exit status.
fn finish(cli: &Cli, out: &Output) -> Result<i32, String> {
    let _export = telemetry::phase(Phase::Export);
    if let Some(file) = &cli.trace {
        write_trace(file, &out.timelines)?;
    }
    if let (Some(dir), false) = (&cli.out_dir, out.results.is_empty()) {
        write_out(dir, &out.results)?;
    }
    let text = out.stdout(cli.json);
    let mut stdout = std::io::stdout().lock();
    match stdout
        .write_all(text.as_bytes())
        .and_then(|()| stdout.flush())
    {
        // The reader went away (`| head`): stop writing, keep the
        // command's own status.
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            Err(format!("cannot write to stdout: {e}"))
        }
        _ => Ok(out.code),
    }
}

/// Writes the `--trace` Chrome trace: host spans and the collected
/// cycle timelines. The spans stay in the recorder
/// for the `--telemetry` snapshot taken after it.
fn write_trace(file: &str, timelines: &[LayerTimeline]) -> Result<(), String> {
    let spans = span::records();
    let labels = span::thread_labels();
    std::fs::File::create(file)
        .and_then(|f| {
            let mut sink = std::io::BufWriter::new(f);
            chrome::write_chrome_trace(&mut sink, &spans, timelines, &labels)?;
            sink.into_inner()
                .map_err(std::io::IntoInnerError::into_error)
        })
        .map_err(|e| format!("cannot write trace {file}: {e}"))?;
    eprintln!(
        "wrote {file}: {} host spans, {} layer timelines",
        spans.len(),
        timelines.len()
    );
    Ok(())
}

/// Writes the `--telemetry` snapshot: byte-stable JSON at the given
/// path plus a Prometheus text-format sibling at `PATH.prom`.
fn write_telemetry(cli: &Cli) -> Result<(), String> {
    let Some(path) = &cli.telemetry else {
        return Ok(());
    };
    let snap = telemetry::snapshot();
    let prom_path = format!("{path}.prom");
    std::fs::write(path, pretty(&snap.to_json()))
        .and_then(|()| std::fs::write(&prom_path, snap.to_prom()))
        .map_err(|e| format!("cannot write telemetry snapshot {path}: {e}"))?;
    eprintln!("wrote telemetry snapshot to {path} (+ {prom_path})");
    Ok(())
}

fn write_out(dir: &str, results: &[ExperimentResult]) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    for r in results {
        let txt = format!("{dir}/{}.txt", r.id);
        let json = format!("{dir}/{}.json", r.id);
        std::fs::write(&txt, r.to_string())
            .and_then(|()| std::fs::write(&json, r.to_json()))
            .map_err(|e| format!("cannot write {txt}/{json}: {e}"))?;
    }
    eprintln!("wrote {} experiments to {dir}/", results.len());
    Ok(())
}

/// A JSON document as printed: pretty, newline-terminated.
fn pretty(doc: &Json) -> String {
    let mut text = doc.pretty();
    text.push('\n');
    text
}
