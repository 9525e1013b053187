//! `flexsim` — CLI driver for the FlexFlow (HPCA'17) evaluation
//! experiments.
//!
//! ```text
//! flexsim all                    # every table/figure, paper order
//! flexsim fig15 table06          # selected experiments
//! flexsim --jobs 4 all           # fan (workload, arch) tasks over 4 threads
//! flexsim --json all             # machine-readable output
//! flexsim --out DIR all          # also write one .txt + .json each
//! flexsim --trace out.json fig15 # Chrome trace (Perfetto-loadable)
//! flexsim --metrics fig15        # dump the metrics registry
//! flexsim --list                 # available experiment ids
//! flexsim run lenet              # one workload on all four architectures
//! flexsim run net.ffnet          # ... same, from a user-supplied .ffnet file
//! flexsim workloads              # list every resolvable workload
//! flexsim heatmap lenet          # per-PE heatmaps + bank watermarks (FXC13-gated)
//! flexsim heatmap pv --svg       # ... as an SVG document on stdout
//! flexsim lint [WORKLOAD]        # static verification sweep (all six when omitted)
//! flexsim lint --json            # same findings, byte-stable structured JSON
//! flexsim profile alexnet        # per-layer loss attribution + roofline
//! flexsim prove                  # prove cycles/ledgers symbolically (FXC10)
//! flexsim prove pv --mutate      # self-test: a corrupted prediction must fail
//! flexsim tune alexnet           # auto-tune mappings, before/after attribution
//! flexsim tune --budget smoke    # tune all six workloads, write BENCH_tune.json
//! flexsim tune pv --static       # symbolic baseline, engine-verify winners only
//! flexsim bench sweep            # time serial vs parallel, BENCH_pool.json
//! flexsim bench history          # append wall time + attribution to BENCH_history.jsonl
//! flexsim bench check            # fail on wall-time regression vs the history
//! flexsim --no-lint fig15        # skip the pre-simulation gate
//! ```
//!
//! Output is byte-identical at every `--jobs` level: experiments run
//! one at a time and [`flexsim_experiments::ExperimentCtx::map`]
//! returns task results in submission order.
//!
//! Exit status: 0 on success, 1 when `flexsim lint` finds errors or an
//! experiment fails, 2 on usage or I/O errors.

use flexsim_experiments::cli::{self, Cli, USAGE};
use flexsim_experiments::{
    experiment_ids, find, run_suite, Experiment, ExperimentResult, SuiteConfig, REGISTRY,
};
use flexsim_obs::telemetry::{self, Phase};
use flexsim_obs::{chrome, metrics, span};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match cli::parse(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("flexsim: {msg}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    if cli.help {
        print!("{USAGE}");
        return;
    }
    if cli.list {
        for id in experiment_ids() {
            println!("{id}");
        }
        return;
    }
    // Host telemetry is opt-in (`--telemetry PATH`, or implied by
    // `stats`). Enabling it only records wall-clock observations —
    // simulation output stays byte-identical either way.
    if cli.telemetry.is_some() || cli.stats {
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
    flexsim_experiments::lint::set_enabled(!cli.no_lint);
    if cli.lint {
        let nets = match resolve_workloads(&cli, "lint") {
            Ok(nets) => nets,
            Err(code) => std::process::exit(code),
        };
        let errors = if cli.json {
            let (doc, errors) = flexsim_experiments::lint::json_report(&nets);
            let mut text = doc.pretty();
            text.push('\n');
            print!("{text}");
            errors
        } else {
            let (result, errors) = flexsim_experiments::lint::run_workloads(&nets);
            emit(vec![result], false);
            errors
        };
        write_telemetry(&cli);
        std::process::exit(i32::from(errors > 0));
    }
    if cli.stats {
        let (result, failures) = flexsim_experiments::stats::run(&cli);
        if let Some(dir) = &cli.out_dir {
            write_out(dir, std::slice::from_ref(&result));
        }
        emit(vec![result], cli.json);
        write_telemetry(&cli);
        std::process::exit(i32::from(failures > 0));
    }
    if cli.run {
        let code = flexsim_experiments::frontend::run(&cli);
        write_telemetry(&cli);
        std::process::exit(code);
    }
    if cli.workloads {
        let code = flexsim_experiments::frontend::workloads(&cli);
        write_telemetry(&cli);
        std::process::exit(code);
    }
    if cli.heatmap {
        let code = flexsim_experiments::heatmap::heatmap(&cli);
        write_telemetry(&cli);
        std::process::exit(code);
    }
    if cli.bench {
        let code = flexsim_experiments::bench::run(&cli);
        write_telemetry(&cli);
        std::process::exit(code);
    }
    if cli.tune {
        let code = tune_workload(&cli);
        write_telemetry(&cli);
        std::process::exit(code);
    }
    if cli.prove {
        let code = prove_workload(&cli);
        write_telemetry(&cli);
        std::process::exit(code);
    }
    // `flexsim profile <workload>` — the one experiment taking an
    // argument, so it bypasses the plain registry dispatch.
    if cli.ids.first().map(String::as_str) == Some("profile") && cli.ids.len() == 2 {
        profile_workload(&cli);
        write_telemetry(&cli);
        return;
    }

    // Host spans are opt-in; without `--trace` recording stays disabled
    // and costs nothing. Cycle events flow through per-task recorders
    // inside the suite (no process-global sink involved).
    if cli.trace.is_some() {
        span::install_recorder();
        // The main thread doubles as pool worker 0; spawned workers
        // label themselves `flexsim-pool-N`.
        span::set_thread_label("flexsim-main (pool worker 0)");
    }

    let config = SuiteConfig {
        jobs: cli.jobs.unwrap_or_else(flexsim_pool::available_parallelism),
        trace: cli.trace.is_some(),
    };
    let experiments = {
        let _parse = telemetry::phase(Phase::Parse);
        select(&cli)
    };
    let report = run_suite(&experiments, &config);

    {
        let _export = telemetry::phase(Phase::Export);
        if let Some(file) = &cli.trace {
            let spans = span::take_records();
            let snapshot = metrics::global().snapshot();
            let labels = span::thread_labels();
            let written = std::fs::File::create(file).and_then(|f| {
                let mut sink = std::io::BufWriter::new(f);
                chrome::write_chrome_trace(
                    &mut sink,
                    &spans,
                    &report.timelines,
                    &snapshot,
                    &labels,
                )?;
                sink.into_inner()
                    .map_err(std::io::IntoInnerError::into_error)
            });
            if let Err(e) = written {
                eprintln!("cannot write trace {file}: {e}");
                std::process::exit(2);
            }
            eprintln!(
                "wrote {file}: {} host spans, {} layer timelines",
                spans.len(),
                report.timelines.len()
            );
        }
        if cli.metrics {
            eprint!("{}", metrics::global().snapshot().dump());
        }
        if let Some(dir) = &cli.out_dir {
            write_out(dir, &report.results);
        }
        emit(report.results, cli.json);
    }
    write_telemetry(&cli);
    if !report.failures.is_empty() {
        for f in &report.failures {
            eprintln!("experiment {} FAILED: {}", f.id, f.message);
        }
        std::process::exit(1);
    }
}

/// Writes the `--telemetry` snapshot: byte-stable JSON at the given
/// path plus a Prometheus text-format sibling at `PATH.prom`.
fn write_telemetry(cli: &Cli) {
    let Some(path) = &cli.telemetry else {
        return;
    };
    let snap = telemetry::snapshot();
    let mut text = snap.to_json().pretty();
    text.push('\n');
    let prom_path = format!("{path}.prom");
    if let Err(e) =
        std::fs::write(path, text).and_then(|()| std::fs::write(&prom_path, snap.to_prom()))
    {
        eprintln!("cannot write telemetry snapshot {path}: {e}");
        std::process::exit(2);
    }
    eprintln!("wrote telemetry snapshot to {path} (+ {prom_path})");
}

/// Resolves the command line's experiment selection against the
/// registry (usage-error exit on an unknown id).
fn select(cli: &Cli) -> Vec<&'static dyn Experiment> {
    if cli.ids.is_empty() || cli.ids.iter().any(|a| a == "all") {
        return REGISTRY.iter().filter(|e| e.in_sweep()).copied().collect();
    }
    let mut experiments = Vec::new();
    for id in &cli.ids {
        match find(id) {
            Some(e) => experiments.push(e),
            None => {
                eprintln!(
                    "unknown experiment {id:?}; available: {}",
                    experiment_ids().join(", ")
                );
                std::process::exit(2);
            }
        }
    }
    experiments
}

/// `flexsim profile <workload>`: the per-layer loss-attribution +
/// roofline report for one Table 1 workload.
fn profile_workload(cli: &Cli) {
    let name = &cli.ids[1];
    let net = match flexsim_experiments::frontend::registry().resolve(name) {
        Ok(net) => net,
        Err(e) => {
            eprintln!("flexsim: {e}");
            std::process::exit(2);
        }
    };
    let jobs = cli.jobs.unwrap_or_else(flexsim_pool::available_parallelism);
    let ctx = flexsim_experiments::ExperimentCtx::parallel("profile", jobs);
    let result = flexsim_experiments::profile::run_workloads(&ctx, &[net]);
    if cli.metrics {
        eprint!("{}", metrics::global().snapshot().dump());
    }
    if let Some(dir) = &cli.out_dir {
        write_out(dir, std::slice::from_ref(&result));
    }
    emit(vec![result], cli.json);
}

/// Resolves a subcommand's optional `[WORKLOAD]` argument: all six
/// Table 1 workloads when absent, the referenced one otherwise — a
/// built-in name, alias, or `.ffnet` path, resolved through the
/// registry (usage-error `Err` exit code on anything else).
fn resolve_workloads(cli: &Cli, cmd: &str) -> Result<Vec<flexsim_model::Network>, i32> {
    match cli.ids.len() {
        0 => Ok(flexsim_model::workloads::all()),
        1 => match flexsim_experiments::frontend::registry().resolve(&cli.ids[0]) {
            Ok(net) => Ok(vec![net]),
            Err(e) => {
                eprintln!("flexsim: {e}");
                Err(2)
            }
        },
        _ => {
            eprintln!("flexsim: {cmd} takes at most one workload");
            Err(2)
        }
    }
}

/// `flexsim tune [WORKLOAD]`: the mapping auto-tuner. With no workload
/// it tunes the full Table 1 sweep and records `BENCH_tune.json`.
fn tune_workload(cli: &Cli) -> i32 {
    use flexsim_experiments::tune::{self, Budget, VerifyMode};
    let budget = cli.budget.unwrap_or(Budget::Full);
    let mode = if cli.static_verify {
        VerifyMode::Static
    } else {
        VerifyMode::Engine
    };
    let nets = match resolve_workloads(cli, "tune") {
        Ok(nets) => nets,
        Err(code) => return code,
    };
    let jobs = cli.jobs.unwrap_or_else(flexsim_pool::available_parallelism);
    let ctx = flexsim_experiments::ExperimentCtx::parallel("tune", jobs);
    let outcomes = tune::tune_workloads_with(&ctx, &nets, budget, mode);
    if cli.ids.is_empty() {
        // Full-sweep runs are the recorded benchmark.
        let mut text = tune::bench_json(&outcomes, budget).pretty();
        text.push('\n');
        if let Err(e) = std::fs::write("BENCH_tune.json", text) {
            eprintln!("cannot write BENCH_tune.json: {e}");
            return 2;
        }
        let improved = outcomes.iter().filter(|o| o.improved()).count();
        eprintln!(
            "tune: budget {budget}, {improved}/{} workloads improved; wrote BENCH_tune.json",
            outcomes.len()
        );
    }
    let result = tune::report(&outcomes, budget);
    if let Some(dir) = &cli.out_dir {
        write_out(dir, std::slice::from_ref(&result));
    }
    emit(vec![result], cli.json);
    0
}

/// `flexsim prove [WORKLOAD]`: the symbolic cycle/ledger prover. Exits
/// non-zero when any (workload, architecture) pair's static prediction
/// diverges from the engine recording (FXC10).
fn prove_workload(cli: &Cli) -> i32 {
    use flexsim_experiments::prove;
    let nets = match resolve_workloads(cli, "prove") {
        Ok(nets) => nets,
        Err(code) => return code,
    };
    let jobs = cli.jobs.unwrap_or_else(flexsim_pool::available_parallelism);
    let ctx = flexsim_experiments::ExperimentCtx::parallel("prove", jobs);
    let outcomes = prove::run_workloads(&ctx, &nets, cli.mutate);
    let mismatches = outcomes.iter().filter(|o| !o.proved()).count();
    let result = prove::report(&outcomes);
    if let Some(dir) = &cli.out_dir {
        write_out(dir, std::slice::from_ref(&result));
    }
    if cli.json {
        let mut text = prove::json_doc(&outcomes).pretty();
        text.push('\n');
        print!("{text}");
    } else {
        emit(vec![result], false);
    }
    eprintln!(
        "prove: {}/{} pairs proved (static == dynamic cycles + ledger)",
        outcomes.len() - mismatches,
        outcomes.len()
    );
    i32::from(mismatches > 0)
}

fn write_out(dir: &str, results: &[ExperimentResult]) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("cannot create {dir}: {e}");
        std::process::exit(2);
    }
    for r in results {
        let txt = format!("{dir}/{}.txt", r.id);
        let json = format!("{dir}/{}.json", r.id);
        if let Err(e) =
            std::fs::write(&txt, r.to_string()).and_then(|_| std::fs::write(&json, r.to_json()))
        {
            eprintln!("cannot write {txt}/{json}: {e}");
            std::process::exit(2);
        }
    }
    eprintln!("wrote {} experiments to {dir}/", results.len());
}

fn emit(results: Vec<ExperimentResult>, json: bool) {
    if json {
        let blobs: Vec<String> = results.iter().map(ExperimentResult::to_json).collect();
        println!("[{}]", blobs.join(",\n"));
    } else {
        for r in results {
            println!("{r}");
        }
    }
}
