//! Strict command-line parsing for the `flexsim` binary.
//!
//! Unlike a scan-and-ignore loop, [`parse`] rejects anything it does
//! not understand — an unknown `--flag` or a value flag with its
//! argument missing is an error, not a silent no-op — so typos fail
//! loudly with the usage text instead of quietly running `all`.

/// Usage text printed on `--help` and on every parse error.
pub const USAGE: &str = "\
usage: flexsim [OPTIONS] [EXPERIMENT-ID...]
       flexsim run WORKLOAD|PATH.ffnet [--json] [--jobs N]
       flexsim heatmap WORKLOAD|PATH.ffnet [--arch A] [--json|--svg] [--jobs N]
       flexsim workloads [--json]
       flexsim lint [WORKLOAD] [--json]
       flexsim profile [WORKLOAD] [--json]
       flexsim prove [WORKLOAD] [--json] [--mutate] [--jobs N]
       flexsim tune [WORKLOAD] [--budget smoke|full|N] [--static] [--jobs N]
       flexsim stats [--jobs N] [--json] [--telemetry PATH]
       flexsim bench sweep [--jobs N]
       flexsim bench history [--jobs N]
       flexsim bench check [--baseline FILE] [--threshold PCT]

Runs the FlexFlow (HPCA'17) evaluation experiments. With no ids (or
with `all`) every experiment runs in paper order.

Everywhere a WORKLOAD is accepted it is a workload *reference*: a
built-in name or alias (case- and hyphen-insensitive — `lenet`,
`LeNet-5`, `vgg`, ...), a path to a `.ffnet` network file, or the bare
stem of a file in `examples/`. `flexsim workloads` lists what resolves.

`flexsim run WORKLOAD|PATH.ffnet` simulates one workload on all four
architectures (Systolic, 2D-Mapping, Tiling, FlexFlow) at the paper
scale: cycles, utilization, and lost PE-cycles per architecture, with
every loss ledger checked against the FXC09 exactness identity.
Unresolvable references (unknown name, unreadable file, or a `.ffnet`
parse/shape error with line and path context) exit 2.

`flexsim heatmap WORKLOAD|PATH.ffnet` simulates one workload with a
spatial recorder attached and renders per-PE utilization heatmaps (one per
layer and architecture), per-buffer-bank occupancy watermarks, and the
adder-tree/CDB contention pairs. Every record is exactness-gated:
per-cause heatmap cell sums must equal the layer's loss ledger
(flexcheck FXC13 spatial-exactness) or the process exits 1. `--arch`
restricts to one architecture (a case-insensitive name or prefix:
`flexflow`, `sys`, ...); `--json` emits the byte-stable structured
document; `--svg` an SVG rendering. Output is byte-identical at every
`--jobs` level.

`flexsim workloads` lists every resolvable workload — built-ins plus
`examples/*.ffnet` — with layer, CONV-MAC, and parameter counts.

`flexsim lint [WORKLOAD]` statically verifies every Table 1 workload
(or the one named; an unresolvable reference exits 2) on all four
architectures with the flexcheck rules (FXC01-FXC13: local-store
capacity, bus races, adder-tree ports, FSM bounds, ISA protocol,
unroll bounds, bank conflicts, utilization sanity, attribution
exactness, cycle exactness, ISA coverage, interference freedom,
spatial exactness) and
exits non-zero on any error. The same check also gates every
simulation. `--json` emits the findings as a byte-stable structured
document instead of the text table.

`flexsim profile [WORKLOAD]` renders the per-layer loss-attribution +
roofline report for one Table 1 workload (all six when omitted):
cycles, utilization, compute- vs bandwidth-bound, and the top loss
causes, with every ledger balanced to the FXC09 exactness identity.

`flexsim prove [WORKLOAD]` proves, without simulating, each Table 1
workload's per-layer cycle counts and loss ledgers on all four
architectures: the symbolic evaluator derives them in closed form, the
cycle-recorded engine run must match exactly (flexcheck FXC10), and
the process exits non-zero on any divergence. `--json` emits the
byte-stable static-vs-dynamic delta document; `--mutate` perturbs the
first prediction by one cycle (the CI self-test that the comparison
has teeth).

`flexsim tune [WORKLOAD]` searches each CONV layer's legal unrolling
space for the mapping minimizing lost PE-cycles: candidates are
enumerated per `--budget`, statically pruned by the flexcheck rules
before any simulation, scored in parallel with the exact loss-ledger
cost function, and the winners verified on the cycle-stepped engine.
Prints the best-mapping table with before/after loss attribution per
cause; with no workload, tunes all six and writes BENCH_tune.json.
`--static` ranks candidates symbolically and engine-verifies the
winners only — the FXC10 proof guarantees the same winners and deltas
at a fraction of the simulation time.

`flexsim stats` runs the Table 1 sweep with host-side telemetry
enabled and reports where *simulator* wall time goes: per-phase
exclusive time (parse, flexcheck, schedule, simulate, verify, export),
per-worker scheduler stats (busy/idle/wall, tasks, steals, queue
high-water), and latency histograms (p50/p90/p99) for experiments,
per-layer simulations, and pool tasks. Telemetry never changes
simulation output — results stay byte-identical with it on or off.

`flexsim bench sweep` times the full sweep serially and at the given
`--jobs` level and writes the comparison to BENCH_pool.json.

`flexsim bench history` times the sweep once, aggregates loss
attribution, and appends one JSON line (wall time, busy/lost
PE-cycles, parallelism, rustc, commit) to BENCH_history.jsonl.

`flexsim bench check` re-times the sweep and exits non-zero when wall
time regressed more than `--threshold` percent (default 50) past the
last line of `--baseline` (default BENCH_history.jsonl); with no
baseline file it reports and exits 0.

options:
  --jobs N        run up to N experiment tasks concurrently (default:
                  available parallelism; `--jobs 1` is byte-identical
                  to the historical serial output)
  --arch A        heatmap: restrict to one architecture (name or
                  case-insensitive prefix)
  --svg           heatmap: emit an SVG rendering instead of text
  --budget B      tune search budget: `smoke` (power-of-two grid),
                  `full` (exhaustive, the default), or a positive
                  per-layer candidate cap
  --static        tune: keep the baseline side symbolic and
                  engine-verify only the winners
  --mutate        prove: perturb the first prediction by one cycle and
                  require the mismatch to be caught (exit non-zero)
  --json          machine-readable JSON on stdout
  --out DIR       also write one .txt + .json per experiment into DIR
  --trace FILE    write a Chrome trace-event JSON file (host spans +
                  cycle-domain timelines + metrics), loadable in
                  Perfetto or chrome://tracing
  --telemetry PATH collect host-side runtime telemetry during any run
                  and write the snapshot to PATH (byte-stable JSON)
                  plus PATH.prom (Prometheus text format); flight
                  dumps (flight-<ts>.json) go to PATH's directory
  --metrics       print the metrics-registry dump to stderr after the run
  --baseline FILE JSONL file `bench check` compares against (default:
                  BENCH_history.jsonl)
  --threshold PCT percent wall-time slowdown `bench check` tolerates
                  (positive integer, default: 50)
  --no-lint       skip the static pre-simulation verification gate
  --list          list experiment ids and exit
  --help          show this message

environment:
  FLEXSIM_LOG     log filter, e.g. `debug` or `span=debug,engine=off`
";

/// A parsed `flexsim` command line.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Cli {
    /// Emit machine-readable JSON on stdout.
    pub json: bool,
    /// List experiment ids and exit.
    pub list: bool,
    /// Show the usage text and exit.
    pub help: bool,
    /// Print the metrics-registry dump after the run.
    pub metrics: bool,
    /// Run the static verifier sweep instead of any experiment.
    pub lint: bool,
    /// Simulate one workload reference on all four architectures.
    pub run: bool,
    /// Render the spatial observability report for one workload.
    pub heatmap: bool,
    /// `heatmap --svg`: emit an SVG rendering instead of text.
    pub svg: bool,
    /// `heatmap --arch`: restrict to one architecture.
    pub arch: Option<String>,
    /// List every resolvable workload instead of any experiment.
    pub workloads: bool,
    /// Run the benchmark subcommand instead of any experiment.
    pub bench: bool,
    /// Run the mapping auto-tuner instead of any experiment.
    pub tune: bool,
    /// Run the symbolic cycle/ledger prover instead of any experiment.
    pub prove: bool,
    /// `tune --static`: symbolic baseline, engine-verify winners only.
    pub static_verify: bool,
    /// `prove --mutate`: corrupt one prediction to self-test the gate.
    pub mutate: bool,
    /// Run the host-telemetry report instead of any experiment.
    pub stats: bool,
    /// Disarm the pre-simulation verification gate.
    pub no_lint: bool,
    /// Maximum concurrently running experiment tasks (`None` = pick the
    /// machine's available parallelism).
    pub jobs: Option<usize>,
    /// Write a Chrome trace-event file to this path.
    pub trace: Option<String>,
    /// Collect host telemetry and write the snapshot to this path
    /// (JSON; a `.prom` sibling carries the Prometheus rendering).
    pub telemetry: Option<String>,
    /// Directory for per-experiment `.txt` + `.json` output.
    pub out_dir: Option<String>,
    /// Baseline JSONL file for `bench check` (default:
    /// `BENCH_history.jsonl`).
    pub baseline: Option<String>,
    /// Percent wall-time slowdown `bench check` tolerates before
    /// failing (default: 50).
    pub threshold_pct: Option<u32>,
    /// Search budget for `flexsim tune` (default: full).
    pub budget: Option<crate::tune::Budget>,
    /// Experiment ids to run; empty means `all`. For `bench` this holds
    /// the benchmark name (`sweep`).
    pub ids: Vec<String>,
}

/// Parses the argument list (program name already stripped).
///
/// # Errors
///
/// Returns a one-line message for unknown flags, for `--out` /
/// `--trace` / `--jobs` missing their value (a following argument that
/// itself looks like a flag does not count as a value), and for a
/// `--jobs` value that is not a positive integer.
pub fn parse<S: AsRef<str>>(args: &[S]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut iter = args.iter().map(AsRef::as_ref);
    while let Some(arg) = iter.next() {
        match arg {
            "--json" => cli.json = true,
            "--list" => cli.list = true,
            "--help" | "-h" => cli.help = true,
            "--metrics" => cli.metrics = true,
            "--no-lint" => cli.no_lint = true,
            "lint" => cli.lint = true,
            "run" => cli.run = true,
            "heatmap" => cli.heatmap = true,
            "workloads" => cli.workloads = true,
            "bench" => cli.bench = true,
            "tune" => cli.tune = true,
            "prove" => cli.prove = true,
            "stats" => cli.stats = true,
            "--static" => cli.static_verify = true,
            "--mutate" => cli.mutate = true,
            "--svg" => cli.svg = true,
            "--arch" => cli.arch = Some(value_of(&mut iter, "--arch", "an architecture name")?),
            "--jobs" => {
                let v = value_of(&mut iter, "--jobs", "a positive integer")?;
                match v.parse::<usize>() {
                    Ok(n) if n > 0 => cli.jobs = Some(n),
                    _ => return Err(format!("--jobs requires a positive integer, got {v:?}")),
                }
            }
            "--budget" => {
                let v = value_of(&mut iter, "--budget", "`smoke`, `full`, or a candidate cap")?;
                cli.budget = Some(crate::tune::Budget::parse(&v)?);
            }
            "--out" => cli.out_dir = Some(value_of(&mut iter, "--out", "a directory")?),
            "--trace" => cli.trace = Some(value_of(&mut iter, "--trace", "a file path")?),
            "--telemetry" => {
                cli.telemetry = Some(value_of(&mut iter, "--telemetry", "a file path")?);
            }
            "--baseline" => cli.baseline = Some(value_of(&mut iter, "--baseline", "a file path")?),
            "--threshold" => {
                let v = value_of(&mut iter, "--threshold", "a positive integer percent")?;
                match v.parse::<u32>() {
                    Ok(n) if n > 0 => cli.threshold_pct = Some(n),
                    _ => {
                        return Err(format!(
                            "--threshold requires a positive integer percent, got {v:?}"
                        ))
                    }
                }
            }
            flag if flag.starts_with('-') => {
                return Err(format!("unknown option {flag:?}"));
            }
            id => cli.ids.push(id.to_owned()),
        }
    }
    Ok(cli)
}

/// Pulls the value for `flag` off the iterator, refusing flag-shaped
/// arguments so `--out --json` reads as a missing value rather than a
/// directory literally named `--json`.
fn value_of<'a>(
    iter: &mut impl Iterator<Item = &'a str>,
    flag: &str,
    what: &str,
) -> Result<String, String> {
    match iter.next() {
        Some(v) if !v.starts_with('-') => Ok(v.to_owned()),
        _ => Err(format!("{flag} requires {what} argument")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(args: &[&str]) -> Result<Cli, String> {
        parse(args)
    }

    #[test]
    fn flags_and_ids_mix_in_any_order() {
        let cli = p(&[
            "--json",
            "fig15",
            "--out",
            "results",
            "table06",
            "--metrics",
        ])
        .unwrap();
        assert!(cli.json && cli.metrics && !cli.list && !cli.help);
        assert_eq!(cli.out_dir.as_deref(), Some("results"));
        assert_eq!(cli.trace, None);
        assert_eq!(cli.ids, ["fig15", "table06"]);
    }

    #[test]
    fn empty_args_mean_run_all() {
        let cli = p(&[]).unwrap();
        assert_eq!(cli, Cli::default());
        assert!(cli.ids.is_empty());
    }

    #[test]
    fn trace_takes_a_path() {
        let cli = p(&["--trace", "out.json", "all"]).unwrap();
        assert_eq!(cli.trace.as_deref(), Some("out.json"));
        assert_eq!(cli.ids, ["all"]);
    }

    #[test]
    fn jobs_takes_a_positive_integer() {
        let cli = p(&["--jobs", "4", "all"]).unwrap();
        assert_eq!(cli.jobs, Some(4));
        assert_eq!(p(&[]).unwrap().jobs, None);
    }

    #[test]
    fn bad_jobs_values_are_rejected() {
        for bad in ["0", "four", "-2", "1.5"] {
            let err = p(&["--jobs", bad]).unwrap_err();
            assert!(err.contains("--jobs requires"), "{bad}: {err}");
        }
        assert!(p(&["--jobs"]).unwrap_err().contains("--jobs requires"));
    }

    #[test]
    fn unknown_flags_are_rejected() {
        for bad in ["--jsno", "--outdir", "-x", "--trace-file", "--job"] {
            let err = p(&[bad, "all"]).unwrap_err();
            assert!(err.contains("unknown option"), "{bad}: {err}");
            assert!(err.contains(bad), "{bad}: {err}");
        }
    }

    #[test]
    fn value_flags_require_their_value() {
        // At the end of the line…
        assert!(p(&["--out"]).unwrap_err().contains("--out requires"));
        assert!(p(&["fig15", "--trace"])
            .unwrap_err()
            .contains("--trace requires"));
        // …and when the next token is itself a flag.
        assert!(p(&["--out", "--json"]).unwrap_err().contains("--out"));
        assert!(p(&["--trace", "-h"]).unwrap_err().contains("--trace"));
    }

    #[test]
    fn help_short_and_long() {
        assert!(p(&["-h"]).unwrap().help);
        assert!(p(&["--help"]).unwrap().help);
    }

    #[test]
    fn lint_is_a_subcommand_not_an_id() {
        let cli = p(&["lint"]).unwrap();
        assert!(cli.lint && !cli.no_lint);
        assert!(cli.ids.is_empty());
        let cli = p(&["lint", "--json"]).unwrap();
        assert!(cli.lint && cli.json);
    }

    #[test]
    fn bench_is_a_subcommand_with_a_name() {
        let cli = p(&["bench", "sweep"]).unwrap();
        assert!(cli.bench);
        assert_eq!(cli.ids, ["sweep"]);
        let cli = p(&["bench", "sweep", "--jobs", "2"]).unwrap();
        assert!(cli.bench);
        assert_eq!(cli.jobs, Some(2));
    }

    #[test]
    fn bench_check_takes_baseline_and_threshold() {
        let cli = p(&[
            "bench",
            "check",
            "--baseline",
            "b.jsonl",
            "--threshold",
            "25",
        ])
        .unwrap();
        assert!(cli.bench);
        assert_eq!(cli.ids, ["check"]);
        assert_eq!(cli.baseline.as_deref(), Some("b.jsonl"));
        assert_eq!(cli.threshold_pct, Some(25));
        // Defaults stay unset for the caller to fill in.
        let cli = p(&["bench", "check"]).unwrap();
        assert_eq!(cli.baseline, None);
        assert_eq!(cli.threshold_pct, None);
    }

    #[test]
    fn bad_threshold_values_are_rejected() {
        for bad in ["0", "-5", "half", "1.5"] {
            let err = p(&["bench", "check", "--threshold", bad]).unwrap_err();
            assert!(err.contains("--threshold requires"), "{bad}: {err}");
        }
        assert!(p(&["--baseline"]).unwrap_err().contains("--baseline"));
    }

    #[test]
    fn tune_is_a_subcommand_with_budget() {
        let cli = p(&["tune"]).unwrap();
        assert!(cli.tune && !cli.bench);
        assert!(cli.ids.is_empty());
        assert_eq!(cli.budget, None);
        let cli = p(&["tune", "alexnet", "--budget", "smoke", "--jobs", "2"]).unwrap();
        assert!(cli.tune);
        assert_eq!(cli.ids, ["alexnet"]);
        assert_eq!(cli.budget, Some(crate::tune::Budget::Smoke));
        assert_eq!(cli.jobs, Some(2));
        let cli = p(&["tune", "--budget", "128"]).unwrap();
        assert_eq!(cli.budget, Some(crate::tune::Budget::Cap(128)));
    }

    #[test]
    fn bad_budget_values_are_rejected() {
        for bad in ["0", "exhaustive", "1.5"] {
            let err = p(&["tune", "--budget", bad]).unwrap_err();
            assert!(err.contains("--budget requires"), "{bad}: {err}");
        }
        assert!(p(&["tune", "--budget"]).unwrap_err().contains("--budget"));
        // Flag-shaped values read as a missing value, not a budget.
        assert!(p(&["tune", "--budget", "--json"])
            .unwrap_err()
            .contains("--budget"));
    }

    #[test]
    fn prove_is_a_subcommand_with_mutate() {
        let cli = p(&["prove"]).unwrap();
        assert!(cli.prove && !cli.tune && !cli.mutate);
        assert!(cli.ids.is_empty());
        let cli = p(&["prove", "alexnet", "--json", "--mutate", "--jobs", "2"]).unwrap();
        assert!(cli.prove && cli.json && cli.mutate);
        assert_eq!(cli.ids, ["alexnet"]);
        assert_eq!(cli.jobs, Some(2));
    }

    #[test]
    fn tune_static_is_a_flag() {
        let cli = p(&["tune", "pv", "--static", "--budget", "smoke"]).unwrap();
        assert!(cli.tune && cli.static_verify);
        assert_eq!(cli.ids, ["pv"]);
        assert_eq!(cli.budget, Some(crate::tune::Budget::Smoke));
        assert!(!p(&["tune"]).unwrap().static_verify);
    }

    #[test]
    fn stats_is_a_subcommand() {
        let cli = p(&["stats"]).unwrap();
        assert!(cli.stats && !cli.bench && !cli.tune);
        assert!(cli.ids.is_empty());
        let cli = p(&["stats", "--jobs", "4", "--json"]).unwrap();
        assert!(cli.stats && cli.json);
        assert_eq!(cli.jobs, Some(4));
    }

    #[test]
    fn telemetry_takes_a_path_on_any_command() {
        let cli = p(&["--telemetry", "telemetry.json", "all"]).unwrap();
        assert_eq!(cli.telemetry.as_deref(), Some("telemetry.json"));
        assert_eq!(cli.ids, ["all"]);
        let cli = p(&["stats", "--telemetry", "t.json"]).unwrap();
        assert!(cli.stats);
        assert_eq!(cli.telemetry.as_deref(), Some("t.json"));
        // Missing or flag-shaped values are rejected.
        assert!(p(&["--telemetry"]).unwrap_err().contains("--telemetry"));
        assert!(p(&["--telemetry", "--json"])
            .unwrap_err()
            .contains("--telemetry"));
    }

    #[test]
    fn profile_takes_a_workload_argument() {
        let cli = p(&["profile", "alexnet", "--json"]).unwrap();
        assert!(cli.json);
        assert_eq!(cli.ids, ["profile", "alexnet"]);
    }

    #[test]
    fn run_is_a_subcommand_with_a_reference() {
        let cli = p(&["run", "examples/resnet_block.ffnet", "--json"]).unwrap();
        assert!(cli.run && cli.json && !cli.lint);
        assert_eq!(cli.ids, ["examples/resnet_block.ffnet"]);
        let cli = p(&["run", "lenet", "--jobs", "2"]).unwrap();
        assert!(cli.run);
        assert_eq!(cli.ids, ["lenet"]);
        assert_eq!(cli.jobs, Some(2));
    }

    #[test]
    fn heatmap_is_a_subcommand_with_arch_and_svg() {
        let cli = p(&["heatmap", "lenet"]).unwrap();
        assert!(cli.heatmap && !cli.run && !cli.svg);
        assert_eq!(cli.ids, ["lenet"]);
        assert_eq!(cli.arch, None);
        let cli = p(&[
            "heatmap", "pv", "--arch", "flexflow", "--svg", "--jobs", "2",
        ])
        .unwrap();
        assert!(cli.heatmap && cli.svg);
        assert_eq!(cli.arch.as_deref(), Some("flexflow"));
        assert_eq!(cli.jobs, Some(2));
        let cli = p(&["heatmap", "examples/dilated.ffnet", "--json"]).unwrap();
        assert!(cli.heatmap && cli.json);
        assert_eq!(cli.ids, ["examples/dilated.ffnet"]);
        // --arch refuses missing or flag-shaped values.
        assert!(p(&["heatmap", "pv", "--arch"])
            .unwrap_err()
            .contains("--arch"));
        assert!(p(&["heatmap", "pv", "--arch", "--json"])
            .unwrap_err()
            .contains("--arch"));
    }

    #[test]
    fn workloads_is_a_subcommand() {
        let cli = p(&["workloads"]).unwrap();
        assert!(cli.workloads && !cli.run && !cli.bench);
        assert!(cli.ids.is_empty());
        let cli = p(&["workloads", "--json"]).unwrap();
        assert!(cli.workloads && cli.json);
    }

    #[test]
    fn no_lint_disarms_the_gate() {
        let cli = p(&["--no-lint", "fig15"]).unwrap();
        assert!(cli.no_lint && !cli.lint);
        assert_eq!(cli.ids, ["fig15"]);
    }
}
