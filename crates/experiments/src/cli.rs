//! Strict command-line parsing for the `flexsim` binary.
//!
//! [`parse`] turns the argument list into a [`Cli`]: the options every
//! command accepts, plus one typed [`Command`] carrying only its own
//! arguments. The first positional argument picks the command; options
//! may appear anywhere. Anything [`parse`] does not understand is an
//! error, not a silent no-op: an unknown `--flag`, a value flag with
//! its argument missing, a second command on the same line, a stray
//! argument, or an option that belongs to another command. Typos fail
//! loudly with the usage text instead of quietly running something
//! else.

use crate::bench::{DEFAULT_THRESHOLD_PCT, HISTORY_FILE};
use crate::tune::Budget;

/// Usage text printed on `--help` and on every parse error.
pub const USAGE: &str = "\
usage: flexsim [OPTIONS] [EXPERIMENT-ID...]
       flexsim [OPTIONS] run WORKLOAD|PATH.ffnet
       flexsim [OPTIONS] heatmap WORKLOAD|PATH.ffnet [--arch A] [--svg]
       flexsim [OPTIONS] workloads
       flexsim [OPTIONS] lint [WORKLOAD]
       flexsim [OPTIONS] profile [WORKLOAD]
       flexsim [OPTIONS] prove [WORKLOAD] [--mutate]
       flexsim [OPTIONS] tune [WORKLOAD] [--budget smoke|full|N] [--static]
       flexsim [OPTIONS] stats
       flexsim [OPTIONS] bench history
       flexsim [OPTIONS] bench check [--baseline FILE] [--threshold PCT]

Runs the FlexFlow (HPCA'17) evaluation experiments. With no ids (or
with `all`) every experiment runs in paper order. The first positional
argument picks the command; options may appear anywhere. One command
per line: a second command, a stray argument, or another command's
option is a usage error (exit 2).

Everywhere a WORKLOAD is accepted it is a workload *reference*: a
built-in name or alias (case- and hyphen-insensitive — `lenet`,
`LeNet-5`, `vgg`, ...), a path to a `.ffnet` network file, or the bare
stem of a file in `examples/`. `flexsim workloads` lists what resolves.
An unresolvable reference (unknown name, unreadable file, or a `.ffnet`
parse/shape error with line and path context) exits 2.

`flexsim run WORKLOAD|PATH.ffnet` simulates one workload on all four
architectures (Systolic, 2D-Mapping, Tiling, FlexFlow) at the paper
scale: cycles, utilization, and lost PE-cycles per architecture, with
every loss ledger checked against the FXC09 exactness identity.

`flexsim heatmap WORKLOAD|PATH.ffnet` simulates one workload with a
spatial recorder attached and renders per-PE utilization heatmaps (one per
layer and architecture), per-buffer-bank occupancy watermarks, and the
adder-tree/CDB contention pairs. Every record is exactness-gated:
per-cause heatmap cell sums must equal the layer's loss ledger
(flexcheck FXC13 spatial-exactness) or the process exits 1.

`flexsim workloads` lists every resolvable workload — built-ins plus
`examples/*.ffnet` — with layer, CONV-MAC, and parameter counts.

`flexsim lint [WORKLOAD]` statically verifies every Table 1 workload
(or the one named) on all four architectures with the flexcheck rules
(FXC01-FXC13: local-store capacity, bus races, adder-tree ports, PE-array
slot tables, ISA protocol, unroll bounds, bank conflicts, utilization
sanity, attribution exactness, cycle exactness, ISA coverage,
interference freedom, spatial exactness) and exits non-zero on any
error. The same check also gates every simulation.

`flexsim profile [WORKLOAD]` renders the per-layer loss-attribution +
roofline report for one Table 1 workload (all six when omitted):
cycles, utilization, compute- vs bandwidth-bound, and the top loss
causes, with every ledger balanced to the FXC09 exactness identity.

`flexsim prove [WORKLOAD]` proves, without simulating, each Table 1
workload's per-layer cycle counts and loss ledgers on all four
architectures: the symbolic evaluator derives them in closed form, the
cycle-recorded engine run must match exactly (flexcheck FXC10), and
the process exits non-zero on any divergence.

`flexsim tune [WORKLOAD]` searches each CONV layer's legal unrolling
space for the mapping minimizing lost PE-cycles: candidates are
enumerated per `--budget`, statically pruned by the flexcheck rules
before any simulation, and scored in parallel with the exact
loss-ledger cost function; every before/after ledger is checked exact
(FXC09) and the tuned program by flexcheck. Prints the best-mapping
table with before/after loss attribution per cause; with no workload,
tunes all six and writes BENCH_tune.json.

`flexsim stats` runs the Table 1 sweep with host-side telemetry
enabled and reports where *simulator* wall time goes: per-phase
exclusive time (parse, flexcheck, schedule, simulate, export),
per-worker scheduler stats (busy/idle/wall, tasks, queue
high-water), and latency histograms (p50/p90/p99) for experiments,
per-layer simulations, and pool tasks. Telemetry never changes
simulation output — results stay byte-identical with it on or off.

`flexsim bench history` times the sweep, the smoke-budget tuner and
the prove sweep, aggregates loss attribution, and appends one JSON line
(pass and wall times, busy/lost PE-cycles, parallelism, rustc, commit)
to BENCH_history.jsonl. Every time is the median of 7 passes run at
--jobs 1; `pass_s` is that median with each pass normalised by a
yardstick run either side of it, so other tenants' load divides out.

`flexsim bench check` re-times the sweep and exits non-zero when its
`pass_s` regressed more than `--threshold` percent past the last line
of `--baseline`, or when the smoke-budget tuner recovers fewer
PE-cycles; with no baseline file it reports and exits 0.

options (any command):
  --jobs N        run up to N tasks concurrently (default: available
                  parallelism); output is byte-identical at every level
  --json          machine-readable JSON on stdout
  --out DIR       also write one .txt + .json per experiment report
                  into DIR
  --trace FILE    write a Chrome trace-event JSON file (host spans +
                  cycle-domain timelines), loadable in Perfetto or
                  chrome://tracing
  --telemetry PATH collect host-side runtime telemetry during any run
                  and write the snapshot to PATH (byte-stable JSON)
                  plus PATH.prom (Prometheus text format); flight
                  dumps (flight-<ts>.json) go to PATH's directory
  --no-lint       skip the static pre-simulation verification gate
  --list          list experiment ids and exit
  --help          show this message

heatmap options:
  --arch A        restrict to one architecture (name or
                  case-insensitive prefix: `flexflow`, `sys`, ...)
  --svg           emit an SVG rendering instead of text (`--json`
                  wins when both are given)

prove options:
  --mutate        perturb the first prediction by one cycle and
                  require the mismatch to be caught (exit non-zero)

tune options:
  --budget B      search budget: `smoke` (power-of-two grid), `full`
                  (exhaustive, the default), or a positive per-layer
                  candidate cap
  --static        accepted and does nothing (the tuner has one path)

bench check options:
  --baseline FILE JSONL file to compare against (default:
                  BENCH_history.jsonl)
  --threshold PCT percent `pass_s` slowdown tolerated (positive
                  integer, default: 50)

environment:
  FLEXSIM_LOG     log filter, e.g. `debug` or `span=debug,engine=off`
";

/// A parsed `flexsim` command line: the options every command takes,
/// plus the one command to run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cli {
    /// Emit machine-readable JSON on stdout.
    pub json: bool,
    /// Disarm the pre-simulation verification gate.
    pub no_lint: bool,
    /// Maximum concurrently running tasks (`--jobs`, else the
    /// machine's available parallelism).
    pub jobs: usize,
    /// Write a Chrome trace-event file to this path.
    pub trace: Option<String>,
    /// Collect host telemetry and write the snapshot to this path
    /// (JSON; a `.prom` sibling carries the Prometheus rendering).
    pub telemetry: Option<String>,
    /// Directory for per-experiment `.txt` + `.json` output.
    pub out_dir: Option<String>,
    /// What to run.
    pub command: Command,
}

/// One `flexsim` command with only its own arguments.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Command {
    /// `--help`: show the usage text.
    Help,
    /// `--list`: list experiment ids.
    List,
    /// Registry experiments by id; empty means `all`.
    Experiments(Vec<String>),
    /// `run WORKLOAD`: one workload on all four architectures.
    Run(String),
    /// `heatmap WORKLOAD [--arch A] [--svg]`: the spatial report.
    Heatmap {
        /// The workload reference.
        workload: String,
        /// Restrict to one architecture (name or prefix).
        arch: Option<String>,
        /// Emit an SVG document instead of text.
        svg: bool,
    },
    /// `workloads`: list every resolvable workload.
    Workloads,
    /// `lint [WORKLOAD]`: the static verifier sweep.
    Lint(Option<String>),
    /// `profile [WORKLOAD]`: per-layer loss attribution + roofline.
    Profile(Option<String>),
    /// `prove [WORKLOAD] [--mutate]`: the symbolic cycle/ledger proof.
    Prove {
        /// The workload reference (all six Table 1 workloads if absent).
        workload: Option<String>,
        /// Corrupt one prediction to self-test the gate.
        mutate: bool,
    },
    /// `tune [WORKLOAD] [--budget B] [--static]`: the mapping auto-tuner.
    Tune {
        /// The workload reference (all six Table 1 workloads if absent).
        workload: Option<String>,
        /// Search budget (default: full).
        budget: Budget,
    },
    /// `stats`: the host-telemetry report.
    Stats,
    /// `bench history|check`: the perf-regression harness.
    Bench(Bench),
}

/// The `flexsim bench` benchmarks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Bench {
    /// Append a timed, attributed entry to the history log.
    History,
    /// Gate the sweep's normalised pass time on the history log.
    Check {
        /// The JSONL log compared against.
        baseline: String,
        /// Percent `pass_s` slowdown tolerated.
        threshold_pct: u32,
    },
}

/// Whether `word` names a command (in first position; any other first
/// positional is an experiment id).
fn is_command(word: &str) -> bool {
    matches!(
        word,
        "run" | "heatmap" | "workloads" | "lint" | "profile" | "prove" | "tune" | "stats" | "bench"
    )
}

/// Options only one command takes, collected wherever they appear and
/// handed to the command that owns them; one left over is an error.
#[derive(Default)]
struct CommandOptions {
    arch: Option<String>,
    svg: bool,
    mutate: bool,
    budget: Option<Budget>,
    /// `--static`: accepted by `tune` and ignored there.
    static_flag: bool,
    baseline: Option<String>,
    threshold_pct: Option<u32>,
}

impl CommandOptions {
    /// The first option the command did not consume, as a usage error
    /// naming the command that owns it.
    fn leftover(&self) -> Result<(), String> {
        let unused = [
            ("--arch", self.arch.is_some(), "heatmap"),
            ("--svg", self.svg, "heatmap"),
            ("--mutate", self.mutate, "prove"),
            ("--budget", self.budget.is_some(), "tune"),
            ("--static", self.static_flag, "tune"),
            ("--baseline", self.baseline.is_some(), "bench check"),
            ("--threshold", self.threshold_pct.is_some(), "bench check"),
        ]
        .into_iter()
        .find(|(_, set, _)| *set);
        match unused {
            Some((flag, _, owner)) => Err(format!("{flag} is an option of `{owner}` only")),
            None => Ok(()),
        }
    }
}

/// Parses the argument list (program name already stripped).
///
/// # Errors
///
/// Returns a one-line message for unknown flags; for a value flag
/// missing its value (a following argument that itself looks like a
/// flag does not count as one) or given a malformed one; for two
/// commands on one line; for the wrong number of arguments to a
/// command; and for an option the command does not take.
pub fn parse<S: AsRef<str>>(args: &[S]) -> Result<Cli, String> {
    let (mut json, mut no_lint, mut help, mut list) = (false, false, false, false);
    let (mut jobs, mut trace, mut telemetry, mut out_dir) = (None, None, None, None);
    let mut opts = CommandOptions::default();
    let mut words = Vec::new();
    let mut iter = args.iter().map(AsRef::as_ref);
    while let Some(arg) = iter.next() {
        match arg {
            "--json" => json = true,
            "--list" => list = true,
            "--help" | "-h" => help = true,
            "--no-lint" => no_lint = true,
            "--static" => opts.static_flag = true,
            "--mutate" => opts.mutate = true,
            "--svg" => opts.svg = true,
            "--arch" => opts.arch = Some(value_of(&mut iter, "--arch", "an architecture name")?),
            "--jobs" => jobs = Some(positive(&mut iter, "--jobs", "a positive integer")?),
            "--budget" => {
                let v = value_of(&mut iter, "--budget", "`smoke`, `full`, or a candidate cap")?;
                opts.budget = Some(Budget::parse(&v)?);
            }
            "--out" => out_dir = Some(value_of(&mut iter, "--out", "a directory")?),
            "--trace" => trace = Some(value_of(&mut iter, "--trace", "a file path")?),
            "--telemetry" => telemetry = Some(value_of(&mut iter, "--telemetry", "a file path")?),
            "--baseline" => {
                opts.baseline = Some(value_of(&mut iter, "--baseline", "a file path")?);
            }
            "--threshold" => {
                opts.threshold_pct = Some(positive(
                    &mut iter,
                    "--threshold",
                    "a positive integer percent",
                )?);
            }
            flag if flag.starts_with('-') => return Err(format!("unknown option {flag:?}")),
            word => words.push(word.to_owned()),
        }
    }
    let command = if help {
        Command::Help
    } else {
        let command = command(list, words, &mut opts)?;
        opts.leftover()?;
        command
    };
    Ok(Cli {
        json,
        no_lint,
        jobs: jobs.unwrap_or_else(flexsim_pool::available_parallelism),
        trace,
        telemetry,
        out_dir,
        command,
    })
}

/// Builds the command the first positional names, moving the options
/// it owns out of `opts`.
fn command(list: bool, words: Vec<String>, opts: &mut CommandOptions) -> Result<Command, String> {
    let mut words = words.into_iter();
    let first = words.next();
    let rest: Vec<String> = words.collect();
    if list {
        return match first {
            None => Ok(Command::List),
            Some(w) => Err(format!("--list takes no arguments, got {w:?}")),
        };
    }
    let Some(first) = first else {
        return Ok(Command::Experiments(Vec::new()));
    };
    // A later command word is a second command — unless it is also an
    // experiment id (`profile`, `tune`) in an experiment list.
    let experiment_list = !is_command(&first);
    let second_command =
        |w: &&String| is_command(w) && !(experiment_list && crate::experiment::find(w).is_some());
    if let Some(second) = rest.iter().find(second_command) {
        return Err(format!(
            "two commands on one line: {first:?} and {second:?}"
        ));
    }
    let cmd = first.as_str();
    Ok(match cmd {
        "run" => Command::Run(exactly_one(cmd, rest)?),
        "heatmap" => Command::Heatmap {
            workload: exactly_one(cmd, rest)?,
            arch: opts.arch.take(),
            svg: std::mem::take(&mut opts.svg),
        },
        "workloads" => no_arguments(cmd, &rest, Command::Workloads)?,
        "lint" => Command::Lint(at_most_one(cmd, rest)?),
        "profile" => Command::Profile(at_most_one(cmd, rest)?),
        "prove" => Command::Prove {
            workload: at_most_one(cmd, rest)?,
            mutate: std::mem::take(&mut opts.mutate),
        },
        "tune" => {
            opts.static_flag = false;
            Command::Tune {
                workload: at_most_one(cmd, rest)?,
                budget: opts.budget.take().unwrap_or(Budget::Full),
            }
        }
        "stats" => no_arguments(cmd, &rest, Command::Stats)?,
        "bench" => Command::Bench(match rest.as_slice() {
            [b] if b == "history" => Bench::History,
            [b] if b == "check" => Bench::Check {
                baseline: opts
                    .baseline
                    .take()
                    .unwrap_or_else(|| HISTORY_FILE.to_owned()),
                threshold_pct: opts.threshold_pct.take().unwrap_or(DEFAULT_THRESHOLD_PCT),
            },
            _ => return Err(format!("{cmd} expects one benchmark: history or check")),
        }),
        _ => Command::Experiments(std::iter::once(first).chain(rest).collect()),
    })
}

fn exactly_one(cmd: &str, rest: Vec<String>) -> Result<String, String> {
    <[String; 1]>::try_from(rest)
        .map(|[workload]| workload)
        .map_err(|_| format!("{cmd} takes exactly one workload name or .ffnet path"))
}

fn at_most_one(cmd: &str, rest: Vec<String>) -> Result<Option<String>, String> {
    if rest.len() > 1 {
        return Err(format!("{cmd} takes at most one workload"));
    }
    Ok(rest.into_iter().next())
}

fn no_arguments(cmd: &str, rest: &[String], command: Command) -> Result<Command, String> {
    rest.first().map_or(Ok(command), |w| {
        Err(format!("{cmd} takes no arguments, got {w:?}"))
    })
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

/// [`value_of`] for a positive integer.
fn positive<'a, T: std::str::FromStr + Default + PartialOrd>(
    iter: &mut impl Iterator<Item = &'a str>,
    flag: &str,
    what: &str,
) -> Result<T, String> {
    let v = value_of(iter, flag, what)?;
    match v.parse::<T>() {
        Ok(n) if n > T::default() => Ok(n),
        _ => Err(format!("{flag} requires {what}, got {v:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One table row: a command line and the command it parses to.
    type Row<'a> = (&'a [&'a str], Command);

    fn p(args: &[&str]) -> Result<Cli, String> {
        parse(args)
    }

    /// Parses every row of a table section to its expected command.
    fn assert_rows(rows: Vec<Row<'_>>) {
        for (args, expected) in rows {
            let cli = p(args).unwrap_or_else(|e| panic!("{args:?}: {e}"));
            assert_eq!(cli.command, expected, "{args:?}");
        }
    }

    /// Every rejected command line carries its needle in the message.
    fn assert_rejected(rows: &[(&[&str], &str)]) {
        for (args, needle) in rows {
            let err = p(args).unwrap_err();
            assert!(err.contains(needle), "{args:?}: {err}");
        }
    }

    fn ids(ids: &[&str]) -> Command {
        Command::Experiments(ids.iter().map(|&s| s.to_owned()).collect())
    }

    fn run(w: &str) -> Command {
        Command::Run(w.to_owned())
    }

    fn heatmap(w: &str, arch: Option<&str>, svg: bool) -> Command {
        Command::Heatmap {
            workload: w.to_owned(),
            arch: arch.map(str::to_owned),
            svg,
        }
    }

    fn lint(w: Option<&str>) -> Command {
        Command::Lint(w.map(str::to_owned))
    }

    fn prove(w: Option<&str>, mutate: bool) -> Command {
        Command::Prove {
            workload: w.map(str::to_owned),
            mutate,
        }
    }

    fn tune(w: Option<&str>, budget: Budget) -> Command {
        Command::Tune {
            workload: w.map(str::to_owned),
            budget,
        }
    }

    fn check(baseline: &str, threshold_pct: u32) -> Command {
        Command::Bench(Bench::Check {
            baseline: baseline.to_owned(),
            threshold_pct,
        })
    }

    const FFNET: &str = "examples/resnet_block.ffnet";

    /// Every `flexsim` command line in `ci.sh` and in the binary tests
    /// under `tests/`.
    #[test]
    fn every_ci_and_binary_test_command_line_parses() {
        let smoke = Budget::Smoke;
        assert_rows(vec![
            (&["lint"], lint(None)),
            (&["--json", "lint"], lint(None)),
            (&["--jobs", "1", "--json", "all"], ids(&["all"])),
            (&["--jobs", "2", "--json", "all"], ids(&["all"])),
            (
                &["--json", "profile", "alexnet"],
                Command::Profile(Some("alexnet".to_owned())),
            ),
            (
                &["--json", "--budget", "smoke", "tune", "pv"],
                tune(Some("pv"), smoke),
            ),
            (
                &["--json", "--budget", "smoke", "--jobs", "4", "tune", "pv"],
                tune(Some("pv"), smoke),
            ),
            (
                &["--json", "--budget", "smoke", "tune", "pv", "--static"],
                tune(Some("pv"), smoke),
            ),
            (&["prove"], prove(None, false)),
            (&["--json", "prove"], prove(None, false)),
            (&["prove", "pv", "--mutate"], prove(Some("pv"), true)),
            (&["workloads"], Command::Workloads),
            (&["--json", "workloads"], Command::Workloads),
            (&["--json", "run", FFNET], run(FFNET)),
            (&["lint", FFNET], lint(Some(FFNET))),
            (
                &["lint", "no-such-workload"],
                lint(Some("no-such-workload")),
            ),
            (&["prove", FFNET], prove(Some(FFNET), false)),
            (
                &["--budget", "smoke", "tune", FFNET],
                tune(Some(FFNET), smoke),
            ),
            (&["run", "/tmp/bad.ffnet"], run("/tmp/bad.ffnet")),
            (&["heatmap", "lenet"], heatmap("lenet", None, false)),
            (
                &["--jobs", "1", "--json", "heatmap", "lenet"],
                heatmap("lenet", None, false),
            ),
            (
                &["--jobs", "4", "--json", "heatmap", "lenet"],
                heatmap("lenet", None, false),
            ),
            (
                &["--jobs", "1", "--svg", "heatmap", "lenet"],
                heatmap("lenet", None, true),
            ),
            (
                &["--jobs", "4", "--svg", "heatmap", "lenet"],
                heatmap("lenet", None, true),
            ),
            (&["--svg", "heatmap", "lenet"], heatmap("lenet", None, true)),
            (
                &["heatmap", FFNET, "--arch", "flexflow"],
                heatmap(FFNET, Some("flexflow"), false),
            ),
            (
                &["--jobs", "2", "--json", "--out", "o", "all"],
                ids(&["all"]),
            ),
            (
                &[
                    "--jobs",
                    "2",
                    "--json",
                    "--out",
                    "o",
                    "--telemetry",
                    "t.json",
                    "all",
                ],
                ids(&["all"]),
            ),
            (&["--jobs", "2", "stats"], Command::Stats),
            (&["bench", "history"], Command::Bench(Bench::History)),
            (
                &["bench", "check", "--baseline", "/src/BENCH_history.jsonl"],
                check("/src/BENCH_history.jsonl", DEFAULT_THRESHOLD_PCT),
            ),
            (&["--jobs", "1", "--json", "run", "lenet"], run("lenet")),
            (&["--jobs", "4", "--json", "run", "lenet"], run("lenet")),
            // tests/
            (&["run", FFNET], run(FFNET)),
            (&["--json", "lint", FFNET], lint(Some(FFNET))),
            (&["workloads", "--json"], Command::Workloads),
            (
                &["--jobs", "2", "--trace", "t.json", "fig15"],
                ids(&["fig15"]),
            ),
            (
                &["--jobs", "8", "heatmap", "lenet"],
                heatmap("lenet", None, false),
            ),
        ]);
    }

    #[test]
    fn flags_and_ids_mix_in_any_order() {
        let args = [
            "--json",
            "fig15",
            "--out",
            "results",
            "table06",
            "--no-lint",
        ];
        let cli = p(&args).unwrap();
        assert!(cli.json && cli.no_lint);
        assert_eq!(cli.out_dir.as_deref(), Some("results"));
        assert_eq!(cli.trace, None);
        assert_rows(vec![
            (&args, ids(&["fig15", "table06"])),
            // `profile` and `tune` are experiment ids too.
            (
                &["fig15", "profile", "tune"],
                ids(&["fig15", "profile", "tune"]),
            ),
        ]);
    }

    #[test]
    fn empty_args_mean_run_all() {
        let cli = p(&[]).unwrap();
        assert!(!cli.json && !cli.no_lint);
        assert_eq!((cli.trace, cli.telemetry, cli.out_dir), (None, None, None));
        assert_rows(vec![(&[], ids(&[]))]);
    }

    #[test]
    fn trace_takes_a_path() {
        let cli = p(&["--trace", "out.json", "all"]).unwrap();
        assert_eq!(cli.trace.as_deref(), Some("out.json"));
        assert_eq!(cli.command, ids(&["all"]));
    }

    #[test]
    fn jobs_takes_a_positive_integer() {
        assert_eq!(p(&["--jobs", "4", "all"]).unwrap().jobs, 4);
        // The default is computed once, here.
        assert_eq!(p(&[]).unwrap().jobs, flexsim_pool::available_parallelism());
    }

    #[test]
    fn bad_jobs_values_are_rejected() {
        assert_rejected(&[
            (&["--jobs", "0"], "--jobs requires"),
            (&["--jobs", "four"], "--jobs requires"),
            (&["--jobs", "-2"], "--jobs requires"),
            (&["--jobs", "1.5"], "--jobs requires"),
            (&["--jobs"], "--jobs requires"),
        ]);
    }

    #[test]
    fn unknown_flags_are_rejected() {
        for bad in ["--jsno", "--outdir", "-x", "--trace-file", "--job"] {
            assert_rejected(&[(&[bad, "all"], "unknown option"), (&[bad, "all"], bad)]);
        }
    }

    #[test]
    fn value_flags_require_their_value() {
        assert_rejected(&[
            // At the end of the line…
            (&["--out"], "--out requires"),
            (&["fig15", "--trace"], "--trace requires"),
            // …and when the next token is itself a flag.
            (&["--out", "--json"], "--out requires"),
            (&["--trace", "-h"], "--trace requires"),
        ]);
    }

    #[test]
    fn help_short_and_long() {
        assert_rows(vec![
            (&["-h"], Command::Help),
            (&["--help"], Command::Help),
            (&["run", "--help"], Command::Help),
            (&["--list"], Command::List),
        ]);
    }

    #[test]
    fn lint_is_a_subcommand_not_an_id() {
        assert!(!p(&["lint"]).unwrap().no_lint);
        assert!(p(&["lint", "--json"]).unwrap().json);
        assert_rows(vec![
            (&["lint"], lint(None)),
            (&["lint", "--json"], lint(None)),
            (&["lint", "pv"], lint(Some("pv"))),
        ]);
    }

    #[test]
    fn bench_is_a_subcommand_with_a_name() {
        assert_eq!(p(&["bench", "history", "--jobs", "2"]).unwrap().jobs, 2);
        assert_rows(vec![
            (&["bench", "history"], Command::Bench(Bench::History)),
            (
                &["bench", "history", "--jobs", "2"],
                Command::Bench(Bench::History),
            ),
        ]);
        assert_rejected(&[
            (&["bench"], "bench expects one benchmark"),
            (
                &["bench", "history", "check"],
                "bench expects one benchmark",
            ),
            (&["bench", "nosuch"], "bench expects one benchmark"),
            (&["bench", "sweep"], "bench expects one benchmark"),
        ]);
    }

    #[test]
    fn bench_check_takes_baseline_and_threshold() {
        assert_rows(vec![
            (
                &[
                    "bench",
                    "check",
                    "--baseline",
                    "b.jsonl",
                    "--threshold",
                    "25",
                ],
                check("b.jsonl", 25),
            ),
            // Defaults are filled in by the parser.
            (
                &["bench", "check"],
                check(HISTORY_FILE, DEFAULT_THRESHOLD_PCT),
            ),
        ]);
        assert_rejected(&[(
            &["bench", "history", "--threshold", "5"],
            "--threshold is an option of `bench check` only",
        )]);
    }

    #[test]
    fn bad_threshold_values_are_rejected() {
        assert_rejected(&[
            (
                &["bench", "check", "--threshold", "0"],
                "--threshold requires",
            ),
            (
                &["bench", "check", "--threshold", "-5"],
                "--threshold requires",
            ),
            (
                &["bench", "check", "--threshold", "half"],
                "--threshold requires",
            ),
            (
                &["bench", "check", "--threshold", "1.5"],
                "--threshold requires",
            ),
            (&["--baseline"], "--baseline"),
        ]);
    }

    #[test]
    fn tune_is_a_subcommand_with_budget() {
        assert_eq!(p(&["tune", "alexnet", "--jobs", "2"]).unwrap().jobs, 2);
        assert_rows(vec![
            (&["tune"], tune(None, Budget::Full)),
            (
                &["tune", "alexnet", "--budget", "smoke", "--jobs", "2"],
                tune(Some("alexnet"), Budget::Smoke),
            ),
            (&["tune", "--budget", "128"], tune(None, Budget::Cap(128))),
        ]);
    }

    #[test]
    fn bad_budget_values_are_rejected() {
        assert_rejected(&[
            (&["tune", "--budget", "0"], "--budget requires"),
            (&["tune", "--budget", "exhaustive"], "--budget requires"),
            (&["tune", "--budget", "1.5"], "--budget requires"),
            (&["tune", "--budget"], "--budget"),
            // Flag-shaped values read as a missing value, not a budget.
            (&["tune", "--budget", "--json"], "--budget"),
        ]);
    }

    #[test]
    fn prove_is_a_subcommand_with_mutate() {
        let args = ["prove", "alexnet", "--json", "--mutate", "--jobs", "2"];
        let cli = p(&args).unwrap();
        assert!(cli.json);
        assert_eq!(cli.jobs, 2);
        assert_rows(vec![
            (&["prove"], prove(None, false)),
            (&args, prove(Some("alexnet"), true)),
        ]);
    }

    #[test]
    fn tune_static_is_a_flag() {
        assert_rows(vec![
            (
                &["tune", "pv", "--static", "--budget", "smoke"],
                tune(Some("pv"), Budget::Smoke),
            ),
            (&["tune"], tune(None, Budget::Full)),
        ]);
        assert_rejected(&[(
            &["prove", "--static"],
            "--static is an option of `tune` only",
        )]);
    }

    #[test]
    fn stats_is_a_subcommand() {
        let cli = p(&["stats", "--jobs", "4", "--json"]).unwrap();
        assert!(cli.json);
        assert_eq!(cli.jobs, 4);
        assert_rows(vec![
            (&["stats"], Command::Stats),
            (&["stats", "--jobs", "4", "--json"], Command::Stats),
        ]);
    }

    #[test]
    fn telemetry_takes_a_path_on_any_command() {
        let cli = p(&["--telemetry", "telemetry.json", "all"]).unwrap();
        assert_eq!(cli.telemetry.as_deref(), Some("telemetry.json"));
        assert_eq!(cli.command, ids(&["all"]));
        let cli = p(&["stats", "--telemetry", "t.json"]).unwrap();
        assert_eq!(cli.telemetry.as_deref(), Some("t.json"));
        assert_eq!(cli.command, Command::Stats);
        // Missing or flag-shaped values are rejected.
        assert_rejected(&[
            (&["--telemetry"], "--telemetry"),
            (&["--telemetry", "--json"], "--telemetry"),
        ]);
    }

    #[test]
    fn profile_takes_a_workload_argument() {
        assert!(p(&["profile", "alexnet", "--json"]).unwrap().json);
        assert_rows(vec![
            (
                &["profile", "alexnet", "--json"],
                Command::Profile(Some("alexnet".to_owned())),
            ),
            (&["profile"], Command::Profile(None)),
        ]);
    }

    #[test]
    fn run_is_a_subcommand_with_a_reference() {
        assert_eq!(p(&["run", "lenet", "--jobs", "2"]).unwrap().jobs, 2);
        assert_rows(vec![
            (&["run", FFNET, "--json"], run(FFNET)),
            (&["run", "lenet", "--jobs", "2"], run("lenet")),
        ]);
    }

    #[test]
    fn heatmap_is_a_subcommand_with_arch_and_svg() {
        assert_rows(vec![
            (&["heatmap", "lenet"], heatmap("lenet", None, false)),
            (
                &[
                    "heatmap", "pv", "--arch", "flexflow", "--svg", "--jobs", "2",
                ],
                heatmap("pv", Some("flexflow"), true),
            ),
            (
                &["heatmap", "examples/dilated.ffnet", "--json"],
                heatmap("examples/dilated.ffnet", None, false),
            ),
        ]);
        // --arch refuses missing or flag-shaped values.
        assert_rejected(&[
            (&["heatmap", "pv", "--arch"], "--arch"),
            (&["heatmap", "pv", "--arch", "--json"], "--arch"),
        ]);
    }

    #[test]
    fn workloads_is_a_subcommand() {
        assert!(p(&["workloads", "--json"]).unwrap().json);
        assert_rows(vec![
            (&["workloads"], Command::Workloads),
            (&["workloads", "--json"], Command::Workloads),
        ]);
    }

    #[test]
    fn no_lint_disarms_the_gate() {
        let cli = p(&["--no-lint", "fig15"]).unwrap();
        assert!(cli.no_lint);
        assert_eq!(cli.command, ids(&["fig15"]));
    }

    /// Lines the parent parser silently mis-dispatched: two commands,
    /// stray arguments, too many workloads, another command's options.
    #[test]
    fn ambiguous_command_lines_are_rejected() {
        assert_rejected(&[
            (&["run", "lenet", "tune"], "two commands"),
            (&["lint", "run", "lenet"], "two commands"),
            (&["tune", "prove", "pv"], "two commands"),
            (&["fig15", "lint"], "two commands"),
            (&["run"], "run takes exactly one"),
            (&["heatmap", "lenet", "pv"], "heatmap takes exactly one"),
            (
                &["profile", "lenet", "pv"],
                "profile takes at most one workload",
            ),
            (
                &["prove", "lenet", "pv"],
                "prove takes at most one workload",
            ),
            (&["stats", "nope"], "stats takes no arguments"),
            (&["workloads", "x"], "workloads takes no arguments"),
            (&["--list", "fig15"], "--list takes no arguments"),
            (&["fig15", "--svg"], "--svg is an option of `heatmap` only"),
            (
                &["fig15", "--mutate"],
                "--mutate is an option of `prove` only",
            ),
            (
                &["workloads", "--arch", "sys"],
                "--arch is an option of `heatmap` only",
            ),
            (
                &[
                    "heatmap", "lenet", "--budget", "smoke", "--mutate", "--static",
                ],
                "--mutate is an option of `prove` only",
            ),
        ]);
    }
}
