#!/usr/bin/env bash
# Local CI gate — the exact checks .github/workflows/ci.yml runs.
#
# Everything is offline: the workspace has zero external dependencies
# (crates/testkit replaces rand/proptest/serde/criterion), so a plain
# toolchain is all that's needed. --offline makes any accidental
# reintroduction of a registry dependency fail loudly here rather
# than flake in a sandboxed environment.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> non-test line count of crates/ (printed, not gated)"
# Lines before each source file's first #[cfg(test)]; the crates'
# own tests/ directories are left out. A measure of how much program
# the simulator carries, compared by hand across changes.
find crates -name '*.rs' -not -path 'crates/*/tests/*' | sort \
    | xargs awk 'FNR == 1 { t = 0 } /#\[cfg\(test\)\]/ { t = 1 } !t { n++ } END { print n " non-test lines" }'

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (offline, warnings are errors)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo clippy (pedantic subset)"
cargo clippy --workspace --all-targets --offline -- \
    -D clippy::needless_pass_by_value \
    -D clippy::cast_lossless \
    -D clippy::redundant_closure_for_method_calls \
    -D clippy::semicolon_if_nothing_returned \
    -D clippy::doc_markdown

echo "==> cargo doc (offline, rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> cargo build --release (offline)"
cargo build --release --offline

echo "==> cargo test --release (simulator bit-exactness and pool concurrency with debug-only checks compiled out)"
# flexbench measures the release build of the functional simulators'
# hot loops; their bit-exactness tests must pass in that configuration
# too, not only under debug assertions. The pool's queue is exercised
# optimised as well, where its races are likeliest to show. The
# fixtures reproduce every PE-array counter of the 128-line
# pe_array_counters.txt sweep on that build, and the differential and
# functional suites hold all four functional models to the reference.
cargo test --release --offline -q -p flexflow -p flexsim-baselines -p flexsim-pool
cargo test --release --offline -q -p flexsim-experiments --test integration_pool
cargo test --release --offline -q -p flexsim-experiments --test integration_fixtures
cargo test --release --offline -q -p flexsim-experiments --test integration_differential
cargo test --release --offline -q -p flexsim-experiments --test integration_functional

echo "==> cargo test (offline)"
cargo test -q --offline

echo "==> flexbench build + tests (the benchmark compiles against these crates)"
# flexbench is a package of its own, outside the workspace, so the two
# commands above do not see it.
cargo build --release --offline --manifest-path flexbench/Cargo.toml
cargo test --offline --manifest-path flexbench/Cargo.toml

echo "==> flexbench checked passes (outputs equal the reference; observers exact; counts equal expected.json)"
# One checked pass of every workload, through the benchmark's own
# command. flexbench exits 1 when a PE-array output differs from the
# golden reference, when an observed layer's cycles differ from the
# unobserved run or a loss ledger is not exact, when a pair is not
# proved, or when a count differs from flexbench/expected.json.
for workload in layers-small layers-large network-exec analytic-suite tune-search; do
    cargo run --release --offline -q --manifest-path flexbench/Cargo.toml -- \
        --workload "$workload" --seconds 0 --trace 0 > /dev/null
done

echo "==> quickstart example (the README's first command; asserts a bit-exact output)"
cargo run --release --offline --example quickstart > /dev/null

echo "==> flexsim lint (static schedule verification)"
cargo run -q -p flexsim-experiments --release --offline -- lint > /dev/null
cargo run -q -p flexsim-experiments --release --offline -- --json lint > /dev/null

echo "==> flexsim --jobs determinism (parallel output byte-identical to serial)"
FLEXSIM="$(pwd)/target/release/flexsim"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
"$FLEXSIM" --jobs 1 --json all > "$TMP/serial.json"
"$FLEXSIM" --jobs 2 --json all > "$TMP/jobs2.json"
cmp "$TMP/serial.json" "$TMP/jobs2.json" \
    || { echo "FAIL: --jobs 2 output diverged from --jobs 1"; exit 1; }

echo "==> flexsim --trace determinism (cycle-domain events byte-identical at --jobs 1 and 2)"
# Each simulated layer reaches its recorder whole, in one call, so the
# exported simulated-cycle events (every line whose "pid" is not 0;
# pid 0 is host wall time) must not depend on the pool's schedule.
# Every command that simulates layers writes them to the one recorder.
for cmd in "all" "run lenet5" "profile" "heatmap alexnet" "prove"; do
    for jobs in 1 2; do
        "$FLEXSIM" --jobs "$jobs" --trace "$TMP/trace$jobs.json" $cmd > /dev/null
        grep '"pid"' "$TMP/trace$jobs.json" | grep -v '"pid":0[,}]' > "$TMP/trace$jobs.sim"
    done
    [ -s "$TMP/trace1.sim" ] \
        || { echo "FAIL: --trace $cmd exported no cycle-domain events"; exit 1; }
    cmp "$TMP/trace1.sim" "$TMP/trace2.sim" \
        || { echo "FAIL: --jobs 2 cycle-domain trace of $cmd diverged from --jobs 1"; exit 1; }
done

echo "==> flexsim profile smoke (ledgers balance; JSON well-formed)"
# The run itself enforces flexcheck FXC09: every layer's loss ledger
# must balance busy + lost == cycles x PEs or the profiler aborts.
"$FLEXSIM" --json profile alexnet > "$TMP/profile.json"
grep -q '(all)' "$TMP/profile.json" \
    || { echo "FAIL: profile JSON missing aggregate rows"; exit 1; }
if command -v python3 > /dev/null 2>&1; then
    python3 -m json.tool "$TMP/profile.json" > /dev/null \
        || { echo "FAIL: profile JSON does not parse"; exit 1; }
fi

echo "==> flexsim tune smoke (auto-tuner: monotonic, flexcheck-clean, deterministic)"
# The run itself enforces the tuner invariants: the default's and the
# winner's ledgers FXC09-exact, the assembled program flexcheck-clean,
# and no tuned mapping worse than the paper default or, unless the cap
# cuts it, the DP plan.
"$FLEXSIM" --json --budget smoke tune pv > "$TMP/tune1.json"
"$FLEXSIM" --json --budget smoke --jobs 4 tune pv > "$TMP/tune4.json"
cmp "$TMP/tune1.json" "$TMP/tune4.json" \
    || { echo "FAIL: tune --jobs 4 output diverged from serial"; exit 1; }
grep -q 'mapping-residue-idle' "$TMP/tune1.json" \
    || { echo "FAIL: tune JSON missing attribution"; exit 1; }
# A cap of 300 ends inside each layer's second 256-candidate
# lint-and-score chunk: the pick must cut that chunk's running best the
# same way at any --jobs.
"$FLEXSIM" --json --budget 300 tune pv > "$TMP/tune300_1.json"
"$FLEXSIM" --json --budget 300 --jobs 4 tune pv > "$TMP/tune300_4.json"
cmp "$TMP/tune300_1.json" "$TMP/tune300_4.json" \
    || { echo "FAIL: tune --budget 300 --jobs 4 output diverged from serial"; exit 1; }
# A cap of 1 keeps only the default seed: the tuner must still exit 0.
"$FLEXSIM" --budget 1 tune pv > /dev/null \
    || { echo "FAIL: tune --budget 1 pv failed"; exit 1; }
# --static is still accepted and changes nothing: the document must be
# byte-identical to the run without it.
"$FLEXSIM" --json --budget smoke tune pv --static > "$TMP/tune_static.json"
cmp "$TMP/tune1.json" "$TMP/tune_static.json" \
    || { echo "FAIL: tune --static output diverged from the run without it"; exit 1; }

echo "==> flexsim prove smoke (symbolic cycle/ledger proof, FXC10)"
# All 24 (workload, arch) pairs must prove static == dynamic exactly;
# a mutated prediction must flip the exit status and name the rule.
"$FLEXSIM" prove > /dev/null
"$FLEXSIM" --json prove > "$TMP/prove.json"
grep -q '"pairs_proved": 24' "$TMP/prove.json" \
    || { echo "FAIL: prove did not prove all 24 pairs"; exit 1; }
if "$FLEXSIM" prove pv --mutate > "$TMP/prove_mutate.txt" 2>&1; then
    echo "FAIL: prove --mutate exited zero"; exit 1
fi
grep -q 'cycle mismatch' "$TMP/prove_mutate.txt" \
    || { echo "FAIL: mutated prove run did not report the cycle mismatch"; exit 1; }

echo "==> flexsim workload frontend smoke (.ffnet end-to-end)"
# A user-supplied network must ride the whole pipeline: registry
# listing, four-architecture simulation with FXC09 exactness, static
# lint, symbolic proof, and the auto-tuner — plus actionable exit-2
# diagnostics on a malformed file.
FFNET="$(pwd)/examples/resnet_block.ffnet"
"$FLEXSIM" workloads > "$TMP/workloads.txt"
grep -q 'resnet_block' "$TMP/workloads.txt" \
    || { echo "FAIL: workloads listing missing the .ffnet fixtures"; exit 1; }
"$FLEXSIM" --json workloads > "$TMP/workloads.json"
grep -q '"ffnet": 3' "$TMP/workloads.json" \
    || { echo "FAIL: workloads --json did not count 3 .ffnet fixtures"; exit 1; }
"$FLEXSIM" --json run "$FFNET" > "$TMP/run_ffnet.json"
grep -q '"ledger_exact": true' "$TMP/run_ffnet.json" \
    || { echo "FAIL: run did not report FXC09-exact ledgers"; exit 1; }
"$FLEXSIM" lint "$FFNET" > /dev/null
if "$FLEXSIM" lint no-such-workload > /dev/null 2>&1; then
    echo "FAIL: lint on an unresolvable workload exited zero"; exit 1
fi
"$FLEXSIM" prove "$FFNET" > /dev/null
"$FLEXSIM" --budget smoke tune "$FFNET" > /dev/null
# The dilated, strided net too: lint exits 1 on any Error, and tune
# panics unless the tuned program stays flexcheck-clean.
DILATED="$(pwd)/examples/dilated.ffnet"
"$FLEXSIM" lint "$DILATED" > /dev/null
"$FLEXSIM" --budget smoke tune "$DILATED" > /dev/null
# A layer whose planned unroll keys more neuron slots than the PE
# array's 32-bit slot index: lint warns (FXC04) and still exits 0.
printf '{"name":"mid","input":{"maps":16,"size":8388613},"nodes":[{"id":"c1","op":"conv","m":16,"k":6}]}' \
    > "$TMP/mid.ffnet"
"$FLEXSIM" lint "$TMP/mid.ffnet" > "$TMP/mid_lint.txt" \
    || { echo "FAIL: lint on an oversized slot table exited non-zero"; exit 1; }
grep -q 'warning\[FXC04' "$TMP/mid_lint.txt" \
    || { echo "FAIL: lint did not warn of the oversized slot table (FXC04)"; exit 1; }
printf '{"name":"bad","input":{"maps":1,"size":4},"nodes":[{"id":"c","op":"conv","m":2,"kernel":3}]}' \
    > "$TMP/bad.ffnet"
if "$FLEXSIM" run "$TMP/bad.ffnet" > "$TMP/bad_run.txt" 2>&1; then
    echo "FAIL: run on a malformed .ffnet exited zero"; exit 1
fi
grep -q 'unknown field' "$TMP/bad_run.txt" \
    || { echo "FAIL: malformed .ffnet did not produce an actionable diagnostic"; exit 1; }

echo "==> flexsim heatmap smoke (FXC13 spatial exactness; --jobs byte-identity)"
# The run itself enforces flexcheck FXC13: every per-PE heatmap cell
# sum must equal the loss ledger exactly, per cause, or exit goes 1.
"$FLEXSIM" heatmap lenet > "$TMP/heat.txt"
grep -q 'FXC13 spatial-exactness: ok' "$TMP/heat.txt" \
    || { echo "FAIL: heatmap report missing the FXC13 verdict"; exit 1; }
"$FLEXSIM" --jobs 1 --json heatmap lenet > "$TMP/heat1.json"
"$FLEXSIM" --jobs 4 --json heatmap lenet > "$TMP/heat4.json"
cmp "$TMP/heat1.json" "$TMP/heat4.json" \
    || { echo "FAIL: heatmap --jobs 4 JSON diverged from serial"; exit 1; }
"$FLEXSIM" --jobs 1 --svg heatmap lenet > "$TMP/heat1.svg"
"$FLEXSIM" --jobs 4 --svg heatmap lenet > "$TMP/heat4.svg"
cmp "$TMP/heat1.svg" "$TMP/heat4.svg" \
    || { echo "FAIL: heatmap --jobs 4 SVG diverged from serial"; exit 1; }
"$FLEXSIM" heatmap "$FFNET" --arch flexflow > "$TMP/heat_ffnet.txt"
grep -q 'FXC13 spatial-exactness: ok' "$TMP/heat_ffnet.txt" \
    || { echo "FAIL: .ffnet heatmap missing the FXC13 verdict"; exit 1; }

echo "==> flexsim stats smoke (telemetry never perturbs results; all phases fire; --trace and --telemetry fold one recorder)"
# Same sweep with telemetry off vs. on: the written artifacts must be
# byte-identical, and every declared phase must fire at least once.
"$FLEXSIM" --jobs 2 --json --out "$TMP/out_off" all > /dev/null
"$FLEXSIM" --jobs 2 --json --out "$TMP/out_on" --telemetry "$TMP/telemetry.json" all > /dev/null
for f in "$TMP"/out_off/*.json; do
    cmp "$f" "$TMP/out_on/$(basename "$f")" \
        || { echo "FAIL: telemetry perturbed $(basename "$f")"; exit 1; }
done
for phase in parse flexcheck schedule simulate export; do
    grep -q "\"$phase\"" "$TMP/telemetry.json" \
        || { echo "FAIL: phase $phase missing from telemetry snapshot"; exit 1; }
    calls=$(grep "^flexsim_phase_calls_total{phase=\"$phase\"} " "$TMP/telemetry.json.prom" \
        | grep -o '[0-9]*$' || true)
    [ "${calls:-0}" -gt 0 ] \
        || { echo "FAIL: phase $phase never fired (calls: ${calls:-missing})"; exit 1; }
done
# `--trace` and `--telemetry` read one span recorder: every traced
# layer span is one layer-sim histogram sample.
"$FLEXSIM" --jobs 2 --trace "$TMP/both.trace.json" --telemetry "$TMP/both.json" all > /dev/null
layer_spans=$(grep -o '"cat":"layer"' "$TMP/both.trace.json" | wc -l)
layer_samples=$(grep -A1 '"layer_sim_wall_us"' "$TMP/both.json" | grep -o '"count": *[0-9]*' | grep -o '[0-9]*$')
[ "$layer_spans" -gt 0 ] && [ "$layer_spans" = "$layer_samples" ] \
    || { echo "FAIL: $layer_spans traced layer spans vs $layer_samples layer-sim samples"; exit 1; }
"$FLEXSIM" --jobs 2 stats > "$TMP/stats.txt"
grep -q '(wall)' "$TMP/stats.txt" \
    || { echo "FAIL: stats report missing the wall reconciliation row"; exit 1; }

echo "==> flexsim bench history smoke (a complete entry, written outside the tree)"
(cd "$TMP" && "$FLEXSIM" bench history)
tail -n 1 "$TMP/BENCH_history.jsonl"
grep -q 'pass_s' "$TMP/BENCH_history.jsonl" \
    || { echo "FAIL: history entry missing normalised pass time"; exit 1; }
grep -q 'telemetry_overhead_pct' "$TMP/BENCH_history.jsonl" \
    || { echo "FAIL: history entry missing telemetry overhead"; exit 1; }
grep -q 'prove_wall_s' "$TMP/BENCH_history.jsonl" \
    || { echo "FAIL: history entry missing prove wall time"; exit 1; }
grep -q 'workloads_total' "$TMP/BENCH_history.jsonl" \
    || { echo "FAIL: history entry missing workload-count honesty fields"; exit 1; }
grep -q 'heatmap_cells' "$TMP/BENCH_history.jsonl" \
    || { echo "FAIL: history entry missing spatial-probe honesty fields"; exit 1; }
grep -q 'spatial_overhead_pct' "$TMP/BENCH_history.jsonl" \
    || { echo "FAIL: history entry missing spatial overhead"; exit 1; }

echo "==> flexsim bench check (perf-regression gate vs the committed baseline)"
# The gate compares the median of 7 yardstick-normalised serial passes
# with the last line of the committed log, which is measured from the
# repository root (so it counts the examples/*.ffnet workloads).
"$FLEXSIM" bench check --baseline "$(pwd)/BENCH_history.jsonl"

echo "==> flexsim run --jobs determinism (run fans out; byte-identical to serial)"
"$FLEXSIM" --jobs 1 --json run lenet > "$TMP/run1.json"
"$FLEXSIM" --jobs 4 --json run lenet > "$TMP/run4.json"
cmp "$TMP/run1.json" "$TMP/run4.json" \
    || { echo "FAIL: run --jobs 4 JSON diverged from serial"; exit 1; }

echo "==> flexsim closed stdout pipe (a reader leaving early is not a panic)"
"$FLEXSIM" --svg heatmap lenet 2> "$TMP/pipe.err" | head -c 100 > /dev/null
if grep -q 'panicked' "$TMP/pipe.err"; then
    echo "FAIL: flexsim panicked on a closed stdout pipe"; cat "$TMP/pipe.err"; exit 1
fi

echo "CI OK"
