#!/bin/bash
# Gate (tests, serial-run tests, clippy), then regenerate every table
# and figure of the paper into results/, plus the bench snapshot.
set -x
cd /root/repo
mkdir -p results

# --- lint gate first (cheapest): ccq-lint enforces the per-file
# invariants (determinism, panic-surface, no-unsafe, float-eq,
# feature-hygiene, durability, concurrency) plus the stale-waiver
# check; any finding fails the suite (see DESIGN.md §10). The JSON
# diagnostics are archived ---
cargo run -q -p ccq-lint -- --format json > results/lint.json 2> results/lint.log || exit 1

# --- seeded-drift smoke: renaming one registered metric family in a
# scratch copy of the tracked tree must fail golden_trace with its drift
# message; proves the golden comparison has teeth, not just a clean bill
# on HEAD. The grep on the copy keeps the smoke from passing vacuously,
# CCQ_BLESS is unset so the copy's golden cannot be re-blessed, and the
# copy builds into its own target directory ---
DRIFT=results/drift_smoke
DRIFT_TARGET="$PWD/results/drift_smoke_target"
rm -rf "$DRIFT"
mkdir -p "$DRIFT"
git ls-files -z | tar --null -T - -cf - | tar -xf - -C "$DRIFT" || exit 1
sed -i 's/\.inc("ccq_events_total", /.inc("ccq_events_renamed_total", /' "$DRIFT/crates/core/src/metrics.rs"
grep -q '\.inc("ccq_events_renamed_total", ' "$DRIFT/crates/core/src/metrics.rs" || exit 1
if (cd "$DRIFT" && env -u CCQ_BLESS CARGO_TARGET_DIR="$DRIFT_TARGET" \
  cargo test -q --offline --test golden_trace) > results/drift_smoke.log 2>&1; then
  echo "seeded metrics drift was NOT detected" >> results/drift_smoke.log
  exit 1
fi
grep -q 'metrics.txt: exposition drifted from the golden' results/drift_smoke.log || exit 1
rm -rf "$DRIFT"

# --- gates: the workspace must pass at the default thread count and
# serially (RAYON_NUM_THREADS=1), lints are errors, formatting is
# canonical, rustdoc builds warning-free
# (the workspace test run includes ccq-lint's own fixture tests; the
# root package's tests/workspace_clean.rs carries the self-clean test,
# so tier-1 runs it) ---
cargo test --workspace -q 2> results/test.log || exit 1
RAYON_NUM_THREADS=1 cargo test --workspace -q 2> results/test_serial.log || exit 1
cargo clippy --workspace --all-targets -- -D warnings 2> results/clippy.log || exit 1
cargo fmt --all --check > results/fmt.log 2>&1 || exit 1
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps 2> results/doc.log || exit 1

# --- fault gates: interrupted+resumed must equal uninterrupted
# bit-for-bit (the serial pass above ran them at one thread too) ---
cargo test -q --test resume_determinism 2> results/test_fault.log || exit 1
cargo test -q -p ccq --test guarded_descent 2>> results/test_fault.log || exit 1

# --- metrics gate: the golden-trace suite pins the observed run — the
# JSONL trace, the Prometheus-style exposition, and the ccq-report
# summary must be byte-identical to the blessed goldens at the default
# thread count AND at one thread (same trajectory, same bytes) ---
cargo test -q --test golden_trace 2> results/metrics.log || exit 1
RAYON_NUM_THREADS=1 cargo test -q --test golden_trace 2>> results/metrics.log || exit 1

# --- serve gate: crash-safe daemon smoke — drain two jobs in a
# reference spool, run the identical queue in a second spool whose
# daemon is SIGKILLed mid-run, restart it with --drain, and require the
# recovered artifacts (RunState, event JSONL, report) to be
# byte-identical to the uninterrupted reference (events normalized for
# the spool root embedded in autosave paths; see DESIGN.md §14). The
# deployable CCQPACK artifact is part of that contract: a resumed run
# must pack byte-identical bytes. The reference drains with one worker
# (the full CPU budget) and the killed spool with two (budget cpus/2),
# so the same cmp lines also prove the daemon's CPU budget changes no
# byte ---
cargo build --release -p ccq-serve 2> results/build_serve.log || exit 1
SERVE=target/release/ccq-serve
serve_spec() { # $1 = job name, $2 = seed offset
  cat <<EOF
ccq-job v1
name = $1
model = mlp:16x48x48x6
policy = pact
model_seed = $((11 + $2))
data = blobs:6x16x192
data_std = 0.4
data_seed = $((31 + $2))
split = 864
pretrain_epochs = 60
pretrain_lr = 0.05
pretrain_momentum = 0.9
pretrain_seed = $((7 + $2))
batch_size = 16
seed = $((13 + $2))
gamma = 0.5
ladder = 8,6,4,2
probe_rounds = 3
probe_val_batches = 0
lambda = 0.3
recovery = manual:3
guard = quarantine:2
lr = 0.02
max_steps = 14
target_compression = none
EOF
}
rm -rf results/serve_ref results/serve_kill
for SPOOL in results/serve_ref results/serve_kill; do
  $SERVE init "$SPOOL" > /dev/null || exit 1
  serve_spec smoke-a 0 | $SERVE enqueue "$SPOOL" - > /dev/null || exit 1
  serve_spec smoke-b 5 | $SERVE enqueue "$SPOOL" - > /dev/null || exit 1
done
$SERVE run results/serve_ref --workers 1 --drain > results/serve.log 2>&1 || exit 1
$SERVE status results/serve_ref --assert-done 2 >> results/serve.log 2>&1 || exit 1
$SERVE run results/serve_kill --workers 2 >> results/serve.log 2>&1 &
SERVE_PID=$!
# Kill at the first autosave, not after a fixed delay: at one thread
# per worker both jobs finish in well under a second.
for _ in $(seq 500); do
  ls results/serve_kill/running/*.ccqruns > /dev/null 2>&1 && break
  sleep 0.01
done
kill -9 "$SERVE_PID" 2>/dev/null
wait "$SERVE_PID" 2>/dev/null
$SERVE run results/serve_kill --workers 2 --drain >> results/serve.log 2>&1 || exit 1
$SERVE status results/serve_kill --assert-done 2 >> results/serve.log 2>&1 || exit 1
for id in smoke-a smoke-b; do
  cmp "results/serve_ref/done/$id.ccqruns" "results/serve_kill/done/$id.ccqruns" || exit 1
  cmp "results/serve_ref/done/$id.report.txt" "results/serve_kill/done/$id.report.txt" || exit 1
  cmp "results/serve_ref/done/$id.ccqpack" "results/serve_kill/done/$id.ccqpack" || exit 1
  sed 's|results/serve_ref|<spool>|g' "results/serve_ref/done/$id.events.jsonl" > "results/serve_events_ref_$id.norm"
  sed 's|results/serve_kill|<spool>|g' "results/serve_kill/done/$id.events.jsonl" > "results/serve_events_kill_$id.norm"
  cmp "results/serve_events_ref_$id.norm" "results/serve_events_kill_$id.norm" || exit 1
done

# --- searcher gate: the intro workload must reach its 10x compression
# target under every compete-phase strategy; --assert-done makes each
# run exit nonzero when the search stops short (see DESIGN.md §15) ---
cargo build --release --example mixed_precision_search 2> results/build_example.log || exit 1
for S in hedge zero-bit releq one-shot; do
  target/release/examples/mixed_precision_search --searcher "$S" --assert-done \
    > "results/search_$S.log" 2>&1 || exit 1
done
# continuing the finished hedge search from its final autosave must
# reach the target again with the same bit pattern
target/release/examples/mixed_precision_search --resume mixed_precision_search.ccqruns \
  --assert-done > results/search_hedge_resume.log 2>&1 || exit 1
grep '^bit pattern:' results/search_hedge.log > results/search_hedge.pattern || exit 1
grep '^bit pattern:' results/search_hedge_resume.log | cmp - results/search_hedge.pattern || exit 1

# --- bench-smoke gate: the snapshot benchmark must run at one rep, once
# pinned to one thread and once at the default thread count (that run
# times the competition and evaluate rows at 1 thread and at the
# default, every other row at the default), write parseable JSON, keep
# incremental probing no slower than full-forward probing, and keep
# packed execution bit-exact with >=2x compression (bench_perf --smoke
# self-checks its snapshot and enforces these floors) ---
cargo build --release -p ccq-bench 2> results/build.log || exit 1
RAYON_NUM_THREADS=1 target/release/bench_perf --smoke results/bench_perf_smoke_serial.json > /dev/null 2> results/bench_smoke_serial.log || exit 1
target/release/bench_perf --smoke results/bench_perf_smoke.json > /dev/null 2> results/bench_smoke.log || exit 1
# the packed artifacts — the bench demo and a daemon job's sidecar —
# must load and summarize through the deploy-side reader
target/release/ccq-report --packed results/demo.ccqpack > results/packed_report.txt 2>> results/bench_smoke.log || exit 1
target/release/ccq-report --packed results/serve_ref/done/smoke-a.ccqpack >> results/packed_report.txt 2>> results/bench_smoke.log || exit 1
grep -c '^CCQPACK ' results/packed_report.txt | grep -qx 2 || exit 1

# --- experiment harness ---
time target/release/fig5_power > results/fig5_power.csv 2> results/fig5_power.log
time target/release/fig4_lr > results/fig4_lr.csv 2> results/fig4_lr.log
time target/release/fig2_curve > results/fig2_curve.csv 2> results/fig2_curve.log
time target/release/fig3_recovery > results/fig3_recovery.csv 2> results/fig3_recovery.log
time target/release/fig1_lambda > results/fig1_lambda.csv 2> results/fig1_lambda.log
time target/release/table1 > results/table1.csv 2> results/table1.log
time target/release/ablations > results/ablations.csv 2> results/ablations.log
time target/release/table2 > results/table2.csv 2> results/table2.log
time target/release/bench_perf BENCH_perf.json > results/bench_perf.log 2>&1
echo ALL_DONE
