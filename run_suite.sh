#!/bin/bash
# Gate (tests, serial-run tests, clippy), then regenerate every table
# and figure of the paper into results/, plus the parallel bench snapshot.
set -x
cd /root/repo
mkdir -p results

# --- lint gate first (cheapest): ccq-lint enforces the per-file
# invariants (determinism, panic-surface, no-unsafe, float-eq,
# feature-hygiene, durability, concurrency) plus the cross-file
# wire-drift and stale-waiver checks; any finding fails the suite
# (see DESIGN.md §10/§16). The JSON diagnostics are archived ---
cargo run -q -p ccq-lint -- --format json > results/lint.json 2> results/lint.log || exit 1

# --- seeded-drift smoke: renaming one `# TYPE` family in a scratch
# copy of the golden metrics exposition must trip wire-drift (exit
# nonzero, the orphaned family named); proves the cross-file pass has
# teeth, not just a clean bill on HEAD. The JSONL event, probe-cache and
# job-spec records and the CCQRUNS/CCQPACK tags need no such check: each
# is declared once for its writer and reader ---
DRIFT=results/drift_smoke
rm -rf "$DRIFT"
mkdir -p "$DRIFT/crates/core/src" "$DRIFT/crates/core/tests/golden"
cp crates/core/src/metrics.rs "$DRIFT/crates/core/src/"
cp crates/core/tests/golden/metrics.txt "$DRIFT/crates/core/tests/golden/"
sed -i 's/^# TYPE ccq_events_total /# TYPE ccq_events_renamed_total /' "$DRIFT/crates/core/tests/golden/metrics.txt"
if cargo run -q -p ccq-lint -- --format json "$DRIFT" > results/drift_smoke.json 2>> results/lint.log; then
  echo "seeded wire drift was NOT detected" >> results/lint.log
  exit 1
fi
grep -q '"rule": "wire-drift"' results/drift_smoke.json || exit 1
grep -q 'ccq_events_renamed_total' results/drift_smoke.json || exit 1
rm -rf "$DRIFT"

# --- gates: the workspace must pass at the default thread count and
# serially (RAYON_NUM_THREADS=1) with default features off, lints are
# errors, formatting is canonical, rustdoc builds warning-free
# (the workspace test run includes ccq-lint's own fixture tests; the
# root package's tests/workspace_clean.rs carries the self-clean test,
# so tier-1 runs it) ---
cargo test --workspace -q 2> results/test.log || exit 1
RAYON_NUM_THREADS=1 cargo test --workspace -q --no-default-features 2> results/test_serial.log || exit 1
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
# Kill at the first autosave, not after a fixed delay: at one kernel
# thread per worker both jobs finish in well under a second.
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

# --- bench-smoke gate: the snapshot benchmarks must run at one rep at
# one thread AND at the default thread count, write parseable JSON,
# incremental probing must never lose to full-forward probing, and
# packed execution must stay bit-exact with >=2x compression (bench_simd
# and bench_pack --smoke self-check their snapshots and enforce their
# floors) ---
cargo build --release -p ccq-bench 2> results/build.log || exit 1
RAYON_NUM_THREADS=1 CCQ_BENCH_REPS=1 target/release/bench_parallel results/bench_parallel_smoke_serial.json > /dev/null 2> results/bench_smoke_serial.log || exit 1
test -s results/bench_parallel_smoke_serial.json || exit 1
RAYON_NUM_THREADS=1 target/release/bench_simd --smoke results/bench_simd_smoke_serial.json > /dev/null 2>> results/bench_smoke_serial.log || exit 1
RAYON_NUM_THREADS=1 target/release/bench_pack --smoke results/bench_pack_smoke_serial.json > /dev/null 2>> results/bench_smoke_serial.log || exit 1
CCQ_BENCH_REPS=1 target/release/bench_parallel results/bench_parallel_smoke.json > /dev/null 2> results/bench_smoke.log || exit 1
test -s results/bench_parallel_smoke.json || exit 1
target/release/bench_simd --smoke results/bench_simd_smoke.json > /dev/null 2>> results/bench_smoke.log || exit 1
target/release/bench_pack --smoke results/bench_pack_smoke.json > /dev/null 2>> results/bench_smoke.log || exit 1
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
time target/release/bench_parallel BENCH_parallel.json 2> results/bench_parallel.log
time target/release/bench_pack BENCH_pack.json > results/bench_pack.log 2>&1
echo ALL_DONE
