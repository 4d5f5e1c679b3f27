#!/usr/bin/env sh
# Repository CI gate, runnable offline on any checkout:
#
#   ./ci.sh          # format check, lints, tier-1 build + tests
#
# Tier-1 (the bar every PR must hold): the default workspace members
# build in release and the full test suite passes. Formatting and clippy
# run first because they fail fastest.

set -eu

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: cargo build --release"
cargo build --release

echo "== tier-1: cargo test"
cargo test -q

SCRATCH="$(mktemp -d)"
SERVED_PID=""
OV_PID=""
trap 'for p in $SERVED_PID $OV_PID; do kill -9 "$p" 2>/dev/null || true; done; rm -rf "$SCRATCH"' EXIT

echo "== examples: every facade example runs to completion"
# The examples are the facade's usage docs; each must exit 0.
for ex in examples/*.rs; do
    name="$(basename "$ex" .rs)"
    cargo run --release --quiet --example "$name" > "$SCRATCH/example-$name.txt" || {
        echo "example $name failed"; exit 1; }
done

echo "== ccp-lint: workspace invariants (deny warnings)"
./target/release/ccp-lint --deny warnings --json "$SCRATCH/lint-report.json"
grep -q '"failed":false' "$SCRATCH/lint-report.json" || {
    echo "lint-report.json disagrees with the exit status"; exit 1; }

echo "== ccp-lint: fixture corpus matches the golden file"
./target/release/ccp-lint --check-fixtures crates/lint/tests/fixtures

echo "== ccp-lint: a seeded service-path panic must fail with a witness"
mkdir -p "$SCRATCH/seeded/crates/served/src"
cat > "$SCRATCH/seeded/crates/served/src/violation.rs" <<'EOF'
pub fn serve(opt: Option<u32>) -> u32 {
    decode(opt)
}
fn decode(opt: Option<u32>) -> u32 {
    opt.unwrap()
}
EOF
set +e
./target/release/ccp-lint --root "$SCRATCH/seeded" --quiet "$SCRATCH/seeded" \
    > /dev/null 2>&1
status=$?
set -e
[ "$status" -eq 1 ] || { echo "seeded R2 violation: expected exit 1, got $status"; exit 1; }
./target/release/ccp-lint --root "$SCRATCH/seeded" "$SCRATCH/seeded" 2>/dev/null \
    | grep -q "no-panic-in-service-path.*serve → decode" || {
    echo "seeded R2 violation lost its witness call path"; exit 1; }
rm -rf "$SCRATCH/seeded"

echo "== ccp-lint: a seeded determinism leak must fail with a witness"
mkdir -p "$SCRATCH/seeded/crates/cache/src"
cat > "$SCRATCH/seeded/crates/cache/src/violation.rs" <<'EOF'
pub fn replay(cycles: u64) -> u64 {
    stamp() + cycles
}
fn stamp() -> u64 {
    let _t = std::time::Instant::now();
    0
}
EOF
./target/release/ccp-lint --root "$SCRATCH/seeded" "$SCRATCH/seeded" 2>/dev/null \
    | grep -q "deterministic-core-transitive.*replay → stamp" || {
    echo "seeded R10 violation did not fire with a witness"; exit 1; }
rm -rf "$SCRATCH/seeded"

echo "== ccp-lint: a seeded lock cycle must fail with the inferred ring"
mkdir -p "$SCRATCH/seeded/crates/served/src"
cat > "$SCRATCH/seeded/crates/served/src/violation.rs" <<'EOF'
fn one(c: &Ctx) {
    let g = c.grid.lock_unpoisoned();
    take_store(c);
    drop(g);
}
fn take_store(c: &Ctx) {
    c.store.lock_unpoisoned().put(1);
}
fn two(c: &Ctx) {
    let s = c.store.lock_unpoisoned();
    let g = c.grid.lock_unpoisoned();
    drop(g);
    drop(s);
}
EOF
./target/release/ccp-lint --root "$SCRATCH/seeded" "$SCRATCH/seeded" 2>/dev/null \
    | grep -q "lock-graph-acyclic.*grid → store → grid" || {
    echo "seeded R11 cycle did not fire with the inferred ring"; exit 1; }
rm -rf "$SCRATCH/seeded"

echo "== ccp-lint: --graph renders the whole-program call + lock graph"
./target/release/ccp-lint --graph dot > "$SCRATCH/graph.dot"
grep -q "^digraph" "$SCRATCH/graph.dot" || {
    echo "--graph dot did not emit a digraph"; exit 1; }
grep -q '"lock:' "$SCRATCH/graph.dot" || {
    echo "--graph dot lost the inferred lock edges"; exit 1; }

echo "== difftest: optimized and reference engines byte-identical"
# Optimized vs reference engine, every benchmark. The reference engine
# classifies word by word, so this also checks the per-word line loop.
./target/release/repro difftest > "$SCRATCH/difftest.txt"
grep -q "byte-identical across engines" "$SCRATCH/difftest.txt" || {
    echo "difftest did not report full identity:"; cat "$SCRATCH/difftest.txt"; exit 1; }

echo "== perfbench: benchmark tests + a fingerprint-checked pass per workload"
# perfbench/expect/ records every cell's RunStats/FastStats fingerprint for
# seeds 0-63, so a pipeline or hierarchy change that moves any counter
# fails here, not only in the benchmark. Built into the benchmark's own
# target directory.
CARGO_TARGET_DIR=.bench_build cargo test --release --offline -q \
    --manifest-path perfbench/Cargo.toml
# paper-sweep runs a second seed too, so the pipeline scheduler is held to
# recorded RunStats on streams beyond seed 0.
for run in paper-sweep:0 paper-sweep:63 replay:0; do
    w="${run%:*}"; seed="${run#*:}"
    CARGO_TARGET_DIR=.bench_build cargo run --release --offline --quiet \
        --manifest-path perfbench/Cargo.toml -- --workload "$w" --seed "$seed" --seconds 1 \
        > "$SCRATCH/perfbench-$w-$seed.txt"
    grep -q '"failed": 0,' "$SCRATCH/perfbench-$w-$seed.txt" || {
        echo "perfbench $w (seed $seed) failed a recorded fingerprint:"
        cat "$SCRATCH/perfbench-$w-$seed.txt"; exit 1; }
done

echo "== perf smoke: hot-path overhaul holds a conservative speedup floor"
# The committed BENCH_core.json trajectory records the full-budget margin
# (~3.3x geomean per entry); the CI floor is deliberately low so machine
# noise cannot flake it. Seeding the scratch copy from the committed
# trajectory exercises the append path: --assert-min-speedup applies to
# the row this run appends, i.e. the newest row.
cp BENCH_core.json "$SCRATCH/BENCH_core.json" 2>/dev/null || true
./target/release/repro perf --budget 60000 --assert-min-speedup 1.5 \
    --out "$SCRATCH/BENCH_core.json" > "$SCRATCH/perf.txt"
grep -q '"name":"core_hotpath_trajectory"' "$SCRATCH/BENCH_core.json" || {
    echo "BENCH_core.json is not a trajectory document"; exit 1; }
if [ -f BENCH_core.json ]; then
    rows=$(grep -o '"git_rev"' "$SCRATCH/BENCH_core.json" | wc -l)
    [ "$rows" -ge 2 ] || {
        echo "perf run did not append to the existing trajectory (rows=$rows)"; exit 1; }
fi
# The appended row times the pipeline layer too: exactly one more entry
# carries the pipeline throughput than the committed trajectory does.
before=$( (grep -o '"pipeline_minst_s":' BENCH_core.json 2>/dev/null || true) | wc -l)
after=$(grep -o '"pipeline_minst_s":' "$SCRATCH/BENCH_core.json" | wc -l)
[ "$after" -eq $((before + 1)) ] || {
    echo "appended perf row lacks pipeline_minst_s ($before -> $after)"; exit 1; }

echo "== compare-schemes smoke: scheme axis reports and stays cache-distinct"
# Tiny grid, two schemes: the study must write its report and prove the
# content addresses never collide across schemes (DESIGN.md §11).
./target/release/repro compare-schemes --budget 3000 --benchmarks health,mst \
    --schemes CPP,BDI --out "$SCRATCH/SCHEMES_report.json" > "$SCRATCH/schemes.txt"
grep -q "cache keys distinct across schemes: yes" "$SCRATCH/schemes.txt" || {
    echo "compare-schemes lost scheme distinctness:"; cat "$SCRATCH/schemes.txt"; exit 1; }
[ -s "$SCRATCH/SCHEMES_report.json" ] || {
    echo "compare-schemes wrote no JSON report"; exit 1; }
grep -q '"cache_keys_scheme_distinct":true' "$SCRATCH/SCHEMES_report.json" || {
    echo "SCHEMES_report.json disagrees with the report text"; exit 1; }

echo "== chaos smoke: fault injection is detected, no false positives"
./target/release/repro chaos --workload health --workload mst --budget 8000
# README's example: a pointer chase whose pairing fault has no L1 site.
./target/release/repro chaos --workload "workgen:addr=chase,small=0.4" --budget 50000 --seed 9
# A store-heavy stream: half its memory operations are stores, so the
# release build drives the mask memo's store path before the faults land.
./target/release/repro chaos --workload "workgen:addr=uniform,small=0.45,ptr=0.1,store=0.5,footprint=32768" \
    --budget 50000 --seed 9

echo "== resume round-trip: interrupted + resumed sweep == uninterrupted"
SWEEP_ARGS="--budget 2000 --seed 7 --workloads health,mst --designs BC,BCP,CPP"
# Phase 1: "crash" after 2 of 6 cells (exit 3 = incomplete, by design);
# the grid runs workload-major, so health/BCP (prefetch-buffer counters)
# is among the cells restored from the store.
set +e
./target/release/repro sweep $SWEEP_ARGS --max-cells 2 \
    --store "$SCRATCH/sweepstore" > "$SCRATCH/interrupted.txt"
status=$?
set -e
[ "$status" -eq 3 ] || { echo "expected exit 3 (incomplete), got $status"; exit 1; }
# Phase 2: resume finishes the grid; phase 3: an uninterrupted reference.
./target/release/repro sweep $SWEEP_ARGS --store "$SCRATCH/sweepstore" \
    --json "$SCRATCH/resumed.json" > "$SCRATCH/resumed.txt"
./target/release/repro sweep $SWEEP_ARGS \
    --json "$SCRATCH/fresh.json" > "$SCRATCH/fresh.txt"
cmp "$SCRATCH/resumed.txt" "$SCRATCH/fresh.txt"
cmp "$SCRATCH/resumed.json" "$SCRATCH/fresh.json"

echo "== serve smoke: served results == direct runs, graceful drain"
start_served() {  # $1 = output basename, $2 = store dir; sets SERVED_PID and ADDR
    ./target/release/ccp-served --workers 4 --cache-bytes 65536 --store "$2" \
        > "$SCRATCH/$1.out" 2> "$SCRATCH/$1.err" &
    SERVED_PID=$!
    i=0
    until grep -q "listening on" "$SCRATCH/$1.out" 2>/dev/null; do
        i=$((i + 1))
        [ "$i" -le 100 ] || { echo "ccp-served ($1) did not come up"; exit 1; }
        sleep 0.1
    done
    ADDR="$(sed -n 's/^ccp-served listening on //p' "$SCRATCH/$1.out")"
}
stop_served() {  # SIGTERM drains and exits 0
    kill -TERM "$SERVED_PID"
    set +e
    wait "$SERVED_PID"
    status=$?
    set -e
    SERVED_PID=""
    [ "$status" -eq 0 ] || { echo "ccp-served exit $status after SIGTERM"; exit 1; }
}
start_served served "$SCRATCH/store"

# One benchmark job and one workgen job: the served stats must be
# field-identical to direct `repro sweep` runs of the same cells.
WGSPEC="workgen:addr=zipf,small=0.6"
./target/release/ccp-client --addr "$ADDR" submit --workload health --design CPP \
    --budget 2000 --seed 7 --json "$SCRATCH/served-bench.json" > /dev/null
./target/release/ccp-client --addr "$ADDR" submit --workload "$WGSPEC" --design BC \
    --budget 2000 --seed 7 --json "$SCRATCH/served-wg.json" > /dev/null
./target/release/repro sweep --budget 2000 --seed 7 --workloads health \
    --designs CPP --json "$SCRATCH/direct-bench.json" > /dev/null
./target/release/repro sweep --budget 2000 --seed 7 --workloads "$WGSPEC" \
    --designs BC --json "$SCRATCH/direct-wg.json" > /dev/null
for pair in "served-bench direct-bench" "served-wg direct-wg"; do
    served_file="$SCRATCH/$(echo "$pair" | cut -d' ' -f1).json"
    direct_file="$SCRATCH/$(echo "$pair" | cut -d' ' -f2).json"
    for field in cycles instructions loads stores; do
        s="$(grep -o "\"$field\":[0-9]*" "$served_file" | head -1)"
        d="$(grep -o "\"$field\":[0-9]*" "$direct_file" | head -1)"
        [ -n "$s" ] && [ "$s" = "$d" ] || {
            echo "served/direct mismatch in $pair on $field: '$s' vs '$d'"; exit 1; }
    done
done

# A poisoned (fault-injected, panicking) job must come back as a typed
# error to its client while the server keeps serving.
set +e
./target/release/ccp-client --addr "$ADDR" submit --workload health --design CPP \
    --budget 1500 --fault vcp > /dev/null 2> "$SCRATCH/fault.err"
status=$?
set -e
[ "$status" -eq 1 ] || { echo "fault job: expected exit 1, got $status"; exit 1; }
grep -q "\[panic\]" "$SCRATCH/fault.err" || {
    echo "fault job did not report a typed panic:"; cat "$SCRATCH/fault.err"; exit 1; }
./target/release/ccp-client --addr "$ADDR" submit --workload mst --design BCP \
    --budget 2000 > /dev/null   # server survived the poisoned worker

# Load generator: zipf(1.0) mix of 32 distinct jobs over 4 connections
# must sustain >= 100 req/s with >= 90% cache hit rate.
./target/release/ccp-client --addr "$ADDR" bench --conns 4 --requests 400 \
    --jobs 32 --skew 1.0 --budget 1000 --min-throughput 100 --min-hit-rate 0.9

# SIGTERM drains and exits 0 (no torn output: every line above parsed).
stop_served

# A server restarted on the same store answers a repeat submit from the
# disk tier: its RAM cache is empty, so `cached` can only come from disk.
start_served served-restart "$SCRATCH/store"
./target/release/ccp-client --addr "$ADDR" submit --workload health --design CPP \
    --budget 2000 --seed 7 > "$SCRATCH/restart.txt"
grep -q " cached:" "$SCRATCH/restart.txt" || {
    echo "restarted server did not answer from the disk tier:"
    cat "$SCRATCH/restart.txt"; exit 1; }
./target/release/ccp-client --addr "$ADDR" stats > "$SCRATCH/restart-stats.txt"
grep -q "sims run 0 " "$SCRATCH/restart-stats.txt" || {
    echo "restarted server re-simulated a stored job:"
    cat "$SCRATCH/restart-stats.txt"; exit 1; }
stop_served

echo "== one store: ccp-served answers from a sweep's store"
# The resume round-trip above wrote health/BCP (budget 2000, seed 7) to
# the sweep store; a server on that store must answer it without a run.
start_served sweepstore "$SCRATCH/sweepstore"
./target/release/ccp-client --addr "$ADDR" submit --workload health --design BCP \
    --budget 2000 --seed 7 > "$SCRATCH/sweepstore-submit.txt"
grep -q " cached:" "$SCRATCH/sweepstore-submit.txt" || {
    echo "server did not answer from the sweep's store:"
    cat "$SCRATCH/sweepstore-submit.txt"; exit 1; }
./target/release/ccp-client --addr "$ADDR" stats > "$SCRATCH/sweepstore-stats.txt"
grep -q "sims run 0 " "$SCRATCH/sweepstore-stats.txt" || {
    echo "server re-simulated a cell the sweep stored:"
    cat "$SCRATCH/sweepstore-stats.txt"; exit 1; }
stop_served

echo "== overload: a bounded queue sheds typed overloads, retried to done"
./target/release/ccp-served --workers 1 --max-queue 1 --cache-bytes 65536 \
    > "$SCRATCH/ov.out" 2> "$SCRATCH/ov.err" &
OV_PID=$!
i=0
until grep -q "listening on" "$SCRATCH/ov.out" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -le 100 ] || { echo "overload server did not come up"; exit 1; }
    sleep 0.1
done
OV_ADDR="$(sed -n 's/^ccp-served listening on //p' "$SCRATCH/ov.out")"
# 8 connections race a 1-deep queue: submits are shed with the typed
# `overloaded` response and the bench's jittered shed-retry absorbs every
# one (bench exits 1 on any request error, so success == zero failures).
./target/release/ccp-client --addr "$OV_ADDR" bench --conns 8 --requests 200 \
    --jobs 64 --skew 0.5 --budget 5000 > "$SCRATCH/ov-bench.txt"
./target/release/ccp-client --addr "$OV_ADDR" stats > "$SCRATCH/ov-stats.txt"
grep -Eq "[1-9][0-9]* shed" "$SCRATCH/ov-stats.txt" || {
    echo "overload run never shed:"; cat "$SCRATCH/ov-stats.txt"; exit 1; }
kill -TERM "$OV_PID"
set +e
wait "$OV_PID"
status=$?
set -e
OV_PID=""
[ "$status" -eq 0 ] || { echo "overload server exit $status after SIGTERM"; exit 1; }

echo "CI OK"
