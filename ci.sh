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
W1_PID=""
W2_PID=""
C1_PID=""
C2_PID=""
OV_PID=""
trap 'for p in $SERVED_PID $W1_PID $W2_PID $C1_PID $C2_PID $OV_PID; do kill -9 "$p" 2>/dev/null || true; done; rm -rf "$SCRATCH"' EXIT

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
mkdir -p "$SCRATCH/seeded/crates/fabric/src"
cat > "$SCRATCH/seeded/crates/fabric/src/violation.rs" <<'EOF'
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

echo "== difftest: engines byte-identical across the lane-dispatch matrix"
# Optimized vs reference engine, every benchmark, over the
# {scalar,swar} lane-dispatch matrix.
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
for w in paper-sweep replay; do
    CARGO_TARGET_DIR=.bench_build cargo run --release --offline --quiet \
        --manifest-path perfbench/Cargo.toml -- --workload "$w" --seed 0 --seconds 1 \
        > "$SCRATCH/perfbench-$w.txt"
    grep -q '"failed": 0,' "$SCRATCH/perfbench-$w.txt" || {
        echo "perfbench $w failed a recorded fingerprint:"
        cat "$SCRATCH/perfbench-$w.txt"; exit 1; }
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

echo "== compare-schemes smoke: scheme axis reports and stays cache-distinct"
# Tiny grid, two schemes: the study must write its report and prove the
# content addresses never collide across schemes (DESIGN.md §13).
./target/release/repro compare-schemes --budget 3000 --benchmarks health,mst \
    --schemes CPP,BDI --out "$SCRATCH/SCHEMES_report.json" > "$SCRATCH/schemes.txt"
grep -q "cache keys distinct across schemes: yes" "$SCRATCH/schemes.txt" || {
    echo "compare-schemes lost scheme distinctness:"; cat "$SCRATCH/schemes.txt"; exit 1; }
[ -s "$SCRATCH/SCHEMES_report.json" ] || {
    echo "compare-schemes wrote no JSON report"; exit 1; }
grep -q '"cache_keys_scheme_distinct":true' "$SCRATCH/SCHEMES_report.json" || {
    echo "SCHEMES_report.json disagrees with the report text"; exit 1; }

echo "== chaos smoke: fault injection is detected, no false positives"
./target/release/trace-tool chaos --workload health --workload mst --budget 8000

echo "== resume round-trip: interrupted + resumed sweep == uninterrupted"
SWEEP_ARGS="--budget 2000 --seed 7 --workloads health,mst --designs BC,CPP"
# Phase 1: "crash" after 2 of 4 cells (exit 3 = incomplete, by design).
set +e
./target/release/ccp-sim sweep $SWEEP_ARGS --max-cells 2 \
    --checkpoint "$SCRATCH/ck.jsonl" > "$SCRATCH/interrupted.txt"
status=$?
set -e
[ "$status" -eq 3 ] || { echo "expected exit 3 (incomplete), got $status"; exit 1; }
# Phase 2: resume finishes the grid; phase 3: an uninterrupted reference.
./target/release/ccp-sim sweep $SWEEP_ARGS --resume "$SCRATCH/ck.jsonl" \
    --json "$SCRATCH/resumed.json" > "$SCRATCH/resumed.txt"
./target/release/ccp-sim sweep $SWEEP_ARGS \
    --json "$SCRATCH/fresh.json" > "$SCRATCH/fresh.txt"
cmp "$SCRATCH/resumed.txt" "$SCRATCH/fresh.txt"
cmp "$SCRATCH/resumed.json" "$SCRATCH/fresh.json"

echo "== serve smoke: served results == direct runs, graceful drain"
./target/release/ccp-served --workers 4 --cache-bytes 65536 \
    > "$SCRATCH/served.out" 2> "$SCRATCH/served.err" &
SERVED_PID=$!
i=0
until grep -q "listening on" "$SCRATCH/served.out" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -le 100 ] || { echo "ccp-served did not come up"; exit 1; }
    sleep 0.1
done
ADDR="$(sed -n 's/^ccp-served listening on //p' "$SCRATCH/served.out")"

# One benchmark job and one workgen job: the served stats must be
# field-identical to direct ccp-sim runs of the same cells. (Comma-free
# spec: the sweep CLI splits --workloads on commas.)
WGSPEC="workgen:addr=zipf"
./target/release/ccp-client --addr "$ADDR" submit --workload health --design CPP \
    --budget 2000 --seed 7 --json "$SCRATCH/served-bench.json" > /dev/null
./target/release/ccp-client --addr "$ADDR" submit --workload "$WGSPEC" --design BC \
    --budget 2000 --seed 7 --json "$SCRATCH/served-wg.json" > /dev/null
./target/release/ccp-sim sweep --budget 2000 --seed 7 --workloads health \
    --designs CPP --json "$SCRATCH/direct-bench.json" > /dev/null
./target/release/ccp-sim sweep --budget 2000 --seed 7 --workloads "$WGSPEC" \
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
kill -TERM "$SERVED_PID"
set +e
wait "$SERVED_PID"
status=$?
set -e
SERVED_PID=""
[ "$status" -eq 0 ] || { echo "ccp-served exit $status after SIGTERM"; exit 1; }

echo "== fabric: distributed sweep is byte-identical to the local driver"
FABSTORE="$SCRATCH/store"
start_worker() {  # $1 = output basename; prints nothing, sets WORKER_ADDR
    ./target/release/ccp-served --workers 2 --store "$FABSTORE" \
        > "$SCRATCH/$1.out" 2> "$SCRATCH/$1.err" &
    WORKER_PID=$!
    i=0
    until grep -q "listening on" "$SCRATCH/$1.out" 2>/dev/null; do
        i=$((i + 1))
        [ "$i" -le 100 ] || { echo "worker $1 did not come up"; exit 1; }
        sleep 0.1
    done
    WORKER_ADDR="$(sed -n 's/^ccp-served listening on //p' "$SCRATCH/$1.out")"
}
start_worker w1; W1_PID=$WORKER_PID; W1_ADDR=$WORKER_ADDR
start_worker w2; W2_PID=$WORKER_PID; W2_ADDR=$WORKER_ADDR

FAB_ARGS="--budget 2000 --seed 7 --workloads health,mst,treeadd --designs BC,CPP"
./target/release/ccp-coord sweep --workers "$W1_ADDR,$W2_ADDR" $FAB_ARGS \
    --store "$FABSTORE" --json "$SCRATCH/fab.json" \
    > "$SCRATCH/fab.txt" 2> "$SCRATCH/fab.log"
./target/release/ccp-sim sweep $FAB_ARGS \
    --json "$SCRATCH/fab-local.json" > "$SCRATCH/fab-local.txt"
cmp "$SCRATCH/fab.txt" "$SCRATCH/fab-local.txt"
cmp "$SCRATCH/fab.json" "$SCRATCH/fab-local.json"

echo "== fabric: a repeat run is answered from the disk tier"
# A fresh coordinator process has an empty RAM tier, so every one of the
# 6 cells must come back as a verified disk hit (>= 90% required; we get
# 100%) without a single dispatch to the workers.
ccpz_count="$(ls "$FABSTORE"/*.ccpz 2>/dev/null | wc -l)"
[ "$ccpz_count" -ge 6 ] || { echo "expected >= 6 .ccpz entries, got $ccpz_count"; exit 1; }
./target/release/ccp-coord sweep --workers "$W1_ADDR,$W2_ADDR" $FAB_ARGS \
    --store "$FABSTORE" --json "$SCRATCH/fab2.json" \
    --summary-json "$SCRATCH/fab2-sum.json" > "$SCRATCH/fab2.txt" 2> /dev/null
cmp "$SCRATCH/fab2.json" "$SCRATCH/fab-local.json"
grep -q '"store_disk_hits":6' "$SCRATCH/fab2-sum.json" || {
    echo "repeat run was not served from the disk tier:"
    cat "$SCRATCH/fab2-sum.json"; exit 1; }
grep -q '"store_misses":0' "$SCRATCH/fab2-sum.json" || {
    echo "repeat run missed the store:"; cat "$SCRATCH/fab2-sum.json"; exit 1; }

echo "== fabric: killing a worker mid-run still completes the grid"
# Fresh grid (different seed, no store) so cells actually dispatch. The
# budget makes the 28-cell grid run for seconds; w1 is killed as soon as
# its stats report a simulation started, which is guaranteed mid-grid.
KILL_ARGS="--budget 400000 --seed 11 --designs BC,CPP"
./target/release/ccp-coord sweep --workers "$W1_ADDR,$W2_ADDR" $KILL_ARGS \
    --retries 6 --strikes 2 --backoff-ms 10 \
    --json "$SCRATCH/kill.json" > "$SCRATCH/kill.txt" 2> "$SCRATCH/kill.log" &
COORD_PID=$!
i=0
until ./target/release/ccp-client --addr "$W1_ADDR" stats 2>/dev/null \
        | grep -q "sims run [1-9]"; do
    i=$((i + 1))
    [ "$i" -le 200 ] || { echo "w1 never started simulating"; exit 1; }
    sleep 0.05
done
kill -9 "$W1_PID" 2>/dev/null || true
set +e
wait "$COORD_PID"
status=$?
set -e
W1_PID=""
[ "$status" -eq 0 ] || {
    echo "coordinator exit $status after worker kill:"; cat "$SCRATCH/kill.log"; exit 1; }
# The survivor must have absorbed the dead worker's cells: the fabric
# summary records at least one worker loss and the report is still
# byte-identical to the local driver.
grep -q "lost=[1-9]" "$SCRATCH/kill.log" || {
    echo "worker kill did not register as a loss:"; cat "$SCRATCH/kill.log"; exit 1; }
# Results must match the local driver modulo the attempts column (the
# retried cell legitimately records attempts > 1; everything else —
# status, cycles, every stat field — is byte-identical).
./target/release/ccp-sim sweep $KILL_ARGS \
    --json "$SCRATCH/kill-local.json" > "$SCRATCH/kill-local.txt"
for f in kill kill-local; do
    sed 's/"attempts":[0-9]*/"attempts":_/g' "$SCRATCH/$f.json" > "$SCRATCH/$f.norm"
done
cmp "$SCRATCH/kill.norm" "$SCRATCH/kill-local.norm"

echo "== chaos: seeded fault schedules cannot change a single result byte"
# The surviving worker still holds the kill-gate store; fresh workers and
# a fresh grid seed keep the chaos runs honest (cells actually dispatch).
kill -9 "$W2_PID" 2>/dev/null || true
wait "$W2_PID" 2>/dev/null || true
W2_PID=""
FABSTORE="$SCRATCH/chaos-store"
start_worker cw1; W1_PID=$WORKER_PID; CW1_ADDR=$WORKER_ADDR
start_worker cw2; W2_PID=$WORKER_PID; CW2_ADDR=$WORKER_ADDR

start_chaos() {  # $1 = basename, $2 = upstream, $3 = schedule, $4 = seed
    ./target/release/ccp-chaos --listen 127.0.0.1:0 --upstream "$2" \
        --schedule "$3" --seed "$4" --quiet \
        > "$SCRATCH/$1.out" 2> "$SCRATCH/$1.err" &
    CHAOS_PID=$!
    i=0
    until grep -q "listening on" "$SCRATCH/$1.out" 2>/dev/null; do
        i=$((i + 1))
        [ "$i" -le 100 ] || { echo "chaos proxy $1 did not come up"; exit 1; }
        sleep 0.1
    done
    CHAOS_ADDR="$(sed -n 's/^ccp-chaos listening on //p' "$SCRATCH/$1.out")"
}

CHAOS_ARGS="--budget 2000 --seed 19 --workloads health,mst,treeadd --designs BC,CPP"
./target/release/ccp-sim sweep $CHAOS_ARGS \
    --json "$SCRATCH/chaos-local.json" > "$SCRATCH/chaos-local.txt"
sed 's/"attempts":[0-9]*/"attempts":_/g' "$SCRATCH/chaos-local.json" \
    > "$SCRATCH/chaos-local.norm"

# Three fault classes, each fully determined by (schedule, seed): byte
# corruption, stalls with speculative re-dispatch armed, and abrupt
# disconnects mixed with connection refusal. `none` entries in each cycle
# give retries a clean path to converge on.
run_chaos_schedule() {  # $1 = tag, $2 = schedule, $3 = seed, $4.. = extra args
    tag=$1; schedule=$2; seed=$3; shift 3
    start_chaos "$tag-p1" "$CW1_ADDR" "$schedule" "$seed"; C1_PID=$CHAOS_PID; P1=$CHAOS_ADDR
    start_chaos "$tag-p2" "$CW2_ADDR" "$schedule" "$seed"; C2_PID=$CHAOS_PID; P2=$CHAOS_ADDR
    ./target/release/ccp-coord sweep --workers "$P1,$P2" $CHAOS_ARGS \
        --retries 8 --strikes 10 --backoff-ms 5 --timeout-ms 20000 "$@" \
        --json "$SCRATCH/$tag.json" > "$SCRATCH/$tag.txt" 2> "$SCRATCH/$tag.log" || {
        echo "chaotic sweep $tag failed:"; cat "$SCRATCH/$tag.log"; exit 1; }
    sed 's/"attempts":[0-9]*/"attempts":_/g' "$SCRATCH/$tag.json" > "$SCRATCH/$tag.norm"
    cmp "$SCRATCH/$tag.norm" "$SCRATCH/chaos-local.norm" || {
        echo "schedule '$schedule' changed a result byte"; exit 1; }
    kill -TERM "$C1_PID" "$C2_PID" 2>/dev/null || true
    wait "$C1_PID" 2>/dev/null || true
    wait "$C2_PID" 2>/dev/null || true
    C1_PID=""; C2_PID=""
}
run_chaos_schedule corrupt "corrupt,none,none" 190
run_chaos_schedule stall "stall:400,none,none" 7 --speculate 1 --speculate-floor-ms 100
run_chaos_schedule disco "disconnect:64,none,refuse,none" 13

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
