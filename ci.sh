#!/usr/bin/env bash
# The single CI gate, runnable locally. Keep in sync with
# .github/workflows/ci.yml, which just calls this script.
set -euo pipefail
cd "$(dirname "$0")"

run() {
    echo "==> $*"
    "$@"
}

run cargo fmt --all --check

# Fault arming (util::faults) is process-global, so a unit test that arms a
# site races every sibling test in its binary that passes through that
# site. Tests that arm faults live in integration-test binaries of their
# own (crates/*/tests/); no `src/` test module may call install_spec,
# except util's own faults tests, whose sites no other test passes.
echo "==> no fault arming in src/ test modules"
ARMED_IN_SRC=$(find crates src -path '*/src/*' -name '*.rs' ! -path 'crates/util/src/faults.rs' -print0 \
    | xargs -0 awk 'FNR == 1 { t = 0 } /#\[cfg\(test\)\]/ { t = 1 } t && /install_spec\(/ { print FILENAME ":" FNR ": " $0 }')
[ -z "$ARMED_IN_SRC" ] \
    || { echo "install_spec in a src/ test module (move the test to crates/*/tests/):"; echo "$ARMED_IN_SRC"; exit 1; }

# -D warnings also hardens the in-source `#![warn(missing_docs)]` lints
# every crate carries into errors.
run cargo clippy --workspace --all-targets -- -D warnings

run cargo build --release

run cargo test -q

# The benchmark (perfbench/) is a workspace of its own that links the
# crates by path, so the workspace build above does not compile it. Build
# and test it here, so a crate API change that breaks the benchmark fails
# CI rather than the next benchmark run.
run cargo test --release --offline --manifest-path perfbench/Cargo.toml

# Deny rustdoc warnings (broken intra-doc links etc.).
RUSTDOCFLAGS="-D warnings" run cargo doc --no-deps --workspace

# Chaos suite under a pinned fault seed: torn clients, oversized and
# half-written frames, deadline stalls, injected I/O errors and panics —
# with the invariant that surviving sessions stay bit-identical to direct
# engine runs. The pinned seed makes any CI failure reproducible locally
# with the same variable.
SETDISC_FAULT_SEED=42 run cargo test -q -p setdisc-service --test chaos

# End-to-end sanity: one experiment at smoke scale through the real binary.
run cargo run --release -p setdisc-eval --bin experiments -- table1 --scale smoke --no-csv >/dev/null

# Bench smoke: hot-path kernels at smoke scale, emitting the JSON perf
# artifact. The committed BENCH_hotpath.json is the baseline perf PRs
# compare against; --compare prints per-kernel deltas against it (read
# before the file is overwritten). Regenerate on a quiet machine. The
# stage fails when a disarmed span costs more than SPAN_OVERHEAD_CEILING
# times the bare loop of obs_span_baseline in the same run (DESIGN.md §12).
run cargo bench -p setdisc-bench --bench bench_hotpath -- --scale smoke \
    --compare "$PWD/BENCH_hotpath.json" --out "$PWD/BENCH_hotpath.json"

# Cost-model calibration report (DESIGN.md §14): force both counting
# kernels over a size range, fit ns/element and ns/scan-unit through the
# origin, and print the implied break-even dispatch factor next to the
# committed constants — the measured input for ROADMAP item 3's re-fit.
run cargo bench -p setdisc-bench --bench bench_hotpath -- --scale smoke --calibrate

# Service wire-protocol smoke: the serve binary (stdio transport) must
# reproduce the committed golden transcript byte for byte. (The same pair
# of files is replayed in-process by crates/service/tests/wire_golden.rs.)
echo "==> service stdio golden transcript"
cargo run --release -q -p setdisc-service --bin serve -- --stdio --fixture figure1 \
    < crates/service/tests/wire_smoke.in \
    | diff -u crates/service/tests/wire_smoke.golden -

# Session-mode golden: §6 backtracking (recover:true), per-set priors, and
# §7 multiple-choice screens over the same stdio transport. The classic
# wire_smoke pair above must stay byte-identical with all of these modes
# compiled in — new wire fields are strictly additive.
echo "==> service stdio session-mode golden transcript"
cargo run --release -q -p setdisc-service --bin serve -- --stdio --fixture figure1 \
    < crates/service/tests/wire_noisy.in \
    | diff -u crates/service/tests/wire_noisy.golden -

# Telemetry must be invisible on the wire: with span recording armed
# (SETDISC_OBS=1 — same switch as serve --metrics), both committed golden
# transcripts must stay byte-identical. Site histograms only ever surface
# through the session-less metrics op, never in session replies.
echo "==> armed-telemetry golden transcripts stay byte-identical"
SETDISC_OBS=1 cargo run --release -q -p setdisc-service --bin serve -- --stdio --fixture figure1 \
    < crates/service/tests/wire_smoke.in \
    | diff -u crates/service/tests/wire_smoke.golden -
SETDISC_OBS=1 cargo run --release -q -p setdisc-service --bin serve -- --stdio --fixture figure1 \
    < crates/service/tests/wire_noisy.in \
    | diff -u crates/service/tests/wire_noisy.golden -

# Record → replay (DESIGN.md §14): drive both committed transcripts
# through serve with the session journal armed — the wire output must stay
# byte-identical to the goldens — then re-drive each journal through a
# fresh in-process service with the replay binary, which must reproduce
# every recorded response byte for byte. A third, chaos-armed recording
# (pinned fault seed, one injected selection panic mid-conversation) must
# also replay exactly: the journal's meta record captures the
# SETDISC_FAULTS spec, and replay re-arms it so the seeded per-site stream
# fires at the same dispatch ordinal.
echo "==> session journal record -> replay"
JOURNAL_TMP=$(mktemp -d)
cargo run --release -q -p setdisc-service --bin serve -- --stdio --fixture figure1 \
    --journal "$JOURNAL_TMP/smoke" \
    < crates/service/tests/wire_smoke.in \
    | diff -u crates/service/tests/wire_smoke.golden -
run cargo run --release -q -p setdisc-service --bin replay -- --quiet "$JOURNAL_TMP/smoke"
cargo run --release -q -p setdisc-service --bin serve -- --stdio --fixture figure1 \
    --journal "$JOURNAL_TMP/noisy" \
    < crates/service/tests/wire_noisy.in \
    | diff -u crates/service/tests/wire_noisy.golden -
run cargo run --release -q -p setdisc-service --bin replay -- --quiet "$JOURNAL_TMP/noisy"
SETDISC_FAULTS="seed=42,engine.select=panic:1:0:1" \
    cargo run --release -q -p setdisc-service --bin serve -- --stdio --fixture figure1 \
    --journal "$JOURNAL_TMP/chaos" \
    < crates/service/tests/wire_smoke.in >/dev/null 2>"$JOURNAL_TMP/chaos.err"
run cargo run --release -q -p setdisc-service --bin replay -- --quiet "$JOURNAL_TMP/chaos"
rm -rf "$JOURNAL_TMP"

# Memory-governance soak (DESIGN.md §13): a 1 MB budget cannot hold the
# lazily registered multi-MB fixtures, so a 100-create flood against them
# must shed every single request with the structured overloaded shape —
# each attempt materializes the snapshot, walks the degradation ladder,
# and is refused *before* a session id is allocated. The classic
# transcript then replays on the very same process: session ids 1 and 2,
# every line after the collections listing byte-identical to the golden
# (line 1 differs only by the extra registered fixtures and figure1's
# governed state, since the ladder unloaded the cold figure1 too).
echo "==> memory-governance soak (1 MB budget)"
SOAK_TMP=$(mktemp -d)
{
    for _ in $(seq 50); do
        echo '{"op":"create","collection":"copyadd:3000:0.5:1"}'
        echo '{"op":"create","collection":"copyadd:2500:0.5:2"}'
    done
    cat crates/service/tests/wire_smoke.in
} > "$SOAK_TMP/in"
cargo run --release -q -p setdisc-service --bin serve -- --stdio --fixture figure1 \
    --memory-budget-mb 1 \
    --register copyadd:3000:0.5:1 --register copyadd:2500:0.5:2 \
    < "$SOAK_TMP/in" > "$SOAK_TMP/out"
NOT_SHED=$(head -n 100 "$SOAK_TMP/out" | { grep -vc '"code":"overloaded"' || true; })
[ "$NOT_SHED" -eq 0 ] \
    || { echo "flood creates were not all shed:"; head -n 100 "$SOAK_TMP/out" | grep -v overloaded | head -n 3; exit 1; }
sed -n '101p' "$SOAK_TMP/out" | grep -q '"figure1"' \
    || { echo "collections listing lost figure1:"; sed -n '101p' "$SOAK_TMP/out"; exit 1; }
tail -n +102 "$SOAK_TMP/out" | diff -u <(tail -n +2 crates/service/tests/wire_smoke.golden) -
rm -rf "$SOAK_TMP"

# With a generous budget the governor must be invisible: both committed
# transcripts replay byte-for-byte with governance armed. (The same pair
# runs in-process in crates/service/tests/wire_golden.rs.)
echo "==> governed golden transcripts stay byte-identical (512 MB budget)"
cargo run --release -q -p setdisc-service --bin serve -- --stdio --fixture figure1 \
    --memory-budget-mb 512 \
    < crates/service/tests/wire_smoke.in \
    | diff -u crates/service/tests/wire_smoke.golden -
cargo run --release -q -p setdisc-service --bin serve -- --stdio --fixture figure1 \
    --memory-budget-mb 512 \
    < crates/service/tests/wire_noisy.in \
    | diff -u crates/service/tests/wire_noisy.golden -

# Telemetry reconciliation: metrics_check boots a live TCP server with
# spans armed, replays truthful sessions over real sockets, and asserts
# (a) the Prometheus rendering parses against the minimal exposition
# grammar, (b) the engine.select event count grew by exactly the number
# of questions asked, and (c) plan hit/miss/node counters agree between
# the metrics op, the status op, and the Prometheus text.
run cargo run --release -q -p setdisc-service --bin metrics_check

# Plan-cache round trip: precompute a question plan to disk, boot serve
# warm from the persisted file, replay the golden transcript — output must
# stay byte-identical with the cache enabled — and assert the plan actually
# served (nonzero hit count in the trailing service-status line).
echo "==> plan-cache precompute round trip"
PLAN_TMP=$(mktemp -d)
run cargo run --release -q -p setdisc-eval --bin discover -- precompute \
    --fixture figure1 --strategy klp --k 2 \
    --out "$PLAN_TMP/figure1.plan" --max-nodes 512 --max-depth 16
{ cat crates/service/tests/wire_smoke.in; echo '{"op":"status"}'; } > "$PLAN_TMP/in"
cargo run --release -q -p setdisc-service --bin serve -- --stdio --fixture figure1 \
    --plan-cache "$PLAN_TMP/figure1.plan" \
    < "$PLAN_TMP/in" > "$PLAN_TMP/out"
GOLDEN_LINES=$(wc -l < crates/service/tests/wire_smoke.golden)
# Line 1 is the collections listing, whose accounted plan_bytes is
# honestly nonzero on a warm boot (the precomputed plan is resident
# memory); every session line from 2 on must stay byte-identical.
sed -n '1p' "$PLAN_TMP/out" | grep -Eq '"plan_bytes":[1-9]' \
    || { echo "warm boot reported no resident plan bytes:"; sed -n '1p' "$PLAN_TMP/out"; exit 1; }
head -n "$GOLDEN_LINES" "$PLAN_TMP/out" | tail -n +2 \
    | diff -u <(tail -n +2 crates/service/tests/wire_smoke.golden) -
tail -n 1 "$PLAN_TMP/out" | grep -Eq '"plan_hits":[1-9]' \
    || { echo "plan cache reported no hits:"; tail -n 1 "$PLAN_TMP/out"; exit 1; }
rm -rf "$PLAN_TMP"

# Weighted plan round trip: precompute under a per-set prior (the plan file
# carries the prior's fingerprint in its strategy keys), boot serve warm
# from it, replay the session-mode transcript — whose weighted create uses
# the *same* prior — and assert the weighted plan partition actually served
# (nonzero weighted hit count in the trailing service-status line).
echo "==> weighted plan-cache precompute round trip"
PLAN_TMP=$(mktemp -d)
run cargo run --release -q -p setdisc-eval --bin discover -- precompute \
    --fixture figure1 --strategy klp --k 2 --prior 1,50,1,1,1,1,1 \
    --out "$PLAN_TMP/figure1w.plan" --max-nodes 512 --max-depth 16
{ cat crates/service/tests/wire_noisy.in; echo '{"op":"status"}'; } > "$PLAN_TMP/in"
cargo run --release -q -p setdisc-service --bin serve -- --stdio --fixture figure1 \
    --plan-cache "$PLAN_TMP/figure1w.plan" \
    < "$PLAN_TMP/in" > "$PLAN_TMP/out"
GOLDEN_LINES=$(wc -l < crates/service/tests/wire_noisy.golden)
head -n "$GOLDEN_LINES" "$PLAN_TMP/out" | diff -u crates/service/tests/wire_noisy.golden -
tail -n 1 "$PLAN_TMP/out" | grep -Eq '"plan_weighted_hits":[1-9]' \
    || { echo "weighted plan reported no hits:"; tail -n 1 "$PLAN_TMP/out"; exit 1; }
rm -rf "$PLAN_TMP"

# Crash safety: serve over TCP with an aggressive plan checkpointer, drive
# real socket load, SIGKILL the server mid-checkpoint — several times.
# Because saves are write-temp + fsync + atomic rename, the plan file must
# come through every kill loadable (stray *.tmp.* staging files are
# expected debris of a kill mid-write; the main file is what's guaranteed),
# and a warm reboot from it must replay the golden transcript byte for
# byte.
echo "==> crash-safe plan persistence (SIGKILL mid-checkpoint)"
cargo build --release -q -p setdisc-service --bin serve
PLAN_TMP=$(mktemp -d)
run cargo run --release -q -p setdisc-eval --bin discover -- precompute \
    --fixture figure1 --strategy klp --k 2 \
    --out "$PLAN_TMP/figure1.plan" --max-nodes 512 --max-depth 16
for KILL_ROUND in 1 2 3; do
    SERVE_OUT="$PLAN_TMP/serve_out.$KILL_ROUND"
    ./target/release/serve --tcp 127.0.0.1:0 --fixture figure1 \
        --plan-cache "$PLAN_TMP/figure1.plan" --checkpoint-ms 25 \
        > "$SERVE_OUT" 2>"$SERVE_OUT.err" &
    SERVE_PID=$!
    trap 'kill -9 "$SERVE_PID" 2>/dev/null || true' EXIT
    for _ in $(seq 100); do
        grep -q "listening on" "$SERVE_OUT" && break
        sleep 0.05
    done
    ADDR=$(sed -n 's/^listening on //p' "$SERVE_OUT")
    [ -n "$ADDR" ] || { echo "serve did not come up (round $KILL_ROUND)"; exit 1; }
    grep -q "loaded plan cache" "$SERVE_OUT.err" \
        || { echo "round $KILL_ROUND: plan did not survive the previous kill"; cat "$SERVE_OUT.err"; exit 1; }
    cargo bench -p setdisc-service --bench bench_service -- \
        --mode socket-only --addr "$ADDR" --fixture figure1 \
        --clients 2 --sessions 3 >/dev/null 2>&1 &
    LOAD_PID=$!
    sleep 0.3   # several 25 ms checkpoints land under live traffic
    kill -9 "$SERVE_PID" 2>/dev/null || true
    wait "$LOAD_PID" 2>/dev/null || true
    trap - EXIT
done
cargo run --release -q -p setdisc-service --bin serve -- --stdio --fixture figure1 \
    --plan-cache "$PLAN_TMP/figure1.plan" \
    < crates/service/tests/wire_smoke.in 2>"$PLAN_TMP/boot.err" > "$PLAN_TMP/warm.out"
# Warm boots report their resident plan bytes on line 1 (see the
# precompute round trip above); the transcript proper must match.
tail -n +2 "$PLAN_TMP/warm.out" \
    | diff -u <(tail -n +2 crates/service/tests/wire_smoke.golden) -
grep -q "loaded plan cache" "$PLAN_TMP/boot.err" \
    || { echo "post-kill warm boot did not load the plan:"; cat "$PLAN_TMP/boot.err"; exit 1; }

# SIGKILL mid-journal-write: the same kill treatment with the session
# journal armed and a single sequential client (one connection keeps the
# journal's dispatch order equal to the wire order). Each round boots into
# the same directory, appending a fresh meta record; after the kills the
# journal must still read — a torn tail drops whole exchanges, never half
# of one — and every surviving exchange across all rounds must replay
# byte-identically.
echo "==> crash-tolerant session journal (SIGKILL mid-write)"
cargo build --release -q -p setdisc-service --bin replay
for KILL_ROUND in 1 2 3; do
    SERVE_OUT="$PLAN_TMP/journal_serve.$KILL_ROUND"
    ./target/release/serve --tcp 127.0.0.1:0 --fixture figure1 \
        --journal "$PLAN_TMP/journal" \
        > "$SERVE_OUT" 2>"$SERVE_OUT.err" &
    SERVE_PID=$!
    trap 'kill -9 "$SERVE_PID" 2>/dev/null || true' EXIT
    for _ in $(seq 100); do
        grep -q "listening on" "$SERVE_OUT" && break
        sleep 0.05
    done
    ADDR=$(sed -n 's/^listening on //p' "$SERVE_OUT")
    [ -n "$ADDR" ] || { echo "journal serve did not come up (round $KILL_ROUND)"; exit 1; }
    cargo bench -p setdisc-service --bench bench_service -- \
        --mode socket-only --addr "$ADDR" --fixture figure1 \
        --clients 1 --sessions 50 >/dev/null 2>&1 &
    LOAD_PID=$!
    sleep 0.3   # enough traffic that the kill lands mid-append batch
    kill -9 "$SERVE_PID" 2>/dev/null || true
    wait "$LOAD_PID" 2>/dev/null || true
    trap - EXIT
done
run ./target/release/replay --quiet "$PLAN_TMP/journal"
rm -rf "$PLAN_TMP"

# Service TCP smoke: start serve on an ephemeral loopback port, drive a
# brief verified load through the generator over the real socket, kill it.
echo "==> service tcp smoke"
cargo build --release -q -p setdisc-service --bin serve
SERVE_OUT=$(mktemp)
./target/release/serve --tcp 127.0.0.1:0 --fixture copyadd:120:0.9:7 > "$SERVE_OUT" &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
for _ in $(seq 100); do
    grep -q "listening on" "$SERVE_OUT" && break
    sleep 0.1
done
ADDR=$(sed -n 's/^listening on //p' "$SERVE_OUT")
[ -n "$ADDR" ] || { echo "serve did not come up"; exit 1; }
run cargo bench -p setdisc-service --bench bench_service -- \
    --mode socket-only --addr "$ADDR" --fixture copyadd:120:0.9:7 --clients 4 --sessions 5
kill "$SERVE_PID" 2>/dev/null || true
trap - EXIT
rm -f "$SERVE_OUT"

# Service bench: the ≥1k-concurrent-open-sessions gate plus in-process and
# loopback-socket throughput/latency phases; regenerates the committed
# BENCH_service.json baseline (every session's outcome is verified). Runs
# with telemetry armed (SETDISC_OBS=1) so the committed baseline carries
# the armed-span cost — the honest deployment configuration — and any
# span-overhead regression shows up in the percentile deltas.
SETDISC_OBS=1 run cargo bench -p setdisc-service --bench bench_service -- --scale smoke --out "$PWD/BENCH_service.json"

echo "CI green."
