#!/usr/bin/env bash
# Tier-1 verification plus lints, as a single gate:
#   1. release build of the whole workspace
#   2. full test suite
#   3. cross-engine conformance, quick tier: one engine x walk x
#      threads lattice over every WalkAlgorithm, programs included (a
#      walk without a lattice walk does not build), against the exact
#      oracles and the golden digests (sub-second; pass CONFORM_FULL=1
#      to sweep the full thread lattice instead)
#   4. ring tier: the same quick lattice with --ring-depth 16, proving
#      the latency-hiding walker ring is bit-invisible at max depth —
#      in memory and, since the bi-block loop steps through the same
#      ring, in the lattice's oocore cells; then with the ring off,
#      insisting that the lattice ran the partition stream (the
#      hint-only stage in front of each first-order sample task) at
#      all, and a dense CLI walk whose paths are equal at depth 1 and
#      16 while --stats tells the two kinds of hint apart, and, like a
#      node2vec walk's, at one thread and three; then a sparse
#      and a dense CLI walk whose --stats must show PS refills reserved
#      and produced, with paths equal at both depths, and the sparse one
#      must name the wide checked-skip kernel wherever /proc/cpuinfo
#      lists avx512dq; then the two baselines' path and visit files at
#      pinned cksums, and exit 4 for flags an engine would not read
#   5. telemetry tier: the overhead guard, an end-to-end
#      `walk --trace` -> `trace-check` round trip, and `trace-check` on
#      a 200 000-deep JSON nest (an invalid trace, exit 1, not a stack
#      overflow)
#   6. recover tier: an end-to-end checkpoint -> kill -> resume round
#      trip through the CLI (bit-identical output, correct exit codes),
#      then the oocore tier's crash drill on the in-memory graph: halt
#      deliberately under 15% injected checkpoint-write faults (exit 0),
#      resume under the same faults to the fault-free paths, and exit 2
#      when persistent faults exhaust the checkpoint writes' retries
#   7. oocore tier: the out-of-core fault-transparency test plus a CLI
#      crash drill over the FMDISK1 bi-block path, for node2vec and for
#      DeepWalk — convert, walk with the ring off and at depth 16 (same
#      paths, ring hints only at 16), halt deliberately mid-schedule
#      under 15% injected faults, resume bit-exactly, and check the
#      exit-code contract (4 wrong budget, 2 persistent faults, 3
#      corrupt graph)
#   8. ingest tier: one text edge list (comments, CRLF, no final
#      newline) through `convert` and `stats` — the text and the FMG1
#      decoder must report the same graph — plus the exit-code contract
#      for malformed input (1 and the line number for a bad data line,
#      1 and "bad binary graph" for a truncated .bin, never a panic) and
#      an argv drill: out-of-range `synth` parameters exit 64 without
#      generating, and node2vec `--p 0` on an FMG1 and an FMDISK1 graph
#      and ppr `--alpha 2` out of core exit 4 with a message naming the
#      parameter (a configuration refusal, not a planner failure)
#   9. audit tier: the fm-audit scanner (`audit`, one mode) at
#      -D warnings severity — textual lints plus call-graph taint,
#      panic-reachability, rng-purity and fingerprint-completeness —
#      a grep guard that keeps the run spellings kept for benchmark/
#      from gaining callers elsewhere, the JSON schema self-check, a seeded-violation check per
#      flow lint, a `--why` call-path reproduction, the pinned 0/1/2
#      exit-code contract (and 64 for the retired `--graph`), the
#      dynamic disjointness checker's tests, and the conformance quick
#      lattice under --features audit-disjoint; an env-gated nightly
#      Miri pass (AUDIT_MIRI=1) covers the recover codecs, fm-rng and
#      oocore's byte view
#  10. fault tier: `walk --stats --metrics` on the synth graph prints a
#      per-stage fault line and puts `minor_faults` on the `run` and
#      `stage` records; the retired `walk --hw-counters`,
#      `fmwalk cachecheck` and `fmwalk profile` exit 64 (unknown)
#  11. reproducer tier: each of the 14 paper-figure bins of `fm-bench`
#      at its default scale exits 0 and prints its table (about 20 s);
#      nothing reads their numbers; run from `crates/bench`, a bin
#      leaves no `target/` tree there
#  12. fmbench tier: the benchmark package's own tests (metric names
#      against BENCHMARK.json, estimator, span tiling, input pinning),
#      which no workspace command reaches because `benchmark/` is its
#      own workspace, and `fmbench smoke` — the four workloads, run and
#      traced, at test scale against their golden digests (about 1 s),
#      after one line naming the transparent-huge-page mode it ran under
#  13. clippy with warnings promoted to errors
# and ends with two tables: seconds per tier, and non-test source lines
# per crate (the lines above each file's `#[cfg(test)]`) — what the
# tooling costs to run and to read, next to what it checks.
# Run from the repository root: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

# `tier NAME` prints the tier's banner and closes the previous tier's
# row of the seconds table.
TIER_ROWS=()
TIER_NAME=""
tier() {
    if [[ -n "$TIER_NAME" ]]; then
        TIER_ROWS+=("$(printf '%-58s %7d' "$TIER_NAME" $((SECONDS - TIER_START)))")
    fi
    TIER_NAME="$1"
    TIER_START=$SECONDS
    echo "== $1 =="
}

tier "cargo build --release"
cargo build --release --workspace

tier "cargo test (tier-1 gate)"
# The enforced tier-1 gate: the whole workspace test suite must be
# green at HEAD.  Nothing is quarantined; a failing test fails CI.
cargo test -q --workspace

tier "fmwalk conform (oracle + golden traces)"
if [[ "${CONFORM_FULL:-0}" == "1" ]]; then
    cargo run --release -q -p fm-cli -- conform --full
else
    cargo run --release -q -p fm-cli -- conform --quick
fi

tier "ring tier (latency-hiding sample stage)"
# The quick conformance lattice again, with the walker ring forced to
# its maximum depth.  The ring must be invisible in the output: same
# golden digests, same cross-engine agreement, at any depth — for the
# walk programs as for the paper's algorithms.  The lattice's oocore
# cells (bi-block deepwalk, node2vec and ppr, whose budgets would
# otherwise resolve to depth 1) run at depth 16 here for free.
cargo run --release -q -p fm-cli -- conform --quick --ring-depth 16
# The hint-only stage in front of each first-order sample task (the
# partition stream) is gated on occupancy.  The lattice proves it
# bit-invisible only if its small graphs trip that guard: with the ring
# off, so that any hint counted is the stream's, at least one cell must
# report some.
RING_OFF="$(cargo run --release -q -p fm-cli -- conform --quick --ring-depth 1)"
grep -Eq '^partition stream: [1-9][0-9]* cells hinted' <<< "$RING_OFF" || {
    echo "ring tier: no lattice cell ran the partition stream" >&2; exit 1; }
# The lattice also says how many cells took a PS refill in reserved
# form.  It is dense (12 000 walkers on 96 vertices), so the engine's
# rule produces everywhere in it and the count is 0 by construction; the
# line must be there, and the sparse CLI walk below is where a reserved
# run is demanded.
grep -Eq '^reserved generations: [0-9]+ cells, [0-9]+ draws reserved' <<< "$RING_OFF" || {
    echo "ring tier: the lattice did not report its reserved generations" >&2; exit 1; }
# A dense walk through the CLI: the stream hints (and says so in
# --stats) with the ring off, the ring adds its own at depth 16, and
# the paths are the same bytes.
RING_TMP="$(mktemp -d)"
trap 'rm -rf "$RING_TMP"' EXIT
cargo run --release -q -p fm-cli -- synth power-law "$RING_TMP/g.bin" \
    --n 20000 --alpha 2.0 --min-degree 2 --max-degree 200 --seed 7 >/dev/null
for depth in 1 16; do
    cargo run --release -q -p fm-cli -- walk "$RING_TMP/g.bin" \
        --walkers 20000 --steps 8 --seed 11 --stats --ring-depth $depth \
        --output "$RING_TMP/ring$depth.txt" > "$RING_TMP/stats$depth.txt"
done
cmp "$RING_TMP/ring1.txt" "$RING_TMP/ring16.txt"
# The path file itself is pinned: WalkOutput::paths() and the CLI's path
# writer, byte for byte in a release build.
RING_CKSUM="$(cksum < "$RING_TMP/ring1.txt")"
[ "$RING_CKSUM" = "1055252307 979950" ] || {
    echo "ring tier: path file cksum $RING_CKSUM, pinned 1055252307 979950" >&2; exit 1; }
# First-order walks are the same bytes at any thread count, so the same
# walk at three threads runs the parallel shuffle passes (the bin lane
# and its in-place gather) in a release build and must cmp equal.
cargo run --release -q -p fm-cli -- walk "$RING_TMP/g.bin" \
    --walkers 20000 --steps 8 --seed 11 --threads 3 \
    --output "$RING_TMP/threads3.txt" >/dev/null
cmp "$RING_TMP/ring1.txt" "$RING_TMP/threads3.txt"
# node2vec has one sample stage at every thread count, whose workers
# draw each partition's stream in the one-thread order: its paths are
# the same bytes at one thread and at three.
for threads in 1 3; do
    cargo run --release -q -p fm-cli -- walk "$RING_TMP/g.bin" \
        --algo node2vec --p 2.0 --q 0.5 \
        --walkers 20000 --steps 8 --seed 11 --threads $threads \
        --output "$RING_TMP/n2v$threads.txt" >/dev/null
done
cmp "$RING_TMP/n2v1.txt" "$RING_TMP/n2v3.txt"
# The baselines' bytes are pinned too: KnightKing at one thread,
# GraphVite at three (per-thread generators, so another walk), paths
# and visit counts each.
for run in "knightking 1" "graphvite 3"; do
    read -r engine threads <<< "$run"
    cargo run --release -q -p fm-cli -- walk "$RING_TMP/g.bin" \
        --walkers 20000 --steps 8 --seed 11 --engine "$engine" --threads "$threads" \
        --output "$RING_TMP/$engine.txt" --visits "$RING_TMP/$engine-visits.txt" >/dev/null
done
for pin in "knightking.txt 1702932796 980002" "knightking-visits.txt 1706622867 152628" \
    "graphvite.txt 2127381036 980480" "graphvite-visits.txt 2582462215 152617"; do
    read -r file want <<< "$pin"
    got="$(cksum < "$RING_TMP/$file")"
    [ "$got" = "$want" ] || {
        echo "ring tier: $file cksum $got, pinned $want" >&2; exit 1; }
done
# A flag the chosen engine never reads is a plan error (exit 4), not
# silently ignored: --ring-depth or a non-dp --strategy under a
# baseline, a non-dp --strategy on an FMDISK1 graph, and checkpointing
# or fault injection under a baseline, which writes no checkpoints and
# reads no disk.  The engines refuse them, not the CLI, before any IO.
cargo run --release -q -p fm-cli -- disk "$RING_TMP/g.bin" "$RING_TMP/g.fmdisk" >/dev/null
for args in "g.bin --engine knightking --ring-depth 4 --strategy ups" "g.fmdisk --strategy ups" \
    "g.bin --engine knightking --checkpoint-dir $RING_TMP/refused-ck" \
    "g.bin --engine graphvite --fault-rate 0.1 --checkpoint-dir $RING_TMP/refused-ck"; do
    read -r graph flags <<< "$args"
    # shellcheck disable=SC2086  # $flags is a word list
    if cargo run --release -q -p fm-cli -- walk "$RING_TMP/$graph" $flags \
        --output "$RING_TMP/refused.txt" 2>/dev/null; then
        echo "ring tier: walk $args unexpectedly succeeded" >&2; exit 1
    else
        code=$?
        [[ "$code" == 4 ]] || { echo "ring tier: walk $args exited $code, want 4" >&2; exit 1; }
    fi
done
[[ ! -e "$RING_TMP/refused-ck" ]] || {
    echo "ring tier: a refused baseline walk wrote a checkpoint directory" >&2; exit 1; }
grep -Eq ': 0 by the walker ring, [1-9][0-9]* streaming partitions in' "$RING_TMP/stats1.txt" || {
    echo "ring tier: the dense walk at depth 1 did not report stream hints alone" >&2; exit 1; }
grep -Eq ': [1-9][0-9]* by the walker ring, [1-9][0-9]* streaming partitions in' \
    "$RING_TMP/stats16.txt" || {
    echo "ring tier: the dense walk at depth 16 did not report both kinds of hint" >&2; exit 1; }
# Reserved generations: a PS refill is produced (d(v) samples drawn into
# the buffer) or reserved (the generator skipped past them, each sample
# drawn when a walker asks), by walkers x steps left against the
# partition's edges.  A sparse walk (|V|/32 walkers) must reserve more
# than it produces, a dense one (|V|/2) must still produce, --stats must
# say which, and neither form may show in the paths, ring off or on.
for walkers in 625 10000; do
    for depth in 1 16; do
        cargo run --release -q -p fm-cli -- walk "$RING_TMP/g.bin" \
            --walkers $walkers --steps 8 --seed 11 --stats --ring-depth $depth \
            --output "$RING_TMP/ps$walkers-$depth.txt" > "$RING_TMP/psstats$walkers-$depth.txt"
    done
    cmp "$RING_TMP/ps$walkers-1.txt" "$RING_TMP/ps$walkers-16.txt"
done
pre_samples() {  # prints "produced reserved" of a --stats file
    sed -nE 's/^pre-samples: ([0-9]+) produced, ([0-9]+) reserved, .*/\1 \2/p' "$1"
}
read -r SPARSE_PRODUCED SPARSE_RESERVED <<< "$(pre_samples "$RING_TMP/psstats625-1.txt")"
read -r DENSE_PRODUCED _ <<< "$(pre_samples "$RING_TMP/psstats10000-1.txt")"
[[ "${SPARSE_RESERVED:-0}" -gt "${SPARSE_PRODUCED:-0}" ]] || {
    echo "ring tier: the sparse walk did not reserve more than it produced" >&2; exit 1; }
[[ "${DENSE_PRODUCED:-0}" -gt 0 ]] || {
    echo "ring tier: the dense walk produced no pre-samples" >&2; exit 1; }
# The reserving walk names its checked-skip kernel.  On a CPU with
# AVX-512 DQ it must be the wide one: a scalar fallback there would leave
# the ledger flat without failing anything else.
if grep -qw avx512dq /proc/cpuinfo 2>/dev/null; then
    WANT_KERNEL='16/8-lane avx512'
else
    WANT_KERNEL='(16/8-lane avx512|4-lane scalar)'
fi
grep -Eq "^checked skip: $WANT_KERNEL\$" "$RING_TMP/psstats625-1.txt" || {
    echo "ring tier: the sparse walk did not run the host's checked-skip kernel" \
        "($WANT_KERNEL): $(grep '^checked skip' "$RING_TMP/psstats625-1.txt")" >&2; exit 1; }

tier "telemetry tier"
# Overhead guard: enabled recorder within 5% of disabled.
cargo test -q --test telemetry_overhead
# End-to-end: synth a graph, walk with tracing, validate the emitted
# Chrome trace with the in-tree TEF checker.
TELEMETRY_TMP="$(mktemp -d)"
trap 'rm -rf "$RING_TMP" "$TELEMETRY_TMP"' EXIT
cargo run --release -q -p fm-cli -- synth ring "$TELEMETRY_TMP/g.bin" --n 4096 --degree 8
cargo run --release -q -p fm-cli -- walk "$TELEMETRY_TMP/g.bin" \
    --steps 12 --walkers 2048 --threads 2 \
    --trace "$TELEMETRY_TMP/trace.json" --metrics "$TELEMETRY_TMP/metrics.jsonl"
cargo run --release -q -p fm-cli -- trace-check "$TELEMETRY_TMP/trace.json"
# The JSON reader caps nesting: a deep nest is an invalid trace (exit
# 1), not a stack overflow (exit 134).
head -c 200000 /dev/zero | tr '\0' '[' > "$TELEMETRY_TMP/deep.json"
code=0
cargo run --release -q -p fm-cli -- trace-check "$TELEMETRY_TMP/deep.json" >/dev/null 2>&1 || code=$?
[[ $code -eq 1 ]] || { echo "trace-check on a deep nest exited $code, want 1" >&2; exit 1; }

tier "recover tier"
# Checkpoint a walk, then resume it from the written snapshots and
# demand bit-identical paths.  (The in-process crash matrix — kill at
# every generation, all engines, golden digests — runs in tier 2 via
# tests/recover_suite.rs and the conformance crash tests.)
RECOVER_TMP="$(mktemp -d)"
trap 'rm -rf "$RING_TMP" "$TELEMETRY_TMP" "$RECOVER_TMP"' EXIT
cargo run --release -q -p fm-cli -- synth power-law "$RECOVER_TMP/g.bin" \
    --n 4096 --alpha 2.0 --min-degree 2 --max-degree 64 --seed 11
cargo run --release -q -p fm-cli -- walk "$RECOVER_TMP/g.bin" \
    --steps 12 --walkers 2048 --seed 5 \
    --checkpoint-dir "$RECOVER_TMP/ckpt" --checkpoint-every 4 \
    --metrics "$RECOVER_TMP/metrics.jsonl" \
    --output "$RECOVER_TMP/full.txt"
# Checkpointing is an option of the one traced run, not a path of its
# own: the metrics carry the plan stage like any other walk's.
grep -q '"stage": "plan"' "$RECOVER_TMP/metrics.jsonl" || {
    echo "checkpointed walk's metrics have no plan stage record" >&2; exit 1; }
cargo run --release -q -p fm-cli -- resume "$RECOVER_TMP/g.bin" "$RECOVER_TMP/ckpt" \
    --steps 12 --walkers 2048 --seed 5 \
    --output "$RECOVER_TMP/resumed.txt"
cmp "$RECOVER_TMP/full.txt" "$RECOVER_TMP/resumed.txt"
# A mismatched resume configuration must exit 4 (invalid plan).
if cargo run --release -q -p fm-cli -- resume "$RECOVER_TMP/g.bin" "$RECOVER_TMP/ckpt" \
    --steps 12 --walkers 2048 --seed 6 --output /dev/null 2>/dev/null; then
    echo "resume with wrong seed unexpectedly succeeded" >&2; exit 1
else
    code=$?
    [[ "$code" == 4 ]] || { echo "wrong-seed resume exited $code, want 4" >&2; exit 1; }
fi
# The oocore tier's crash drill, in memory: halt deliberately after
# generation 2 under 15% injected checkpoint-write faults (exit 0 by
# contract), then resume under the same faults -- still checkpointing,
# the in-memory walk's only IO -- and demand the paths of the
# uninterrupted fault-free run, bit for bit.
DRILL_FLAGS="--steps 12 --walkers 2048 --seed 5 --checkpoint-dir $RECOVER_TMP/drill \
    --checkpoint-every 4 --fault-rate 0.15 --fault-seed 7"
cargo run --release -q -p fm-cli -- walk "$RECOVER_TMP/g.bin" $DRILL_FLAGS --halt-after 2 \
    --output /dev/null > "$RECOVER_TMP/halt.txt"
grep -q "halted deliberately" "$RECOVER_TMP/halt.txt" || {
    echo "deliberate in-memory halt did not report itself" >&2; exit 1; }
cargo run --release -q -p fm-cli -- resume "$RECOVER_TMP/g.bin" "$RECOVER_TMP/drill" \
    $DRILL_FLAGS --output "$RECOVER_TMP/drilled.txt"
cmp "$RECOVER_TMP/full.txt" "$RECOVER_TMP/drilled.txt"
# A persistent fault storm on the checkpoint writes must exhaust the
# bounded retries and exit 2 (IO error).
if cargo run --release -q -p fm-cli -- walk "$RECOVER_TMP/g.bin" \
    --steps 12 --walkers 2048 --seed 5 --checkpoint-dir "$RECOVER_TMP/storm" \
    --fault-rate 1.0 --output /dev/null 2>/dev/null; then
    echo "persistent-fault in-memory walk unexpectedly succeeded" >&2; exit 1
else
    code=$?
    [[ "$code" == 2 ]] || { echo "persistent-fault in-memory walk exited $code, want 2" >&2; exit 1; }
fi

tier "oocore tier (bi-block crash drill + fault transparency)"
# The quick conformance lattice above already chi-squares the
# oocore x {deepwalk, node2vec, ppr} bi-block cells against the exact
# oracles with their committed golden digests; this tier adds the fault
# and crash-consistency guarantees on top.
cargo test -q --test recover_suite ooc_transient_faults_are_absorbed_without_changing_output
# CLI crash drill, once per walker kind of the one bi-block loop
# (node2vec off the diagonal, DeepWalk on it): convert to FMDISK1, walk
# with the ring off and at depth 16, run under 15% injected faults with
# a deliberate mid-schedule halt (exit 0 by contract), then resume
# under the same faults and demand the output of the uninterrupted
# fault-free run, bit for bit.
OOC_TMP="$(mktemp -d)"
trap 'rm -rf "$RING_TMP" "$TELEMETRY_TMP" "$RECOVER_TMP" "$OOC_TMP"' EXIT
cargo run --release -q -p fm-cli -- synth power-law "$OOC_TMP/g.bin" \
    --n 2048 --alpha 2.0 --min-degree 2 --max-degree 64 --seed 11
cargo run --release -q -p fm-cli -- disk "$OOC_TMP/g.bin" "$OOC_TMP/g.fmdisk"
OOC_WALK="--walkers 512 --steps 8 --seed 5"
for ALGO in "node2vec --p 2.0 --q 0.5" deepwalk; do
    OOC_FLAGS="--algo $ALGO $OOC_WALK --oocore-budget 4096"
    DRILL="$OOC_TMP/${ALGO%% *}"
    mkdir -p "$DRILL"
    cargo run --release -q -p fm-cli -- walk "$OOC_TMP/g.fmdisk" $OOC_FLAGS \
        --output "$DRILL/full.txt"
    # The walker ring is invisible out of core too: the same FMDISK1
    # walked with the ring off and at its deepest writes the same paths,
    # and --stats shows the depth reached the loop (hints only at 16).
    for depth in 1 16; do
        cargo run --release -q -p fm-cli -- walk "$OOC_TMP/g.fmdisk" \
            $OOC_FLAGS --ring-depth $depth --stats --output "$DRILL/ring$depth.txt" \
            > "$DRILL/stats$depth.txt"
    done
    cmp "$DRILL/ring1.txt" "$DRILL/ring16.txt"
    cmp "$DRILL/full.txt" "$DRILL/ring16.txt"
    grep -q ', 0 ring prefetch hints$' "$DRILL/stats1.txt" || {
        echo "oocore tier: $ALGO at ring depth 1 issued ring hints" >&2; exit 1; }
    grep -Eq ', [1-9][0-9]* ring prefetch hints$' "$DRILL/stats16.txt" || {
        echo "oocore tier: $ALGO at ring depth 16 issued no ring hints" >&2; exit 1; }
    if cargo run --release -q -p fm-cli -- walk "$OOC_TMP/g.fmdisk" $OOC_FLAGS \
        --checkpoint-dir "$DRILL/ckpt" --checkpoint-every 3 --halt-after 2 \
        --fault-rate 0.15 --fault-seed 7 --output /dev/null; then
        : # --halt-after stops right after generation 2 and exits 0
    else
        echo "deliberate oocore $ALGO halt exited $?" >&2; exit 1
    fi
    cargo run --release -q -p fm-cli -- resume "$OOC_TMP/g.fmdisk" "$DRILL/ckpt" \
        $OOC_FLAGS --fault-rate 0.15 --fault-seed 7 \
        --output "$DRILL/resumed.txt"
    cmp "$DRILL/full.txt" "$DRILL/resumed.txt"
    # A resume under a different block budget must exit 4 (invalid
    # plan): the schedule cursor is only meaningful for the budget it
    # was cut for.
    if cargo run --release -q -p fm-cli -- resume "$OOC_TMP/g.fmdisk" "$DRILL/ckpt" \
        --algo $ALGO $OOC_WALK --oocore-budget 8192 --output /dev/null 2>/dev/null; then
        echo "wrong-budget oocore $ALGO resume unexpectedly succeeded" >&2; exit 1
    else
        code=$?
        [[ "$code" == 4 ]] || { echo "wrong-budget $ALGO resume exited $code, want 4" >&2; exit 1; }
    fi
done
# A persistent fault storm must exhaust the bounded retries and exit 2
# (IO error), never panic or spin.
if cargo run --release -q -p fm-cli -- walk "$OOC_TMP/g.fmdisk" $OOC_FLAGS \
    --fault-rate 1.0 --output /dev/null 2>/dev/null; then
    echo "persistent-fault oocore walk unexpectedly succeeded" >&2; exit 1
else
    code=$?
    [[ "$code" == 2 ]] || { echo "persistent-fault walk exited $code, want 2" >&2; exit 1; }
fi
# A truncated disk graph must exit 3 (corrupt input), never slice-panic.
OOC_SIZE="$(stat -c %s "$OOC_TMP/g.fmdisk")"
head -c $((OOC_SIZE - 7)) "$OOC_TMP/g.fmdisk" > "$OOC_TMP/trunc.fmdisk"
if cargo run --release -q -p fm-cli -- walk "$OOC_TMP/trunc.fmdisk" $OOC_FLAGS \
    --output /dev/null 2>/dev/null; then
    echo "truncated disk graph unexpectedly walked" >&2; exit 1
else
    code=$?
    [[ "$code" == 3 ]] || { echo "truncated-graph walk exited $code, want 3" >&2; exit 1; }
fi

tier "ingest tier (text and FMG1 decoders through the CLI)"
INGEST_TMP="$(mktemp -d)"
trap 'rm -rf "$RING_TMP" "$TELEMETRY_TMP" "$RECOVER_TMP" "$OOC_TMP" "$INGEST_TMP"' EXIT
printf '# comment\r\n0 1\r\n1\t2 0.5\n\n%% another \xff\n2 0' > "$INGEST_TMP/g.txt"
cargo run --release -q -p fm-cli -- convert "$INGEST_TMP/g.txt" "$INGEST_TMP/g.bin" >/dev/null
counts() { cargo run --release -q -p fm-cli -- stats "$1" | grep -E '^(vertices|edges) ' | tr -s ' '; }
for f in g.txt g.bin; do
    [[ "$(counts "$INGEST_TMP/$f")" == $'vertices 3\nedges 3' ]] || {
        echo "ingest: stats $f did not report |V| = 3, |E| = 3" >&2; exit 1; }
done
# Malformed input is the user's error (exit 1), located, never a panic.
rejects() { # <file> <fragment of the message>
    local out code=0
    out="$(cargo run --release -q -p fm-cli -- stats "$INGEST_TMP/$1" 2>&1)" || code=$?
    [[ "$code" == 1 ]] && grep -q "$2" <<< "$out" || {
        echo "ingest: $1 exited $code, want 1 and '$2': $out" >&2; exit 1; }
}
printf '0 1\n1 2\n2 x\n' > "$INGEST_TMP/bad.txt"
rejects bad.txt "line 3"
head -c $(($(stat -c %s "$INGEST_TMP/g.bin") - 3)) "$INGEST_TMP/g.bin" > "$INGEST_TMP/trunc.bin"
rejects trunc.bin "bad binary graph"
# Out-of-range argv: generator parameters are usage errors (64) refused
# before any graph is generated, never a generator panic (101) or a
# failed terabyte allocation (134); walk parameters outside the walk's
# domain are refused by every engine (4), in memory and out of core.
exits() { # <want> <fmwalk args...>
    local want="$1" code=0
    shift
    cargo run --release -q -p fm-cli -- "$@" >/dev/null 2>&1 || code=$?
    [[ "$code" == "$want" ]] || {
        echo "ingest: \`fmwalk $*\` exited $code, want $want" >&2; exit 1; }
}
exits 64 synth power-law "$INGEST_TMP/s.bin" --min-degree 50 --max-degree 10
exits 64 synth ws "$INGEST_TMP/s.bin" --n 100 --degree 3
exits 64 synth ring "$INGEST_TMP/s.bin" --n 8 --degree 8
exits 64 synth ba "$INGEST_TMP/s.bin" --n 10 --m 10
exits 64 synth rmat "$INGEST_TMP/s.bin" --scale 64
exits 64 synth rmat "$INGEST_TMP/s.bin" --scale 40
[[ ! -e "$INGEST_TMP/s.bin" ]] || { echo "ingest: a refused synth wrote a graph" >&2; exit 1; }
cargo run --release -q -p fm-cli -- disk "$INGEST_TMP/g.bin" "$INGEST_TMP/g.fmdisk" >/dev/null
# A refused parameter exits 4 and is named on stderr; it is the
# configuration's fault, not the planner's.
refuses() { # <fragment naming the parameter> <fmwalk args...>
    local want="$1" err code=0
    shift
    err="$(cargo run --release -q -p fm-cli -- "$@" 2>&1 >/dev/null)" || code=$?
    [[ "$code" == 4 ]] && grep -qF -- "$want" <<< "$err" && ! grep -q "partition planning" <<< "$err" || {
        echo "ingest: \`fmwalk $*\` exited $code, want 4 naming '$want': $err" >&2; exit 1; }
}
for graph in g.bin g.fmdisk; do
    refuses "p = 0" walk "$INGEST_TMP/$graph" --algo node2vec --p 0 --walkers 4 --steps 2
done
refuses "alpha" walk "$INGEST_TMP/g.fmdisk" --algo ppr --alpha 2 --walkers 4 --steps 2

tier "audit tier"
# Static scan, one mode: the textual lint catalogue (SAFETY comments,
# thread/IO discipline, cast-free codecs, unwrap ratchet) plus the call
# graph passes (determinism-taint, panic-reachability, rng-purity,
# fingerprint-completeness).  Any finding is an error — the scanner's
# own -D warnings.  Exit-code contract: 0 clean, 1 findings, 2 IO/config.
cargo run --release -q -p fm-cli -- audit
# One run entry per engine family: `run_with_stats`, `run_traced` and
# `run_ooc` are one-line spellings kept because benchmark/ calls them by
# name; nothing else may call them until benchmark/ moves off them.
spellings="$(grep -rnE '\b(run_with_stats|run_traced|run_ooc)\(' crates src tests examples \
    --include='*.rs' | grep -vE 'pub fn (run_with_stats|run_traced|run_ooc)\(' || true)"
[[ -z "$spellings" ]] || {
    echo "audit tier: a benchmark-only spelling has a caller outside benchmark/:" >&2
    echo "$spellings" >&2; exit 1; }
# The retired mode flag is unknown, with no alias.
code=0
cargo run --release -q -p fm-cli -- audit --graph >/dev/null 2>&1 || code=$?
[[ $code -eq 64 ]] || { echo "audit --graph exited $code, not 64" >&2; exit 1; }
# --json emits the machine-readable report and self-validates it
# against the documented schema (schema drift exits 2); check the
# stream is non-empty and carries the graph block too.
AUDIT_JSON="$(cargo run --release -q -p fm-cli -- audit --json)"
grep -q '"graph": {"functions": ' <<< "$AUDIT_JSON" || {
    echo "audit --json lost the graph stats block" >&2; exit 1; }
# The seeded bad workspace must trip every flow lint, exit with the
# findings code, and reproduce a full call path via --why.
BAD_WS=crates/audit/tests/fixtures/bad_ws
if cargo run --release -q -p fm-cli -- audit \
    --root "$BAD_WS" >/dev/null 2>&1; then
    echo "audit unexpectedly passed on the seeded bad workspace" >&2; exit 1
else
    code=$?
    [[ "$code" == 1 ]] || { echo "bad_ws audit exited $code, want 1" >&2; exit 1; }
fi
BAD_OUT="$(cargo run --release -q -p fm-cli -- audit --root "$BAD_WS" 2>&1 || true)"
for lint in determinism-taint panic-reachability rng-purity fingerprint-completeness; do
    grep -q "\[$lint\]" <<< "$BAD_OUT" || {
        echo "bad_ws audit did not fire $lint" >&2; exit 1; }
done
WHY_OUT="$(cargo run --release -q -p fm-cli -- audit --root "$BAD_WS" \
    --why hot_pick 2>&1 || true)"
grep -q "fn sample_partition (call at line" <<< "$WHY_OUT" || {
    echo "audit --why did not reproduce the bad_ws panic path" >&2; exit 1; }
# `.drain()` is a std method name; the receiver's stated type resolves
# it to the workspace's panicking `Stage::drain` all the same.
WHY_OUT="$(cargo run --release -q -p fm-cli -- audit --root "$BAD_WS" \
    --why Stage::drain 2>&1 || true)"
grep -q "fn sample_partition (call at line" <<< "$WHY_OUT" || {
    echo "audit --why did not reproduce the bad_ws typed-receiver path" >&2; exit 1; }
# `skip_chain` is never called by name: the sample loop hands it to
# `skip_on` as a value, which is a call edge all the same.
WHY_OUT="$(cargo run --release -q -p fm-cli -- audit --root "$BAD_WS" \
    --why skip_chain 2>&1 || true)"
grep -q "^\[panic-reachability\].*skip_chain" <<< "$WHY_OUT" \
    && grep -q "fn sample_partition (call at line" <<< "$WHY_OUT" || {
    echo "audit --why did not reproduce the bad_ws fn-value path" >&2; exit 1; }
# A nonexistent root is an IO error, not a findings failure: exit 2.
if cargo run --release -q -p fm-cli -- audit \
    --root /nonexistent-audit-root >/dev/null 2>&1; then
    echo "audit passed on a nonexistent root" >&2; exit 1
else
    code=$?
    [[ "$code" == 2 ]] || { echo "nonexistent-root audit exited $code, want 2" >&2; exit 1; }
fi
# Dynamic disjointness: the injected-overlap tests, then the full
# conformance quick lattice with every DisjointSlice claim interval-
# checked at pool epoch boundaries.
cargo test -q -p flashmob --features audit-disjoint --test audit_disjoint
cargo run --release -q -p fm-cli --features audit-disjoint -- conform --quick
# Env-gated nightly Miri pass over the snapshot codecs and the RNGs.
# Both crates contain zero unsafe code (see the fm-audit inventory), so
# this guards against UB creeping in, not known UB.  The third line is
# the out-of-core engine's one unsafe block, the u32 -> u8 view that
# DiskGraph::read_partition reads file words through.
if [[ "${AUDIT_MIRI:-0}" == "1" ]]; then
    if cargo +nightly miri --version >/dev/null 2>&1; then
        cargo +nightly miri test -p fm-recover wire:: crc:: snapshot::
        cargo +nightly miri test -p fm-rng
        cargo +nightly miri test -p flashmob --lib oocore::tests::words_as_bytes_mut
        echo "audit: miri-clean (fm-recover codecs + fm-rng + oocore byte view)"
    else
        echo "audit: AUDIT_MIRI=1 but cargo-miri is not installed; install" >&2
        echo "audit: with 'rustup +nightly component add miri' and re-run" >&2
        exit 1
    fi
else
    echo "audit: Miri tier skipped (set AUDIT_MIRI=1 on a nightly with miri)"
fi

tier "fault tier"
# Telemetry reads the process's page faults from /proc at each stage
# boundary: --stats prints them per stage and --metrics carries them on
# the run and stage records.  The PMU path they replaced is gone, with
# no alias.
cargo run --release -q -p fm-cli -- walk "$TELEMETRY_TMP/g.bin" \
    --steps 8 --walkers 1024 --stats --metrics "$TELEMETRY_TMP/m.jsonl" \
    > "$TELEMETRY_TMP/faults.txt"
grep -Eq '^  sample +faults [0-9]+ minor, [0-9]+ major; rss max [1-9][0-9]* KiB$' \
    "$TELEMETRY_TMP/faults.txt" || {
    echo "fault tier: --stats printed no sample-stage fault line" >&2; exit 1; }
for kind in run stage; do
    grep -q "\"kind\": \"$kind\".*\"minor_faults\": [0-9]" "$TELEMETRY_TMP/m.jsonl" || {
        echo "fault tier: no $kind record carries minor_faults" >&2; exit 1; }
done
for retired in "walk $TELEMETRY_TMP/g.bin --hw-counters" "cachecheck --quick" \
    "profile --quick"; do
    code=0
    # shellcheck disable=SC2086  # word-split the command on purpose
    cargo run --release -q -p fm-cli -- $retired >/dev/null 2>&1 || code=$?
    [[ $code -eq 64 ]] || {
        echo "fault tier: \`fmwalk $retired\` exited $code, not 64" >&2; exit 1; }
done

tier "reproducer tier (the 14 paper-figure bins)"
# Each `fm-bench` bin regenerates one table or figure of the paper at
# its default (test) scale; `ablate_cache_arch` also prints the three
# wall-clock ablations EXPERIMENTS.md cites.  They are reproducers: a
# bin must exit 0 and print a ruled table with rows under it, and
# nothing compares the numbers.
for src in crates/bench/src/bin/*.rs; do
    bin="$(basename "$src" .rs)"
    out="$(cargo run --release -q -p fm-bench --bin "$bin")"
    [[ "$(grep -A1 '^---' <<< "$out" | grep -c '[0-9]')" -ge 1 ]] || {
        echo "reproducer tier: $bin printed no table" >&2; exit 1; }
done
# Scratch files (the analog cache, ext_out_of_core's .fmdisk) are
# anchored to the workspace's target/, not to the cwd: run from the
# crate's own directory, a bin must leave no target/ tree there.
rm -rf crates/bench/target
(cd crates/bench && ../../target/release/ext_out_of_core >/dev/null)
[[ ! -e crates/bench/target ]] || {
    echo "reproducer tier: ext_out_of_core left crates/bench/target behind" >&2; exit 1; }

tier "fmbench tier (benchmark tests + smoke)"
# `benchmark/` is a workspace of its own, so the tier-1 command never
# builds it: a change that breaks a function the benchmark calls, or a
# golden digest, would otherwise first show when the driver runs it.
# The timing gate is the driver's parent-vs-change run of
# BENCHMARK.json; ci.sh adds no second one.
# The big arrays are advised onto huge pages (DESIGN §23), so every
# number below ran under this page regime: print it (read only).
thp=/sys/kernel/mm/transparent_hugepage/enabled
echo "transparent huge pages: $(cat "$thp" 2>/dev/null || echo unavailable)"
cargo test --release -q --manifest-path benchmark/Cargo.toml
cargo run --release -q --manifest-path benchmark/Cargo.toml -- smoke

tier "cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

tier "summary"
printf '%-58s %7s\n' "tier" "seconds"
printf '%s\n' "${TIER_ROWS[@]}"
printf '%-58s %7s\n' "crate" "lines"
for src in ./src crates/*/src benchmark/src; do
    lines="$(find "$src" -name '*.rs' -print0 | xargs -0 awk '
        FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests { n++ }
        END { print n + 0 }')"
    printf '%-58s %7d\n' "${src%/src}" "$lines"
done

echo "CI OK"
