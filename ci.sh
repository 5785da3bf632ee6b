#!/usr/bin/env bash
# Local CI gate: formatting, lints, release build, full test suite.
# All dependencies are vendored in-tree, so everything runs offline.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo clippy (geom kernels: suboptimal_flops)"
# The distance kernels are the arithmetic hot path; hold them to the
# stricter floating-point lint tier.
cargo clippy -p sdj-geom --all-targets --no-deps --offline -- \
    -D warnings -D clippy::suboptimal_flops

echo "==> library crates and the harness read no environment"
# Configuration reaches the engines as plain data from the call site; a
# library that consults the process environment cannot be configured per
# query, and cannot be benchmarked without scrubbing it first. sdj-report
# and exp take flags for the same reason: a CI line shows every knob it ran
# with.
if grep -rn 'std::env::var' crates/core/src crates/service/src crates/exec/src \
    crates/bench/src; then
    echo "crates/{core,service,exec,bench}/src must not read the environment" >&2
    exit 1
fi

echo "==> cargo build --release"
cargo build --release --workspace --offline

echo "==> cargo test"
cargo test --workspace --offline -q

echo "==> paper evaluation smoke gate"
# One exp invocation regenerates every table and figure of the paper's §4
# at 1 % scale (about two seconds). It must exit zero and write each
# artefact's table; the event logs' completeness is sdj-bench's exp test.
exp_out="$(mktemp -d)"
artefacts=(table1 fig6 fig7 fig8 fig9 fig10 swap_order alt_join alt_semijoin ablation)
if ! ./target/release/exp "${artefacts[@]}" --scale 0.01 --out "$exp_out" \
    2> "$exp_out/exp.log"; then
    cat "$exp_out/exp.log" >&2
    exit 1
fi
for a in "${artefacts[@]}"; do
    if [ ! -s "$exp_out/$a.txt" ]; then
        echo "exp $a wrote no $a.txt" >&2
        exit 1
    fi
done
rm -rf "$exp_out"

echo "==> kernel-equivalence smoke gate"
# Batched SoA distance kernels must match the scalar bound functions
# (<= 1 ulp, every metric, 2-D and 3-D), and every KeyDomain x
# ExpansionPath combination must emit the identical result stream.
cargo test -p sdj-geom --offline -q --test kernel_equivalence
cargo test -p sdj-core --offline -q --test key_domain

echo "==> estimator gate"
# The §2.2.4 maximum-distance estimator (slab + addressable max-heap; a
# dequeued pair finds its member through the slot its queue entry carries)
# must follow the sorted-map reference model's d_max trajectory bit for bit
# after every call. Pruning reads nothing else from it, so an identical
# trajectory means identical result streams and identical counters. The
# proptest drives both models with random call sequences under the join's
# slot contract (ties, u64-scale counts, evicted members whose slots other
# pairs reuse, never-offered pairs, barred nodes, reports past K); the unit
# tests pin a stale reused slot and the u32 slot ceiling; the backend matrix
# runs K-bounded joins and a semi-join on the three queue cells (memory flat,
# memory pairing, spilling hybrid) and requires identical streams and counters
# (the two memory cells also compact their queue against the estimate, and
# must drop the same pairs); the adaptive unit test requires a compacting run to record
# the replan signals of one that keeps every pair; the root test runs
# tie-heavy K-bounded joins and a semi-join against the brute-force baselines.
cargo test -p sdj-core --offline -q --lib estimate::tests::equivalence
cargo test -p sdj-core --offline -q --lib estimate::tests::a_stale_slot_reused_by_another_pair_removes_nothing
cargo test -p sdj-core --offline -q --lib estimate::tests::members_past_the_slot_ceiling_are_refused
cargo test -p sdj-core --offline -q --test correctness estimator_slots_survive_every_queue_backend
cargo test -p sdj-core --offline -q --lib adaptive::tests::compaction_leaves_replan_signals_unchanged
cargo test --offline -q --test end_to_end k_bounded_joins_with_distance_ties_agree_with_baselines

echo "==> storage concurrency smoke gate"
# The sharded buffer pool must stay observationally equivalent to the
# historical single-lock pool: clippy-clean storage crate, the
# model-equivalence + pin/evict proptests, the multi-thread pin/evict
# stress test, and bit-identical join streams across shard counts {1,4}
# (covered inside parallel_equivalence alongside thread counts).
cargo clippy -p sdj-storage --all-targets --offline -- -D warnings
cargo test -p sdj-storage --offline -q --test pin_evict
cargo test -p sdj-storage --offline -q --test pin_evict threaded_pin_evict_stress
cargo test -p sdj-exec --offline -q --test parallel_equivalence shard_counts_are_stream_invisible
cargo test -p sdj-exec --offline -q --test parallel_equivalence prefetch_is_stream_invisible_and_conserves_io

echo "==> fail-clean chaos gate"
# Fault injection must never panic and never corrupt the result stream:
# storage, pqueue, core and the session service hold the panic-free lint
# tier (no unwrap/expect in library code), the fuzzed fault-schedule
# proptests assert the prefix-or-identical invariant for serial and parallel
# runs, and a seeded end-to-end report run under transient faults must
# complete bit-identically with retries recorded in the report. The seed
# pins one deterministic schedule, so this gate is reproducible (see README:
# --fault-seed).
cargo clippy -p sdj-storage -p sdj-pqueue -p sdj-core -p sdj-service \
    --lib --no-deps --offline -- \
    -D warnings -D clippy::unwrap_used -D clippy::expect_used
cargo test -p sdj-storage --offline -q fault
cargo test -p sdj-core --offline -q --test chaos
cargo test -p sdj-exec --offline -q --test chaos_parallel
./target/release/sdj-report --fault-seed 1998 --fault-rate 0.2 \
    --n 2000 --k 300 --out results/RunReport_chaos.json
./target/release/sdj-report --check results/RunReport_chaos.json \
    --expect-drain --expect-retries

echo "==> planner / bulk-path gate"
# The bulk partition/plane-sweep path must stay multiset-equal to the
# incremental engine (bit-identical ordered streams), and the cost-based
# planner's choice must be recorded in reports and overridable. Worker-count
# invariance is a property of BulkDistanceJoin itself: its one sweep method
# runs inline or over a scoped pool, and bulk_parallel pins the stream and
# every counter across worker counts. The lane kernels ride the geom
# suboptimal_flops gate above (sdj-geom --all-targets covers them).
cargo test -p sdj-core --offline -q --test bulk_equivalence
cargo test -p sdj-exec --offline -q --test bulk_parallel
./target/release/sdj-report --n 3000 --k 200 --force-plan bulk \
    --out results/RunReport_bulk.json
./target/release/sdj-report --check results/RunReport_bulk.json --expect-plan bulk

echo "==> observability smoke gate"
# The engine counts in plain fields and publishes to the registry only at
# its pop-sampling stride, at the end of the stream and on drop: the named
# root suite proves a live registry lags and a dropped join's registry
# agrees with JoinStats exactly, and that bare and instrumented twins emit
# identical streams and identical JoinStats (K-bounded join, semi-join,
# hybrid queue). A small instrumented join must then produce a schema-valid
# RunReport whose rank curve is monotone, whose queue curve grows then
# drains, and whose pass-1 counters account for every enqueued pair as
# dequeued, discarded or still queued.
cargo test --offline -q --test observability
./target/release/sdj-report --n 4000 --k 800 --threads 2 \
    --out results/RunReport_ci.json --events results/RunReport_ci.ndjson
./target/release/sdj-report --check results/RunReport_ci.json --expect-drain

echo "==> profiling gate"
# An instrumented run must carry the EXPLAIN-ANALYZE profile: a non-empty
# per-phase span table whose self-times conserve against the lane budget,
# plus a well-formed planner calibration section. Profiling must be a pure
# observer: streams stay bit-identical with spans off/sampled/always
# (proptested). What instrumentation costs is measured by the benchmark's
# traced runs (obs.trace_overhead_ratio), not gated on a wall clock here.
# The run is sized to last a few hundred milliseconds: on a shorter one, a
# single sampled span times its stride can exceed the 25 % slack alone.
cargo test -p sdj-core --offline -q --test profiling_invariance
./target/release/sdj-report --n 100000 --k 50000 \
    --out results/RunReport_profile.json --profile
./target/release/sdj-report --check results/RunReport_profile.json \
    --expect-drain --expect-profile

echo "==> adaptive replanning gate"
# The adaptive path must stay invisible in the result stream: the forced
# equivalence proptests (arbitrary handoff checkpoints, bit-identical
# ordered streams, multiset equality, fail-clean under faults) must pass,
# and a forced-adaptive report run must record the executed path. The
# second run pins a deterministic mid-query handoff via
# --adaptive-force-at and requires the single incremental→bulk switch
# to land in the report (plan.replans / plan.replan_at_pair).
cargo test -p sdj-core --offline -q --test adaptive_equivalence
./target/release/sdj-report --n 3000 --k 500 --force-plan adaptive \
    --out results/RunReport_adaptive.json
./target/release/sdj-report --check results/RunReport_adaptive.json \
    --expect-plan adaptive
./target/release/sdj-report --n 3000 --k 500 --force-plan adaptive \
    --adaptive-force-at 200 --out results/RunReport_adaptive_handoff.json
./target/release/sdj-report --check results/RunReport_adaptive_handoff.json \
    --expect-plan adaptive --expect-replans 1

echo "==> queue-layout gate"
# Three queue cells remain: the memory backend in the flat 4-ary layout (the
# default) or the paper's pairing heap, and the hybrid queue, whose in-memory
# tiers are one flat heap. The in-memory PairingHeap is the model for the
# rest: the hybrid queue must pop its (key, value) sequence exactly across
# heap-only, list-heavy and spilling schedules with its tier gauges summing
# to its length (layout_equivalence's
# hybrid_pops_like_pairing_heap_and_gauges_account_for_every_element and
# spill_reload_cycle_matches_pairing_heap, and the unit proptest below);
# the flat heap must match it across the 24-bit tag wrap and drop the same
# entries on retain; the join queue's cells must agree on join-shaped
# pop/peek/drain/discard-above-a-bound sequences and hand every estimator
# slot back, with an arena that is empty whenever the queue is; and every
# engine must emit one stream on all three cells. A pairing-layout report run must produce the
# same pair counts as the default flat run while recording a non-zero
# pq.bytes high-water mark equal to the engine's queue_bytes_peak. A hybrid
# queue in the pairing layout, or with an unusable spill area, is a typed
# config error, never a panic.
cargo test -p sdj-pqueue --offline -q --test layout_equivalence
cargo test -p sdj-pqueue --offline -q --lib hybrid::tests::pops_like_a_pairing_heap
cargo test -p sdj-pqueue --offline -q --lib flat::tests::retain_matches_pairing_retain
cargo test -p sdj-core --offline -q --lib queue::tests
cargo test -p sdj-core --offline -q --lib config::tests::invalid_configs_are_typed_errors
cargo test -p sdj-exec --offline -q --test parallel_equivalence flat_layout_is_stream_invisible_across_engines_and_backends
./target/release/sdj-report --n 4000 --k 800 \
    --out results/RunReport_queue_flat.json
./target/release/sdj-report --queue-layout pairing --n 4000 --k 800 \
    --out results/RunReport_queue_pairing.json
./target/release/sdj-report --check results/RunReport_queue_pairing.json \
    --expect-drain --expect-queue-bytes \
    --expect-pairs-match results/RunReport_queue_flat.json

echo "==> session service gate"
# The cursor-session service must stay invisible in every result stream:
# interleaved/paused/resumed/budgeted sessions emit bit-identical streams
# to solo runs and cancellation leaks nothing (fuzzed-schedule proptests),
# a config no engine can run (bad bounds, a pairing-layout or hostile
# hybrid queue) is refused at open with a typed error that returns its
# admission slot (one bad query must not take down a serving process),
# and a 4-session interleaved report run must attribute each session's
# share of the shared buffer pool in the report's sessions rows.
cargo test -p sdj-service --offline -q --test session_equivalence
cargo test -p sdj-service --offline -q --test session_equivalence \
    invalid_configs_are_typed_errors_and_open_sessions_keep_streaming
./target/release/sdj-report --n 4000 --k 400 --sessions 4 \
    --out results/RunReport_sessions.json
./target/release/sdj-report --check results/RunReport_sessions.json \
    --expect-drain --expect-sessions 4

echo "==> benchmark gate"
# benchmark/ is a stand-alone package outside the workspace (its own
# Cargo.lock and target directory), so none of the steps above compile it
# and an API change in crates/* could break it unnoticed. Build it and run
# its `quick` subcommand: all five workloads at 1/20 scale, every metric
# name emitted and finite, every stream verified against the other engine
# and the brute-force baselines; it exits non-zero otherwise. The per-metric
# lines go to the log's tail only — the numbers of a scaled-down run mean
# nothing. The benchmark refuses to start while any SDJ_* variable is set,
# and one may be left in the caller's environment, so the variables are
# dropped for this one command.
mapfile -t sdj_vars < <(compgen -e | grep '^SDJ_' || true)
env "${sdj_vars[@]/#/-u}" \
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- quick | tail -n 2

echo "CI OK"
