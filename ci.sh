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

echo "==> library crates and sdj-report read no environment"
# Configuration reaches the engines as plain data from the call site; a
# library that consults the process environment cannot be configured per
# query, and cannot be benchmarked without scrubbing it first. sdj-report
# takes flags for the same reason: a CI line shows every knob it ran with.
if grep -rn 'std::env::var' crates/core/src crates/service/src crates/exec/src \
    crates/bench/src/bin/sdj_report.rs; then
    echo "crates/{core,service,exec}/src and sdj-report must not read the environment" >&2
    exit 1
fi

echo "==> cargo build --release"
cargo build --release --workspace --offline

echo "==> cargo test"
cargo test --workspace --offline -q

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
# runs K-bounded joins and a semi-join on every queue backend x layout, the
# hybrid ones spilling, and requires identical streams and counters; the root
# test runs tie-heavy K-bounded joins and a semi-join against the brute-force
# baselines.
cargo test -p sdj-core --offline -q --lib estimate::tests::equivalence
cargo test -p sdj-core --offline -q --lib estimate::tests::a_stale_slot_reused_by_another_pair_removes_nothing
cargo test -p sdj-core --offline -q --lib estimate::tests::members_past_the_slot_ceiling_are_refused
cargo test -p sdj-core --offline -q --test correctness estimator_slots_survive_every_queue_backend
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
# RunReport whose rank curve is monotone and whose queue curve grows then
# drains.
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
cargo test -p sdj-core --offline -q --test profiling_invariance
./target/release/sdj-report --n 20000 --k 5000 \
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
# The flat 4-ary layout is the default; the paper's pairing heap stays
# selectable and must stay interchangeable with it: the cross-layout
# proptests (pop streams across tiers and the 24-bit tag wrap, tier gauge
# conservation, spill round-trips, an arena that is empty whenever the
# queue is) must pass, and a pairing-layout report run must produce the
# same pair counts as the default flat run while recording a non-zero
# pq.bytes high-water mark equal to the engine's queue_bytes_peak.
cargo test -p sdj-pqueue --offline -q --test layout_equivalence
cargo test -p sdj-core --offline -q --lib queue::tests
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
# a kind-confused queue pair must decode to a typed Corrupt error rather
# than a panic (one corrupt query must not take down a serving process),
# and a 4-session interleaved report run must attribute each session's
# share of the shared buffer pool in the report's sessions rows.
cargo test -p sdj-service --offline -q --test session_equivalence
cargo test -p sdj-core --offline -q --test chaos kind_confused_pair_decodes_to_error_or_honest_kinds
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
