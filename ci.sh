#!/usr/bin/env bash
# Local CI gate: formatting, lints, release build, full test suite, the
# paper-evaluation smoke run and the benchmark's quick run. Every assertion
# about behaviour lives in a test that `cargo test --workspace` runs; this
# script adds only what a test cannot check. All dependencies are vendored
# in-tree, so everything runs offline.
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

echo "==> cargo clippy (panic-free library tier)"
# Fault injection must end in a typed error, never a panic: the crates a
# faulted read or a hostile config passes through hold no unwrap/expect in
# library code.
cargo clippy -p sdj-geom -p sdj-obs -p sdj-storage -p sdj-pqueue -p sdj-core -p sdj-service \
    -p sdj-query -p sdj-exec \
    --lib --no-deps --offline -- \
    -D warnings -D clippy::unwrap_used -D clippy::expect_used

echo "==> library crates and the harness read no environment"
# Configuration reaches the engines as plain data from the call site; a
# library that consults the process environment cannot be configured per
# query, and cannot be benchmarked without scrubbing it first. sdj-report
# and exp take flags for the same reason: a command line shows every knob it
# ran with.
if grep -rn 'std::env::var' crates/core/src crates/service/src crates/exec/src \
    crates/bench/src; then
    echo "crates/{core,service,exec,bench}/src must not read the environment" >&2
    exit 1
fi

echo "==> cargo build --release"
cargo build --release --workspace --offline

echo "==> cargo test"
cargo test --workspace --offline -q

echo "==> profile conservation (release, wall clock)"
# The profile's phase self-times must fit the wall x lanes budget with 25 %
# slack. The bound reads sampled wall-clock time, so its test is #[ignore]d
# in the workspace run and made here once, in release.
cargo test --release --offline -q -p sdj-bench --test report -- --ignored

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

echo "==> benchmark gate"
# benchmark/ is a stand-alone package outside the workspace (its own
# Cargo.lock and target directory), so none of the steps above compile it
# and an API change in crates/* could break it unnoticed. Its `quick`
# subcommand runs all five workloads at 1/20 scale, checks every metric is
# emitted and finite and every stream verifies, and exits non-zero
# otherwise; only the log's tail is shown, since the numbers of a
# scaled-down run mean nothing. It refuses to start while any SDJ_* variable
# is set, and one may be left in the caller's environment, so the variables
# are dropped for this one command.
mapfile -t sdj_vars < <(compgen -e | grep '^SDJ_' || true)
env "${sdj_vars[@]/#/-u}" \
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- quick | tail -n 2

echo "CI OK"
