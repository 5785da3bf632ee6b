//! `sdj-report`: run an instrumented distance join and emit a
//! schema-versioned [`RunReport`].
//!
//! Joins two uniform `n`-point sets in two passes — the `k` closest pairs,
//! then a drain of the proven distance range — plus, with `--sessions N`, a
//! pass of `N` interleaved cursor sessions (see [`sdj_bench::report`]).
//! Writes the report atomically to `--out`, optionally logs every event as
//! NDJSON to `--events`, and prints the queue-size and distance-by-rank
//! series as sparklines; `--profile` adds the EXPLAIN-ANALYZE phase table.
//! The shapes a report must show are asserted by `sdj-bench`'s `report`
//! tests, on reports built in process.
//!
//! The tool reads no environment: `--fault-seed` (with `--fault-rate`,
//! `--fault-retries`) turns on chaos mode, a deterministic transient-fault
//! schedule on both buffer pools.

use std::process::ExitCode;
use std::str::FromStr;

use sdj_bench::report::{build, ReportSpec};
use sdj_core::PlanChoice;
use sdj_obs::{sparkline, ProfileSection, RunReport};

fn parse_args() -> ReportSpec {
    fn number<T: FromStr>(flag: &str, value: &str) -> T {
        value
            .parse()
            .unwrap_or_else(|_| panic!("{flag} takes a number, got {value}"))
    }
    let mut spec = ReportSpec::default();
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--profile" {
            spec.profile = true;
            continue;
        }
        let value = argv
            .next()
            .unwrap_or_else(|| panic!("{flag} takes a value"));
        match flag.as_str() {
            "--n" => spec.n = number(&flag, &value),
            "--k" => spec.k = number(&flag, &value),
            "--threads" => spec.threads = number(&flag, &value),
            "--out" => spec.out = value,
            "--events" => spec.events = Some(value),
            "--label" => spec.label = value,
            "--force-plan" => {
                let plan = PlanChoice::ALL.into_iter().find(|p| p.as_str() == value);
                spec.force_plan = Some(plan.unwrap_or_else(|| {
                    panic!("--force-plan takes incremental|bulk|adaptive, got {value}")
                }));
            }
            "--sessions" => spec.sessions = Some(number(&flag, &value)),
            "--fault-seed" => spec.fault_seed = Some(number(&flag, &value)),
            "--fault-rate" => spec.fault_rate = number(&flag, &value),
            "--fault-retries" => spec.fault_retries = number(&flag, &value),
            other => panic!(
                "unknown argument {other} (expected --n/--k/--threads/--out/--events/\
                 --profile/--label/--force-plan/--sessions/\
                 --fault-seed/--fault-rate/--fault-retries)"
            ),
        }
    }
    spec
}

fn run(spec: &ReportSpec) -> Result<(), String> {
    let report = build(spec)?;
    if let Some(dir) = std::path::Path::new(&spec.out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {dir:?}: {e}"))?;
        }
    }
    report
        .write_atomic(&spec.out)
        .map_err(|e| format!("write {}: {e}", spec.out))?;

    let plan = report
        .calibration
        .as_ref()
        .map_or("?", |c| c.choice.as_str());
    let queue: Vec<f64> = report.queue_series.iter().map(|p| p.1 as f64).collect();
    let dists: Vec<f64> = report.distance_by_rank.iter().map(|p| p.1).collect();
    println!(
        "run: {} (n={}, k={}, threads={}, plan={plan})",
        spec.label, spec.n, spec.k, spec.threads
    );
    println!(
        "queue size over drain   {}  (peak {})",
        sparkline(&queue, 60),
        report.queue_series.iter().map(|p| p.1).max().unwrap_or(0)
    );
    println!(
        "distance by rank        {}  (d_K = {:.6})",
        sparkline(&dists, 60),
        report.workload("dmax").unwrap_or(0.0)
    );
    println!(
        "grow-then-drain: {}, events: {}, wrote {}",
        report.grow_then_drain(),
        report.events_recorded,
        spec.out
    );
    for s in &report.sessions {
        println!(
            "session {:>2} [{}] plan={} results={} batches={} buf.hits={} buf.misses={}",
            s.id,
            s.label,
            s.plan,
            s.results,
            s.batches,
            s.counter("buf.hits"),
            s.counter("buf.misses"),
        );
    }
    if spec.profile {
        if let Some(p) = &report.profile {
            render_profile(p, &report);
        }
    }
    Ok(())
}

/// Prints the per-phase EXPLAIN-ANALYZE table (the `--profile` flag).
fn render_profile(p: &ProfileSection, report: &RunReport) {
    let wall_ns = p.wall_seconds * 1e9;
    println!();
    println!(
        "profile: wall {:.3}s, budget {} lane(s), attributed {:.1}% of wall \
         ({:.1}% of budget)",
        p.wall_seconds,
        p.threads,
        p.attributed_ns() / wall_ns.max(1e-9) * 100.0,
        p.attributed_fraction() * 100.0
    );
    println!(
        "{:<11} {:>12} {:>9} {:>12} {:>7} {:>9} {:>9} {:>9} {:>9} {:>11}",
        "phase", "calls", "sampled", "est total", "% wall", "ns/call", "p50", "p95", "p99", "max"
    );
    for row in &p.phases {
        println!(
            "{:<11} {:>12} {:>9} {:>10.3}ms {:>6.1}% {:>9.0} {:>9.0} {:>9.0} {:>9.0} {:>11}",
            row.phase,
            row.calls,
            row.sampled_calls,
            row.est_total_ns / 1e6,
            row.est_total_ns / wall_ns.max(1e-9) * 100.0,
            row.ns_per_call(),
            row.p50_ns,
            row.p95_ns,
            row.p99_ns,
            row.max_ns,
        );
    }
    // Queue memory next to the queue_pop/queue_push self-times: the
    // layout's footprint at the queue's element high-water mark.
    let (bytes_peak, max_queue) = (
        report.counter("queue_bytes_peak"),
        report.counter("max_queue"),
    );
    if bytes_peak > 0 {
        println!(
            "queue memory: {} bytes peak, {:.1} bytes/queued pair at high-water {}",
            bytes_peak,
            bytes_peak as f64 / max_queue.max(1) as f64,
            max_queue
        );
    }
    if let Some(c) = &report.calibration {
        println!(
            "calibration: chose {}{}, predicted cost ratio {:.3} \
             (incremental {:.0} vs bulk {:.0}), observed {:.3}s for {} pairs",
            c.choice,
            if c.forced { " [forced]" } else { "" },
            c.predicted_ratio,
            c.est_incremental,
            c.est_bulk,
            c.observed_seconds,
            c.observed_pairs
        );
    }
    // The adaptive path's mid-query switch, if one fired: which result rank
    // the incremental engine had reached when the frontier was handed to
    // the bulk executor.
    let replans = report.workload("plan.replans").unwrap_or(0.0);
    if replans >= 1.0 {
        println!(
            "replan: incremental→bulk @ pair {:.0} ({replans:.0} switch(es))",
            report.workload("plan.replan_at_pair").unwrap_or(0.0),
        );
    }
}

fn main() -> ExitCode {
    match run(&parse_args()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sdj-report: {e}");
            ExitCode::FAILURE
        }
    }
}
