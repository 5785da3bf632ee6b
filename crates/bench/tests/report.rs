//! The shapes a `sdj-report` run must show, asserted on the [`RunReport`]
//! the run builds in process: Figure 6's grow-then-drain queue with every
//! enqueued pair accounted for (§2.2, §4.1), chaos retries, the recorded
//! plan and a forced replan, queue bytes, layout invariance and per-session
//! pool attribution. One binary smoke test covers the flags and the files.

use std::process::Command;

use sdj_bench::report::{build, ReportSpec};
use sdj_core::{PlanChoice, QueueLayout};
use sdj_obs::RunReport;

/// Builds the report `spec` describes and makes the checks every report
/// must pass: a valid schema, counters, and a rank curve.
fn report(spec: &ReportSpec) -> RunReport {
    let report = build(spec).unwrap_or_else(|e| panic!("{spec:?}: {e}"));
    report.validate().expect("valid report");
    assert!(!report.counters.is_empty(), "no counters recorded");
    assert!(
        !report.distance_by_rank.is_empty(),
        "empty distance_by_rank series"
    );
    report
}

/// Pass 2's queue grows then drains (Figure 6), and pass 1 accounts for
/// every enqueued pair as dequeued, discarded by compaction, or still
/// queued. A replan hands the queued frontier to the bulk path uncounted,
/// so a run that replanned is exempt from the second check.
fn assert_drains(report: &RunReport) {
    assert!(
        report.grow_then_drain(),
        "queue series is not grow-then-drain ({} points)",
        report.queue_series.len()
    );
    if report.workload("plan.replans").unwrap_or(0.0) >= 1.0 {
        return;
    }
    let c = |name| report.counter(name);
    assert_eq!(
        c("pairs_enqueued"),
        c("pairs_dequeued") + c("pairs_discarded") + c("queue_len"),
        "pairs_enqueued != pairs_dequeued + pairs_discarded + queue_len"
    );
}

/// The report records `expected` as the executed path, both as the
/// `plan.choice` workload code and as the per-path counter.
fn assert_plan(report: &RunReport, expected: PlanChoice) {
    assert_eq!(
        report.workload("plan.choice"),
        Some(f64::from(expected.code())),
        "plan.choice"
    );
    assert!(
        report.counter(&format!("plan.{expected}")) > 0,
        "plan.{expected} counter not recorded"
    );
}

#[test]
fn chaos_run_drains_and_records_retries() {
    let report = report(&ReportSpec {
        n: 2000,
        k: 300,
        fault_seed: Some(1998),
        fault_rate: 0.2,
        ..ReportSpec::default()
    });
    assert_drains(&report);
    let sum = |suffix: &str| -> u64 {
        report
            .counters
            .iter()
            .filter(|(name, _)| name.ends_with(suffix))
            .map(|(_, v)| v)
            .sum()
    };
    let (faults, retries) = (sum(".faults"), sum(".retries"));
    assert!(
        faults > 0 && retries > 0,
        "expected injected faults and successful retries, got faults={faults} retries={retries}"
    );
}

#[test]
fn forced_bulk_plan_is_recorded_with_cells_and_sweeps() {
    let report = report(&ReportSpec {
        n: 3000,
        k: 200,
        force_plan: Some(PlanChoice::Bulk),
        ..ReportSpec::default()
    });
    assert_plan(&report, PlanChoice::Bulk);
    assert!(report.counter("bulk.cells") > 0, "no bulk cells");
    assert!(
        report.counter("bulk.cell_pairs_swept") > 0,
        "no swept cell pairs"
    );
}

#[test]
fn two_thread_run_drains() {
    let report = report(&ReportSpec {
        n: 4000,
        k: 800,
        threads: 2,
        ..ReportSpec::default()
    });
    assert_drains(&report);
}

/// The profiling run, sized to last a few hundred milliseconds in release:
/// on a shorter one, a single sampled span times its stride can exceed the
/// conservation slack alone.
fn profile_spec() -> ReportSpec {
    ReportSpec {
        n: 100_000,
        k: 50_000,
        ..ReportSpec::default()
    }
}

#[test]
fn profile_run_drains_and_carries_phases_and_calibration() {
    let report = report(&profile_spec());
    assert_drains(&report);
    let p = report.profile.as_ref().expect("profile section");
    assert!(!p.phases.is_empty(), "profile has no phase rows");
    assert!(
        p.phases.iter().any(|r| r.sampled_calls > 0),
        "no phase has a sampled self-time"
    );
    let c = report.calibration.as_ref().expect("plan calibration");
    assert!(
        c.predicted_ratio.is_finite() && c.predicted_ratio > 0.0,
        "predicted cost ratio {}",
        c.predicted_ratio
    );
    assert!(
        c.observed_seconds > 0.0 && c.observed_pairs > 0,
        "calibration observed nothing (seconds={}, pairs={})",
        c.observed_seconds,
        c.observed_pairs
    );
}

/// Attributed self-time stays within 25 % over the wall × lanes budget;
/// past that a profile double-counts somewhere. It reads sampled wall-clock
/// time, so it is flaky on a loaded host and an unoptimised build: run it
/// in release with `--ignored`.
#[test]
#[ignore = "wall-clock bound: cargo test --release -p sdj-bench --test report -- --ignored"]
fn profile_self_times_conserve() {
    let report = report(&profile_spec());
    let p = report.profile.as_ref().expect("profile section");
    assert!(
        p.conserves(0.25),
        "phase self-times do not conserve (attributed {:.1}% of wall x {} lanes)",
        p.attributed_fraction() * 100.0,
        p.threads
    );
}

#[test]
fn forced_adaptive_plan_is_recorded() {
    let report = report(&ReportSpec {
        n: 3000,
        k: 500,
        force_plan: Some(PlanChoice::Adaptive),
        ..ReportSpec::default()
    });
    assert_plan(&report, PlanChoice::Adaptive);
}

#[test]
fn forced_handoff_replans_exactly_once() {
    let report = report(&ReportSpec {
        n: 3000,
        k: 500,
        force_plan: Some(PlanChoice::Adaptive),
        adaptive_force_at: Some(200),
        ..ReportSpec::default()
    });
    assert_plan(&report, PlanChoice::Adaptive);
    assert_eq!(report.workload("plan.replans"), Some(1.0));
    assert!(
        report.workload("plan.replan_at_pair").is_some(),
        "a replan fired but plan.replan_at_pair is missing"
    );
}

#[test]
fn queue_layouts_match_pair_counts_and_record_queue_bytes() {
    let run = |queue_layout| {
        report(&ReportSpec {
            n: 4000,
            k: 800,
            queue_layout,
            ..ReportSpec::default()
        })
    };
    let (flat, pairing) = (run(QueueLayout::FlatDary), run(QueueLayout::Pairing));
    for report in [&flat, &pairing] {
        assert_drains(report);
        let bytes = report.counter("queue_bytes_peak");
        assert!(bytes > 0, "no queue-byte high-water mark");
        assert_eq!(report.counter("pq.bytes.peak"), bytes, "pq.bytes.peak");
    }
    for name in ["pairs_produced", "drain_pairs_produced"] {
        assert_eq!(
            pairing.counter(name),
            flat.counter(name),
            "{name}: the queue layout changed the result stream"
        );
    }
}

#[test]
fn four_sessions_each_stream_and_share_the_pools() {
    let report = report(&ReportSpec {
        n: 4000,
        k: 400,
        sessions: Some(4),
        ..ReportSpec::default()
    });
    assert_drains(&report);
    assert_eq!(report.sessions.len(), 4);
    for s in &report.sessions {
        assert!(
            s.results > 0 && s.batches > 0,
            "session {} ({}) recorded results={} batches={}",
            s.id,
            s.label,
            s.results,
            s.batches
        );
        assert!(!s.cancelled, "session {} ({}) was cancelled", s.id, s.label);
    }
    assert!(
        report
            .sessions
            .iter()
            .any(|s| s.counter("buf.hits") + s.counter("buf.misses") > 0),
        "no session attributed any buffer-pool traffic"
    );
}

#[test]
fn binary_writes_the_report_and_the_event_log() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("sdj-report-smoke");
    let _ = std::fs::remove_dir_all(&dir);
    let (out, events) = (dir.join("r.json"), dir.join("r.ndjson"));
    let run = Command::new(env!("CARGO_BIN_EXE_sdj-report"))
        .args(["--n", "2000", "--k", "300", "--sessions", "2", "--out"])
        .arg(&out)
        .arg("--events")
        .arg(&events)
        .output()
        .expect("sdj-report runs");
    assert!(
        run.status.success(),
        "sdj-report exited with {}: {}",
        run.status,
        String::from_utf8_lossy(&run.stderr)
    );
    for file in [&out, &events] {
        let len = std::fs::metadata(file).map_or(0, |m| m.len());
        assert!(len > 0, "{} is empty or missing", file.display());
    }
}
