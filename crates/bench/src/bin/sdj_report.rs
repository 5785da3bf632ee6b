//! `sdj-report`: run an instrumented distance join and emit a
//! schema-versioned [`RunReport`], or check one.
//!
//! Two modes:
//!
//! * **Run** (default): joins two uniform `n`-point sets in two passes —
//!   pass 1 takes the `k` closest pairs (distance-vs-rank curve, the shape
//!   of the paper's Figures 7–8), pass 2 re-runs the join restricted to the
//!   proven distance range and drains it to exhaustion, which is what
//!   produces the grow-then-drain queue-size curve of Figure 6 (a
//!   `k`-limited run stops while its queue is still full). Writes the
//!   report atomically to `--out`, optionally logs every event as NDJSON to
//!   `--events`, and prints the two series as sparklines. `--sessions N`
//!   adds a third pass that opens `N` concurrent cursor sessions (plans
//!   cycling incremental/bulk/adaptive) over the same shared buffer pools,
//!   drains them round-robin, and records one per-session attribution row
//!   in the report's `sessions` array.
//! * **`--check FILE`**: parses and validates a previously written report
//!   (schema version, counters, rank/distance monotonicity; with
//!   `--expect-drain` also the Figure-6 queue shape and pass 1's queue
//!   conservation; with
//!   `--expect-sessions N` also the service pass's attribution rows). Exits
//!   non-zero on any failure — this is the CI gate.
//!
//! The tool reads no environment: `--queue-layout flat|pairing` picks the
//! queue layout of every pass (default: the engine's, `JoinConfig::default()`),
//! and `--fault-seed` (with `--fault-rate`,
//! `--fault-retries`) turns on chaos mode (see `install_chaos`).

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use sdj_bench::build_tree;
use sdj_core::{
    AdaptiveConfig, BulkConfig, BulkStats, DistanceJoin, JoinConfig, JoinStats, Plan, PlanChoice,
    QueueLayout, ReplanInfo,
};
use sdj_datagen::{uniform_points, unit_box};
use sdj_exec::{run_planned, ParallelConfig};
use sdj_geom::Point;
use sdj_obs::{
    sparkline, CalibrationSection, EventSink, NdjsonWriter, ObsContext, ProfileSection,
    RunRecorder, RunReport, SessionSection, TeeSink,
};
use sdj_rtree::RTree;
use sdj_service::{drain_round_robin, JoinService, ServiceConfig, SessionConfig};
use sdj_storage::{BufferObs, FaultConfig, FaultInjector};

struct Args {
    n: usize,
    k: u64,
    threads: usize,
    out: String,
    events: Option<String>,
    check: Option<String>,
    expect_drain: bool,
    expect_retries: bool,
    expect_plan: Option<String>,
    expect_replans: Option<u64>,
    expect_profile: bool,
    expect_queue_bytes: bool,
    expect_pairs_match: Option<String>,
    profile: bool,
    label: String,
    force_plan: Option<PlanChoice>,
    adaptive_force_at: Option<u64>,
    sessions: Option<usize>,
    expect_sessions: Option<usize>,
    queue_layout: QueueLayout,
    fault_seed: Option<u64>,
    fault_rate: f64,
    fault_retries: u32,
}

impl Args {
    fn parse() -> Self {
        let mut a = Args {
            n: 10_000,
            k: 1_000,
            threads: 1,
            out: "results/RunReport.json".into(),
            events: None,
            check: None,
            expect_drain: false,
            expect_retries: false,
            expect_plan: None,
            expect_replans: None,
            expect_profile: false,
            expect_queue_bytes: false,
            expect_pairs_match: None,
            profile: false,
            label: "uniform distance join".into(),
            force_plan: None,
            adaptive_force_at: None,
            sessions: None,
            expect_sessions: None,
            queue_layout: JoinConfig::default().layout,
            fault_seed: None,
            fault_rate: 0.01,
            fault_retries: 16,
        };
        let argv: Vec<String> = std::env::args().collect();
        let mut i = 1;
        let take = |argv: &[String], i: usize, flag: &str| -> String {
            argv.get(i + 1)
                .unwrap_or_else(|| panic!("{flag} takes a value"))
                .clone()
        };
        while i < argv.len() {
            match argv[i].as_str() {
                "--n" => {
                    a.n = take(&argv, i, "--n").parse().expect("--n takes an integer");
                    i += 1;
                }
                "--k" => {
                    a.k = take(&argv, i, "--k").parse().expect("--k takes an integer");
                    i += 1;
                }
                "--threads" => {
                    a.threads = take(&argv, i, "--threads")
                        .parse()
                        .expect("--threads takes an integer");
                    i += 1;
                }
                "--out" => {
                    a.out = take(&argv, i, "--out");
                    i += 1;
                }
                "--events" => {
                    a.events = Some(take(&argv, i, "--events"));
                    i += 1;
                }
                "--check" => {
                    a.check = Some(take(&argv, i, "--check"));
                    i += 1;
                }
                "--expect-drain" => a.expect_drain = true,
                "--expect-retries" => a.expect_retries = true,
                "--expect-plan" => {
                    a.expect_plan = Some(take(&argv, i, "--expect-plan"));
                    i += 1;
                }
                "--expect-replans" => {
                    a.expect_replans = Some(
                        take(&argv, i, "--expect-replans")
                            .parse()
                            .expect("--expect-replans takes an integer"),
                    );
                    i += 1;
                }
                "--expect-profile" => a.expect_profile = true,
                "--expect-queue-bytes" => a.expect_queue_bytes = true,
                "--expect-pairs-match" => {
                    a.expect_pairs_match = Some(take(&argv, i, "--expect-pairs-match"));
                    i += 1;
                }
                "--profile" => a.profile = true,
                "--label" => {
                    a.label = take(&argv, i, "--label");
                    i += 1;
                }
                "--force-plan" => {
                    let name = take(&argv, i, "--force-plan");
                    let plan = PlanChoice::ALL.into_iter().find(|p| p.as_str() == name);
                    a.force_plan = Some(plan.unwrap_or_else(|| {
                        panic!("--force-plan takes incremental|bulk|adaptive, got {name}")
                    }));
                    i += 1;
                }
                "--adaptive-force-at" => {
                    a.adaptive_force_at = Some(
                        take(&argv, i, "--adaptive-force-at")
                            .parse()
                            .expect("--adaptive-force-at takes an integer"),
                    );
                    i += 1;
                }
                "--sessions" => {
                    a.sessions = Some(
                        take(&argv, i, "--sessions")
                            .parse()
                            .expect("--sessions takes an integer"),
                    );
                    i += 1;
                }
                "--expect-sessions" => {
                    a.expect_sessions = Some(
                        take(&argv, i, "--expect-sessions")
                            .parse()
                            .expect("--expect-sessions takes an integer"),
                    );
                    i += 1;
                }
                "--queue-layout" => {
                    a.queue_layout = match take(&argv, i, "--queue-layout").as_str() {
                        "flat" | "flat_dary" => QueueLayout::FlatDary,
                        "pairing" => QueueLayout::Pairing,
                        other => panic!("--queue-layout takes flat|pairing, got {other}"),
                    };
                    i += 1;
                }
                "--fault-seed" => {
                    a.fault_seed = Some(
                        take(&argv, i, "--fault-seed")
                            .parse()
                            .expect("--fault-seed takes an unsigned integer"),
                    );
                    i += 1;
                }
                "--fault-rate" => {
                    a.fault_rate = take(&argv, i, "--fault-rate")
                        .parse()
                        .expect("--fault-rate takes a number");
                    i += 1;
                }
                "--fault-retries" => {
                    a.fault_retries = take(&argv, i, "--fault-retries")
                        .parse()
                        .expect("--fault-retries takes an integer");
                    i += 1;
                }
                other => panic!(
                    "unknown argument {other} (expected --n/--k/--threads/--out/--events/\
                     --check/--expect-drain/--expect-retries/--expect-plan/--expect-replans/\
                     --expect-profile/--expect-queue-bytes/--expect-pairs-match/\
                     --profile/--label/--force-plan/\
                     --adaptive-force-at/--sessions/--expect-sessions/--queue-layout/\
                     --fault-seed/--fault-rate/--fault-retries)"
                ),
            }
            i += 1;
        }
        a
    }
}

fn build_env(args: &Args) -> (RTree<2>, RTree<2>) {
    let a: Vec<Point<2>> = uniform_points(args.n, &unit_box(), 97);
    let b: Vec<Point<2>> = uniform_points(args.n, &unit_box(), 98);
    let mut config = sdj_bench::paper_tree_config();
    if args.fault_seed.is_some() {
        // Thrash-sized pools: the paper config's 128 frames can cache a
        // small tree whole, leaving the injector no pager I/O to fault.
        config.buffer_frames = 8;
    }
    (build_tree(config, &a), build_tree(config, &b))
}

/// What pass 1 measures, whichever execution path ran it.
struct KPass {
    stats: JoinStats,
    produced: u64,
    dmax: f64,
    seconds: f64,
    plan: Plan,
    executed: PlanChoice,
    forced: bool,
    bulk: Option<BulkStats>,
    workers: usize,
    replanned: Option<ReplanInfo>,
}

/// Pass 1: the K closest pairs through the planner-selected (or forced)
/// execution path. `--adaptive-force-at` pins the adaptive path's handoff at
/// that pop count (the CI gate's deterministic switch on a workload where
/// the live model would correctly stay incremental).
fn run_k_pass(t1: &RTree<2>, t2: &RTree<2>, args: &Args, ctx: &ObsContext) -> KPass {
    let config = JoinConfig::default()
        .with_max_pairs(args.k)
        .with_layout(args.queue_layout);
    let start = Instant::now();
    let run = run_planned(
        t1,
        t2,
        config,
        ParallelConfig::with_threads(args.threads),
        BulkConfig::default(),
        AdaptiveConfig {
            force_handoff_at: args.adaptive_force_at,
            ..AdaptiveConfig::default()
        },
        args.force_plan,
        Some(ctx.clone()),
    );
    let seconds = start.elapsed().as_secs_f64();
    assert!(run.error.is_none(), "pass 1 failed: {:?}", run.error);
    let dmax = run
        .results
        .iter()
        .map(|r| r.distance)
        .fold(0.0f64, f64::max);
    KPass {
        stats: run.stats,
        produced: run.results.len() as u64,
        dmax,
        seconds,
        plan: run.plan,
        executed: run.executed,
        forced: run.forced,
        bulk: run.bulk,
        workers: run.workers_spawned,
        replanned: run.replanned,
    }
}

/// Pass 2: the same join restricted to `[0, dmax]`, drained to exhaustion
/// through the *serial* engine — the single priority queue whose size curve
/// is the paper's Figure 6 (parallel workers each own a shard queue, which
/// is a different quantity).
fn run_drain_pass(
    t1: &RTree<2>,
    t2: &RTree<2>,
    dmax: f64,
    layout: QueueLayout,
    ctx: &ObsContext,
) -> u64 {
    let config = JoinConfig::default()
        .with_range(0.0, dmax)
        .with_layout(layout);
    let mut join = DistanceJoin::new(t1, t2, config).with_obs(ctx);
    join.by_ref().count() as u64
}

/// Chaos mode: `--fault-seed` (u64) enables a deterministic transient-only
/// fault schedule on both tree buffer pools at rate `--fault-rate` (default
/// 0.01) with `--fault-retries` bounded retries (default 16). Retries must
/// absorb every fault — the run still completes, and the report records
/// `buf.*.faults` / `buf.*.retries` for the CI chaos gate (`--check
/// --expect-retries`). The same seed reproduces the same schedule.
fn install_chaos(t1: &RTree<2>, t2: &RTree<2>, args: &Args) {
    let Some(seed) = args.fault_seed else {
        return;
    };
    let (rate, retries) = (args.fault_rate, args.fault_retries);
    eprintln!("# chaos: transient faults at rate {rate}, seed {seed}, retries {retries}");
    let inj = Arc::new(FaultInjector::new(FaultConfig::transient_only(seed, rate)));
    t1.set_fault_injector(Some(Arc::clone(&inj)));
    t2.set_fault_injector(Some(inj));
    t1.set_retry_limit(retries);
    t2.set_retry_limit(retries);
}

/// The service pass behind `--sessions N`: opens `n_sessions` concurrent
/// cursor sessions over the *same* two trees (one shared buffer pool per
/// tree), cycling the forced plan through incremental / bulk / adaptive so
/// every engine shape runs interleaved, drains them round-robin, and
/// returns one attribution row per session for the report's `sessions`
/// array. Every session must finish cleanly — a terminal session error
/// fails the whole report run.
fn run_sessions_pass(
    t1: &RTree<2>,
    t2: &RTree<2>,
    n_sessions: usize,
    k: u64,
    ctx: &ObsContext,
) -> Result<Vec<SessionSection>, String> {
    let service = JoinService::new(
        t1,
        t2,
        ServiceConfig {
            max_sessions: u32::try_from(n_sessions.max(1)).unwrap_or(u32::MAX),
            session_budget: None,
        },
    )
    .with_obs(ctx);
    let mut handles = Vec::with_capacity(n_sessions);
    for i in 0..n_sessions {
        let plan = PlanChoice::ALL[i % PlanChoice::ALL.len()];
        let config = SessionConfig {
            join: JoinConfig::default().with_max_pairs(k),
            force_plan: Some(plan),
            label: Some(format!("report-{plan}")),
            ..SessionConfig::default()
        };
        handles.push(
            service
                .open(config)
                .map_err(|e| format!("open session {i}: {e}"))?,
        );
    }
    let outcomes = drain_round_robin(&mut handles, 64);
    for (h, o) in handles.iter().zip(&outcomes) {
        if let Some(e) = &o.error {
            return Err(format!("session {} ({}) failed: {e}", h.id(), h.label()));
        }
        if o.results.is_empty() {
            return Err(format!(
                "session {} ({}) produced nothing",
                h.id(),
                h.label()
            ));
        }
    }
    let sections = handles.iter().map(|h| h.report_section()).collect();
    // Every handle must have released its engine state: the scheduler ran
    // them all to completion, so nothing may still pin shared pool frames.
    debug_assert_eq!(service.pinned_frames(), 0);
    Ok(sections)
}

fn run_report(args: &Args) -> Result<(), String> {
    eprintln!("# building two uniform {}-point trees ...", args.n);
    let (t1, t2) = build_env(args);
    // Installed after the build: construction is never faulted, only the
    // join's node I/O.
    install_chaos(&t1, &t2, args);

    // One NDJSON log (if requested) spans both passes; each pass gets its
    // own recorder so pass 1's queue samples (which never drain: the run
    // stops at K) cannot pollute the Figure-6 series from pass 2.
    let ndjson = match &args.events {
        Some(path) => {
            if let Some(dir) = std::path::Path::new(path).parent() {
                if !dir.as_os_str().is_empty() {
                    std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {dir:?}: {e}"))?;
                }
            }
            Some(Arc::new(
                NdjsonWriter::create(path).map_err(|e| format!("create {path}: {e}"))?,
            ))
        }
        None => None,
    };
    let rank_rec = Arc::new(RunRecorder::new());
    let queue_rec = Arc::new(RunRecorder::new());
    let sink_for = |rec: &Arc<RunRecorder>| -> Arc<dyn EventSink> {
        match &ndjson {
            Some(w) => Arc::new(TeeSink::new(Arc::clone(rec), Arc::clone(w))),
            None => Arc::clone(rec) as Arc<dyn EventSink>,
        }
    };

    eprintln!(
        "# pass 1: {} closest pairs, {} thread(s) ...",
        args.k, args.threads
    );
    let ctx1 = ObsContext::new(sink_for(&rank_rec)).with_pop_sample_every(64);
    // Buffer-pool counters (hits/misses/evictions/writebacks/prefetch_*)
    // land in ctx1's registry and therefore in the report.
    t1.attach_obs(BufferObs::new(&ctx1, "buf.t1"));
    t2.attach_obs(BufferObs::new(&ctx1, "buf.t2"));
    let pass1 = run_k_pass(&t1, &t2, args, &ctx1);
    let KPass {
        stats,
        produced,
        dmax,
        seconds,
        plan,
        executed,
        forced,
        bulk,
        workers,
        replanned,
    } = pass1;
    if produced == 0 {
        return Err("pass 1 produced no results".into());
    }
    eprintln!(
        "# plan: {executed}{} (est incremental {:.0}, est bulk {:.0})",
        if args.force_plan.is_some() {
            " [forced]"
        } else {
            ""
        },
        plan.est_incremental,
        plan.est_bulk,
    );
    if let Some(r) = &replanned {
        eprintln!(
            "# plan: incremental→bulk @ pair {} (pop {}, est incremental \
             remaining {:.0}, est bulk remaining {:.0})",
            r.at_pair, r.at_pop, r.est_incremental_remaining, r.est_bulk_remaining,
        );
    }

    eprintln!("# pass 2: drain join restricted to [0, {dmax:.6}] ...");
    let ctx2 = ObsContext::new(sink_for(&queue_rec))
        .with_pop_sample_every(64)
        .with_result_sample_every(u64::MAX); // rank curve comes from pass 1

    // Rebind the pools to pass 2's context so the reported buf.* counters
    // stay scoped to pass 1.
    t1.attach_obs(BufferObs::new(&ctx2, "buf.t1"));
    t2.attach_obs(BufferObs::new(&ctx2, "buf.t2"));
    let drained = run_drain_pass(&t1, &t2, dmax, args.queue_layout, &ctx2);

    // Optional pass 3: the multi-session service run. Its per-session
    // attribution rows land in the report's `sessions` array; its events
    // go to the NDJSON log (when one is open) but deliberately not into
    // either recorder — the Figure 6–8 series stay single-query.
    let session_sections = match args.sessions {
        Some(s) => {
            eprintln!("# pass 3: {s} interleaved cursor sessions over the shared pools ...");
            let ctx_s = match &ndjson {
                Some(w) => ObsContext::new(Arc::clone(w) as Arc<dyn EventSink>),
                None => ObsContext::noop(),
            };
            run_sessions_pass(&t1, &t2, s, args.k, &ctx_s)?
        }
        None => Vec::new(),
    };

    let mut report = RunReport::new(&args.label);
    report.workload = vec![
        ("n".into(), args.n as f64),
        ("k".into(), args.k as f64),
        ("threads".into(), args.threads as f64),
        ("dmax".into(), dmax),
        // 0 = incremental, 1 = bulk, 2 = adaptive (mirrors the
        // `plan.choice` gauge).
        ("plan.choice".into(), f64::from(executed.code())),
        ("plan.est_incremental".into(), plan.est_incremental),
        ("plan.est_bulk".into(), plan.est_bulk),
        // Mid-query replans (0 or 1 under the default max_replans).
        ("plan.replans".into(), replanned.is_some() as u64 as f64),
        // 0 = pairing, 1 = flat 4-ary (the `--queue-layout` selection).
        (
            "queue.layout".into(),
            match args.queue_layout {
                QueueLayout::Pairing => 0.0,
                QueueLayout::FlatDary => 1.0,
            },
        ),
    ];
    if let Some(r) = &replanned {
        report
            .workload
            .push(("plan.replan_at_pair".into(), r.at_pair as f64));
    }
    report.counters = vec![
        ("pairs_produced".into(), produced),
        ("drain_pairs_produced".into(), drained),
        ("distance_calcs".into(), stats.distance_calcs),
        ("pairs_enqueued".into(), stats.pairs_enqueued),
        ("pairs_dequeued".into(), stats.pairs_dequeued),
        ("pairs_discarded".into(), stats.pairs_discarded),
        ("queue_len".into(), stats.queue_len),
        ("max_queue".into(), stats.max_queue as u64),
        ("queue_bytes_peak".into(), stats.queue_bytes_peak as u64),
        ("node_accesses".into(), stats.node_accesses),
        ("node_io".into(), stats.node_io),
        ("sweep_expansions".into(), stats.sweep_expansions),
    ];
    // Registry-side counters from pass 1 (expansions, results, and — when
    // the bulk path ran — bulk.cells / bulk.cell_pairs_swept /
    // bulk.pairs_deduped plus the plan.* choice counters).
    let snap1 = ctx1.registry.snapshot();
    for (name, value) in &snap1.counters {
        report.counters.push((name.clone(), *value));
    }
    // Queue-memory gauges (pq.bytes always; pq.slab_* under the flat
    // layout): record each gauge's high-water mark as a counter so the
    // queue CI gate can assert it from the report file.
    for (name, _, high) in &snap1.gauges {
        if name.starts_with("pq.") {
            report
                .counters
                .push((format!("{name}.peak"), u64::try_from(*high).unwrap_or(0)));
        }
    }
    if let Some(b) = bulk {
        report
            .counters
            .push(("bulk.replicated1".into(), b.replicated1));
        report
            .counters
            .push(("bulk.replicated2".into(), b.replicated2));
    }
    report.metrics = vec![
        ("seconds".into(), seconds),
        ("pairs_per_sec".into(), produced as f64 / seconds.max(1e-12)),
    ];

    // EXPLAIN-ANALYZE profile of pass 1. The self-time budget is one lane
    // per spawned worker plus the main thread (whose Merge spans measure
    // what the consumer waited for, overlapping the workers' own time).
    let profile_threads = (workers + 1) as u64;
    let profile = ProfileSection::from_snapshot(&snap1, seconds, profile_threads);
    // Worker utilization: total busy time over the spawned workers' share
    // of the wall clock (exec.worker_busy_ns spans thread start to stream
    // end, so send-stalls count as busy — this measures imbalance, not CPU).
    if workers > 0 {
        if let Some(h) = snap1.histogram("exec.worker_busy_ns") {
            let budget = seconds * 1e9 * workers as f64;
            if budget > 0.0 && h.count > 0 {
                report
                    .metrics
                    .push(("worker_utilization".into(), (h.sum / budget).min(1.0)));
            }
        }
    }
    report.profile = Some(profile);
    report.calibration = Some(CalibrationSection {
        choice: executed.to_string(),
        forced,
        est_incremental: plan.est_incremental,
        est_bulk: plan.est_bulk,
        est_pairs: plan.est_pairs,
        predicted_ratio: plan.est_incremental / plan.est_bulk.max(f64::MIN_POSITIVE),
        observed_seconds: seconds,
        observed_pairs: produced,
    });
    report.sessions = session_sections;
    rank_rec.fill_report(&mut report);
    let mut drain_side = RunReport::default();
    queue_rec.fill_report(&mut drain_side);
    report.queue_series = drain_side.queue_series;
    report.events_recorded += drain_side.events_recorded;

    report
        .validate()
        .map_err(|e| format!("invalid report: {e}"))?;
    if let Some(dir) = std::path::Path::new(&args.out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {dir:?}: {e}"))?;
        }
    }
    report
        .write_atomic(&args.out)
        .map_err(|e| format!("write {}: {e}", args.out))?;

    let queue: Vec<f64> = report.queue_series.iter().map(|p| p.1 as f64).collect();
    let dists: Vec<f64> = report.distance_by_rank.iter().map(|p| p.1).collect();
    println!(
        "run: {} (n={}, k={}, threads={}, plan={executed})",
        args.label, args.n, args.k, args.threads
    );
    println!(
        "queue size over drain   {}  (peak {})",
        sparkline(&queue, 60),
        report.queue_series.iter().map(|p| p.1).max().unwrap_or(0)
    );
    println!(
        "distance by rank        {}  (d_K = {dmax:.6})",
        sparkline(&dists, 60)
    );
    println!(
        "grow-then-drain: {}, events: {}, wrote {}",
        report.grow_then_drain(),
        report.events_recorded,
        args.out
    );
    for s in &report.sessions {
        let buf = |name: &str| -> u64 {
            s.counters
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |(_, v)| *v)
        };
        println!(
            "session {:>2} [{}] plan={} results={} batches={} buf.hits={} buf.misses={}",
            s.id,
            s.label,
            s.plan,
            s.results,
            s.batches,
            buf("buf.hits"),
            buf("buf.misses"),
        );
    }
    if args.profile {
        if let Some(p) = &report.profile {
            render_profile(p, &report);
        }
    }
    if let Some(w) = &ndjson {
        eprintln!(
            "# ndjson: {} lines, {} write errors",
            w.lines_written(),
            w.write_errors()
        );
        if w.write_errors() > 0 {
            return Err("ndjson writer reported errors".into());
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
    let counter = |name: &str| -> u64 {
        report
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    };
    let (bytes_peak, max_queue) = (counter("queue_bytes_peak"), counter("max_queue"));
    if bytes_peak > 0 {
        println!(
            "queue memory: {} bytes peak, {:.1} bytes/queued pair at high-water {}",
            bytes_peak,
            bytes_peak as f64 / max_queue.max(1) as f64,
            max_queue
        );
    }
    if let Some((_, util)) = report
        .metrics
        .iter()
        .find(|(name, _)| name == "worker_utilization")
    {
        println!(
            "worker utilization: {:.1}% (busy / wall x workers)",
            util * 100.0
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
    let workload = |name: &str| -> Option<f64> {
        report
            .workload
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    };
    if workload("plan.replans").unwrap_or(0.0) >= 1.0 {
        println!(
            "replan: incremental→bulk @ pair {:.0} ({:.0} switch(es))",
            workload("plan.replan_at_pair").unwrap_or(0.0),
            workload("plan.replans").unwrap_or(0.0)
        );
    }
}

fn run_check(path: &str, args: &Args) -> Result<(), String> {
    let expect_drain = args.expect_drain;
    let expect_retries = args.expect_retries;
    let expect_plan = args.expect_plan.as_deref();
    let expect_replans = args.expect_replans;
    let expect_profile = args.expect_profile;
    let expect_queue_bytes = args.expect_queue_bytes;
    let expect_pairs_match = args.expect_pairs_match.as_deref();
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let report = RunReport::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
    report.validate().map_err(|e| format!("{path}: {e}"))?;
    if report.counters.is_empty() {
        return Err(format!("{path}: no counters recorded"));
    }
    if report.distance_by_rank.is_empty() {
        return Err(format!("{path}: empty distance_by_rank series"));
    }
    let counter = |name: &str| -> u64 {
        report
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    };
    if expect_drain && !report.grow_then_drain() {
        return Err(format!(
            "{path}: queue series is not grow-then-drain ({} points)",
            report.queue_series.len()
        ));
    }
    let replanned = report
        .workload
        .iter()
        .any(|(name, v)| name == "plan.replans" && *v >= 1.0);
    if expect_drain && !replanned {
        // Queue conservation in pass 1: every enqueued pair was dequeued,
        // dropped by the queue compaction, or is still queued. (A replan
        // hands the queued frontier to the bulk path uncounted.)
        let (enq, deq, gone, left) = (
            counter("pairs_enqueued"),
            counter("pairs_dequeued"),
            counter("pairs_discarded"),
            counter("queue_len"),
        );
        if enq != deq + gone + left {
            return Err(format!(
                "{path}: pairs_enqueued={enq} but pairs_dequeued + pairs_discarded + \
                 queue_len = {deq} + {gone} + {left}"
            ));
        }
        println!(
            "{path}: queue conserved ({enq} = {deq} dequeued + {gone} discarded + {left} left)"
        );
    }
    if expect_retries {
        // The chaos gate: a run under `--fault-seed` must have actually
        // exercised the retry path (faults injected, retries recorded) and
        // still produced a complete, valid report.
        let sum = |suffix: &str| -> u64 {
            report
                .counters
                .iter()
                .filter(|(name, _)| name.ends_with(suffix))
                .map(|(_, v)| v)
                .sum()
        };
        let (faults, retries) = (sum(".faults"), sum(".retries"));
        if faults == 0 || retries == 0 {
            return Err(format!(
                "{path}: expected injected faults and successful retries, \
                 got faults={faults} retries={retries}"
            ));
        }
        println!("{path}: chaos ok (faults={faults}, retries={retries})");
    }
    if let Some(expected) = expect_plan {
        // The planner gate: the report must record the expected execution
        // path, both as the `plan.choice` workload entry and the per-path
        // counter; a bulk run must additionally have partitioned and swept.
        let choice = report
            .workload
            .iter()
            .find(|(name, _)| name == "plan.choice")
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("{path}: no plan.choice recorded"))?;
        let got = PlanChoice::ALL
            .into_iter()
            .find(|p| f64::from(p.code()) == choice)
            .map_or("unknown", PlanChoice::as_str);
        if got != expected {
            return Err(format!("{path}: plan.choice is {got}, expected {expected}"));
        }
        let counter = |name: &str| -> u64 {
            report
                .counters
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |(_, v)| *v)
        };
        if counter(&format!("plan.{expected}")) == 0 {
            return Err(format!("{path}: plan.{expected} counter not recorded"));
        }
        if expected == "bulk"
            && (counter("bulk.cells") == 0 || counter("bulk.cell_pairs_swept") == 0)
        {
            return Err(format!(
                "{path}: bulk run recorded no cells/sweeps (cells={}, swept={})",
                counter("bulk.cells"),
                counter("bulk.cell_pairs_swept")
            ));
        }
        println!("{path}: plan ok ({expected})");
    }
    if let Some(expected) = expect_replans {
        // The adaptive gate: the report must record exactly the expected
        // number of mid-query switches, and a fired switch must also carry
        // the pair rank at which the frontier was handed off.
        let replans = report
            .workload
            .iter()
            .find(|(name, _)| name == "plan.replans")
            .map(|(_, v)| *v as u64)
            .ok_or_else(|| format!("{path}: no plan.replans recorded"))?;
        if replans != expected {
            return Err(format!(
                "{path}: plan.replans is {replans}, expected {expected}"
            ));
        }
        let at_pair = report
            .workload
            .iter()
            .find(|(name, _)| name == "plan.replan_at_pair")
            .map(|(_, v)| *v);
        if expected > 0 && at_pair.is_none() {
            return Err(format!(
                "{path}: a replan fired but plan.replan_at_pair is missing"
            ));
        }
        match at_pair {
            Some(p) => println!("{path}: replans ok ({replans} @ pair {p:.0})"),
            None => println!("{path}: replans ok ({replans})"),
        }
    }
    if expect_profile {
        // The profiling gate: the report must carry a populated phase table
        // whose self-times conserve (structural validity — known phases,
        // sane counts — is already enforced by validate() above), plus a
        // well-formed calibration record.
        let p = report
            .profile
            .as_ref()
            .ok_or_else(|| format!("{path}: no profile section recorded"))?;
        if p.phases.is_empty() {
            return Err(format!("{path}: profile has no phase rows"));
        }
        if !p.phases.iter().any(|r| r.sampled_calls > 0) {
            return Err(format!("{path}: no phase has a sampled self-time"));
        }
        // 25% slack over the wall x lanes budget absorbs stride-sampling
        // estimator error; a profile past that double-counts somewhere.
        if !p.conserves(0.25) {
            return Err(format!(
                "{path}: phase self-times do not conserve \
                 (attributed {:.1}% of wall x {} lanes)",
                p.attributed_fraction() * 100.0,
                p.threads
            ));
        }
        let c = report
            .calibration
            .as_ref()
            .ok_or_else(|| format!("{path}: no plan calibration recorded"))?;
        if !(c.predicted_ratio.is_finite() && c.predicted_ratio > 0.0) {
            return Err(format!(
                "{path}: predicted cost ratio {} is not positive",
                c.predicted_ratio
            ));
        }
        if c.observed_seconds <= 0.0 || c.observed_pairs == 0 {
            return Err(format!(
                "{path}: calibration observed nothing (seconds={}, pairs={})",
                c.observed_seconds, c.observed_pairs
            ));
        }
        println!(
            "{path}: profile ok ({} phases, attributed {:.1}% of budget; \
             calibration {} ratio {:.3})",
            p.phases.len(),
            p.attributed_fraction() * 100.0,
            c.choice,
            c.predicted_ratio
        );
    }
    if expect_queue_bytes {
        // The queue gate: the run must have recorded a non-zero queue-byte
        // high-water mark, and the registry's pq.bytes gauge peak must be
        // that same JoinStats sample (the gauge publishes it).
        let (engine, gauge) = (counter("queue_bytes_peak"), counter("pq.bytes.peak"));
        if engine == 0 || gauge != engine {
            return Err(format!(
                "{path}: expected a non-zero queue-byte high-water mark shared by \
                 JoinStats and the registry, got queue_bytes_peak={engine} \
                 pq.bytes.peak={gauge}"
            ));
        }
        println!(
            "{path}: queue bytes ok (queue_bytes_peak={engine}, pq.bytes.peak={gauge}, \
             {:.1} bytes/pair at high-water {})",
            engine as f64 / counter("max_queue").max(1) as f64,
            counter("max_queue")
        );
    }
    if let Some(other_path) = expect_pairs_match {
        // Layout invariance: the checked report must agree with a reference
        // report (same workload, different queue layout) on every produced
        // result count, in both passes.
        let other_text =
            std::fs::read_to_string(other_path).map_err(|e| format!("read {other_path}: {e}"))?;
        let other = RunReport::from_json(&other_text).map_err(|e| format!("{other_path}: {e}"))?;
        let other_counter = |name: &str| -> u64 {
            other
                .counters
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |(_, v)| *v)
        };
        for name in ["pairs_produced", "drain_pairs_produced"] {
            let (a, b) = (counter(name), other_counter(name));
            if a != b {
                return Err(format!(
                    "{path}: {name}={a} disagrees with {other_path}'s {b} — \
                     the queue layout changed the result stream"
                ));
            }
        }
        println!(
            "{path}: pairs match {other_path} (pairs_produced={}, drain_pairs_produced={})",
            counter("pairs_produced"),
            counter("drain_pairs_produced")
        );
    }
    if let Some(want) = args.expect_sessions {
        // The service gate: the report must carry exactly `want` session
        // attribution rows, every session must have produced results over
        // at least one batch, and the rows together must attribute real
        // buffer-pool traffic — a service run whose sessions all report
        // zero pool activity means the attribution plumbing is broken.
        if report.sessions.len() != want {
            return Err(format!(
                "{path}: expected {want} session sections, got {}",
                report.sessions.len()
            ));
        }
        let buf_of = |s: &sdj_obs::SessionSection, name: &str| -> u64 {
            s.counters
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |(_, v)| *v)
        };
        let mut attributed = 0usize;
        for s in &report.sessions {
            if s.results == 0 || s.batches == 0 {
                return Err(format!(
                    "{path}: session {} ({}) recorded results={} batches={}",
                    s.id, s.label, s.results, s.batches
                ));
            }
            if s.cancelled {
                return Err(format!(
                    "{path}: session {} ({}) was cancelled mid-run",
                    s.id, s.label
                ));
            }
            if buf_of(s, "buf.hits") + buf_of(s, "buf.misses") > 0 {
                attributed += 1;
            }
        }
        if attributed == 0 {
            return Err(format!(
                "{path}: no session attributed any buffer-pool traffic"
            ));
        }
        println!(
            "{path}: sessions ok ({want} sessions, {attributed} with pool attribution, \
             {} results total)",
            report.sessions.iter().map(|s| s.results).sum::<u64>()
        );
    }
    println!(
        "{path}: ok (schema {}, {} counters, {} queue points, {} rank points)",
        sdj_obs::report::SCHEMA_VERSION,
        report.counters.len(),
        report.queue_series.len(),
        report.distance_by_rank.len()
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = Args::parse();
    let result = if let Some(path) = &args.check {
        run_check(path, &args)
    } else {
        run_report(&args)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sdj-report: {e}");
            ExitCode::FAILURE
        }
    }
}
