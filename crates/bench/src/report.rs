//! The instrumented run behind `sdj-report`: two uniform `n`-point trees,
//! joined in two passes (three with sessions), assembled into one
//! [`RunReport`].
//!
//! Pass 1 takes the `k` closest pairs (the distance-vs-rank curve of the
//! paper's Figures 7–8). Pass 2 re-runs the join restricted to the proven
//! distance range and drains it to exhaustion, which is what produces the
//! grow-then-drain queue-size curve of Figure 6 (a `k`-limited run stops
//! while its queue is still full). [`ReportSpec::sessions`] adds a third
//! pass that opens that many concurrent cursor sessions (plans cycling
//! incremental/bulk/adaptive) over the same shared buffer pools, drains
//! them round-robin, and records one attribution row per session.
//!
//! Nothing here reads the environment: every knob is a [`ReportSpec`]
//! field, which `sdj-report` fills from its flags and the tests fill
//! directly.

use std::sync::Arc;
use std::time::Instant;

use sdj_core::{AdaptiveConfig, BulkConfig, DistanceJoin, JoinConfig, PlanChoice, QueueLayout};
use sdj_datagen::{uniform_points, unit_box};
use sdj_exec::{run_planned, ParallelConfig};
use sdj_geom::Point;
use sdj_obs::{
    CalibrationSection, EventSink, NdjsonWriter, ObsContext, ProfileSection, RunRecorder,
    RunReport, SessionSection, TeeSink,
};
use sdj_rtree::RTree;
use sdj_service::{drain_round_robin, JoinService, ServiceConfig, SessionConfig};
use sdj_storage::{BufferObs, FaultConfig, FaultInjector};

use crate::{build_tree, paper_tree_config};

/// One report run. The fields are `sdj-report`'s flags, apart from
/// `adaptive_force_at` and `queue_layout`, which only tests set.
#[derive(Clone, Debug)]
pub struct ReportSpec {
    /// Points per relation (`--n`).
    pub n: usize,
    /// Pairs pass 1 takes (`--k`).
    pub k: u64,
    /// Pass 1's bulk sweep workers, for the bulk plan and the adaptive
    /// plan's bulk tail (`--threads`).
    pub threads: usize,
    /// Where `sdj-report` writes the report (`--out`).
    pub out: String,
    /// NDJSON log of every pass's events (`--events`).
    pub events: Option<String>,
    /// Whether `sdj-report` prints the profile table (`--profile`).
    pub profile: bool,
    /// The report's label (`--label`).
    pub label: String,
    /// Pass 1's plan, instead of the planner's (`--force-plan`).
    pub force_plan: Option<PlanChoice>,
    /// Pins the adaptive path's handoff at this pop count: a deterministic
    /// switch on a workload where the live model correctly stays
    /// incremental.
    pub adaptive_force_at: Option<u64>,
    /// Concurrent cursor sessions of the service pass (`--sessions`).
    pub sessions: Option<usize>,
    /// Queue layout of pass 1 and pass 2.
    pub queue_layout: QueueLayout,
    /// Turns on chaos mode with this fault schedule (`--fault-seed`).
    pub fault_seed: Option<u64>,
    /// Transient-fault rate under chaos mode (`--fault-rate`).
    pub fault_rate: f64,
    /// The schedule's retry budget, `FaultConfig::retries`
    /// (`--fault-retries`).
    pub fault_retries: u32,
}

impl Default for ReportSpec {
    fn default() -> Self {
        Self {
            n: 10_000,
            k: 1_000,
            threads: 1,
            out: "results/RunReport.json".into(),
            events: None,
            profile: false,
            label: "uniform distance join".into(),
            force_plan: None,
            adaptive_force_at: None,
            sessions: None,
            queue_layout: JoinConfig::default().layout,
            fault_seed: None,
            fault_rate: 0.01,
            fault_retries: 16,
        }
    }
}

fn build_env(spec: &ReportSpec) -> (RTree<2>, RTree<2>) {
    let a: Vec<Point<2>> = uniform_points(spec.n, &unit_box(), 97);
    let b: Vec<Point<2>> = uniform_points(spec.n, &unit_box(), 98);
    let mut config = paper_tree_config();
    if spec.fault_seed.is_some() {
        // Thrash-sized pools: the paper config's 128 frames can cache a
        // small tree whole, leaving the injector no pager I/O to fault.
        config.buffer_frames = 8;
    }
    (build_tree(config, &a), build_tree(config, &b))
}

/// Chaos mode: `fault_seed` enables a deterministic transient-only fault
/// schedule on both tree buffer pools at `fault_rate` with `fault_retries`
/// bounded retries. Retries must absorb every fault: the run still
/// completes, and the report records `buf.*.faults` / `buf.*.retries`. The
/// same seed reproduces the same schedule.
fn install_chaos(t1: &RTree<2>, t2: &RTree<2>, spec: &ReportSpec) {
    let Some(seed) = spec.fault_seed else {
        return;
    };
    let (rate, retries) = (spec.fault_rate, spec.fault_retries);
    eprintln!("# chaos: transient faults at rate {rate}, seed {seed}, retries {retries}");
    let inj = Arc::new(FaultInjector::new(FaultConfig {
        retries,
        ..FaultConfig::transient_only(seed, rate)
    }));
    t1.set_fault_injector(Some(Arc::clone(&inj)));
    t2.set_fault_injector(Some(inj));
}

/// The service pass: opens `n_sessions` concurrent cursor sessions over the
/// *same* two trees (one shared buffer pool per tree), cycling the forced
/// plan through incremental / bulk / adaptive so every engine shape runs
/// interleaved, drains them round-robin, and returns one attribution row
/// per session. A terminal session error fails the whole run.
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

/// Runs the passes `spec` describes and assembles their [`RunReport`],
/// validated. Progress notes go to stderr.
pub fn build(spec: &ReportSpec) -> Result<RunReport, String> {
    eprintln!("# building two uniform {}-point trees ...", spec.n);
    let (t1, t2) = build_env(spec);
    // Installed after the build: construction is never faulted, only the
    // join's node I/O.
    install_chaos(&t1, &t2, spec);

    // One NDJSON log (if requested) spans every pass; passes 1 and 2 each
    // get their own recorder so pass 1's queue samples (which never drain:
    // the run stops at K) cannot pollute the Figure-6 series from pass 2.
    let ndjson = match &spec.events {
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

    // Pass 1: the K closest pairs through the planner-selected (or forced)
    // execution path.
    eprintln!(
        "# pass 1: {} closest pairs, {} thread(s) ...",
        spec.k, spec.threads
    );
    let ctx1 = ObsContext::new(sink_for(&rank_rec)).with_pop_sample_every(64);
    // Buffer-pool counters (hits/misses/evictions/writebacks/prefetch_*)
    // land in ctx1's registry and therefore in the report.
    t1.attach_obs(BufferObs::new(&ctx1, "buf.t1"));
    t2.attach_obs(BufferObs::new(&ctx1, "buf.t2"));
    let start = Instant::now();
    let run = run_planned(
        &t1,
        &t2,
        JoinConfig::default()
            .with_max_pairs(spec.k)
            .with_layout(spec.queue_layout),
        ParallelConfig::with_threads(spec.threads),
        BulkConfig::default(),
        AdaptiveConfig {
            force_handoff_at: spec.adaptive_force_at,
            ..AdaptiveConfig::default()
        },
        spec.force_plan,
        Some(ctx1.clone()),
    );
    let seconds = start.elapsed().as_secs_f64();
    if let Some(e) = &run.error {
        return Err(format!("pass 1 failed: {e:?}"));
    }
    let (stats, plan, executed) = (run.stats, run.plan, run.executed);
    let produced = run.results.len() as u64;
    let dmax = run
        .results
        .iter()
        .map(|r| r.distance)
        .fold(0.0f64, f64::max);
    if produced == 0 {
        return Err("pass 1 produced no results".into());
    }
    eprintln!(
        "# plan: {executed}{} (est incremental {:.0}, est bulk {:.0})",
        if run.forced { " [forced]" } else { "" },
        plan.est_incremental,
        plan.est_bulk,
    );
    if let Some(r) = &run.replanned {
        eprintln!(
            "# plan: incremental→bulk @ pair {} (pop {}, est incremental \
             remaining {:.0}, est bulk remaining {:.0})",
            r.at_pair, r.at_pop, r.est_incremental_remaining, r.est_bulk_remaining,
        );
    }

    // Pass 2: the same join restricted to `[0, dmax]`, drained to
    // exhaustion through the incremental engine — the single priority
    // queue whose size curve is the paper's Figure 6.
    eprintln!("# pass 2: drain join restricted to [0, {dmax:.6}] ...");
    let ctx2 = ObsContext::new(sink_for(&queue_rec))
        .with_pop_sample_every(64)
        .with_result_sample_every(u64::MAX); // rank curve comes from pass 1
                                             // Rebind the pools to pass 2's context so the reported buf.* counters
                                             // stay scoped to pass 1.
    t1.attach_obs(BufferObs::new(&ctx2, "buf.t1"));
    t2.attach_obs(BufferObs::new(&ctx2, "buf.t2"));
    let drain_config = JoinConfig::default()
        .with_range(0.0, dmax)
        .with_layout(spec.queue_layout);
    let drained = DistanceJoin::new(&t1, &t2, drain_config)
        .with_obs(&ctx2)
        .count() as u64;

    // Optional pass 3: the multi-session service run. Its per-session
    // attribution rows land in the report's `sessions` array; its events
    // go to the NDJSON log (when one is open) but deliberately not into
    // either recorder — the Figure 6–8 series stay single-query.
    let session_sections = match spec.sessions {
        Some(s) => {
            eprintln!("# pass 3: {s} interleaved cursor sessions over the shared pools ...");
            let ctx_s = match &ndjson {
                Some(w) => ObsContext::new(Arc::clone(w) as Arc<dyn EventSink>),
                None => ObsContext::noop(),
            };
            run_sessions_pass(&t1, &t2, s, spec.k, &ctx_s)?
        }
        None => Vec::new(),
    };

    let mut report = RunReport::new(&spec.label);
    report.workload = vec![
        ("n".into(), spec.n as f64),
        ("k".into(), spec.k as f64),
        ("threads".into(), spec.threads as f64),
        ("dmax".into(), dmax),
        // 0 = incremental, 1 = bulk, 2 = adaptive (mirrors the
        // `plan.choice` gauge).
        ("plan.choice".into(), f64::from(executed.code())),
        ("plan.est_incremental".into(), plan.est_incremental),
        ("plan.est_bulk".into(), plan.est_bulk),
        // Mid-query replans (0 or 1 under the default max_replans).
        ("plan.replans".into(), run.replanned.is_some() as u64 as f64),
        // 0 = pairing, 1 = flat 4-ary.
        (
            "queue.layout".into(),
            match spec.queue_layout {
                QueueLayout::Pairing => 0.0,
                QueueLayout::FlatDary => 1.0,
            },
        ),
    ];
    if let Some(r) = &run.replanned {
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
        ("band_deferred".into(), stats.band_deferred),
        ("band_reexpanded".into(), stats.band_reexpanded),
    ];
    // Registry-side counters from pass 1 (expansions, results, and — when
    // the bulk path ran — bulk.cells / bulk.cell_pairs_swept plus the
    // plan.* choice counters).
    let snap1 = ctx1.registry.snapshot();
    for (name, value) in &snap1.counters {
        report.counters.push((name.clone(), *value));
    }
    // Queue-memory gauges (pq.bytes always; pq.slab_* under the flat
    // layout): record each gauge's high-water mark as a counter.
    for (name, _, high) in &snap1.gauges {
        if name.starts_with("pq.") {
            report
                .counters
                .push((format!("{name}.peak"), u64::try_from(*high).unwrap_or(0)));
        }
    }
    if let Some(b) = run.bulk {
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
    // per spawned sweep worker plus the calling thread, which runs the
    // incremental engine and the bulk merge.
    let profile_threads = (run.workers_spawned + 1) as u64;
    report.profile = Some(ProfileSection::from_snapshot(
        &snap1,
        seconds,
        profile_threads,
    ));
    report.calibration = Some(CalibrationSection {
        choice: executed.to_string(),
        forced: run.forced,
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
    Ok(report)
}
