//! The traced run: every per-layer metric of one workload.
//!
//! Three sources, kept apart so each can be trusted for what it is:
//! 1. spans recorded here, around each call into a layer's public
//!    functions (`core.construct_ms`, `core.bulk.build_ms`, ...), plus the
//!    isolated probes of [`crate::probe`];
//! 2. the engines' public counters (`JoinStats`, `BulkStats`, `PoolStats`,
//!    `Plan`);
//! 3. the engine's own phase spans, attached through the public `with_obs`
//!    and read back from the registry, with the part of the wall clock they
//!    do not cover reported as `span.residual_share`.

use std::time::Instant;

use sdj_core::{
    plan_for_trees, AdaptiveConfig, AdaptiveDistanceJoin, BulkConfig, BulkDistanceJoin, JoinConfig,
    JoinStats, PlanChoice,
};
use sdj_exec::{ParallelConfig, ParallelDistanceJoin};
use sdj_obs::ObsContext;
use sdj_storage::{BufferObs, PoolStats};

use crate::measure::{prepare, query_window, round_window, verify_queries, verify_rounds, RunArgs};
use crate::metrics::{Report, PER_LAYER};
use crate::probe::{all_pages, mindist_probe, queue_probe, scan_probe};
use crate::stats::{median, percentile_sorted, supported_tail};
use crate::workload::{digest, ms_since, run_query, Env, Kind, Spec, SHAPES};

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn med(values: impl Iterator<Item = f64>) -> f64 {
    median(&values.collect::<Vec<_>>())
}

/// `storage.*` counters for `queries` queries' worth of pool traffic.
fn report_pool(pool: &PoolStats, queries: f64, report: &mut Report) {
    report.set(
        "storage.hit_ratio",
        ratio(pool.hits as f64, pool.accesses() as f64),
    );
    report.set("storage.misses_per_query", pool.misses as f64 / queries);
    report.set(
        "storage.evictions_per_query",
        pool.evictions as f64 / queries,
    );
    report.set(
        "storage.prefetch_reads_per_query",
        pool.prefetch_reads as f64 / queries,
    );
}

/// `core.*` and `pqueue.*` counters of one incremental query.
fn report_join_stats(s: &JoinStats, semi: bool, report: &mut Report) {
    let pairs = s.pairs_reported as f64;
    report.set("pqueue.max_len", s.max_queue as f64);
    report.set("pqueue.peak_state_mb", s.queue_bytes_peak as f64 / 1e6);
    report.set(
        "pqueue.bytes_per_entry",
        ratio(s.queue_bytes_peak as f64, s.max_queue as f64),
    );
    report.set(
        "core.dist_calcs_per_pair",
        ratio(s.distance_calcs as f64, pairs),
    );
    report.set(
        "core.object_dist_calcs_per_pair",
        ratio(s.object_distance_calcs as f64, pairs),
    );
    report.set("core.enq_per_pair", ratio(s.pairs_enqueued as f64, pairs));
    report.set("core.deq_per_pair", ratio(s.pairs_dequeued as f64, pairs));
    report.set(
        "core.useful_pop_ratio",
        ratio(pairs, s.pairs_dequeued as f64),
    );
    let considered = (s.total_pruned() + s.pairs_enqueued) as f64;
    report.set(
        "core.pruned_share",
        ratio(s.total_pruned() as f64, considered),
    );
    if semi {
        report.set(
            "core.semi.filtered_seen_per_pair",
            ratio(s.filtered_seen as f64, pairs),
        );
        report.set(
            "core.semi.pruned_by_dmax_share",
            ratio(s.pruned_by_dmax as f64, considered),
        );
    }
}

/// Times `BulkDistanceJoin::new` and `run()` apart (median of three) and
/// records the bulk path's counters.
fn report_bulk_parts(env: &Env, config: JoinConfig, report: &mut Report) -> (f64, f64) {
    let (mut builds, mut runs) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let t = Instant::now();
        let mut bulk =
            BulkDistanceJoin::new(&env.t1, &env.t2, config).expect("in-memory pager cannot fail");
        builds.push(ms_since(t));
        let t = Instant::now();
        let results = bulk.run();
        runs.push(ms_since(t));
        let (stats, b) = (bulk.stats(), bulk.bulk_stats());
        let entries = (env.pts1.len() + env.pts2.len()) as f64;
        report.set("core.bulk.cells_swept", b.cell_pairs_swept as f64);
        report.set(
            "core.bulk.replication_factor",
            (b.replicated1 + b.replicated2) as f64 / entries,
        );
        let candidates = (b.pairs_deduped + stats.pairs_reported) as f64;
        report.set(
            "core.bulk.dedup_share",
            ratio(b.pairs_deduped as f64, candidates),
        );
        report.set(
            "core.bulk.dist_calcs_per_pair",
            ratio(stats.distance_calcs as f64, results.len() as f64),
        );
    }
    let (build, run) = (median(&builds), median(&runs));
    report.set("core.bulk.build_ms", build);
    report.set("core.bulk.run_ms", run);
    (build, run)
}

/// The engine's phase spans accumulated in `ctx` over `queries` queries
/// taking `wall_ms` in total: per-query self-time per phase, and the share
/// of the wall no phase accounts for.
fn report_spans(ctx: &ObsContext, queries: f64, wall_ms: f64, report: &mut Report) {
    let mut covered_ms = 0.0;
    for snap in ctx.registry.spans().snapshot() {
        let ms = snap.est_total_ns() / 1e6;
        covered_ms += ms;
        let wanted = format!("span.{}_ms", snap.phase.name());
        let name = PER_LAYER
            .iter()
            .find(|m| m.name == wanted)
            .expect("every engine phase has a per-layer metric")
            .name;
        report.set(name, ms / queries);
        report.note(name, format!("calls={}", snap.calls as f64 / queries));
    }
    report.set("span.residual_share", ratio(wall_ms - covered_ms, wall_ms));
}

/// Layer budgets: each layer's probe cost times the count the engine
/// reported, as ms per query and as a share of the query. What is left is
/// `core`'s own (traversal logic, pruning, allocation, estimation).
fn report_budgets(
    env: &Env,
    spec: &Spec,
    args: &RunArgs,
    query_ms: f64,
    stats: &JoinStats,
    pool: &PoolStats,
    report: &mut Report,
) {
    let pages1 = all_pages(&env.t1);
    let pages2 = all_pages(&env.t2);
    report.set("rtree.nodes", (pages1.len() + pages2.len()) as f64);
    // The second tree is the larger one on every workload, so its leaves
    // are the ones a pool smaller than the tree cycles through.
    let (hit_ns, miss_ns) = scan_probe(&env.t2, &pages2, spec.frames);
    // Logical node visits as the engine counts them; the decoded-view cache
    // absorbs most, so the pool (and `scan_node`) sees only `accesses()`.
    let visits = if stats.node_accesses > 0 {
        stats.node_accesses
    } else {
        pool.accesses()
    };
    let (config, seed) = (&args.config, args.seed);
    let (push_ns, pop_ns) = queue_probe(
        config,
        stats.max_queue,
        ratio(stats.pairs_enqueued as f64, stats.pairs_dequeued as f64),
        seed,
    );
    let mindist_ns = mindist_probe(config, seed);
    report.set("rtree.node_accesses_per_query", visits as f64);
    report.set("rtree.scan_hit_ns", hit_ns);
    report.set("storage.miss_ns", miss_ns);
    report.set("pqueue.push_ns", push_ns);
    report.set("pqueue.pop_ns", pop_ns);
    report.set("geom.mindist_ns_per_rect", mindist_ns);
    let budgets = [
        (
            "rtree.est_busy_ms",
            "rtree.est_busy_share",
            pool.accesses() as f64 * hit_ns,
        ),
        (
            "storage.est_busy_ms",
            "storage.est_busy_share",
            pool.misses as f64 * miss_ns,
        ),
        (
            "pqueue.est_busy_ms",
            "pqueue.est_busy_share",
            stats.pairs_enqueued as f64 * push_ns + stats.pairs_dequeued as f64 * pop_ns,
        ),
        (
            "geom.est_busy_ms",
            "geom.est_busy_share",
            stats.distance_calcs as f64 * mindist_ns,
        ),
    ];
    let mut rest = query_ms;
    for (ms_name, share_name, ns) in budgets {
        let ms = ns / 1e6;
        rest -= ms;
        report.set(ms_name, ms);
        report.set(share_name, ratio(ms, query_ms));
    }
    report.set("core.est_self_ms", rest);
    report.set("core.est_self_share", ratio(rest, query_ms));
}

/// Chosen wall ÷ best forced wall, from two forced runs per path. Only
/// the traced run pays for these.
fn plan_regret(env: &Env, spec: &Spec, config: JoinConfig, chosen_ms: f64) -> f64 {
    let mut best = f64::INFINITY;
    for force in [PlanChoice::Incremental, PlanChoice::Bulk] {
        for _ in 0..2 {
            let run = run_query(env, spec.kind, config, Some(force), None, &mut Vec::new());
            best = best.min(run.total_ms);
        }
    }
    chosen_ms / best
}

fn trace_queries(env: &mut Env, spec: &Spec, args: &RunArgs, report: &mut Report) {
    let config = args.config;
    let budget = 0.4 * args.seconds;
    let plain = query_window(env, spec, config, None, spec.warmup, budget, report);

    // Same queries with the engine's own spans on: a context that discards
    // events, both trees' pools reporting I/O into its registry.
    let ctx = ObsContext::noop();
    env.t1.attach_obs(BufferObs::new(&ctx, "tree1.buf"));
    env.t2.attach_obs(BufferObs::new(&ctx, "tree2.buf"));
    let traced = query_window(env, spec, config, Some(&ctx), 0, budget, report);
    if digest(&traced.results) != digest(&plain.results) {
        report.fail(format!(
            "{}: the traced stream differs from the untraced one",
            spec.name
        ));
    }
    let traced_wall: f64 = traced.runs.iter().map(|r| r.total_ms).sum();
    report_spans(&ctx, traced.runs.len() as f64, traced_wall, report);
    let query_ms = med(plain.runs.iter().map(|r| r.total_ms));
    report.set(
        "obs.trace_overhead_ratio",
        med(traced.runs.iter().map(|r| r.total_ms)) / query_ms,
    );
    report.attempted += (plain.runs.len() + traced.runs.len()) as u64;
    report.failed += plain
        .runs
        .iter()
        .chain(&traced.runs)
        .filter(|r| r.error)
        .count() as u64;

    verify_queries(env, spec, args, &plain, report);
    // A fresh pool drops the observers again, so the probes below time the
    // layers as the untraced run uses them.
    env.cold_pools(spec);

    let first = &plain.runs[0];
    report_pool(&first.pool, 1.0, report);
    match spec.kind {
        Kind::Range { dmax } => {
            let ranged = config.with_range(0.0, dmax);
            let mut plans = Vec::new();
            for _ in 0..32 {
                let t = Instant::now();
                std::hint::black_box(plan_for_trees(&env.t1, &env.t2, &ranged));
                plans.push(ms_since(t));
            }
            let plan_ms = median(&plans);
            let (build_ms, run_ms) = report_bulk_parts(env, ranged, report);
            report.set("core.plan.plan_ms", plan_ms);
            let choice = first.executed.expect("planned runs report their path");
            report.set("core.plan.choice", f64::from(choice as u8));
            report.note(
                "core.plan.choice",
                format!("({choice}; 0=incremental 1=bulk 2=adaptive)"),
            );
            report.set(
                "exec.run_planned_overhead_ms",
                query_ms - plan_ms - build_ms - run_ms,
            );
            report.set("core.plan.regret", plan_regret(env, spec, config, query_ms));
            report.set("pqueue.max_len", first.stats.max_queue as f64);
        }
        Kind::Join { k } => {
            report_join_stats(&first.stats, false, report);
            let t = Instant::now();
            let two = ParallelDistanceJoin::new(
                &env.t1,
                &env.t2,
                config.with_max_pairs(k),
                ParallelConfig::with_threads(2),
            )
            .collect();
            report.set("exec.threads2_ratio", query_ms / ms_since(t));
            if two.value.len() != plain.results.len() {
                report.fail(format!(
                    "{}: the 2-thread run returned {} pairs",
                    spec.name,
                    two.value.len()
                ));
            }
        }
        Kind::Semi { .. } => report_join_stats(&first.stats, true, report),
        Kind::Sessions { .. } => unreachable!("sessions are traced per round"),
    }
    if !matches!(spec.kind, Kind::Range { .. }) {
        report.set(
            "core.construct_ms",
            med(plain.runs.iter().map(|r| r.construct_ms)),
        );
        report.set(
            "core.first_next_ms",
            med(plain.runs.iter().map(|r| r.first_ms - r.construct_ms)),
        );
        report.set(
            "core.rest_next_ms",
            med(plain.runs.iter().map(|r| r.total_ms - r.first_ms)),
        );
    }
    report_budgets(env, spec, args, query_ms, &first.stats, &first.pool, report);
}

fn trace_sessions(env: &mut Env, spec: &Spec, args: &RunArgs, report: &mut Report) {
    let Kind::Sessions {
        k,
        dmax,
        concurrent,
        ..
    } = spec.kind
    else {
        unreachable!()
    };
    let config = args.config;
    let w = round_window(env, spec, config, 0.6 * args.seconds, report);
    report.attempted += w.rounds.iter().map(|r| r.ops).sum::<u64>();
    report.failed += w.rounds.iter().map(|r| r.failed_ops).sum::<u64>();
    let solo_ms = verify_rounds(env, spec, args, &w, report);

    let round = &w.rounds[0];
    let sessions = round.sessions.len() as f64;
    report_pool(&round.pool, sessions, report);
    report.set(
        "service.pool_hit_ratio",
        ratio(round.pool.hits as f64, round.pool.accesses() as f64),
    );
    report.set(
        "service.open_ms",
        med(w.rounds.iter().flat_map(|r| &r.sessions).map(|s| s.open_ms)),
    );
    let mut waits = w.waits.clone();
    waits.sort_by(f64::total_cmp);
    report.set("service.batch_p50_ms", percentile_sorted(&waits, 50.0));
    report.set("service.batch_p99_ms", percentile_sorted(&waits, 99.0));
    let (pct, p999) = supported_tail(&waits, 99.9);
    report.set("service.batch_p999_ms", p999);
    report.note(
        "service.batch_p999_ms",
        format!("n={} percentile={pct:.2}", waits.len()),
    );
    report.set(
        "service.batch_max_ms",
        *waits.last().expect("a round pulls"),
    );
    report.set("service.batches", round.pulls as f64);
    report.set("service.peak_held_mb", round.peak_held as f64 / 1e6);
    report.set(
        "service.admission_denied",
        w.rounds.iter().map(|r| r.denied).sum::<u64>() as f64,
    );
    let solo_sum: f64 = round
        .sessions
        .iter()
        .map(|s| solo_ms[s.shape % SHAPES])
        .sum();
    report.set(
        "service.overhead_ratio",
        ratio(med(w.rounds.iter().map(|r| r.wall_ms)), solo_sum),
    );
    // Fairness within wave 0, the sessions that opened together: the same
    // query should not finish much later because of its slot in the rotation.
    let spread = (0..SHAPES)
        .filter_map(|shape| {
            let done: Vec<f64> = round
                .sessions
                .iter()
                .filter(|s| s.index < concurrent && s.shape % SHAPES == shape)
                .map(|s| s.total_ms)
                .collect();
            let (lo, hi) = (
                done.iter().copied().reduce(f64::min)?,
                done.iter().copied().reduce(f64::max)?,
            );
            Some(hi / lo)
        })
        .fold(0.0, f64::max);
    report.set("service.fairness_spread", spread);

    // The plans behind the shapes, run directly: what the adaptive driver
    // decided, and the materialise-on-first-pull stall of the planned shape.
    let pool0 = env.pool();
    let t = Instant::now();
    let adaptive = AdaptiveDistanceJoin::with_configs(
        &env.t1,
        &env.t2,
        config.with_max_pairs(k),
        BulkConfig::default(),
        AdaptiveConfig::default(),
    )
    .run();
    let adaptive_ms = ms_since(t);
    let adaptive_pool = env.pool().since(&pool0);
    report.set(
        "core.adaptive.replans_per_query",
        f64::from(u8::from(adaptive.replanned.is_some())),
    );
    report.set(
        "core.adaptive.regret",
        ratio(adaptive_ms, adaptive_ms.min(solo_ms[0])),
    );
    report_join_stats(&adaptive.stats, false, report);
    let ranged = config.with_range(0.0, dmax);
    report_bulk_parts(env, ranged, report);
    let planned = round
        .sessions
        .iter()
        .find(|s| s.shape % SHAPES == SHAPES - 1)
        .map(|s| s.plan);
    if let Some(choice) = planned {
        report.set("core.plan.choice", f64::from(choice as u8));
        report.note(
            "core.plan.choice",
            format!("({choice}; the Dmax-only shape)"),
        );
    }
    // Layer budgets of one adaptive-shape query run alone on the warm pool.
    report_budgets(
        env,
        spec,
        args,
        adaptive_ms,
        &adaptive.stats,
        &adaptive_pool,
        report,
    );
}

/// The traced run: every per-layer metric of `spec`.
pub fn run_traced(spec: &Spec, args: &RunArgs, report: &mut Report) {
    let (mut env, setups) = prepare(spec, args.seed);
    report.set("datagen.gen_ms", 1e3 * med(setups.iter().map(|s| s.gen_s)));
    report.set(
        "rtree.bulk_load_ms",
        1e3 * med(setups.iter().map(|s| s.load_s)),
    );
    match spec.kind {
        Kind::Sessions { .. } => trace_sessions(&mut env, spec, args, report),
        _ => trace_queries(&mut env, spec, args, report),
    }
}
