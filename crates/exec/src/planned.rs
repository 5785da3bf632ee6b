//! The planned entry point: the cost model picks the execution path and
//! [`run_planned`] runs it.
//!
//! Each path is its engine's own constructor plus one call: the incremental
//! path is the serial `DistanceJoin`, on the calling thread; the bulk path
//! is `BulkDistanceJoin::run_with_workers` (whose scoped sweep pool lives in
//! `sdj_core::bulk`), and the adaptive path
//! `AdaptiveDistanceJoin::run_with_workers`, which hands a mid-run switch's
//! remainder to that same bulk sweep. Only the sweeps use
//! [`ParallelConfig::threads`].

use sdj_core::bulk::{BulkConfig, BulkDistanceJoin, BulkStats};
use sdj_core::plan::{plan_for_trees, Plan, PlanChoice};
use sdj_core::{
    AdaptiveConfig, AdaptiveDistanceJoin, DistanceJoin, JoinConfig, JoinStats, ReplanInfo,
    ResultPair, SpatialIndex,
};
use sdj_obs::{Event, ObsContext};
use sdj_storage::StorageError;

use crate::ParallelConfig;

/// Execution-path override for [`run_planned`]: `None` lets the cost model
/// decide, `Some(choice)` forces a path (the `--force-plan` flag).
pub type ForcedPlan = Option<PlanChoice>;

/// What a planned run hands back: the collected results plus the planner's
/// verdict and the executed path, so reports can expose `plan.choice`.
#[derive(Debug)]
pub struct PlannedRun {
    /// The full ordered result set.
    pub results: Vec<ResultPair>,
    /// Merged engine counters of whichever path executed.
    pub stats: JoinStats,
    /// Bulk-path counters — `None` when the incremental path executed.
    pub bulk: Option<BulkStats>,
    /// The cost model's verdict (estimates included), regardless of forcing.
    pub plan: Plan,
    /// The path that actually executed (differs from `plan.choice` only
    /// under a force).
    pub executed: PlanChoice,
    /// True when an override forced the path.
    pub forced: bool,
    /// The adaptive path's mid-run switch record — `None` for the static
    /// paths, and for adaptive runs that never fired.
    pub replanned: Option<ReplanInfo>,
    /// First storage error, if any.
    pub error: Option<StorageError>,
    /// Sweep worker threads spawned by the executed path (0 for the
    /// incremental path, which runs on the calling thread).
    pub workers_spawned: usize,
}

/// Plans and runs a distance join: consults the cost model (or the
/// `force` override), emits the `PlanChosen` event and `plan.*` registry
/// instruments, then executes the chosen path and collects the ordered
/// results.
///
/// The adaptive knobs are an explicit per-call parameter, not process
/// state: two queries in the same process may run with different strides
/// or forced handoffs.
#[allow(clippy::too_many_arguments)] // one knob struct per execution path, by design
pub fn run_planned<const D: usize, I1, I2>(
    tree1: &I1,
    tree2: &I2,
    config: JoinConfig,
    parallel: ParallelConfig,
    bulk_config: BulkConfig,
    adaptive: AdaptiveConfig,
    force: ForcedPlan,
    obs: Option<ObsContext>,
) -> PlannedRun
where
    I1: SpatialIndex<D>,
    I2: SpatialIndex<D>,
{
    let plan = plan_for_trees(tree1, tree2, &config);
    let executed = force.unwrap_or(plan.choice);
    let forced = force.is_some();
    if let Some(ctx) = &obs {
        ctx.sink.emit(&Event::PlanChosen {
            path: executed.into(),
            forced,
            est_incremental: plan.est_incremental,
            est_bulk: plan.est_bulk,
        });
        // `plan.choice` gauge: 0 = incremental, 1 = bulk, 2 = adaptive;
        // the per-path counters make the choice visible in counter-only
        // views.
        ctx.registry
            .gauge("plan.choice")
            .set(i64::from(executed.code()));
        ctx.registry
            .counter(&format!("plan.{}", executed.as_str()))
            .inc();
        if forced {
            ctx.registry.counter("plan.forced").inc();
        }
        // Cost-model estimates as gauges, so the report's calibration
        // section can compare predictions against observed phase times.
        let clamp = |v: f64| {
            if v.is_finite() {
                v.min(i64::MAX as f64).round() as i64
            } else {
                i64::MAX
            }
        };
        ctx.registry
            .gauge("plan.est_incremental")
            .set(clamp(plan.est_incremental));
        ctx.registry
            .gauge("plan.est_bulk")
            .set(clamp(plan.est_bulk));
        ctx.registry
            .gauge("plan.est_pairs")
            .set(clamp(plan.est_pairs));
    }
    let threads = parallel.threads;
    let (results, stats, bulk, replanned, error, workers_spawned) = match executed {
        PlanChoice::Incremental => {
            let mut join = DistanceJoin::new(tree1, tree2, config);
            if let Some(ctx) = &obs {
                join = join.with_obs(ctx);
            }
            let results = join.by_ref().collect();
            (results, join.stats(), None, None, join.take_error(), 0)
        }
        PlanChoice::Bulk => {
            match BulkDistanceJoin::with_bulk_config_obs(
                tree1,
                tree2,
                config,
                bulk_config,
                obs.as_ref(),
            ) {
                Ok(mut join) => {
                    let results = join.run_with_workers(threads);
                    let bulk = join.bulk_stats();
                    let workers = bulk.sweep_workers(threads);
                    (results, join.stats(), Some(bulk), None, None, workers)
                }
                // A harvest error: no results, and the error.
                Err(e) => (
                    Vec::new(),
                    JoinStats::default(),
                    Some(BulkStats::default()),
                    None,
                    Some(e),
                    0,
                ),
            }
        }
        PlanChoice::Adaptive => {
            let mut join =
                AdaptiveDistanceJoin::with_configs(tree1, tree2, config, bulk_config, adaptive);
            if let Some(ctx) = &obs {
                join = join.with_obs(ctx);
            }
            let run = join.run_with_workers(threads);
            let workers = run.bulk_stats.map_or(0, |b| b.sweep_workers(threads));
            (
                run.results,
                run.stats,
                run.bulk_stats,
                run.replanned,
                run.error,
                workers,
            )
        }
    };
    PlannedRun {
        results,
        stats,
        bulk,
        plan,
        executed,
        forced,
        replanned,
        error,
        workers_spawned,
    }
}
