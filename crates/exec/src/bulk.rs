//! Parallel driver for the bulk partition/plane-sweep join, plus the
//! planned entry point that lets the cost model pick the execution path.
//!
//! The bulk join's cells share nothing (see `sdj_core::bulk`), so the
//! parallel driver is the simplest possible worker pool: a shared atomic
//! cursor over the active-cell list, one scoped thread per worker, each
//! sweeping cells into its own [`CellScratch`] and per-cell output runs.
//! Per-cell runs are deterministic, and the driver reassembles them in cell
//! order (unordered mode) or k-way merges the sorted runs (ordered mode),
//! so the output is **independent of the worker count and of scheduling** —
//! the thread-count invariance the executor tests pin.
//!
//! Results are handed to the consumer through the same [`JoinStream`]
//! interface as the incremental executor's merge, as a fully materialised
//! prefix: the bulk path has no streaming phase, which is exactly the
//! trade-off the planner weighs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use sdj_core::bulk::{
    report_ranks, BulkConfig, BulkDistanceJoin, BulkHit, BulkStats, CellScratch, CellTally,
};
use sdj_core::plan::{plan_for_trees, Plan, PlanChoice};
use sdj_core::{
    AdaptiveConfig, AdaptiveDistanceJoin, AdaptiveOutcome, JoinConfig, JoinStats, ReplanInfo,
    ResultOrder, ResultPair, SpatialIndex,
};
use sdj_obs::{Event, ObsContext, Phase, SpanTimer};
use sdj_storage::StorageError;

use crate::{JoinStream, ParallelConfig, ParallelDistanceJoin, RunOutput};

/// What a finished bulk run hands back alongside the consumer's value.
#[derive(Debug)]
pub struct BulkRunOutput<R> {
    /// The value returned by the stream consumer.
    pub value: R,
    /// Counters of the harvest pass plus every cell sweep.
    pub stats: JoinStats,
    /// Bulk-path counters (cells, sweeps, dedup suppressions, replicas).
    pub bulk: BulkStats,
    /// Storage error from the harvest pass, if any (sweeping itself does no
    /// I/O; a harvest error yields an empty stream carrying the error).
    pub error: Option<StorageError>,
    /// Worker threads spawned for the sweep phase.
    pub workers_spawned: usize,
}

/// Builder for a parallel bulk distance join over two indexes.
///
/// The trees are read only while the run *builds* its partition (the serial
/// harvest pass); the sweep phase touches no index, so — unlike the
/// incremental executor — the indexes need not be `Sync`.
pub struct ParallelBulkJoin<'a, const D: usize, I1, I2>
where
    I1: SpatialIndex<D>,
    I2: SpatialIndex<D>,
{
    tree1: &'a I1,
    tree2: &'a I2,
    config: JoinConfig,
    bulk_config: BulkConfig,
    parallel: ParallelConfig,
    obs: Option<ObsContext>,
}

impl<'a, const D: usize, I1, I2> ParallelBulkJoin<'a, D, I1, I2>
where
    I1: SpatialIndex<D>,
    I2: SpatialIndex<D>,
{
    /// Bulk join with default grid tuning.
    #[must_use]
    pub fn new(tree1: &'a I1, tree2: &'a I2, config: JoinConfig, parallel: ParallelConfig) -> Self {
        Self {
            tree1,
            tree2,
            config,
            bulk_config: BulkConfig::default(),
            parallel,
            obs: None,
        }
    }

    /// Overrides the grid tuning.
    #[must_use]
    pub fn with_bulk_config(mut self, bulk_config: BulkConfig) -> Self {
        self.bulk_config = bulk_config;
        self
    }

    /// Instruments the run: `bulk.*` registry counters, sampled
    /// `ResultReported` events on the emitted stream, and one
    /// `WorkerFinished` per sweep worker.
    #[must_use]
    pub fn with_obs(mut self, ctx: ObsContext) -> Self {
        self.obs = Some(ctx);
        self
    }

    /// Runs the join in distance order (ascending or descending per the
    /// config): per-cell sorted runs, k-way merged, truncated to
    /// `max_pairs`. The stream lives only for the duration of the call.
    pub fn run<R>(self, consume: impl FnOnce(&mut JoinStream) -> R) -> BulkRunOutput<R> {
        self.execute(true, consume)
    }

    /// Runs the join in within-range mode: every qualifying pair, in
    /// deterministic cell order rather than distance order (cheaper — no
    /// per-cell sort, no merge). Falls back to the ordered run when
    /// `max_pairs` is set, where "first k" is only defined by distance.
    pub fn run_unordered<R>(self, consume: impl FnOnce(&mut JoinStream) -> R) -> BulkRunOutput<R> {
        let ordered = self.config.max_pairs.is_some();
        self.execute(ordered, consume)
    }

    /// Runs the ordered join and collects every result.
    pub fn collect(self) -> BulkRunOutput<Vec<ResultPair>> {
        self.run(|stream| stream.collect())
    }

    fn execute<R>(
        self,
        ordered: bool,
        consume: impl FnOnce(&mut JoinStream) -> R,
    ) -> BulkRunOutput<R> {
        let ascending = matches!(self.config.order, ResultOrder::Ascending);
        let mut join = match BulkDistanceJoin::with_bulk_config_obs(
            self.tree1,
            self.tree2,
            self.config,
            self.bulk_config,
            self.obs.as_ref(),
        ) {
            Ok(join) => join,
            Err(e) => {
                // Same contract as the incremental executor's
                // partitioning error: an empty stream carrying the error.
                let mut stream =
                    JoinStream::new(Vec::new(), Vec::new(), ascending, None, None, None);
                stream.error = Some(e.clone());
                let value = consume(&mut stream);
                return BulkRunOutput {
                    value,
                    stats: JoinStats::default(),
                    bulk: BulkStats::default(),
                    error: Some(e),
                    workers_spawned: 0,
                };
            }
        };

        let (results, workers) =
            sweep_pool(&mut join, ordered, &self.parallel, self.obs.as_ref(), 0);

        let stats = join.stats();
        let bulk = join.bulk_stats();
        let mut stream = JoinStream::new(results, Vec::new(), ascending, None, None, None);
        let value = consume(&mut stream);
        BulkRunOutput {
            value,
            stats,
            bulk,
            error: None,
            workers_spawned: workers,
        }
    }
}

/// The shared cell-sweep worker pool: sweeps a built [`BulkDistanceJoin`]'s
/// active cells with a shared atomic cursor and scoped threads, reassembles
/// per-cell runs in cell order (or k-way merges them when `ordered`), and
/// finishes the hits into results. Used by [`ParallelBulkJoin`] for
/// tree-harvested runs and by [`run_adaptive`] for frontier-seeded ones —
/// output is identical for any worker count either way. `base_rank` is the
/// number of results the stream emitted before this run (an adaptive
/// prefix), so the reported ranks continue it.
fn sweep_pool<const D: usize>(
    join: &mut BulkDistanceJoin<D>,
    ordered: bool,
    parallel: &ParallelConfig,
    obs: Option<&ObsContext>,
    base_rank: u64,
) -> (Vec<ResultPair>, usize) {
    let ascending = matches!(join.config().order, ResultOrder::Ascending);
    let max_pairs = join.config().max_pairs;
    let active = join.active_cells().to_vec();
    let workers = parallel.threads.max(1).min(active.len().max(1));
    let cursor = AtomicUsize::new(0);
    // Per-cell output runs, scattered back into cell order after the
    // pool joins — output is identical for any worker count.
    let runs: Mutex<Vec<Vec<BulkHit>>> = Mutex::new(vec![Vec::new(); active.len()]);
    let tallies: Mutex<Vec<CellTally>> = Mutex::new(Vec::with_capacity(active.len()));

    std::thread::scope(|scope| {
        for w in 0..workers {
            let join = &*join;
            let active = &active;
            let cursor = &cursor;
            let runs = &runs;
            let tallies = &tallies;
            scope.spawn(move || {
                // Per-worker scratch carries its own span timer; cell
                // sweeps record Sweep/Kernel/Dedup, run sorting Merge.
                let mut scratch = obs.map_or_else(CellScratch::default, CellScratch::for_context);
                let mut sort_spans = obs.and_then(SpanTimer::from_context);
                let mut local: Vec<(usize, Vec<BulkHit>)> = Vec::new();
                let mut local_tallies: Vec<CellTally> = Vec::new();
                let mut emitted: u64 = 0;
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(&cell) = active.get(i) else { break };
                    let mut run = Vec::new();
                    let tally = join.sweep_cell(cell as usize, &mut scratch, &mut run);
                    emitted += tally.emitted;
                    if ordered && !run.is_empty() {
                        if let Some(t) = &mut sort_spans {
                            t.enter(Phase::Merge);
                        }
                        sdj_core::bulk::sort_run(&mut run, ascending);
                        if let Some(t) = &mut sort_spans {
                            t.exit(Phase::Merge);
                        }
                    }
                    local.push((i, run));
                    local_tallies.push(tally);
                }
                if let Some(ctx) = obs {
                    ctx.sink.emit(&Event::WorkerFinished {
                        worker: u32::try_from(w + 1).unwrap_or(u32::MAX),
                        results: emitted,
                    });
                }
                let mut runs = runs
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                for (i, run) in local {
                    runs[i] = run;
                }
                tallies
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .extend(local_tallies);
            });
        }
    });

    for tally in tallies
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
    {
        join.absorb_tally(&tally);
    }
    let runs = runs
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut merge_spans = obs.and_then(SpanTimer::from_context);
    if let Some(t) = &mut merge_spans {
        t.enter(Phase::Merge);
    }
    let hits = if ordered {
        sdj_core::bulk::merge_sorted_runs(runs, ascending, max_pairs)
    } else {
        runs.into_iter().flatten().collect()
    };
    if let Some(t) = &mut merge_spans {
        t.exit(Phase::Merge);
    }
    let results = join.finish(hits);

    let bulk = join.bulk_stats();
    if let Some(ctx) = obs {
        ctx.registry.counter("bulk.cells").add(bulk.cells);
        ctx.registry
            .counter("bulk.cell_pairs_swept")
            .add(bulk.cell_pairs_swept);
        ctx.registry
            .counter("bulk.pairs_deduped")
            .add(bulk.pairs_deduped);
        report_ranks(ctx, base_rank, &results);
    }
    (results, workers)
}

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
    /// Worker threads spawned by the executed path.
    pub workers_spawned: usize,
}

/// Plans and runs a distance join: consults the cost model (or the
/// `force` override), emits the `PlanChosen` event and `plan.*` registry
/// instruments, then executes the chosen path in parallel and collects the
/// ordered results.
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
    I1: SpatialIndex<D> + Sync,
    I2: SpatialIndex<D> + Sync,
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
    match executed {
        PlanChoice::Incremental => {
            let mut join = ParallelDistanceJoin::new(tree1, tree2, config, parallel);
            if let Some(ctx) = &obs {
                join = join.with_obs(ctx.clone());
            }
            let RunOutput {
                value,
                stats,
                error,
                workers_spawned,
            } = join.collect();
            PlannedRun {
                results: value,
                stats,
                bulk: None,
                plan,
                executed,
                forced,
                replanned: None,
                error,
                workers_spawned,
            }
        }
        PlanChoice::Bulk => {
            let mut join =
                ParallelBulkJoin::new(tree1, tree2, config, parallel).with_bulk_config(bulk_config);
            if let Some(ctx) = &obs {
                join = join.with_obs(ctx.clone());
            }
            let out = join.collect();
            PlannedRun {
                results: out.value,
                stats: out.stats,
                bulk: Some(out.bulk),
                plan,
                executed,
                forced,
                replanned: None,
                error: out.error,
                workers_spawned: out.workers_spawned,
            }
        }
        PlanChoice::Adaptive => {
            let out = run_adaptive(tree1, tree2, config, parallel, bulk_config, adaptive, obs);
            PlannedRun {
                plan,
                forced,
                ..out
            }
        }
    }
}

/// Runs the adaptive path: the incremental engine with checkpointed
/// re-costing, and — when a handoff fires — the frontier-seeded bulk
/// remainder swept by the shared worker pool. The merged ordered stream is
/// collected; `replanned` records the switch coordinate when one fired.
///
/// The returned `plan`/`executed` fields are set to the adaptive path
/// itself; [`run_planned`] overwrites `plan` with the static verdict when
/// dispatching here.
pub fn run_adaptive<const D: usize, I1, I2>(
    tree1: &I1,
    tree2: &I2,
    config: JoinConfig,
    parallel: ParallelConfig,
    bulk_config: BulkConfig,
    adaptive: AdaptiveConfig,
    obs: Option<ObsContext>,
) -> PlannedRun
where
    I1: SpatialIndex<D> + Sync,
    I2: SpatialIndex<D> + Sync,
{
    let plan = plan_for_trees(tree1, tree2, &config);
    let mut join = AdaptiveDistanceJoin::with_configs(tree1, tree2, config, bulk_config, adaptive);
    if let Some(ctx) = &obs {
        join = join.with_obs(ctx);
    }
    match join.execute() {
        AdaptiveOutcome::Completed(run) => PlannedRun {
            results: run.results,
            stats: run.stats,
            bulk: None,
            plan,
            executed: PlanChoice::Adaptive,
            forced: false,
            replanned: run.replanned,
            error: run.error,
            workers_spawned: 0,
        },
        AdaptiveOutcome::Handoff(h) => {
            let mut bulk = h.bulk;
            let base_rank = h.prefix.len() as u64;
            let (tail, workers) = sweep_pool(&mut bulk, true, &parallel, obs.as_ref(), base_rank);
            let mut results = h.prefix;
            results.extend(tail);
            let mut stats = h.inc_stats;
            stats.merge(&bulk.stats());
            PlannedRun {
                results,
                stats,
                bulk: Some(bulk.bulk_stats()),
                plan,
                executed: PlanChoice::Adaptive,
                forced: false,
                replanned: Some(h.info),
                error: None,
                workers_spawned: workers,
            }
        }
    }
}
