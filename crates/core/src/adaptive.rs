//! Adaptive mid-query replanning: incremental → bulk frontier handoff.
//!
//! The static planner ([`crate::plan`]) must commit to an execution path
//! before the first page is read, from nothing but catalog-grade inputs
//! (cardinalities, extents, the query's restrictions) and a one-node
//! frontier probe. When those inputs mislead — a clustered workload probed
//! at a uniform-looking root, a `STOP AFTER k` whose k-th distance is far
//! beyond what the selectivity model guessed — the chosen path can be
//! several times slower than the alternative, and a static plan has no way
//! back.
//!
//! [`AdaptiveDistanceJoin`] removes the cliff. Every query starts on the
//! incremental engine (which is the right choice whenever few results are
//! consumed, and whose queue is, conveniently, a complete serialisation of
//! its own progress). At every `pop_stride` pops the driver reads the live
//! run signals that cost nothing to collect — pops, results, queue length,
//! pairs enqueued — and re-evaluates the PR 6 cost model with the static
//! frontier estimate *ratcheted up* by what the run has actually staged
//! ([`crate::plan::replan`]). When the model says the remaining incremental
//! work exceeds a frontier-seeded bulk run by at least a hysteresis margin,
//! the engine is paused, its queue exported (`DistanceJoin::into_frontier`),
//! the frontier's items harvested down to object entries, and the
//! remainder of the query handed to a [`BulkDistanceJoin`] seeded with
//! exactly those entries.
//!
//! # Why the handoff is exact
//!
//! The seeded bulk run sweeps the cross product of the harvested sides,
//! which *over*-generates relative to the frontier's true descendant pair
//! set: two objects harvested from different queue entries may form a pair
//! that was already emitted, or one that the paused engine had legitimately
//! pruned. Every such pair is re-excluded by construction:
//!
//! * **Already emitted** — ascending emission is monotone in the key
//!   domain, so every emitted pair lies at or below the engine's
//!   [`EmissionWatermark`] (last emitted key plus the tie set at exactly
//!   that key). The bulk sweep drops candidates strictly below the floor
//!   key, and candidates *at* the floor key iff they are in the tie set.
//!   Keys are compared bit-for-bit: both engines compute MINDIST with the
//!   same kernels in the same key domain, no `sqrt` round-trip.
//! * **Estimator-pruned** — the engine's maximum-distance bound only ever
//!   tightens, so a pair pruned at any earlier bound also exceeds the
//!   final bound exported as the frontier's `dmax_hint`; the seeded run
//!   applies that hint as its maximum key.
//! * **Range-restricted / self pairs** — the bulk sweep re-applies
//!   `[Dmin, Dmax]` and `exclude_equal_ids` to every candidate.
//!
//! Completeness is the best-first invariant: every qualifying pair not yet
//! emitted is a descendant of exactly one queue entry, and harvesting an
//! entry's subtree(s) yields supersets of each side of every descendant
//! pair. With `STOP AFTER k`, the seeded run's `max_pairs` is set to the
//! results still owed, and its ordered merge truncates exactly there.
//!
//! Consequently `prefix ++ seeded-bulk` reproduces the pure incremental
//! stream's distance sequence bit-for-bit (tie order within an
//! equal-distance group follows the bulk path's deterministic merge, the
//! same contract the forced-bulk path already has) — the
//! property `crates/core/tests/adaptive_equivalence.rs` fuzzes with handoffs
//! forced at arbitrary checkpoints. The seeded remainder is swept by
//! [`BulkDistanceJoin::run_with_workers`], so
//! [`AdaptiveDistanceJoin::run_with_workers`] shares its tail out over a
//! worker pool with the same stream for any worker count.

use std::collections::{HashSet, VecDeque};

use sdj_geom::Rect;
use sdj_obs::{Event, ObsContext, Phase, PlanPath};
use sdj_rtree::{ObjectId, RTree};
use sdj_storage::StorageError;

use crate::bulk::{BulkConfig, BulkDistanceJoin, BulkStats};
use crate::config::{JoinConfig, ResultOrder};
use crate::cursor::{BulkCursor, JoinCursor};
use crate::index::{IndexEntry, IndexNode, NodeId, SpatialIndex};
use crate::join::{DistanceJoin, ResultPair};
use crate::oracle::MbrOracle;
use crate::pair::Item;
use crate::plan::{self, ObservedProgress, PlanInputs};
use crate::stats::JoinStats;

/// Knobs of the adaptive driver.
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveConfig {
    /// Queue pops between checkpoints. Signals are read and the model
    /// re-evaluated once per stride; the default keeps checkpoint overhead
    /// well below one part in a thousand of the pop work itself.
    pub pop_stride: u64,
    /// Hysteresis margin: the switch fires only when the re-costed
    /// remaining incremental work exceeds `hysteresis ×` the seeded-bulk
    /// estimate. Guards against flapping on model noise near the
    /// break-even point.
    pub hysteresis: f64,
    /// Maximum number of replans per run (the handoff is one-way, so this
    /// caps how many times the model may fire; the default allows the
    /// single incremental → bulk switch).
    pub max_replans: u32,
    /// Test knob: unconditionally hand off at the first checkpoint at or
    /// after this many pops, ignoring the cost model (`Some(0)` = before
    /// any pop). The equivalence suite uses it to force handoffs at
    /// arbitrary points; production runs leave it `None`.
    pub force_handoff_at: Option<u64>,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self {
            pop_stride: 4096,
            hysteresis: 1.05,
            max_replans: 1,
            force_handoff_at: None,
        }
    }
}

/// The signals read at one checkpoint, plus the re-costing verdict — kept
/// so reports and tests can replay why (and why not) a run switched.
#[derive(Clone, Copy, Debug)]
pub struct ReplanSignals {
    /// 1-based checkpoint index.
    pub checkpoint: u64,
    /// Pops performed when the checkpoint fired.
    pub pops: u64,
    /// Results emitted so far.
    pub results: u64,
    /// Queue length at the checkpoint, counting the pairs the queue
    /// compaction dropped as still queued (see [`crate::JoinStats::pairs_discarded`]).
    pub queue_len: usize,
    /// Pairs enqueued so far.
    pub pairs_enqueued: u64,
    /// The ratcheted frontier estimate (see [`crate::plan::replan`]).
    pub observed_frontier: f64,
    /// Pops per result so far (`inf` before the first result).
    pub pops_per_result: f64,
    /// Net queue growth per pop since the start.
    pub queue_growth_per_pop: f64,
    /// Sampled share of run self-time spent in queue phases
    /// (pop/push/spill/reload), when span profiling is on.
    pub queue_self_share: Option<f64>,
    /// Re-costed remaining work of staying incremental.
    pub est_incremental_remaining: f64,
    /// Re-costed work of the frontier-seeded bulk remainder.
    pub est_bulk_remaining: f64,
    /// Whether this checkpoint triggered the handoff.
    pub switched: bool,
}

/// Where and why a run switched paths.
#[derive(Clone, Copy, Debug)]
pub struct ReplanInfo {
    /// Pops performed when the switch fired.
    pub at_pop: u64,
    /// Results already emitted when the switch fired.
    pub at_pair: u64,
    /// Re-costed remaining incremental work at the switch.
    pub est_incremental_remaining: f64,
    /// Re-costed seeded-bulk work at the switch.
    pub est_bulk_remaining: f64,
    /// True when [`AdaptiveConfig::force_handoff_at`] fired instead of the
    /// cost model.
    pub forced: bool,
}

/// A finished (or failed-clean) adaptive run.
#[derive(Debug)]
pub struct AdaptiveRun {
    /// The result stream: the incremental prefix followed by the seeded
    /// bulk remainder (empty tail when no replan fired).
    pub results: Vec<ResultPair>,
    /// Counters of the whole run: the incremental phase (including frontier
    /// harvest node accesses when a handoff ran) plus the bulk tail's.
    pub stats: JoinStats,
    /// Bulk-phase counters, when a handoff ran.
    pub bulk_stats: Option<BulkStats>,
    /// The switch record, when a handoff ran.
    pub replanned: Option<ReplanInfo>,
    /// Every checkpoint's signals, in order.
    pub signals: Vec<ReplanSignals>,
    /// Fail-clean terminal error: when `Some`, `results` is a correct
    /// prefix of the fault-free stream (the PR 5 contract — a fault inside
    /// the handoff itself surfaces here too, never as wrong results).
    pub error: Option<StorageError>,
}

/// The adaptive driver: an incremental join that may hand its remainder to
/// a frontier-seeded bulk join mid-run. See the module docs.
///
/// Adaptivity is gated to plain ascending joins: descending order has no
/// monotone watermark, and the semi-join / window variants carry engine
/// state (seen-sets, clip windows) the bulk path does not model. Ineligible
/// configurations run the incremental engine to completion unchanged.
pub struct AdaptiveDistanceJoin<'a, const D: usize, I1 = RTree<D>, I2 = RTree<D>> {
    tree1: &'a I1,
    tree2: &'a I2,
    config: JoinConfig,
    bulk_config: BulkConfig,
    adaptive: AdaptiveConfig,
    ctx: Option<ObsContext>,
    queue_fault: Option<std::sync::Arc<sdj_storage::FaultInjector>>,
}

impl<'a, const D: usize, I1, I2> AdaptiveDistanceJoin<'a, D, I1, I2>
where
    I1: SpatialIndex<D>,
    I2: SpatialIndex<D>,
{
    /// Starts an adaptive join with explicit bulk and adaptive knobs.
    #[must_use]
    pub fn with_configs(
        tree1: &'a I1,
        tree2: &'a I2,
        config: JoinConfig,
        bulk_config: BulkConfig,
        adaptive: AdaptiveConfig,
    ) -> Self {
        config.assert_valid();
        Self {
            tree1,
            tree2,
            config,
            bulk_config,
            adaptive,
            ctx: None,
            queue_fault: None,
        }
    }

    /// Attaches instrumentation: the inner engines report through `ctx`,
    /// checkpoints sample the queue self-time share from its span registry,
    /// and a handoff emits [`Event::Replanned`] plus the `plan.replans` /
    /// `plan.replan_at_pair` gauges.
    #[must_use]
    pub fn with_obs(mut self, ctx: &ObsContext) -> Self {
        self.ctx = Some(ctx.clone());
        self
    }

    /// Injects faults into the incremental engine's hybrid queue pager
    /// (chaos testing; see [`DistanceJoin::set_queue_fault_injector`]).
    pub fn set_queue_fault_injector(
        &mut self,
        injector: Option<std::sync::Arc<sdj_storage::FaultInjector>>,
    ) {
        self.queue_fault = injector;
    }

    /// True when a checkpoint of this run may ever switch: a plain ascending
    /// join (see the type docs) with a replan allowance. The handoff is
    /// one-way and ends the incremental phase, so the answer never changes
    /// while that phase runs.
    #[must_use]
    pub fn can_replan(&self) -> bool {
        matches!(self.config.order, ResultOrder::Ascending) && self.adaptive.max_replans > 0
    }

    /// Runs to completion on the caller's thread:
    /// [`AdaptiveDistanceJoin::run_with_workers`] with one worker.
    #[must_use]
    pub fn run(self) -> AdaptiveRun {
        self.run_with_workers(1)
    }

    /// Runs to completion: drains the cursor — the incremental engine
    /// through its checkpoints and, if a handoff fires, the seeded bulk
    /// join swept by `workers` threads (see
    /// [`BulkDistanceJoin::run_with_workers`]) behind the prefix.
    #[must_use]
    pub fn run_with_workers(self, workers: usize) -> AdaptiveRun {
        let mut cursor = self.cursor();
        cursor.workers = workers;
        let mut results = Vec::new();
        let error = cursor.advance(usize::MAX, &mut results).err();
        AdaptiveRun {
            results,
            stats: JoinCursor::stats(&cursor),
            bulk_stats: cursor.bulk_stats(),
            replanned: cursor.replanned,
            signals: cursor.signals,
            error,
        }
    }

    /// Converts the driver into a pull-paced cursor, advanced only as far as
    /// the consumer's [`JoinCursor::advance`] calls demand, so a session can
    /// hold the join paused between batches with the frontier intact.
    ///
    /// The engine is built here: configured (instrumentation, fault
    /// injection, watermark tracking) and seeded, next to the planner inputs
    /// its checkpoints re-cost against.
    #[must_use]
    pub fn cursor(self) -> AdaptiveCursor<'a, D, I1, I2> {
        let inputs = PlanInputs::from_trees(self.tree1, self.tree2, &self.config);
        let mut join = DistanceJoin::new(self.tree1, self.tree2, self.config);
        if let Some(ctx) = &self.ctx {
            join = join.with_obs(ctx);
        }
        if let Some(inj) = &self.queue_fault {
            join.set_queue_fault_injector(Some(std::sync::Arc::clone(inj)));
        }
        join.track_watermark();
        AdaptiveCursor {
            driver: self,
            inputs,
            workers: 1,
            state: CursorState::Incremental(Box::new(join)),
            buf: VecDeque::new(),
            signals: Vec::new(),
            replanned: None,
            stats: JoinStats::default(),
            pending_error: None,
        }
    }

    /// Sampled share of run self-time spent inside the queue (pop, push,
    /// spill, reload) — one of the live signals checkpoints record. `None`
    /// without instrumentation or before any span sample lands.
    fn queue_self_share(&self) -> Option<f64> {
        let ctx = self.ctx.as_ref()?;
        let snapshot = ctx.registry.spans().snapshot();
        let mut queue_ns = 0.0;
        let mut total_ns = 0.0;
        for p in &snapshot {
            let ns = p.est_total_ns();
            total_ns += ns;
            if matches!(
                p.phase,
                Phase::QueuePop | Phase::QueuePush | Phase::Spill | Phase::Reload
            ) {
                queue_ns += ns;
            }
        }
        (total_ns > 0.0).then(|| queue_ns / total_ns)
    }
}

/// Where an [`AdaptiveCursor`] currently is in its run.
enum CursorState<'a, const D: usize, I1, I2>
where
    I1: SpatialIndex<D>,
    I2: SpatialIndex<D>,
{
    /// Driving the incremental engine through checkpoints.
    Incremental(Box<DistanceJoin<'a, D, MbrOracle, I1, I2>>),
    /// A handoff fired: the seeded bulk remainder, swept by its first pull
    /// and drained by the ones after. Terminal — the drained cursor stays
    /// here so its counters stay readable.
    Tail(Box<BulkCursor<'a, D, I1, I2>>),
    /// The incremental engine ran out, or the run failed clean.
    Finished,
}

/// A pull-driven adaptive join: the one checkpoint/replan/handoff machine,
/// behind [`JoinCursor`].
///
/// Each pull that finds its buffer empty drives at most one stride of queue
/// pops (or up to the forced handoff point), then runs the checkpoint:
/// observed progress, [`plan::replan`], a [`ReplanSignals`] record, and —
/// when the verdict says switch — the frontier handoff. The checkpoint
/// schedule is a function of the pop count alone, so the replan decisions
/// are the same however the consumer chops its pulls;
/// [`AdaptiveDistanceJoin::run_with_workers`] is one pull over this same
/// cursor. A stride can produce more results than the pull asked for — pops
/// and results are different clocks — and the surplus (at most one stride's
/// worth) waits in a buffer for the next pull. After a handoff the stream
/// continues from a [`BulkCursor`] over the seeded remainder, which sweeps it
/// on its first pull. A configuration that can never replan (descending
/// order) has no checkpoints to keep: its pulls go straight to the engine's own
/// [`JoinCursor::advance`], which stops at `n` results.
///
/// Fail-clean shape: a storage fault ends the stream, but every result
/// produced before it is still handed out first; the typed error surfaces
/// once the buffered prefix has drained (the PR 5 "correct prefix, then the
/// error" contract, adapted to a pull API).
pub struct AdaptiveCursor<'a, const D: usize, I1 = RTree<D>, I2 = RTree<D>>
where
    I1: SpatialIndex<D>,
    I2: SpatialIndex<D>,
{
    driver: AdaptiveDistanceJoin<'a, D, I1, I2>,
    inputs: PlanInputs<D>,
    /// Sweep workers of the bulk tail, should a handoff fire.
    workers: usize,
    state: CursorState<'a, D, I1, I2>,
    /// Results a stride produced beyond what the consumer asked for.
    buf: VecDeque<ResultPair>,
    signals: Vec<ReplanSignals>,
    replanned: Option<ReplanInfo>,
    /// Incremental-phase counters (including the handoff's harvest), frozen
    /// when that phase ends.
    stats: JoinStats,
    /// A terminal fault, held until the buffered prefix has drained.
    pending_error: Option<StorageError>,
}

impl<const D: usize, I1, I2> AdaptiveCursor<'_, D, I1, I2>
where
    I1: SpatialIndex<D>,
    I2: SpatialIndex<D>,
{
    /// The one checkpoint routine: pop budget → `drive` → observed progress
    /// → [`plan::replan`] → [`ReplanSignals`] → maybe the handoff. Results
    /// land in `buf`, a fault in `pending_error` (so the buffered prefix
    /// drains first). Returns the switch record and the seeded bulk join,
    /// unswept, when this checkpoint handed off; either way the incremental
    /// phase is over once the state is no longer `Incremental`.
    fn checkpoint(&mut self) -> Option<(ReplanInfo, BulkDistanceJoin<D>)> {
        let CursorState::Incremental(join) = &mut self.state else {
            return None;
        };
        let adaptive = self.driver.adaptive;
        let stride = adaptive.pop_stride.max(1);
        let budget = match adaptive.force_handoff_at {
            // No checkpoint can ever fire: drain without pausing.
            _ if !self.driver.can_replan() => u64::MAX,
            // Stop exactly at the forced pop count.
            Some(at) => at.saturating_sub(join.stats().pairs_dequeued).min(stride),
            None => stride,
        };
        if budget > 0 {
            let driven = join.drive(budget, &mut self.buf);
            if !matches!(driven, Ok(false)) {
                self.stats = join.stats();
                self.pending_error = driven.err();
                self.state = CursorState::Finished;
                return None;
            }
        }

        let stats = join.stats();
        // Pairs the queue compaction dropped still count as queued: they did
        // enter the frontier, and the replan verdicts stay those of a queue
        // that kept them.
        let observed = ObservedProgress {
            pops: stats.pairs_dequeued,
            results: stats.pairs_reported,
            enqueued: stats.pairs_enqueued,
            queue_len: join.queue_len() + stats.pairs_discarded as usize,
        };
        let forced = matches!(adaptive.force_handoff_at, Some(at) if observed.pops >= at);
        let verdict = plan::replan(&self.inputs, &observed, adaptive.hysteresis);
        let switched = forced || verdict.switch;
        self.signals.push(ReplanSignals {
            checkpoint: self.signals.len() as u64 + 1,
            pops: observed.pops,
            results: observed.results,
            queue_len: observed.queue_len,
            pairs_enqueued: observed.enqueued,
            observed_frontier: verdict.observed_frontier,
            pops_per_result: if observed.results == 0 {
                f64::INFINITY
            } else {
                observed.pops as f64 / observed.results as f64
            },
            queue_growth_per_pop: if observed.pops == 0 {
                0.0
            } else {
                observed.queue_len as f64 / observed.pops as f64
            },
            queue_self_share: self.driver.queue_self_share(),
            est_incremental_remaining: verdict.est_incremental_remaining,
            est_bulk_remaining: verdict.est_bulk_remaining,
            switched,
        });
        if !switched {
            return None;
        }
        let info = ReplanInfo {
            at_pop: observed.pops,
            at_pair: observed.results,
            est_incremental_remaining: verdict.est_incremental_remaining,
            est_bulk_remaining: verdict.est_bulk_remaining,
            forced,
        };
        self.handoff(&info).map(|bulk| (info, bulk))
    }

    /// Pauses the engine, exports and harvests its frontier, and seeds the
    /// bulk remainder. Ends the incremental phase whatever happens: a fault
    /// inside the export or harvest fails clean (the prefix emitted so far,
    /// then the typed error), and a frontier that finished the join while
    /// being exported leaves nothing to seed — both return `None`.
    fn handoff(&mut self, info: &ReplanInfo) -> Option<BulkDistanceJoin<D>> {
        let CursorState::Incremental(join) =
            std::mem::replace(&mut self.state, CursorState::Finished)
        else {
            return None;
        };
        let floor = join.watermark().cloned();
        let frontier = join.into_frontier();
        self.stats = frontier.stats;
        self.pending_error = frontier.error;
        if self.pending_error.is_some() || frontier.exhausted {
            return None;
        }

        let driver = &self.driver;
        let mut side1 = HarvestSide::default();
        let mut side2 = HarvestSide::default();
        for (_, pair) in &frontier.shard {
            let harvested = side1
                .collect(driver.tree1, &pair.item1, &mut self.stats)
                .and_then(|()| side2.collect(driver.tree2, &pair.item2, &mut self.stats));
            if let Err(e) = harvested {
                self.pending_error = Some(e);
                return None;
            }
        }

        let mut seeded_config = driver.config;
        seeded_config.max_pairs = frontier.remaining_pairs;
        let bulk = BulkDistanceJoin::from_frontier(
            side1.entries,
            side2.entries,
            seeded_config,
            driver.bulk_config,
            floor.as_ref(),
            frontier.dmax_hint,
            driver.ctx.as_ref(),
            self.stats.pairs_reported,
        );

        if let Some(ctx) = &driver.ctx {
            ctx.sink.emit(&Event::Replanned {
                from: PlanPath::Incremental,
                to: PlanPath::Bulk,
                at_pop: info.at_pop,
                at_pair: info.at_pair,
                est_incremental_remaining: info.est_incremental_remaining,
                est_bulk_remaining: info.est_bulk_remaining,
            });
            ctx.registry.gauge("plan.replans").set(1);
            ctx.registry
                .gauge("plan.replan_at_pair")
                .set(i64::try_from(info.at_pair).unwrap_or(i64::MAX));
        }
        Some(bulk)
    }

    /// True once every result has been handed out and no error is pending.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.buf.is_empty()
            && self.pending_error.is_none()
            && match &self.state {
                CursorState::Incremental(_) => false,
                CursorState::Tail(tail) => tail.is_drained(),
                CursorState::Finished => true,
            }
    }

    /// Bulk-phase counters, once a handoff has run.
    #[must_use]
    pub fn bulk_stats(&self) -> Option<BulkStats> {
        match &self.state {
            CursorState::Tail(tail) => Some(tail.bulk_stats()),
            _ => None,
        }
    }

    /// The switch record, once a handoff has fired.
    #[must_use]
    pub fn replanned(&self) -> Option<&ReplanInfo> {
        self.replanned.as_ref()
    }

    /// Every checkpoint's signals so far, in order.
    #[must_use]
    pub fn signals(&self) -> &[ReplanSignals] {
        &self.signals
    }

    /// Re-registers the underlying queue's gauges under `prefix` (e.g.
    /// `session.3.`), for per-session attribution. No-op once the
    /// incremental phase has ended.
    pub fn attach_queue_obs_prefixed(&mut self, ctx: &ObsContext, prefix: &str) {
        if let CursorState::Incremental(j) = &mut self.state {
            j.attach_queue_obs_prefixed(ctx, prefix);
        }
    }
}

impl<const D: usize, I1, I2> JoinCursor for AdaptiveCursor<'_, D, I1, I2>
where
    I1: SpatialIndex<D>,
    I2: SpatialIndex<D>,
{
    fn advance(&mut self, n: usize, out: &mut Vec<ResultPair>) -> sdj_storage::Result<bool> {
        let target = out.len().saturating_add(n);
        loop {
            let buffered = self.buf.len().min(target - out.len());
            out.extend(self.buf.drain(..buffered));
            let want = target - out.len();
            if want == 0 {
                return Ok(self.is_done());
            }
            match &mut self.state {
                CursorState::Finished => {
                    return self.pending_error.take().map_or(Ok(true), Err);
                }
                CursorState::Tail(tail) => return tail.advance(want, out),
                // No checkpoint to keep: the engine paces itself.
                CursorState::Incremental(join) if !self.driver.can_replan() => {
                    let pulled = join.advance(want, out);
                    if !matches!(pulled, Ok(false)) {
                        self.stats = join.stats();
                        self.state = CursorState::Finished;
                    }
                    return pulled;
                }
                CursorState::Incremental(_) => {
                    if let Some((info, bulk)) = self.checkpoint() {
                        self.replanned = Some(info);
                        self.state =
                            CursorState::Tail(Box::new(BulkCursor::seeded(bulk, self.workers)));
                    }
                }
            }
        }
    }

    fn held_bytes(&self) -> usize {
        let engine = match &self.state {
            CursorState::Incremental(join) => join.queue_bytes() + join.estimator_bytes(),
            CursorState::Tail(tail) => tail.held_bytes(),
            CursorState::Finished => 0,
        };
        engine + self.buf.len() * std::mem::size_of::<ResultPair>()
    }

    /// The incremental phase's counters, plus the bulk tail's once a
    /// handoff has swept it.
    fn stats(&self) -> JoinStats {
        match &self.state {
            CursorState::Incremental(join) => join.stats(),
            CursorState::Tail(tail) => {
                let mut stats = self.stats;
                stats.merge(&tail.stats());
                stats
            }
            CursorState::Finished => self.stats,
        }
    }
}

/// One side's harvest state: frontier items flattened to object entries,
/// with per-side dedup. A node's subtree is walked at most once (two
/// frontier pairs may share an item), and an object reached both directly
/// and through an ancestor node's walk is kept once — object identity is
/// the dedup key, so any overlap between harvested subtrees collapses.
#[derive(Default)]
struct HarvestSide<const D: usize> {
    entries: Vec<(ObjectId, Rect<D>)>,
    visited_nodes: HashSet<NodeId>,
    seen_oids: HashSet<u64>,
    buf: IndexNode<D>,
    stack: Vec<NodeId>,
}

impl<const D: usize> HarvestSide<D> {
    fn push_object(&mut self, oid: ObjectId, mbr: Rect<D>) {
        if self.seen_oids.insert(oid.0) {
            self.entries.push((oid, mbr));
        }
    }

    fn collect<I>(
        &mut self,
        tree: &I,
        item: &Item<D>,
        stats: &mut JoinStats,
    ) -> sdj_storage::Result<()>
    where
        I: SpatialIndex<D> + ?Sized,
    {
        match *item {
            Item::Obr { oid, mbr } | Item::Object { oid, mbr } => {
                self.push_object(oid, mbr);
                Ok(())
            }
            Item::Node { page, .. } => {
                if !self.visited_nodes.insert(page) {
                    return Ok(());
                }
                self.stack.clear();
                self.stack.push(page);
                while let Some(id) = self.stack.pop() {
                    tree.read_node_into(id, &mut self.buf)?;
                    stats.node_accesses += 1;
                    // Split borrows: drain entries out of the buffer before
                    // touching `self` again.
                    let entries = std::mem::take(&mut self.buf.entries);
                    for e in &entries {
                        match *e {
                            IndexEntry::Child { id, .. } => {
                                if self.visited_nodes.insert(id) {
                                    self.stack.push(id);
                                }
                            }
                            IndexEntry::Object { oid, mbr } => self.push_object(oid, mbr),
                        }
                    }
                    self.buf.entries = entries;
                    self.buf.entries.clear();
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EstimationBound, QueueBackend};
    use sdj_datagen::{uniform_points, unit_box};
    use sdj_pqueue::HybridConfig;
    use sdj_rtree::{ObjectId, RTreeConfig};

    /// 1 500 uniform points and one far object, which stretches the root
    /// over a 100 × 100 box. That puts the distance bands' first ceiling
    /// (`DESIGN.md` §22) far above a K-th distance, so the queue holds the
    /// pairs the estimate comes to kill, as it would without bands.
    fn tree(seed: u64) -> RTree<2> {
        let mut items: Vec<_> = uniform_points(1_500, &unit_box(), seed)
            .iter()
            .enumerate()
            .map(|(i, p)| (ObjectId(i as u64), p.to_rect()))
            .collect();
        items.push((ObjectId(1_500), Rect::new([100.0, 100.0], [100.0, 100.0])));
        RTree::bulk_load(RTreeConfig::small(8), items)
    }

    /// A checkpoint counts the pairs the queue compaction dropped as still
    /// queued, so the replanner reads what it would from a queue that kept
    /// them: a memory-backed run, which compacts, records the same signals
    /// and verdicts at every checkpoint as a hybrid-backed run of the same
    /// query, which never does.
    #[test]
    fn compaction_leaves_replan_signals_unchanged() {
        let (t1, t2) = (tree(61), tree(62));
        let adaptive = AdaptiveConfig {
            pop_stride: 97,
            ..AdaptiveConfig::default()
        };
        let run = |queue: QueueBackend| {
            let config = JoinConfig {
                estimation: EstimationBound::AllPairs,
                queue,
                ..JoinConfig::default()
            }
            .with_max_pairs(5_000);
            AdaptiveDistanceJoin::with_configs(&t1, &t2, config, BulkConfig::default(), adaptive)
                .run()
        };
        let memory = run(QueueBackend::Memory);
        let hybrid = run(QueueBackend::Hybrid(HybridConfig::with_dt(0.01)));
        assert!(memory.error.is_none() && hybrid.error.is_none());
        assert!(
            memory.stats.pairs_discarded > 0,
            "the memory queue never compacted"
        );
        assert_eq!(hybrid.stats.pairs_discarded, 0);
        assert_eq!(memory.results, hybrid.results);
        assert!(
            memory.signals.len() > 10,
            "{} checkpoints",
            memory.signals.len()
        );
        assert_eq!(memory.signals.len(), hybrid.signals.len());
        for (m, h) in memory.signals.iter().zip(&hybrid.signals) {
            // `ReplanSignals` holds floats; its debug form compares every
            // field, bit for bit where it matters.
            assert_eq!(format!("{m:?}"), format!("{h:?}"));
        }
        assert_eq!(
            memory.replanned.map(|r| r.at_pop),
            hybrid.replanned.map(|r| r.at_pop)
        );
    }
}
