//! The incremental distance join (§2.2) and distance semi-join (§2.3).
//!
//! One engine implements both operations: a priority queue of item pairs,
//! keyed by distance with configurable tie-breaking, from which object pairs
//! stream out in distance order. The semi-join is the same traversal with
//! first-item duplicate suppression and optional `d_max` pruning layered on.
//!
//! The engine is generic over the two spatial indexes ([`SpatialIndex`]),
//! which may even be of different kinds — §2.2's "the algorithm works for
//! any spatial data structure based on a hierarchical decomposition".
//!
//! The iterator's entire state is the priority queue (plus bookkeeping), so
//! a pipelined consumer can stop after any number of results having paid
//! only for what it consumed — the paper's central claim.
//!
//! # Key domain
//!
//! All internal distances — queue keys, range restrictions, estimator and
//! semi-join bounds, the shared cross-worker bound — live in the
//! configuration's *key space* ([`JoinConfig::key_space`]). Under the
//! default [`crate::config::KeyDomain::Squared`] these are squared Euclidean
//! distances: the monotone `x ↦ x²` map preserves every comparison, so the
//! pop order is untouched while MINDIST/MAXDIST evaluations skip their
//! `sqrt`. The single root per result is paid in [`DistanceJoin::report`],
//! and reported distances are bitwise identical to a plain-domain run
//! (`DESIGN.md` §8 gives the argument).

use sdj_geom::{KeySpace, Rect, SoaRects};
use sdj_obs::{ObsContext, Phase};
use sdj_rtree::{ObjectId, RTree};
use sdj_storage::StorageError;

use crate::bound::SharedDistanceBound;
use crate::config::{EstimationBound, ExpansionPath, JoinConfig, ResultOrder, TraversalPolicy};
use crate::estimate::{Estimator, EstimatorMode, NO_SLOT};
use crate::index::{IndexEntry, NodeId, SpatialIndex};
use crate::obs::JoinObs;
use crate::oracle::{DistanceOracle, MbrOracle};
use crate::pair::{Item, ItemId, Pair, PairKey};
use crate::queue::JoinQueue;
use crate::semi::{SeenSet, SemiConfig, SemiState};
use crate::stats::JoinStats;
use crate::view::{NodeView, ViewCache, VIEW_CACHE_CAP};

/// Queue length below which the join never compacts its queue against its
/// pop-time filters (see [`DistanceJoin::compact_queue`]): a small queue
/// costs little memory, and a filter pass over it would cost more than it
/// frees.
const COMPACT_FLOOR: usize = 4096;

/// The tests a pair faces when it is popped, before it is reported or
/// expanded (Figure 3's dequeue step plus §2.3's semi-join filters):
/// the §2.2.4 estimate, a parallel run's shared bound, the reported set `S`
/// and the pair's first item's `d_max` bound. Each only ever tightens, so a
/// queued pair one of them drops now would be dropped when popped, which is
/// what lets [`DistanceJoin::compact_queue`] apply them early.
struct PopFilter<'s> {
    /// The §2.2.4 estimate, or +∞ without an estimator (which only an
    /// ascending run has).
    estimate: f64,
    /// A parallel run's shared bound, or +∞.
    shared: f64,
    semi: Option<&'s SemiState>,
}

/// What the pop-time filters know: the estimate, the size of the reported
/// set and the number of `d_max` tightenings. Each moves one way only, so
/// the filters can drop a pair they kept at the last compaction only once
/// the state differs from what that compaction saw.
#[derive(Clone, Copy, PartialEq)]
struct FilterState {
    estimate: f64,
    seen: usize,
    bounds_tightened: u64,
}

/// Which [`PopFilter`] test dropped a pair.
#[derive(Clone, Copy)]
enum Dropped {
    Estimate,
    Shared,
    Seen,
    Dmax,
}

impl Dropped {
    /// The [`JoinStats`] counter a pop dropped this way feeds.
    fn counter(self, stats: &mut JoinStats) -> &mut u64 {
        match self {
            Self::Estimate => &mut stats.pruned_by_estimate,
            Self::Shared => &mut stats.pruned_by_shared,
            Self::Seen => &mut stats.filtered_seen,
            Self::Dmax => &mut stats.pruned_by_dmax,
        }
    }
}

impl<'s> PopFilter<'s> {
    fn new(estimator: Option<&Estimator>, semi: Option<&'s SemiState>, shared: f64) -> Self {
        Self {
            estimate: estimator.map_or(f64::INFINITY, Estimator::current_dmax),
            shared,
            semi,
        }
    }

    /// The test that drops a pair keyed `key`, if any. `limit` yields the
    /// [`item_limit`](Self::item_limit) of the pair's first item; it is
    /// called only for a semi-join, so a join's test reads the key alone.
    fn test(&self, key: f64, limit: impl FnOnce() -> f64) -> Option<Dropped> {
        if key > self.estimate {
            return Some(Dropped::Estimate);
        }
        if key > self.shared {
            return Some(Dropped::Shared);
        }
        self.semi?;
        let limit = limit();
        if key <= limit {
            None
        } else if limit == f64::NEG_INFINITY {
            Some(Dropped::Seen)
        } else {
            Some(Dropped::Dmax)
        }
    }

    /// The largest key a pair led by `item1` may have and pass the
    /// semi-join's tests: −∞ once `item1` is a reported object (under
    /// `Inside1`/`Inside2`), else its `d_max` bound, else +∞. Bounds are
    /// finite (`SemiState::update_bound` refuses others), so −∞ means
    /// reported.
    fn item_limit(&self, item1: ItemId) -> f64 {
        let Some(semi) = self.semi else {
            return f64::INFINITY;
        };
        if let ItemId::Object(oid) = item1 {
            if semi.filters_on_dequeue() && semi.seen.contains(oid) {
                return f64::NEG_INFINITY;
            }
        }
        // Only the global `d_max` strategies keep bounds, and they require
        // ascending order.
        semi.bound_for(item1).unwrap_or(f64::INFINITY)
    }
}

/// Fills a MINDIST key column the way `path` asks: the batched kernel, its
/// lane-unrolled form, or one scalar bound evaluation per rectangle
/// ([`ExpansionPath::Scalar`] — the oracle the kernels are tested against,
/// run over the same columns). All three produce identical bits, so every
/// caller (expansion, sweep windows, the bulk executor) is free to A/B them.
#[inline]
pub(crate) fn mindist_keys_into<const D: usize>(
    soa: &SoaRects<D>,
    path: ExpansionPath,
    keys: KeySpace,
    q: &Rect<D>,
    range: std::ops::Range<usize>,
    out: &mut Vec<f64>,
) {
    match path {
        ExpansionPath::Batched => soa.mindist_keys(keys, q, range, out),
        ExpansionPath::Lanes => soa.mindist_keys_lanes(keys, q, range, out),
        ExpansionPath::Scalar => {
            scalar_keys_into(soa, range, out, |r| keys.mindist_rect_rect(r, q));
        }
    }
}

/// [`mindist_keys_into`] for the MAXDIST column pass.
#[inline]
pub(crate) fn maxdist_keys_into<const D: usize>(
    soa: &SoaRects<D>,
    path: ExpansionPath,
    keys: KeySpace,
    q: &Rect<D>,
    range: std::ops::Range<usize>,
    out: &mut Vec<f64>,
) {
    match path {
        ExpansionPath::Batched => soa.maxdist_keys(keys, q, range, out),
        ExpansionPath::Lanes => soa.maxdist_keys_lanes(keys, q, range, out),
        ExpansionPath::Scalar => {
            scalar_keys_into(soa, range, out, |r| keys.maxdist_rect_rect(r, q));
        }
    }
}

/// [`ExpansionPath::Scalar`]'s column fill: `bound` of each rectangle in
/// `range`, one at a time. Out of line, so the expansion routines the two
/// helpers above inline into carry the kernel calls and nothing else.
#[inline(never)]
fn scalar_keys_into<const D: usize>(
    soa: &SoaRects<D>,
    range: std::ops::Range<usize>,
    out: &mut Vec<f64>,
    bound: impl Fn(&Rect<D>) -> f64,
) {
    out.extend(range.map(|i| bound(&soa.get(i))));
}

/// The axis the semi-join leaf sweep walks the second leaf along for the
/// first object `r1` against the second leaf's region `r2`: the axis on
/// which `r1` lies farthest outside `r2`, so the walk meets the side of the
/// leaf facing `r1` first; for an object that overlaps the region on every
/// axis, the axis on which the region is widest, where a window of a given
/// width cuts most.
fn sweep_axis<const D: usize>(r1: &Rect<D>, r2: &Rect<D>) -> usize {
    let mut best = (0, f64::NEG_INFINITY, f64::NEG_INFINITY);
    for a in 0..D {
        // Clamped: every axis on which `r1` overlaps the region ties at 0.
        let gap = (r2.lo()[a] - r1.hi()[a])
            .max(r1.lo()[a] - r2.hi()[a])
            .max(0.0);
        let extent = r2.extent(a);
        if gap > best.1 || (gap == 0.0 && best.1 == 0.0 && extent > best.2) {
            best = (a, gap, extent);
        }
    }
    best.0
}

/// One result of a distance join: a pair of objects and their distance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResultPair {
    /// Object from the first relation.
    pub oid1: ObjectId,
    /// Object from the second relation.
    pub oid2: ObjectId,
    /// Distance between the two objects.
    pub distance: f64,
}

/// The incremental distance join / distance semi-join iterator.
///
/// Created by [`DistanceJoin::new`] (join) or [`DistanceJoin::semi`]
/// (semi-join); yields [`ResultPair`]s in the configured distance order.
/// Generic over the oracle for exact object distances and the two index
/// types (defaulting to R\*-trees).
pub struct DistanceJoin<'a, const D: usize, O = MbrOracle, I1 = RTree<D>, I2 = RTree<D>>
where
    O: DistanceOracle<D>,
    I1: SpatialIndex<D>,
    I2: SpatialIndex<D>,
{
    tree1: &'a I1,
    tree2: &'a I2,
    oracle: O,
    config: JoinConfig,
    /// The key space every internal distance lives in (squared Euclidean by
    /// default); see the module docs.
    keys: KeySpace,
    /// `config.min_distance` mapped into the key domain, rounded outward
    /// ([`KeySpace::range_keys`]).
    min_key: f64,
    /// `config.max_distance` mapped into the key domain, rounded outward.
    max_key: f64,
    queue: JoinQueue<D>,
    estimator: Option<Estimator>,
    semi: Option<SemiState>,
    stats: JoinStats,
    io_baseline: u64,
    reported: u64,
    done: bool,
    error: Option<StorageError>,
    /// §2.2.5 spatial selection: first-relation objects must fall inside
    /// this window.
    window1: Option<Rect<D>>,
    /// §2.2.5 spatial selection: second-relation objects must fall inside
    /// this window.
    window2: Option<Rect<D>>,
    /// Cross-worker maximum-distance bound of a parallel run (ascending
    /// order only): read for pruning, written from the estimator.
    shared_bound: Option<&'a SharedDistanceBound>,
    /// The estimator bound last handed to the shared bound and the obs
    /// handle; [`publish_shared_bound`](Self::publish_shared_bound) is a
    /// no-op until the estimate drops below it.
    published_key: f64,
    /// Instrumentation handle; `None` (the default) keeps the hot path to a
    /// single branch per hook site. Boxed: its local histograms would
    /// otherwise widen every engine, instrumented or not.
    obs: Option<Box<JoinObs>>,
    /// [`queue_bytes`](JoinQueue::queue_bytes) at the last insertion flush.
    flushed_bytes: usize,
    /// Queue length at which the next flush compacts the queue against the
    /// pop-time filters, and the filters' state the last compaction saw
    /// (see [`compact_queue`](Self::compact_queue)).
    compact_at: usize,
    compacted_state: FilterState,
    /// Semi-join `d_max` bounds tightened so far (the events that also feed
    /// `JoinObs::on_semi_bound`).
    bounds_tightened: u64,
    /// Pairs accepted by the filter pipeline but not yet in the queue, each
    /// with its estimator slot; flushed in one batch per expansion.
    pending: Vec<(PairKey, Pair<D>, u32)>,
    /// Reusable buffers for the expansion hot paths, so steady-state
    /// iteration performs no per-node allocation.
    scratch_entries1: Vec<IndexEntry<D>>,
    scratch_entries2: Vec<IndexEntry<D>>,
    scratch_children: Vec<(Pair<D>, f64)>,
    /// Key buffers the batched kernels write into.
    scratch_keys: Vec<f64>,
    scratch_keys2: Vec<f64>,
    /// Struct-of-arrays columns of the plane sweep's sorted right entries.
    scratch_soa2: SoaRects<D>,
    /// The semi-join leaf sweep's second-leaf entries as `(low end, entry
    /// index)`, one column per axis, each sorted; and one first object's
    /// candidates as `(entry index, MINDIST key)`.
    scratch_order: Vec<(f64, usize)>,
    scratch_cands: Vec<(usize, f64)>,
    /// Per-side caches of decoded struct-of-arrays node views.
    views1: ViewCache<D>,
    views2: ViewCache<D>,
    /// Scratch page batches for queue-driven prefetch hints, one per side,
    /// handed to [`SpatialIndex::prefetch_nodes`].
    scratch_hints: Vec<NodeId>,
    scratch_hint_pages: Vec<NodeId>,
    /// Emission watermark, maintained only when the adaptive driver enables
    /// it ([`DistanceJoin::track_watermark`]); `None` keeps the result path
    /// free of the extra bookkeeping.
    watermark: Option<EmissionWatermark>,
}

/// The last emitted result's position in the (monotone, ascending) output
/// order: its key-domain distance plus every pair emitted at *exactly* that
/// key. A frontier-seeded bulk run filters its candidates against this
/// floor — strictly smaller keys were all emitted already (emission is
/// monotone non-decreasing), and equal keys are emitted iff they are not in
/// the tie set — so the seeded run produces exactly the not-yet-emitted
/// remainder. Comparisons happen in the key domain on both sides (the bulk
/// kernels produce bit-identical keys to the incremental kernels), so the
/// floor is exact: no epsilon, no sqrt round-trip.
#[derive(Clone, Debug, Default)]
pub struct EmissionWatermark {
    /// Key-domain value of the last emitted result; `-inf` before the
    /// first emission (nothing is below the floor).
    pub key: f64,
    /// `(oid1, oid2)` of every result emitted at exactly `key`, cleared
    /// whenever a strictly greater key is emitted.
    pub ties: Vec<(ObjectId, ObjectId)>,
}

impl EmissionWatermark {
    fn new() -> Self {
        Self {
            key: f64::NEG_INFINITY,
            ties: Vec::new(),
        }
    }
}

/// Outcome of processing one queue element.
enum StepOutcome {
    /// An object pair was reported.
    Result(ResultPair),
    /// The element was expanded, refined, or pruned; iteration continues.
    Continue,
    /// The queue is empty.
    Exhausted,
}

/// A partition of an in-flight join produced by
/// [`DistanceJoin::into_frontier`]: the results already reported while the
/// queue was grown (globally the closest — every later result is at least as
/// far), and the queue split into shards whose descendant object-pair sets
/// are pairwise disjoint, so independent engines resumed from them
/// ([`DistanceJoin::resume`]) jointly produce exactly the remaining results.
pub struct JoinFrontier<const D: usize> {
    /// Results reported during partitioning, in order.
    pub prefix: Vec<ResultPair>,
    /// Disjoint queue shards (round-robin dealt, so distances are spread
    /// evenly across them).
    pub shards: Vec<Vec<(PairKey, Pair<D>)>>,
    /// Semi-join: snapshot of the reported set at the split point.
    pub seen: Option<SeenSet>,
    /// Tightest maximum distance proven at the split point (query bound and
    /// estimator); seeds a parallel run's shared bound. Expressed in the
    /// join's key domain (squared under the default squared Euclidean keys),
    /// matching what resumed workers compare queue keys against.
    pub dmax_hint: f64,
    /// Results still owed after the prefix, when `max_pairs` was set.
    pub remaining_pairs: Option<u64>,
    /// Counters of the partitioning run.
    pub stats: JoinStats,
    /// I/O error that stopped partitioning early, if any.
    pub error: Option<sdj_storage::StorageError>,
    /// True when the serial run finished during partitioning (all shards are
    /// then empty and `prefix` is the complete result).
    pub exhausted: bool,
}

impl<'a, const D: usize, I1, I2> DistanceJoin<'a, D, MbrOracle, I1, I2>
where
    I1: SpatialIndex<D>,
    I2: SpatialIndex<D>,
{
    /// Starts a distance join over two indexes whose objects are stored
    /// directly in the leaves (points or rectangles).
    #[must_use]
    pub fn new(tree1: &'a I1, tree2: &'a I2, config: JoinConfig) -> Self {
        Self::with_oracle(tree1, tree2, MbrOracle, config)
    }

    /// Starts a distance semi-join ("for each object of `tree1`, its nearest
    /// partner in `tree2`, streamed in distance order").
    #[must_use]
    pub fn semi(tree1: &'a I1, tree2: &'a I2, config: JoinConfig, semi: SemiConfig) -> Self {
        Self::semi_with_oracle(tree1, tree2, MbrOracle, config, semi)
    }
}

impl<'a, const D: usize, O, I1, I2> DistanceJoin<'a, D, O, I1, I2>
where
    O: DistanceOracle<D>,
    I1: SpatialIndex<D>,
    I2: SpatialIndex<D>,
{
    /// Starts a distance join with exact object distances supplied by
    /// `oracle` (objects stored externally to the leaves).
    #[must_use]
    pub fn with_oracle(tree1: &'a I1, tree2: &'a I2, oracle: O, config: JoinConfig) -> Self {
        Self::build(tree1, tree2, oracle, config, None)
    }

    /// Starts a distance semi-join with exact object distances supplied by
    /// `oracle`.
    #[must_use]
    pub fn semi_with_oracle(
        tree1: &'a I1,
        tree2: &'a I2,
        oracle: O,
        config: JoinConfig,
        semi: SemiConfig,
    ) -> Self {
        Self::build(tree1, tree2, oracle, config, Some(semi))
    }

    fn build(
        tree1: &'a I1,
        tree2: &'a I2,
        oracle: O,
        config: JoinConfig,
        semi_config: Option<SemiConfig>,
    ) -> Self {
        let mut join = Self::assemble(tree1, tree2, oracle, config, semi_config);
        join.seed();
        join
    }

    /// Everything [`build`](Self::build) does except seeding the queue.
    fn assemble(
        tree1: &'a I1,
        tree2: &'a I2,
        oracle: O,
        config: JoinConfig,
        semi_config: Option<SemiConfig>,
    ) -> Self {
        config.assert_valid();
        let semi = semi_config.map(|mut sc| {
            if !matches!(sc.dmax, crate::semi::DmaxStrategy::None) {
                // The paper's d_max strategies all build on Inside2
                // filtering; upgrade silently.
                sc.filter = crate::semi::SemiFilter::Inside2;
                assert!(
                    matches!(config.order, ResultOrder::Ascending),
                    "semi-join d_max pruning bounds nearest partners and \
                     requires ascending order"
                );
            }
            SemiState::new(sc, tree1.len())
        });
        let keys = config.key_space();
        let (min_key, max_key) = keys.range_keys(config.min_distance, config.max_distance);
        let estimator = match (config.max_pairs, config.order) {
            (Some(k), ResultOrder::Ascending) => Some(Estimator::new(
                if semi.is_some() {
                    EstimatorMode::Semi
                } else {
                    EstimatorMode::Join
                },
                k,
                // The estimator is domain-agnostic: it only compares and
                // stores values the join feeds it, all of which are keys.
                max_key,
            )),
            _ => None,
        };
        // Only an engine with a pop-time filter compacts its queue. Every
        // `d_max` strategy implies `Inside2`, which filters at the pop.
        let compact_at =
            if estimator.is_some() || semi.as_ref().is_some_and(SemiState::filters_on_dequeue) {
                COMPACT_FLOOR
            } else {
                usize::MAX
            };
        let io_baseline = tree1.io_misses() + tree2.io_misses();
        Self {
            tree1,
            tree2,
            oracle,
            config,
            keys,
            min_key,
            max_key,
            queue: JoinQueue::new(&config.queue, config.layout, keys),
            estimator,
            semi,
            stats: JoinStats::default(),
            io_baseline,
            reported: 0,
            // `STOP AFTER 0` asks for nothing, seeded or resumed; otherwise
            // `done` is only set once a report reaches the limit.
            done: config.max_pairs == Some(0),
            error: None,
            window1: None,
            window2: None,
            shared_bound: None,
            published_key: f64::INFINITY,
            obs: None,
            flushed_bytes: 0,
            compact_at,
            compacted_state: FilterState {
                estimate: f64::INFINITY,
                seen: 0,
                bounds_tightened: 0,
            },
            bounds_tightened: 0,
            pending: Vec::new(),
            scratch_entries1: Vec::new(),
            scratch_entries2: Vec::new(),
            scratch_children: Vec::new(),
            scratch_keys: Vec::new(),
            scratch_keys2: Vec::new(),
            scratch_soa2: SoaRects::default(),
            scratch_order: Vec::new(),
            scratch_cands: Vec::new(),
            views1: ViewCache::new(VIEW_CACHE_CAP),
            views2: ViewCache::new(VIEW_CACHE_CAP),
            scratch_hints: Vec::new(),
            scratch_hint_pages: Vec::new(),
            watermark: None,
        }
    }

    /// Resumes the join from one shard of a [`JoinFrontier`]. The shard's
    /// pairs enter the queue verbatim (their ancestors' filters already ran),
    /// holding no slot in this engine's fresh estimator;
    /// `config` should carry the frontier's `remaining_pairs` as `max_pairs`
    /// and `seen` should be the frontier's snapshot so already-reported
    /// first objects are not searched again.
    #[must_use]
    pub fn resume(
        tree1: &'a I1,
        tree2: &'a I2,
        oracle: O,
        config: JoinConfig,
        semi_config: Option<SemiConfig>,
        shard: Vec<(PairKey, Pair<D>)>,
        seen: Option<SeenSet>,
    ) -> Self {
        let mut join = Self::assemble(tree1, tree2, oracle, config, semi_config);
        if let (Some(semi), Some(seen)) = (join.semi.as_mut(), seen) {
            semi.seen = seen;
        }
        // Shard pairs were counted as enqueued by the partitioning run; do
        // not recount them here so merged parallel stats keep push/pop
        // symmetry.
        let shard = shard.into_iter().map(|(key, pair)| (key, pair, NO_SLOT));
        if let Err(e) = join.queue.push_batch(shard) {
            join.error = Some(e);
            join.done = true;
        }
        join
    }

    /// Attaches a cross-worker distance bound (parallel execution, ascending
    /// order): dequeued or considered pairs beyond the bound are pruned, and
    /// bounds proven by this engine's estimator are published to it.
    #[must_use]
    pub fn with_shared_bound(mut self, bound: &'a SharedDistanceBound) -> Self {
        self.shared_bound = Some(bound);
        // A bound proven while seeding reaches the new listener at the next
        // publish site.
        self.published_key = f64::INFINITY;
        self
    }

    /// Instruments the engine: pops, expansions, results, bound tightenings
    /// and queue depth feed the context's sink and registry (published at
    /// the pop-sampling stride, see [`JoinObs`]), and the hybrid queue
    /// backend (if selected) reports tier migrations and occupancy.
    #[must_use]
    pub fn with_obs(self, ctx: &ObsContext) -> Self {
        let obs = JoinObs::new(ctx);
        self.with_obs_handle(ctx, obs)
    }

    /// Like [`with_obs`](Self::with_obs) but with a caller-built handle
    /// (the parallel executor passes per-worker handles).
    #[must_use]
    pub fn with_obs_handle(mut self, ctx: &ObsContext, obs: JoinObs) -> Self {
        self.queue.attach_obs(ctx);
        self.publish_queue_gauges(self.flushed_bytes);
        self.obs = Some(Box::new(obs));
        // The fresh handle has announced no bound yet.
        self.published_key = f64::INFINITY;
        self
    }

    /// A mutable borrow of the attached instrumentation handle, if any.
    pub fn obs_mut(&mut self) -> Option<&mut JoinObs> {
        self.obs.as_deref_mut()
    }

    /// Runs the serial engine until the queue holds at least
    /// `shards * min_pairs_per_shard` pairs (or the join finishes), then
    /// splits the queue into `shards` disjoint shards. Results produced on
    /// the way are returned as the frontier's ordered prefix.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    #[must_use]
    pub fn into_frontier(mut self, shards: usize, min_pairs_per_shard: usize) -> JoinFrontier<D> {
        assert!(shards >= 1, "a frontier needs at least one shard");
        let target = shards.saturating_mul(min_pairs_per_shard).max(shards);
        let mut prefix = Vec::new();
        let mut exhausted = false;
        while !self.done && self.queue.len() < target {
            match self.step() {
                Ok(StepOutcome::Result(r)) => prefix.push(r),
                Ok(StepOutcome::Continue) => {}
                Ok(StepOutcome::Exhausted) => {
                    exhausted = true;
                    break;
                }
                Err(e) => {
                    self.error = Some(e);
                    self.done = true;
                    break;
                }
            }
        }
        // `done` set by the K-limit also finishes the run: the queue's
        // remainder is dead weight, not work to hand out.
        exhausted |= self.done;
        let mut shard_vecs: Vec<Vec<(PairKey, Pair<D>)>> = Vec::with_capacity(shards);
        let per_shard = self.queue.len().div_ceil(shards);
        shard_vecs.resize_with(shards, || Vec::with_capacity(per_shard));
        if !exhausted {
            self.span_enter(Phase::QueuePop);
            if shards == 1 {
                // A single shard needs no round-robin balance and its order
                // is irrelevant (resume re-heapifies, the adaptive handoff
                // harvests): drain without re-sorting work. The flat layout
                // walks its entry arrays straight off the slab.
                let shard = &mut shard_vecs[0];
                if let Err(e) = self
                    .queue
                    .drain_unordered(|key, pair, _| shard.push((key, pair)))
                {
                    if self.error.is_none() {
                        self.error = Some(e);
                    }
                }
            } else {
                let mut next = 0usize;
                loop {
                    match self.queue.pop() {
                        Ok(Some(entry)) => {
                            shard_vecs[next].push(entry);
                            next = (next + 1) % shards;
                        }
                        Ok(None) => break,
                        Err(e) => {
                            // A fault while draining the queue loses the
                            // shards' completeness; surface the error so the
                            // executor aborts instead of running an
                            // incomplete partition.
                            if self.error.is_none() {
                                self.error = Some(e);
                            }
                            break;
                        }
                    }
                }
            }
            self.span_exit(Phase::QueuePop);
        }
        JoinFrontier {
            prefix,
            shards: shard_vecs,
            seen: self.semi.as_ref().map(|s| s.seen.clone()),
            dmax_hint: self.effective_max_key(),
            remaining_pairs: self
                .config
                .max_pairs
                .map(|k| k.saturating_sub(self.reported)),
            stats: self.stats(),
            error: self.error.take(),
            exhausted,
        }
    }

    /// Runs the engine for at most `max_pops` queue pops, appending every
    /// result produced to `out`. Returns `true` when the join finished
    /// (queue exhausted or the `K` limit reached) and `false` when the pop
    /// budget ran out first — the adaptive driver's checkpoint granularity,
    /// far finer than result granularity (a drain-heavy run can pop
    /// millions of node pairs between consecutive results). On a storage
    /// fault the engine is `done` and the error is returned; results
    /// already appended remain a correct prefix (the fail-clean contract).
    pub(crate) fn drive(
        &mut self,
        max_pops: u64,
        out: &mut impl Extend<ResultPair>,
    ) -> sdj_storage::Result<bool> {
        if self.done {
            return Ok(true);
        }
        let budget_end = self.stats.pairs_dequeued.saturating_add(max_pops);
        while self.stats.pairs_dequeued < budget_end {
            match self.step() {
                Ok(StepOutcome::Result(r)) => out.extend(Some(r)),
                Ok(StepOutcome::Continue) => {}
                Ok(StepOutcome::Exhausted) => {
                    self.done = true;
                    return Ok(true);
                }
                Err(e) => {
                    self.done = true;
                    return Err(e);
                }
            }
            if self.done {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Starts maintaining the [`EmissionWatermark`] (adaptive handoff
    /// support). Must be enabled before any result is emitted so the floor
    /// covers the whole prefix.
    pub(crate) fn track_watermark(&mut self) {
        assert!(
            self.stats.pairs_reported == 0,
            "watermark tracking must start before the first result"
        );
        self.watermark = Some(EmissionWatermark::new());
    }

    /// The current emission watermark, if tracking was enabled.
    pub(crate) fn watermark(&self) -> Option<&EmissionWatermark> {
        self.watermark.as_ref()
    }

    /// Restricts the join to objects falling inside the given windows
    /// (§2.2.5's spatial-selection extension; `None` leaves a side
    /// unrestricted). Must be applied before consuming any results.
    ///
    /// # Panics
    /// Panics if results have already been consumed.
    #[must_use]
    pub fn with_windows(mut self, window1: Option<Rect<D>>, window2: Option<Rect<D>>) -> Self {
        assert!(
            self.stats.pairs_dequeued == 0,
            "windows must be set before iteration starts"
        );
        self.window1 = window1;
        self.window2 = window2;
        self
    }

    /// True if `item` can (for nodes) or does (for objects) satisfy the
    /// window restriction of its side.
    fn passes_window(item: &Item<D>, window: &Option<Rect<D>>) -> bool {
        match window {
            None => true,
            Some(w) => match item {
                // A subtree can still hold qualifying objects if its region
                // touches the window at all.
                Item::Node { mbr, .. } => w.intersects(mbr),
                // Objects must fall inside the window.
                Item::Obr { mbr, .. } | Item::Object { mbr, .. } => w.contains_rect(mbr),
            },
        }
    }

    /// Enqueues the initial root/root pair (Figure 3, line 2).
    fn seed(&mut self) {
        if self.done || self.tree1.is_empty() || self.tree2.is_empty() {
            self.done = true;
            return;
        }
        let roots = (|| -> sdj_storage::Result<Pair<D>> {
            let region1 = self.tree1.root_region()?;
            let region2 = self.tree2.root_region()?;
            self.stats.node_accesses += 2;
            Ok(Pair::new(
                Item::Node {
                    page: self.tree1.root_id(),
                    level: self.tree1.root_level(),
                    mbr: region1,
                },
                Item::Node {
                    page: self.tree2.root_id(),
                    level: self.tree2.root_level(),
                    mbr: region2,
                },
            ))
        })();
        match roots {
            Ok(pair) => self.consider(pair, None),
            Err(e) => {
                self.error = Some(e);
                self.done = true;
            }
        }
        if let Err(e) = self.flush_pending() {
            self.error = Some(e);
            self.done = true;
        }
    }

    // ------------------------------------------------------------ accessors

    /// Counters for the run so far (node I/O and queue high-water mark are
    /// sampled at call time).
    #[must_use]
    pub fn stats(&self) -> JoinStats {
        let mut s = self.stats;
        s.node_io = (self.tree1.io_misses() + self.tree2.io_misses())
            .saturating_sub(self.io_baseline)
            + self.queue.disk_stats().reads
            + self.queue.disk_stats().writes;
        // The queue's own high-water mark covers single pushes and resumed
        // shards; the flush-time sample covers batch insertions. Take the
        // max so neither path can under-report.
        s.max_queue = s.max_queue.max(self.queue.max_len());
        s.queue_bytes_peak = s.queue_bytes_peak.max(self.queue.queue_bytes());
        s.queue_len = self.queue.len() as u64;
        s
    }

    /// Current queue length.
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The estimator's current maximum distance, if estimation is active.
    /// Converted out of the key domain, so it is a real distance regardless
    /// of configuration.
    #[must_use]
    pub fn estimated_max_distance(&self) -> Option<f64> {
        self.estimator
            .as_ref()
            .map(|est| self.keys.to_distance(est.current_dmax()))
    }

    /// Takes the pending I/O error, if iteration stopped because of one.
    pub fn take_error(&mut self) -> Option<StorageError> {
        self.error.take()
    }

    /// Installs (or clears) a fault injector on the hybrid queue's spill
    /// pager. No-op for the memory backend.
    pub fn set_queue_fault_injector(
        &mut self,
        injector: Option<std::sync::Arc<sdj_storage::FaultInjector>>,
    ) {
        self.queue.set_fault_injector(injector);
    }

    /// Buffer-pool statistics for the hybrid queue's spill tier (zeroed
    /// stats for the memory backend).
    #[must_use]
    pub fn queue_pool_stats(&self) -> sdj_storage::PoolStats {
        self.queue.pool_stats()
    }

    /// Hybrid-queue tiering information (`(tier stats, in-memory element
    /// peak)`), when the hybrid backend is in use.
    #[must_use]
    pub fn hybrid_queue_info(&self) -> Option<(sdj_pqueue::HybridStats, usize)> {
        self.queue.hybrid_info()
    }

    /// Approximate resident bytes of the priority queue (heap storage, item
    /// arena, spill buffer pool).
    #[must_use]
    pub fn queue_bytes(&self) -> usize {
        self.queue.queue_bytes()
    }

    /// Approximate resident bytes of the §2.2.4 estimator's set `M` (zero
    /// unless the query sets `K`). With the queue this is the whole paused
    /// query state, and what a per-session memory budget meters.
    #[must_use]
    pub fn estimator_bytes(&self) -> usize {
        self.estimator.as_ref().map_or(0, Estimator::approx_bytes)
    }

    /// Whether the join has finished (queue exhausted, result budget hit,
    /// or a storage error stopped it — see [`take_error`](Self::take_error)).
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Registers this join's queue gauges under `{prefix}pq.*` in the
    /// context's registry (see [`JoinQueue::attach_obs_prefixed`]), without
    /// installing the engine-level [`JoinObs`] handle. The session service
    /// uses `session.<id>.` prefixes so concurrent cursors stay
    /// distinguishable in one registry.
    pub fn attach_queue_obs_prefixed(&mut self, ctx: &ObsContext, prefix: &str) {
        self.queue.attach_obs_prefixed(ctx, prefix);
        self.publish_queue_gauges(self.flushed_bytes);
    }

    // ----------------------------------------------------------- internals

    fn ascending(&self) -> bool {
        matches!(self.config.order, ResultOrder::Ascending)
    }

    /// The tightest known maximum key (query bound, estimator, and — for
    /// ascending runs — the cross-worker shared bound), in the key domain.
    pub(crate) fn effective_max_key(&self) -> f64 {
        let mut max = match &self.estimator {
            Some(est) => self.max_key.min(est.current_dmax()),
            None => self.max_key,
        };
        if matches!(self.config.order, ResultOrder::Ascending) {
            if let Some(shared) = self.shared_bound {
                max = max.min(shared.get());
            }
        }
        max
    }

    /// Whether `Even` traversal opens *both* nodes of the equal-level `pair`
    /// with the §2.2.2 plane sweep instead of one of them.
    ///
    /// The sweep pairs each entry with the entries of the other node whose
    /// axis-0 gap fits under [`effective_max_key`](Self::effective_max_key):
    /// a window `2·d_max` wide. It is chosen while that window is narrower
    /// than the narrower of the two nodes, i.e. while the bound actually
    /// cuts the cross product of entries. Then one-sided expansion is the
    /// waste: it queues `fan-out` (object, leaf) pairs per leaf pair and
    /// later opens the same leaf once per object. Under a looser bound — a
    /// large `K` whose §2.2.4 estimate is still wide, a generous `Dmax`, or
    /// no bound at all (Figure 6) — the sweep degenerates towards the full
    /// cross product, all of it queued now at the bound of now, while the
    /// one-sided expansion defers each object's pairs until they reach the
    /// head of the queue and the bound has shrunk; it stays. Semi-joins do
    /// not take this sweep: their per-object `d_max` bounds and seen-set
    /// filter prune a first-side object's (object, node) pairs before those
    /// are ever opened, which a cross product of entries forfeits. Under
    /// `GlobalAll` their leaf pairs have a sweep of their own
    /// ([`sweeps_semi_leaves`](Self::sweeps_semi_leaves)). Descending runs
    /// key on MAXDIST, where a maximum-distance window proves nothing.
    fn sweeps_equal_levels(&self, pair: &Pair<D>) -> bool {
        if !self.ascending() || self.semi.is_some() {
            return false;
        }
        let width = pair.item1.rect().extent(0).min(pair.item2.rect().extent(0));
        self.keys
            .axis_gap_exceeds(0.5 * width, self.effective_max_key())
    }

    /// Whether `Even` traversal opens the node pair at levels `l1`/`l2` with
    /// [`sweep_semi_leaves`](Self::sweep_semi_leaves): a leaf/leaf pair of
    /// an ascending semi-join under [`DmaxStrategy::GlobalAll`]. That is the
    /// one strategy that keeps a bound per first object, and only a stored
    /// bound stops an object swept in one leaf pair from being swept again,
    /// at no profit, in the next (`DESIGN.md` §17).
    ///
    /// [`DmaxStrategy::GlobalAll`]: crate::semi::DmaxStrategy::GlobalAll
    fn sweeps_semi_leaves(&self, l1: u8, l2: u8) -> bool {
        self.semi.as_ref().is_some_and(SemiState::bounds_objects)
            && l1 == 0
            && l2 == 0
            && self.ascending()
    }

    /// The shared bound's current value (a key), when one is attached and
    /// applies (ascending order only — descending runs key on MAXDIST,
    /// where a maximum-distance bound proves nothing about rank).
    fn shared_max(&self) -> f64 {
        match self.shared_bound {
            Some(shared) if matches!(self.config.order, ResultOrder::Ascending) => shared.get(),
            _ => f64::INFINITY,
        }
    }

    /// Publishes the estimator's proven maximum key to the shared
    /// cross-worker bound (both live in the key domain). A bound proven from
    /// this engine's queue alone holds for the whole parallel run: the
    /// merged result set is a superset of this shard's, so "K results within
    /// d exist here" implies the global K-th result is within d too.
    ///
    /// Both listeners act only on a strict decrease (`fetch_min`,
    /// [`JoinObs::on_bound`]), so an estimate that has not dropped since
    /// the last publish is not re-sent: on a parallel run that saves one
    /// atomic on a cache line shared by every worker per offer.
    fn publish_shared_bound(&mut self) {
        let Some(est) = &self.estimator else {
            return;
        };
        let dmax = est.current_dmax();
        if dmax >= self.published_key {
            return;
        }
        self.published_key = dmax;
        if let Some(shared) = self.shared_bound {
            shared.tighten(dmax);
        }
        if self.obs.is_some() {
            // Instrumentation reports real distances; convert only when
            // someone is listening (uncounted by `stats.sqrt_calls`,
            // which tracks the result path).
            let dist = self.keys.to_distance(dmax);
            if let Some(obs) = &mut self.obs {
                obs.on_bound(dist);
            }
        }
    }

    /// True when the item's rectangle is a *minimal* bounding rectangle
    /// (required for MINMAXDIST bounds): object MBRs always are; node
    /// regions only if the index guarantees it (R-trees yes, quadtrees no).
    fn item_minimal(item: &Item<D>, first_side: bool) -> bool {
        match item {
            Item::Obr { .. } | Item::Object { .. } => true,
            Item::Node { .. } => {
                if first_side {
                    I1::MINIMAL_REGIONS
                } else {
                    I2::MINIMAL_REGIONS
                }
            }
        }
    }

    /// MINMAXDIST key between the pair's items when both rectangles are
    /// minimal; falls back to the MAXDIST key (always a valid, looser upper
    /// bound) otherwise.
    fn tight_upper_bound(&mut self, pair: &Pair<D>) -> f64 {
        self.stats.distance_calcs += 1;
        if Self::item_minimal(&pair.item1, true) && Self::item_minimal(&pair.item2, false) {
            pair.minmaxdist_key(self.keys)
        } else {
            pair.maxdist_key(self.keys)
        }
    }

    /// Lower bound on result pairs generated from `item` (for estimation).
    fn min_objects(&self, item: &Item<D>, first_side: bool) -> u64 {
        match item {
            Item::Node { page, level, .. } => {
                if first_side {
                    self.tree1
                        .min_subtree_objects(*level, *page == self.tree1.root_id())
                } else {
                    self.tree2
                        .min_subtree_objects(*level, *page == self.tree2.root_id())
                }
            }
            Item::Obr { .. } | Item::Object { .. } => 1,
        }
    }

    /// Lower bound on the number of *reportable* result pairs a queued pair
    /// guarantees within its estimation bound. Spatial windows make subtree
    /// counts unsafe (objects inside a node may fail the window), and
    /// `exclude_equal_ids` voids pairs that could be self-pairs; both are
    /// handled conservatively here so the estimator never over-prunes.
    fn estimation_count(&self, pair: &Pair<D>) -> u64 {
        let windowed = self.window1.is_some() || self.window2.is_some();
        let exclude = self.config.exclude_equal_ids;
        let has_node = pair.item1.is_node() || pair.item2.is_node();
        if windowed && has_node {
            return 0;
        }
        match self.config.estimation {
            EstimationBound::ExistsPair => {
                // "Exists a pair within MINMAXDIST" — with exclusion, only
                // provable when both sides are distinct concrete objects.
                if exclude {
                    u64::from(!has_node && pair.item1.object_id() != pair.item2.object_id())
                } else {
                    1
                }
            }
            EstimationBound::AllPairs => {
                let c1 = self.min_objects(&pair.item1, true);
                let c2 = self.min_objects(&pair.item2, false);
                if self.semi.is_some() {
                    // Each first-side object has a partner within MAXDIST;
                    // under exclusion that partner might be itself unless a
                    // second partner (or a provably different object) exists.
                    if exclude {
                        let distinct_objects =
                            !has_node && pair.item1.object_id() != pair.item2.object_id();
                        if distinct_objects || c2 >= 2 {
                            c1
                        } else {
                            0
                        }
                    } else {
                        c1
                    }
                } else {
                    let all = c1.saturating_mul(c2);
                    if exclude {
                        if !has_node && pair.item1.object_id() == pair.item2.object_id() {
                            0
                        } else {
                            // At most min(c1, c2) of the guaranteed pairs can
                            // be self-pairs.
                            all.saturating_sub(c1.min(c2))
                        }
                    } else {
                        all
                    }
                }
            }
        }
    }

    /// Upper bound on the nearest-partner distance of `pair.item1` within
    /// `pair.item2` — MINMAXDIST where valid, MAXDIST for subtrees.
    ///
    /// With `exclude_equal_ids` (self-joins) the "a partner exists within
    /// this bound" witness must not be the object itself: bounds against a
    /// single possibly-identical object are void, bounds against a subtree
    /// need at least two objects in it, and only MAXDIST (which covers every
    /// object of the subtree, so in particular a non-self one) remains valid.
    fn semi_dmax_bound(&mut self, pair: &Pair<D>) -> f64 {
        // A minimum-distance restriction invalidates witnesses that may be
        // closer than `Dmin` (a too-close partner does not qualify as a
        // result, so it cannot justify discarding farther candidates). The
        // pair donates a bound only if *all* its generated pairs satisfy
        // `Dmin` — mirroring the §2.2.4 eligibility rule.
        if self.min_key > 0.0 {
            self.stats.distance_calcs += 1;
            if pair.mindist_key(self.keys) < self.min_key {
                return f64::INFINITY;
            }
        }
        // A second-side window invalidates witnesses that may fall outside
        // it: single partners must lie inside, subtrees must be wholly
        // inside (every bounded object then is too).
        if let Some(w) = &self.window2 {
            if !w.contains_rect(pair.item2.rect()) {
                return f64::INFINITY;
            }
        }
        if self.config.exclude_equal_ids {
            match &pair.item2 {
                Item::Obr { oid: o2, .. } | Item::Object { oid: o2, .. } => {
                    match pair.item1.object_id() {
                        // Two provably distinct objects: the exact witness.
                        Some(o1) if o1 != *o2 => {
                            self.stats.distance_calcs += 1;
                            return pair.minmaxdist_key(self.keys);
                        }
                        // Same object, or a first-side subtree that may
                        // contain the second-side object: no valid witness.
                        _ => return f64::INFINITY,
                    }
                }
                Item::Node { page, level, .. } => {
                    let c2 = self
                        .tree2
                        .min_subtree_objects(*level, *page == self.tree2.root_id());
                    if c2 < 2 {
                        return f64::INFINITY;
                    }
                    // >= 2 objects, all within MAXDIST: at least one is not
                    // the first-side object.
                    self.stats.distance_calcs += 1;
                    return pair.maxdist_key(self.keys);
                }
            }
        }
        match pair.item1 {
            Item::Obr { .. } | Item::Object { .. } => self.tight_upper_bound(pair),
            Item::Node { .. } => {
                self.stats.distance_calcs += 1;
                pair.maxdist_key(self.keys)
            }
        }
    }

    /// Checks the first tree's node `id` out of the view cache (decoding it
    /// only on a miss). Counted as a logical node access.
    fn checkout1(&mut self, id: NodeId) -> sdj_storage::Result<NodeView<D>> {
        self.stats.node_accesses += 1;
        let tree = self.tree1;
        self.views1.checkout(tree, id)
    }

    fn checkout2(&mut self, id: NodeId) -> sdj_storage::Result<NodeView<D>> {
        self.stats.node_accesses += 1;
        let tree = self.tree2;
        self.views2.checkout(tree, id)
    }

    fn child_item(entry: &IndexEntry<D>) -> Item<D> {
        match entry {
            IndexEntry::Object { oid, mbr } => Item::Obr {
                oid: *oid,
                mbr: *mbr,
            },
            IndexEntry::Child { id, level, region } => Item::Node {
                page: *id,
                level: *level,
                mbr: *region,
            },
        }
    }

    fn seen(&self, oid: ObjectId) -> bool {
        self.semi.as_ref().is_some_and(|s| s.seen.contains(oid.0))
    }

    /// Filter-and-enqueue pipeline for a non-final (or exact-final) pair.
    /// `known_mind` lets expansion sites reuse an already computed MINDIST
    /// key. Every distance in this pipeline is a key-domain value.
    fn consider(&mut self, pair: Pair<D>, known_mind: Option<f64>) {
        let keys = self.keys;
        let mind = known_mind.unwrap_or_else(|| {
            self.stats.distance_calcs += 1;
            pair.mindist_key(keys)
        });
        if pair.is_final(O::EXACT) {
            // Exact obrs: the MINDIST key between the bounding rectangles is
            // the object distance's key.
            self.enqueue_final(pair, mind);
            return;
        }

        let Some(maxd) = self.passes_pre_push(&pair, mind) else {
            return;
        };

        // Maximum-distance estimation (§2.2.4).
        let mut slot = NO_SLOT;
        if self.estimator.is_some() && matches!(self.config.order, ResultOrder::Ascending) {
            let bound = match self.config.estimation {
                EstimationBound::AllPairs => match maxd {
                    Some(m) => m,
                    None => {
                        self.stats.distance_calcs += 1;
                        pair.maxdist_key(keys)
                    }
                },
                EstimationBound::ExistsPair => self.tight_upper_bound(&pair),
            };
            let count = self.estimation_count(&pair);
            let min_key = self.min_key;
            if let Some(est) = &mut self.estimator {
                if mind >= min_key && bound <= est.current_dmax() {
                    slot = est.offer(pair.item1.identity(), pair.item2.identity(), bound, count);
                }
            }
            self.publish_shared_bound();
        }

        let key_dist = if self.ascending() {
            mind
        } else {
            let m = match maxd {
                Some(m) => m,
                None => {
                    self.stats.distance_calcs += 1;
                    pair.maxdist_key(keys)
                }
            };
            -m
        };
        self.push(PairKey::new(key_dist, &pair, self.config.tie), pair, slot);
    }

    /// The filters [`consider`](Self::consider) applies to a non-final
    /// `pair` with MINDIST key `mind` before it is offered and pushed, in
    /// their order and with their counters: the windows, `Dmax`, the
    /// estimate, the shared bound, `Dmin` and the first item's stored
    /// semi-join bound. `None` when the pair is dropped; otherwise the
    /// MAXDIST key the `Dmin` test computed, if it ran. Inlined, so that
    /// `consider`, which every join runs per pair, keeps the code it had
    /// with these filters written in place: called out of line, it made
    /// `drain_ordered` about 5 % slower.
    #[inline(always)]
    fn passes_pre_push(&mut self, pair: &Pair<D>, mind: f64) -> Option<Option<f64>> {
        let keys = self.keys;
        // Spatial selection windows (§2.2.5).
        if !Self::passes_window(&pair.item1, &self.window1)
            || !Self::passes_window(&pair.item2, &self.window2)
        {
            self.stats.pruned_by_range += 1;
            return None;
        }

        // Maximum-distance pruning (query bound, then estimator).
        if mind > self.max_key {
            self.stats.pruned_by_range += 1;
            return None;
        }
        if let Some(est) = &self.estimator {
            if self.ascending() && mind > est.current_dmax() {
                self.stats.pruned_by_estimate += 1;
                return None;
            }
        }
        if mind > self.shared_max() {
            self.stats.pruned_by_shared += 1;
            return None;
        }

        // Minimum-distance pruning: a pair none of whose results can reach
        // Dmin is dead (Figure 5).
        let mut maxd: Option<f64> = None;
        if self.min_key > 0.0 {
            let m = {
                self.stats.distance_calcs += 1;
                pair.maxdist_key(keys)
            };
            if m < self.min_key {
                self.stats.pruned_by_range += 1;
                return None;
            }
            maxd = Some(m);
        }

        // Semi-join global d_max bound for the first item.
        if let Some(semi) = &self.semi {
            if let Some(bound) = semi.bound_for(pair.item1.identity()) {
                if mind > bound {
                    self.stats.pruned_by_dmax += 1;
                    return None;
                }
            }
        }
        Some(maxd)
    }

    /// Filter-and-enqueue pipeline for a pair whose exact object distance is
    /// known. `key` is that distance in the key domain.
    fn enqueue_final(&mut self, pair: Pair<D>, key: f64) {
        if self.config.exclude_equal_ids && pair.item1.object_id() == pair.item2.object_id() {
            self.stats.filtered_self += 1;
            return;
        }
        if !Self::passes_window(&pair.item1, &self.window1)
            || !Self::passes_window(&pair.item2, &self.window2)
        {
            self.stats.pruned_by_range += 1;
            return;
        }
        if key > self.max_key || key < self.min_key {
            self.stats.pruned_by_range += 1;
            return;
        }
        if let Some(est) = &self.estimator {
            if self.ascending() && key > est.current_dmax() {
                self.stats.pruned_by_estimate += 1;
                return;
            }
        }
        if key > self.shared_max() {
            self.stats.pruned_by_shared += 1;
            return;
        }
        if let Some(oid1) = pair.item1.object_id() {
            if self.seen(oid1) {
                self.stats.filtered_seen += 1;
                return;
            }
            let item1 = pair.item1.identity();
            if let Some(bound) = self.semi.as_ref().and_then(|s| s.bound_for(item1)) {
                if key > bound {
                    self.stats.pruned_by_dmax += 1;
                    return;
                }
            }
            // The pair itself proves a partner within this distance.
            self.tighten_bound(item1, key);
        }
        let ascending = self.ascending();
        let mut slot = NO_SLOT;
        if let Some(est) = &mut self.estimator {
            if ascending && key >= self.min_key && key <= est.current_dmax() {
                slot = est.offer(pair.item1.identity(), pair.item2.identity(), key, 1);
                self.publish_shared_bound();
            }
        }
        let key_dist = if ascending { key } else { -key };
        self.push(PairKey::new(key_dist, &pair, self.config.tie), pair, slot);
    }

    /// Records `bound` as a semi-join `d_max` bound for `item1` and counts
    /// it if it tightened the stored one (no-op for a join, or for an item
    /// the strategy does not track).
    fn tighten_bound(&mut self, item1: ItemId, bound: f64) {
        if let Some(semi) = &mut self.semi {
            if semi.update_bound(item1, bound) {
                self.bounds_tightened += 1;
                if let Some(obs) = &mut self.obs {
                    obs.on_semi_bound();
                }
            }
        }
    }

    /// Stages a pair for insertion with the estimator slot its offer
    /// returned; [`flush_pending`](Self::flush_pending) moves staged pairs
    /// into the queue in one batch.
    fn push(&mut self, key: PairKey, pair: Pair<D>, slot: u32) {
        self.pending.push((key, pair, slot));
    }

    /// Opens a phase span on the attached obs handle (no-op otherwise).
    #[inline]
    fn span_enter(&mut self, phase: Phase) {
        if let Some(obs) = &mut self.obs {
            obs.span_enter(phase);
        }
    }

    /// Closes the innermost phase span (no-op when uninstrumented).
    #[inline]
    fn span_exit(&mut self, phase: Phase) {
        if let Some(obs) = &mut self.obs {
            obs.span_exit(phase);
        }
    }

    /// Moves staged pairs into the queue, growing its arena at most once.
    /// Called after every expansion and at the end of each step, so the
    /// queue is fully materialised whenever an element is popped or the
    /// public accessors run. A hybrid-backend spill fault surfaces here; the
    /// caller aborts the run, so the partially flushed batch is never
    /// observed as output.
    ///
    /// A flush that leaves the queue at `compact_at` pairs or more also
    /// compacts it ([`compact_queue`](Self::compact_queue)).
    fn flush_pending(&mut self) -> sdj_storage::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        self.stats.pairs_enqueued += self.pending.len() as u64;
        let mut pending = std::mem::take(&mut self.pending);
        self.span_enter(Phase::QueuePush);
        let flushed = self.queue.push_batch(pending.drain(..));
        // Update the high-water marks once per flush, not once per push:
        // batch insertions must be observed too, and the byte sample is
        // taken when the queue is fullest (right after a flush, before any
        // compaction).
        self.stats.max_queue = self.stats.max_queue.max(self.queue.len());
        self.flushed_bytes = self.queue.queue_bytes();
        self.stats.queue_bytes_peak = self.stats.queue_bytes_peak.max(self.flushed_bytes);
        if self.queue.len() >= self.compact_at {
            self.compact_queue();
        }
        self.span_exit(Phase::QueuePush);
        self.pending = pending;
        flushed
    }

    /// Drops every queued pair the pop-time filters ([`PopFilter`]) would
    /// drop when it is popped (`DESIGN.md` §20). The paper applies them only
    /// at the pop, so pairs already queued fall behind the tightening
    /// estimate, the growing reported set and the tightening `d_max`
    /// bounds, and sit there until they reach the head or the query ends.
    /// Each filter only ever tightens, so a pair dropped now would be
    /// dropped at its pop, and the survivors pop in the order they would
    /// have anyway.
    ///
    /// Two differences from the pop: a parallel run's shared bound is not
    /// used (a pair above it may still hold a member of this engine's `M`),
    /// and a pair whose slot holds a live member of `M` is kept, so the
    /// estimator is owed no [`Estimator::on_dequeue`]. Only a semi-join can
    /// hold one: its `M` is keyed by first item, while a join's members all
    /// have keys at or below the estimate (debug builds assert it).
    ///
    /// Runs only once the filters' state has changed since the last
    /// compaction; the next one waits until the queue has doubled (at least
    /// [`COMPACT_FLOOR`]), so the filter passes cost O(1) amortised per
    /// push.
    fn compact_queue(&mut self) {
        let state = self.filter_state();
        if state == self.compacted_state {
            return;
        }
        self.compacted_state = state;
        let filter = PopFilter::new(self.estimator.as_ref(), self.semi.as_ref(), f64::INFINITY);
        let estimator = self.estimator.as_ref();
        let semi = self.semi.is_some();
        let discarded = self.queue.discard(|key, queued| {
            if filter
                .test(key.dist.get(), || filter.item_limit(queued.item1_id()))
                .is_none()
            {
                return true;
            }
            let holds = |est: &Estimator| {
                let pair = queued.pair();
                est.holds(queued.slot(), pair.item1.identity(), pair.item2.identity())
            };
            if !semi {
                debug_assert!(
                    !estimator.is_some_and(holds),
                    "discarded pair {:?} holds a member of M",
                    queued.pair()
                );
                return false;
            }
            estimator.is_some_and(holds)
        });
        self.compact_at = (2 * self.queue.len()).max(COMPACT_FLOOR);
        self.stats.pairs_discarded += discarded as u64;
        if let Some(obs) = &mut self.obs {
            obs.on_discard(discarded as u64);
        }
    }

    /// The pop-time filters' current [`FilterState`].
    fn filter_state(&self) -> FilterState {
        FilterState {
            estimate: self
                .estimator
                .as_ref()
                .map_or(f64::INFINITY, Estimator::current_dmax),
            seen: self.semi.as_ref().map_or(0, |s| s.seen.len()),
            bounds_tightened: self.bounds_tightened,
        }
    }

    /// Publishes the queue's registry gauges (no-op unless attached), with
    /// `bytes` as the `pq.bytes` value. Mid-stream that is the last flush's
    /// sample; at the end of the stream and on drop it is the read-time
    /// sample [`stats`](Self::stats) takes. Either way it is one of
    /// `queue_bytes_peak`'s samples, so the gauge's high-water mark and
    /// `queue_bytes_peak` agree, and instrumenting a join adds no sample.
    fn publish_queue_gauges(&self, bytes: usize) {
        let peak = self.stats.queue_bytes_peak.max(bytes);
        self.queue.publish_gauges(bytes, peak);
    }

    /// PROCESS_NODE1 / PROCESS_NODE2 (Figure 3): expands the node on
    /// `first_side`, pairing its entries with the other item.
    fn expand_one(&mut self, pair: &Pair<D>, first_side: bool) -> sdj_storage::Result<()> {
        self.span_enter(Phase::Expand);
        let r = self.expand_one_inner(pair, first_side);
        self.span_exit(Phase::Expand);
        r
    }

    /// [`expand_one`](Self::expand_one) over a cached struct-of-arrays node
    /// view: the MINDIST keys of all children against the other item come
    /// from one key-column pass ([`mindist_keys_into`]).
    fn expand_one_inner(&mut self, pair: &Pair<D>, first_side: bool) -> sdj_storage::Result<()> {
        let (node_item, other_item) = if first_side {
            (&pair.item1, &pair.item2)
        } else {
            (&pair.item2, &pair.item1)
        };
        let Item::Node { page, .. } = *node_item else {
            unreachable!("expand_one on a non-node item")
        };
        let other = *other_item;
        let keys = self.keys;

        let view = if first_side {
            // Semi-join estimation: the first-side node is being processed,
            // so its own M entry must not coexist with its children's.
            if self.semi.is_some() {
                if let Some(est) = &mut self.estimator {
                    est.on_expand_item1(pair.item1.identity());
                }
            }
            self.checkout1(page)?
        } else {
            self.checkout2(page)?
        };
        let n = view.rects.len();
        if let Some(obs) = &mut self.obs {
            obs.on_expand();
        }
        let path = self.config.expansion;
        let mut minds = std::mem::take(&mut self.scratch_keys);
        minds.clear();
        self.span_enter(Phase::Kernel);
        mindist_keys_into(&view.rects, path, keys, other.rect(), 0..n, &mut minds);
        self.span_exit(Phase::Kernel);
        self.stats.distance_calcs += n as u64;

        if first_side {
            let inherited = self
                .semi
                .as_ref()
                .and_then(|s| s.bound_for(pair.item1.identity()));
            let global = self.semi.as_ref().is_some_and(|s| {
                matches!(
                    s.config.dmax,
                    crate::semi::DmaxStrategy::GlobalNodes | crate::semi::DmaxStrategy::GlobalAll
                )
            });
            for (entry, &mind) in view.node.entries.iter().zip(&minds) {
                let child_pair = Pair::new(Self::child_item(entry), other);
                if self.first_child_passes(&child_pair, inherited, global) {
                    self.consider(child_pair, Some(mind));
                }
            }
            self.scratch_keys = minds;
            self.views1.checkin(page, view);
        } else {
            let item1 = pair.item1;
            let local = self.semi.as_ref().is_some_and(SemiState::uses_local_bound);
            if local {
                // Two passes: first compute per-child d_max bounds to find
                // the smallest, then prune siblings that cannot beat it
                // (§4.2.1 "Local"). MINDIST keys are already batched.
                let mut children = std::mem::take(&mut self.scratch_children);
                children.clear();
                children.reserve(n);
                let mut best_bound = f64::INFINITY;
                for (entry, &mind) in view.node.entries.iter().zip(&minds) {
                    let child = Self::child_item(entry);
                    let child_pair = Pair::new(item1, child);
                    let bound = self.semi_dmax_bound(&child_pair);
                    best_bound = best_bound.min(bound);
                    children.push((child_pair, mind));
                }
                self.tighten_bound(item1.identity(), best_bound);
                let effective = self
                    .semi
                    .as_ref()
                    .and_then(|s| s.bound_for(item1.identity()))
                    .map_or(best_bound, |b| b.min(best_bound));
                for &(child_pair, mind) in &children {
                    if mind > effective {
                        self.stats.pruned_by_dmax += 1;
                        continue;
                    }
                    self.consider(child_pair, Some(mind));
                }
                self.scratch_children = children;
            } else {
                for (entry, &mind) in view.node.entries.iter().zip(&minds) {
                    let child = Self::child_item(entry);
                    self.consider(Pair::new(item1, child), Some(mind));
                }
            }
            self.scratch_keys = minds;
            self.views2.checkin(page, view);
        }
        Ok(())
    }

    /// The first-side expansion's step for one child, ahead of
    /// [`consider`](Self::consider): a reported child object is dropped
    /// (counted `filtered_seen`) when the configuration filters as it
    /// expands; under a global strategy (`global`) the child then inherits
    /// its parent's bound `inherited`, tightened by its own pair's `d_max`.
    /// Returns whether `child_pair` goes on to `consider`.
    fn first_child_passes(
        &mut self,
        child_pair: &Pair<D>,
        inherited: Option<f64>,
        global: bool,
    ) -> bool {
        let child = child_pair.item1;
        if let Some(oid) = child.object_id() {
            if self
                .semi
                .as_ref()
                .is_some_and(|s| s.filters_on_expand() && s.seen.contains(oid.0))
            {
                self.stats.filtered_seen += 1;
                return false;
            }
        }
        if global {
            let own = self.semi_dmax_bound(child_pair);
            self.tighten_bound(child.identity(), inherited.map_or(own, |b| b.min(own)));
        }
        true
    }

    /// "Simultaneous" expansion of a node/node pair (§2.2.2): both nodes are
    /// opened and their entries paired with a plane sweep restricted by the
    /// distance range.
    fn expand_both(&mut self, pair: &Pair<D>) -> sdj_storage::Result<()> {
        self.stats.sweep_expansions += 1;
        self.span_enter(Phase::Expand);
        let r = self.expand_both_inner(pair);
        self.span_exit(Phase::Expand);
        r
    }

    /// [`expand_both`](Self::expand_both) over cached struct-of-arrays node
    /// views: the range-restriction filters and the per-window MINDIST keys
    /// of the plane sweep all come from key-column passes.
    fn expand_both_inner(&mut self, pair: &Pair<D>) -> sdj_storage::Result<()> {
        let (Item::Node { page: p1, .. }, Item::Node { page: p2, .. }) = (&pair.item1, &pair.item2)
        else {
            unreachable!("expand_both on a non-node pair")
        };
        let (p1, p2) = (*p1, *p2);
        if self.semi.is_some() {
            if let Some(est) = &mut self.estimator {
                est.on_expand_item1(pair.item1.identity());
            }
        }
        let view1 = self.checkout1(p1)?;
        let view2 = match self.checkout2(p2) {
            Ok(view) => view,
            Err(e) => {
                self.views1.checkin(p1, view1);
                return Err(e);
            }
        };
        if let Some(obs) = &mut self.obs {
            obs.on_expand();
        }
        let keys = self.keys;
        let path = self.config.expansion;
        let eff_max = if self.ascending() {
            self.effective_max_key()
        } else {
            f64::INFINITY
        };
        let min_key = self.min_key;

        // Restriction of the search space: drop entries that are out of
        // range with respect to the space spanned by the other node. The
        // MINDIST (and, under a `Dmin` restriction, MAXDIST) keys of a whole
        // node against the other item come from one kernel pass per axis;
        // the filter then walks the key columns. All buffers are owned by
        // the join and reused across expansions.
        let mut minds = std::mem::take(&mut self.scratch_keys);
        let mut maxds = std::mem::take(&mut self.scratch_keys2);
        let mut entries1 = std::mem::take(&mut self.scratch_entries1);
        let mut entries2 = std::mem::take(&mut self.scratch_entries2);

        let r2 = pair.item2.rect();
        let n1 = view1.rects.len();
        minds.clear();
        self.span_enter(Phase::Kernel);
        mindist_keys_into(&view1.rects, path, keys, r2, 0..n1, &mut minds);
        if min_key > 0.0 {
            maxds.clear();
            maxdist_keys_into(&view1.rects, path, keys, r2, 0..n1, &mut maxds);
            self.stats.distance_calcs += n1 as u64;
        }
        self.span_exit(Phase::Kernel);
        self.stats.distance_calcs += n1 as u64;
        entries1.clear();
        entries1.reserve(n1);
        for (i, e) in view1.node.entries.iter().enumerate() {
            if minds[i] > eff_max {
                self.stats.pruned_by_range += 1;
                continue;
            }
            if min_key > 0.0 && maxds[i] < min_key {
                self.stats.pruned_by_range += 1;
                continue;
            }
            if let Some(oid) = e.object_id() {
                if self
                    .semi
                    .as_ref()
                    .is_some_and(|s| s.filters_on_expand() && s.seen.contains(oid.0))
                {
                    self.stats.filtered_seen += 1;
                    continue;
                }
            }
            entries1.push(*e);
        }

        let r1 = pair.item1.rect();
        let n2 = view2.rects.len();
        minds.clear();
        self.span_enter(Phase::Kernel);
        mindist_keys_into(&view2.rects, path, keys, r1, 0..n2, &mut minds);
        if min_key > 0.0 {
            maxds.clear();
            maxdist_keys_into(&view2.rects, path, keys, r1, 0..n2, &mut maxds);
            self.stats.distance_calcs += n2 as u64;
        }
        self.span_exit(Phase::Kernel);
        self.stats.distance_calcs += n2 as u64;
        entries2.clear();
        entries2.reserve(n2);
        for (i, e) in view2.node.entries.iter().enumerate() {
            if minds[i] > eff_max {
                self.stats.pruned_by_range += 1;
                continue;
            }
            if min_key > 0.0 && maxds[i] < min_key {
                self.stats.pruned_by_range += 1;
                continue;
            }
            entries2.push(*e);
        }
        self.views1.checkin(p1, view1);
        self.views2.checkin(p2, view2);

        // Plane sweep along axis 0 (entries are `Copy`, so the filtered
        // buffers outlive the checked-in views): for each left entry, only
        // right entries whose x-interval can lie within `eff_max` are
        // considered ("the algorithm must sweep along the entries in the
        // other node up to the coordinate value x2 + Dmax"). The window
        // bounds compare single-axis gaps against the key-domain bound via
        // [`KeySpace::axis_gap_exceeds`] — no sqrt, and an infinite bound
        // degenerates to the full window in both domains. Each window's
        // MINDIST keys come from one kernel pass over the sorted columns.
        // `total_cmp` keeps the sweep well-defined even if a corrupt page
        // decoded to a NaN coordinate (NaNs sort last; the pair is still
        // pruned or reported by the distance kernels, never a panic).
        self.span_enter(Phase::Sweep);
        entries2.sort_by(|a, b| a.rect().lo()[0].total_cmp(&b.rect().lo()[0]));
        let mut soa2 = std::mem::take(&mut self.scratch_soa2);
        soa2.clear();
        for e in &entries2 {
            soa2.push(e.rect());
        }
        let max_width2 = entries2
            .iter()
            .map(|e| e.rect().extent(0))
            .fold(0.0f64, f64::max);
        for e1 in &entries1 {
            let e1_lo = e1.rect().lo()[0];
            let e1_hi = e1.rect().hi()[0];
            let lo2s = soa2.lo_axis(0);
            // A right entry starting at `lo2` is out of reach on the left
            // when even the closest point of the widest right rectangle
            // (`lo2 + max_width2`) is more than the bound away from `e1`'s
            // left edge. Monotone in `lo2`, so a binary search applies.
            let start = lo2s.partition_point(|&lo2| {
                let t = e1_lo - lo2 - max_width2;
                t > 0.0 && keys.axis_gap_exceeds(t, eff_max)
            });
            // Out of reach on the right as soon as the right entry starts
            // more than the bound past `e1`'s right edge; also monotone.
            let end = start
                + lo2s[start..].partition_point(|&lo2| {
                    let t = lo2 - e1_hi;
                    !(t > 0.0 && keys.axis_gap_exceeds(t, eff_max))
                });
            if start == end {
                continue;
            }
            minds.clear();
            self.span_enter(Phase::Kernel);
            mindist_keys_into(&soa2, path, keys, e1.rect(), start..end, &mut minds);
            self.span_exit(Phase::Kernel);
            self.stats.distance_calcs += (end - start) as u64;
            let c1 = Self::child_item(e1);
            for (e2, &mind) in entries2[start..end].iter().zip(&minds) {
                let c2 = Self::child_item(e2);
                self.consider(Pair::new(c1, c2), Some(mind));
            }
        }
        self.span_exit(Phase::Sweep);
        self.scratch_keys = minds;
        self.scratch_keys2 = maxds;
        self.scratch_entries1 = entries1;
        self.scratch_entries2 = entries2;
        self.scratch_soa2 = soa2;
        Ok(())
    }

    /// A `GlobalAll` semi-join's leaf/leaf pair: §4.2.1's Local rule run
    /// inside §2.2.2's plane sweep, each leaf opened at most once. Each
    /// first object `o1` faces the filters that expanding the first leaf and
    /// then considering `(o1, L2)` apply
    /// ([`first_child_passes`](Self::first_child_passes), then
    /// [`passes_pre_push`](Self::passes_pre_push)). Instead of queueing
    /// `(o1, L2)`, which would open `L2` again for `o1` alone when popped,
    /// `o1` is swept against `L2` now ([`sweep_object`](Self::sweep_object)):
    /// it gets its best Local bound in `L2`, and the pairs the second-side
    /// Local pass of [`expand_one`](Self::expand_one) would push are pushed.
    /// Each walk runs along the axis [`sweep_axis`] picks for `o1`
    /// (`DESIGN.md` §17). Kept out of line: inlined into the step loop, it
    /// slowed joins that never take it (`first_pairs` by 10–20 %).
    #[inline(never)]
    fn sweep_semi_leaves(&mut self, pair: &Pair<D>) -> sdj_storage::Result<()> {
        self.stats.sweep_expansions += 1;
        self.span_enter(Phase::Expand);
        let r = self.sweep_semi_leaves_inner(pair);
        self.span_exit(Phase::Expand);
        r
    }

    fn sweep_semi_leaves_inner(&mut self, pair: &Pair<D>) -> sdj_storage::Result<()> {
        let (Item::Node { page: p1, .. }, Item::Node { page: p2, .. }) = (pair.item1, pair.item2)
        else {
            unreachable!("sweep_semi_leaves on a non-node pair")
        };
        let leaf2 = pair.item2;
        if let Some(est) = &mut self.estimator {
            est.on_expand_item1(pair.item1.identity());
        }
        let view1 = self.checkout1(p1)?;
        if let Some(obs) = &mut self.obs {
            obs.on_expand();
        }
        let keys = self.keys;

        // The first leaf's MINDIST keys against the second leaf, from one
        // kernel pass as in the first-side expansion.
        let n1 = view1.rects.len();
        let mut minds = std::mem::take(&mut self.scratch_keys);
        minds.clear();
        self.span_enter(Phase::Kernel);
        mindist_keys_into(
            &view1.rects,
            self.config.expansion,
            keys,
            leaf2.rect(),
            0..n1,
            &mut minds,
        );
        self.span_exit(Phase::Kernel);
        self.stats.distance_calcs += n1 as u64;

        self.span_enter(Phase::Sweep);
        let r2 = *leaf2.rect();
        // The second leaf is opened for the first object that passes the
        // filters, not before: a leaf pair whose first objects are all
        // reported or bounded costs one node access, as one-sided.
        let mut view2 = None;
        let mut error = None;
        // Per axis: the second leaf's entries sorted by their low end on
        // that axis (filled on first use), and the widest entry.
        let mut order = std::mem::take(&mut self.scratch_order);
        order.clear();
        let mut sorted = [false; D];
        let mut max_width = [0.0f64; D];
        let inherited = self
            .semi
            .as_ref()
            .and_then(|s| s.bound_for(pair.item1.identity()));
        for (entry, &mind) in view1.node.entries.iter().zip(&minds) {
            // The filters expanding the first leaf, then considering
            // `(o1, L2)`, would apply, with their counters. The pair is never
            // queued, so the estimator is not offered it.
            let first = Pair::new(Self::child_item(entry), leaf2);
            if !self.first_child_passes(&first, inherited, true)
                || self.passes_pre_push(&first, mind).is_none()
            {
                continue;
            }
            if view2.is_none() {
                match self.checkout2(p2) {
                    Ok(view) => view2 = Some(view),
                    Err(e) => {
                        error = Some(e);
                        break;
                    }
                }
            }
            let Some(view2) = &view2 else { break };
            let entries2 = &view2.node.entries;
            let n2 = entries2.len();
            if order.is_empty() {
                order.resize(D * n2, (0.0, 0));
                for e in entries2 {
                    for (a, w) in max_width.iter_mut().enumerate() {
                        *w = w.max(e.rect().extent(a));
                    }
                }
            }
            let ax = sweep_axis(first.item1.rect(), &r2);
            if !sorted[ax] {
                let col = &mut order[ax * n2..(ax + 1) * n2];
                for (slot, (i, e)) in col.iter_mut().zip(entries2.iter().enumerate()) {
                    *slot = (e.rect().lo()[ax], i);
                }
                // `total_cmp`, as in `expand_both`: a NaN coordinate from a
                // corrupt page sorts last instead of panicking.
                col.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
                sorted[ax] = true;
            }
            let col = &order[ax * n2..(ax + 1) * n2];
            self.sweep_object(first.item1, ax, max_width[ax], col, entries2);
        }
        self.span_exit(Phase::Sweep);
        self.scratch_keys = minds;
        self.scratch_order = order;
        self.views1.checkin(p1, view1);
        if let Some(view2) = view2 {
            self.views2.checkin(p2, view2);
        }
        error.map_or(Ok(()), Err)
    }

    /// One first object `o1` of [`sweep_semi_leaves`](Self::sweep_semi_leaves)
    /// against the second leaf's `entries`:
    /// `col` holds them sorted by their low end on axis `ax`, and `width` is
    /// the widest entry's extent on it. The walk starts where `o1` sits and
    /// each step takes the next entry on the side with the smaller gap on
    /// the axis — a lower bound on MINDIST, exact on the high side and taken
    /// through the widest entry on the low side — so once that gap exceeds
    /// the best bound so far, both sides are done. Then `o1` is tightened to
    /// the best Local bound, and the entries within its bound are pushed in
    /// entry order, as the second-side Local pass pushes them.
    fn sweep_object(
        &mut self,
        o1: Item<D>,
        ax: usize,
        width: f64,
        col: &[(f64, usize)],
        entries: &[IndexEntry<D>],
    ) {
        let keys = self.keys;
        let limit = self
            .semi
            .as_ref()
            .and_then(|s| s.bound_for(o1.identity()))
            .unwrap_or(f64::INFINITY);
        let mut cands = std::mem::take(&mut self.scratch_cands);
        let r1 = *o1.rect();
        let (lo1, hi1) = (r1.lo()[ax], r1.hi()[ax]);
        let mut right = col.partition_point(|&(lo2, _)| lo2 < lo1);
        let mut left = right;
        let mut best = f64::INFINITY;
        cands.clear();
        loop {
            let gap_right = col.get(right).map(|&(lo2, _)| lo2 - hi1);
            let gap_left = left.checked_sub(1).map(|l| lo1 - col[l].0 - width);
            let (gap, go_right) = match (gap_left, gap_right) {
                (None, None) => break,
                (Some(gl), Some(gr)) => {
                    if gr <= gl {
                        (gr, true)
                    } else {
                        (gl, false)
                    }
                }
                (Some(gl), None) => (gl, false),
                (None, Some(gr)) => (gr, true),
            };
            if gap > 0.0 && keys.axis_gap_exceeds(gap, limit.min(best)) {
                break;
            }
            let i = if go_right {
                right += 1;
                col[right - 1].1
            } else {
                left -= 1;
                col[left].1
            };
            let o2 = Self::child_item(&entries[i]);
            self.stats.distance_calcs += 1;
            let mind = keys.mindist_rect_rect(o2.rect(), &r1);
            // A Local bound is at least the MINDIST: past the bound so far,
            // the entry can neither lower it nor be pushed.
            if mind > limit.min(best) {
                self.stats.pruned_by_dmax += 1;
                continue;
            }
            best = best.min(self.semi_dmax_bound(&Pair::new(o1, o2)));
            cands.push((i, mind));
        }
        self.tighten_bound(o1.identity(), best);
        let effective = limit.min(best);
        cands.sort_unstable_by_key(|&(i, _)| i);
        for &(i, mind) in &cands {
            if mind > effective {
                self.stats.pruned_by_dmax += 1;
                continue;
            }
            self.consider(Pair::new(o1, Self::child_item(&entries[i])), Some(mind));
        }
        self.scratch_cands = cands;
    }

    /// Reports the pair `(o1, o2)` whose distance key is `key`, updating
    /// semi-join and estimator state. Returns `None` when the semi-join
    /// suppresses the pair. This is where the key domain ends: the single
    /// `sqrt` per reported result is paid here (and counted in
    /// [`JoinStats::sqrt_calls`]), after the suppression filters.
    fn report(&mut self, oid1: ObjectId, oid2: ObjectId, key: f64) -> Option<ResultPair> {
        self.span_enter(Phase::Emit);
        let r = self.report_inner(oid1, oid2, key);
        self.span_exit(Phase::Emit);
        r
    }

    fn report_inner(&mut self, oid1: ObjectId, oid2: ObjectId, key: f64) -> Option<ResultPair> {
        if self.config.exclude_equal_ids && oid1 == oid2 {
            self.stats.filtered_self += 1;
            return None;
        }
        if let Some(semi) = &mut self.semi {
            if !semi.seen.insert(oid1.0) {
                self.stats.filtered_seen += 1;
                return None;
            }
        }
        if let Some(wm) = &mut self.watermark {
            if key > wm.key {
                wm.key = key;
                wm.ties.clear();
            }
            wm.ties.push((oid1, oid2));
        }
        let distance = self.keys.to_distance(key);
        if self.keys.is_squared() {
            self.stats.sqrt_calls += 1;
        }
        if let Some(est) = &mut self.estimator {
            est.on_report();
        }
        self.publish_shared_bound();
        self.stats.pairs_reported += 1;
        self.reported += 1;
        if let Some(obs) = &mut self.obs {
            obs.on_result(self.reported, distance);
        }
        if let Some(k) = self.config.max_pairs {
            if self.reported >= k {
                self.done = true;
            }
        }
        Some(ResultPair {
            oid1,
            oid2,
            distance,
        })
    }

    /// Processes exactly one queue element, flushing staged insertions
    /// afterwards so the queue is consistent between steps (the frontier
    /// partitioner measures `queue.len()` at step granularity).
    fn step(&mut self) -> sdj_storage::Result<StepOutcome> {
        let outcome = self.step_inner();
        let flushed = self.flush_pending();
        if outcome.is_ok() {
            // Surface a flush fault (the step's own error takes precedence:
            // it happened first and the flush ran on its partial state).
            flushed?;
        }
        if self.config.prefetch_depth > 0 {
            self.emit_prefetch_hints();
        }
        outcome
    }

    /// Queue-driven prefetch (run right after the staged pairs are flushed,
    /// so the queue reflects the true frontier): visits up to
    /// `prefetch_depth` pairs nearest the head of the priority queue — the
    /// pairs the next steps will pop — and hands their node pages to the
    /// indexes as batch hints. Hints only touch buffer-pool state (prefetch
    /// reads, counted apart from demand misses), never the result stream.
    fn emit_prefetch_hints(&mut self) {
        let mut pages1 = std::mem::take(&mut self.scratch_hints);
        let mut pages2 = std::mem::take(&mut self.scratch_hint_pages);
        pages1.clear();
        pages2.clear();
        self.queue.peek_top(self.config.prefetch_depth, |_, pair| {
            if let Item::Node { page, .. } = pair.item1 {
                pages1.push(page);
            }
            if let Item::Node { page, .. } = pair.item2 {
                pages2.push(page);
            }
        });
        pages1.sort_unstable();
        pages1.dedup();
        if !pages1.is_empty() {
            self.stats.prefetch_hints += pages1.len() as u64;
            self.tree1.prefetch_nodes(&pages1);
        }
        pages2.sort_unstable();
        pages2.dedup();
        if !pages2.is_empty() {
            self.stats.prefetch_hints += pages2.len() as u64;
            self.tree2.prefetch_nodes(&pages2);
        }
        self.scratch_hints = pages1;
        self.scratch_hint_pages = pages2;
    }

    /// One iteration of the algorithm's main loop (Figure 3).
    fn step_inner(&mut self) -> sdj_storage::Result<StepOutcome> {
        self.span_enter(Phase::QueuePop);
        let popped = self.queue.pop_slotted();
        self.span_exit(Phase::QueuePop);
        let Some((key, pair, slot)) = popped? else {
            return Ok(StepOutcome::Exhausted);
        };
        self.stats.pairs_dequeued += 1;
        if self.obs.is_some() {
            // Descending runs key on negated MAXDIST; report the magnitude.
            // Instrumentation sees real distances (uncounted by
            // `stats.sqrt_calls`, which tracks the result path).
            let dist = self.keys.to_distance(key.dist.get().abs());
            let queue_len = self.queue.len();
            let results = self.reported;
            if let Some(obs) = &mut self.obs {
                if obs.on_pop(dist, queue_len, results) {
                    self.publish_queue_gauges(self.flushed_bytes);
                }
            }
        }
        if let Some(est) = &mut self.estimator {
            est.on_dequeue(slot, pair.item1.identity(), pair.item2.identity());
        }
        // A semi-join's pop filters are its dedup work.
        let dedup = self.semi.is_some();
        if dedup {
            self.span_enter(Phase::Dedup);
        }
        let filter = PopFilter::new(
            self.estimator.as_ref(),
            self.semi.as_ref(),
            self.shared_max(),
        );
        let dropped = filter.test(key.dist.get(), || filter.item_limit(pair.item1.identity()));
        if dedup {
            self.span_exit(Phase::Dedup);
        }
        if let Some(dropped) = dropped {
            *dropped.counter(&mut self.stats) += 1;
            return Ok(StepOutcome::Continue);
        }
        let ascending = self.ascending();

        if pair.is_final(O::EXACT) {
            // `0.0 - k`, not `-k`: a zero key may come back from the queue
            // as either signed zero (the flat heap rebuilds keys from their
            // order image, which knows only +0.0), and a coincident pair
            // must report +0.0 from every layout.
            let result_key = if ascending {
                key.dist.get()
            } else {
                0.0 - key.dist.get()
            };
            // A final pair must carry object ids on both sides. A
            // kind-confused decode (a corrupt spill page whose item tag says
            // node where an object is required) surfaces here as the typed
            // fail-clean error instead of aborting co-hosted sessions.
            let oid1 = pair
                .item1
                .object_id()
                .ok_or(StorageError::Corrupt("final pair holds a node-kind item"))?;
            let oid2 = pair
                .item2
                .object_id()
                .ok_or(StorageError::Corrupt("final pair holds a node-kind item"))?;
            return Ok(match self.report(oid1, oid2, result_key) {
                Some(result) => StepOutcome::Result(result),
                None => StepOutcome::Continue,
            });
        }

        match (&pair.item1, &pair.item2) {
            (Item::Obr { oid: o1, .. }, Item::Obr { oid: o2, .. }) => {
                // Refinement (Figure 3, lines 7–14): compute the exact
                // object distance; report immediately if it is still the
                // front of the queue, re-enqueue otherwise.
                let (o1, o2) = (*o1, *o2);
                self.stats.object_distance_calcs += 1;
                // The oracle answers in real distances; map its answer into
                // the key domain once and stay there.
                let k = self.keys.to_key(self.oracle.object_distance(o1, o2)?);
                if k < self.min_key || k > self.effective_max_key() {
                    self.stats.pruned_by_range += 1;
                    return Ok(StepOutcome::Continue);
                }
                let key_dist = if ascending { k } else { -k };
                let object_pair = Pair::new(
                    Item::Object {
                        oid: o1,
                        mbr: *pair.item1.rect(),
                    },
                    Item::Object {
                        oid: o2,
                        mbr: *pair.item2.rect(),
                    },
                );
                let new_key = PairKey::new(key_dist, &object_pair, self.config.tie);
                let report_now = match self.queue.peek_key()? {
                    Some(front) => new_key <= front,
                    None => true,
                };
                if report_now {
                    if let Some(result) = self.report(o1, o2, k) {
                        return Ok(StepOutcome::Result(result));
                    }
                } else {
                    self.enqueue_final(object_pair, k);
                }
            }
            (Item::Node { level: l1, .. }, Item::Node { level: l2, .. }) => {
                let (l1, l2) = (*l1, *l2);
                match self.config.traversal {
                    TraversalPolicy::Basic => self.expand_one(&pair, true)?,
                    TraversalPolicy::Even if self.sweeps_semi_leaves(l1, l2) => {
                        self.sweep_semi_leaves(&pair)?;
                    }
                    TraversalPolicy::Even if l1 == l2 && self.sweeps_equal_levels(&pair) => {
                        self.expand_both(&pair)?;
                    }
                    TraversalPolicy::Even => {
                        // Process the node at the shallower level (the
                        // one closer to its root); at equal levels, the
                        // one covering more space — this keeps the
                        // traversal symmetric in the join order, as the
                        // paper observes for its Even variant.
                        let first = match l1.cmp(&l2) {
                            std::cmp::Ordering::Greater => true,
                            std::cmp::Ordering::Less => false,
                            std::cmp::Ordering::Equal => {
                                pair.item1.rect().area() >= pair.item2.rect().area()
                            }
                        };
                        self.expand_one(&pair, first)?;
                    }
                    TraversalPolicy::Simultaneous => self.expand_both(&pair)?,
                }
            }
            (Item::Node { .. }, _) => self.expand_one(&pair, true)?,
            (_, Item::Node { .. }) => self.expand_one(&pair, false)?,
            // Every legitimately constructed pair is covered above; the only
            // way to land here is a kind-confused decode from a corrupt spill
            // page, which must fail clean rather than panic.
            _ => {
                return Err(StorageError::Corrupt(
                    "pair kind combination impossible for an intact queue",
                ))
            }
        }
        Ok(StepOutcome::Continue)
    }

    /// The algorithm's main loop, run until the next result.
    fn next_result(&mut self) -> sdj_storage::Result<Option<ResultPair>> {
        if self.done {
            return Ok(None);
        }
        loop {
            match self.step()? {
                StepOutcome::Result(result) => return Ok(Some(result)),
                StepOutcome::Continue => {}
                StepOutcome::Exhausted => {
                    self.done = true;
                    return Ok(None);
                }
            }
        }
    }
}

impl<const D: usize, O, I1, I2> Iterator for DistanceJoin<'_, D, O, I1, I2>
where
    O: DistanceOracle<D>,
    I1: SpatialIndex<D>,
    I2: SpatialIndex<D>,
{
    type Item = ResultPair;

    fn next(&mut self) -> Option<ResultPair> {
        let next = match self.next_result() {
            Ok(r) => r,
            Err(e) => {
                self.error = Some(e);
                self.done = true;
                None
            }
        };
        if next.is_none() {
            // The stream's end is a publish point: a finished join's
            // registry view is exact while the engine is still alive.
            if let Some(obs) = &mut self.obs {
                obs.publish();
            }
            self.publish_queue_gauges(self.queue.queue_bytes());
        }
        next
    }
}

impl<const D: usize, O, I1, I2> Drop for DistanceJoin<'_, D, O, I1, I2>
where
    O: DistanceOracle<D>,
    I1: SpatialIndex<D>,
    I2: SpatialIndex<D>,
{
    /// Publishes the queue gauges; the [`JoinObs`] handle publishes its own
    /// counts when it drops.
    fn drop(&mut self) {
        self.publish_queue_gauges(self.queue.queue_bytes());
    }
}

/// Type alias emphasising semi-join usage.
pub type DistanceSemiJoin<'a, const D: usize, O = MbrOracle, I1 = RTree<D>, I2 = RTree<D>> =
    DistanceJoin<'a, D, O, I1, I2>;
