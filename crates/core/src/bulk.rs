//! Bulk partition/plane-sweep distance join — the non-incremental execution
//! path.
//!
//! The incremental engine ([`crate::DistanceJoin`]) is optimal for "fast
//! first results": a consumer that stops after `k` pairs pays only for what
//! it consumed. A consumer that *drains* the result set (a full within-range
//! join, or `k` close to the result count) pays the priority queue for an
//! ordering it may not need. Following the grid-partitioned plane-sweep
//! joins of the in-memory spatial join literature (see `PAPERS.md`, arXiv
//! 1908.11740), this module trades the queue for an embarrassingly parallel
//! batch plan:
//!
//! 1. **Harvest**: both trees are walked once and their leaf object entries
//!    collected — no queue, no per-pair node re-reads.
//! 2. **Grid partition**: a uniform grid over the union of the two root
//!    regions, cell width derived from the `Dmax` restriction and the object
//!    density (see [`BulkConfig`]). Each left entry is *assigned* to the one
//!    cell holding its `lo` corner, on the finest level of the grid (cell
//!    width doubled per level) whose cells are as wide as the entry. Each
//!    right entry is replicated, on every level in use, into the cells
//!    covering `[R.lo − r − E, R.hi + r]` per axis that hold left entries,
//!    where `r` is the padded distance image of the `Dmax` key and `E` the
//!    level's largest left extent on that axis (0 for points): every left
//!    entry within `Dmax` of `R` has its `lo` corner in that range, so each
//!    cell is a self-contained join problem.
//! 3. **Per-cell plane sweep**: inside a cell, right entries are sorted by
//!    `lo[0]` and each left entry scans only the window whose axis-0 gap can
//!    stay within `Dmax` — the same sweep the incremental engine uses for
//!    simultaneous node expansion, evaluated by the batched [`SoaRects`]
//!    kernels in the configured key domain (no `sqrt`, and bit-identical
//!    keys to the incremental path).
//! 4. **No pair twice**: a left entry lives in exactly one cell, so a pair
//!    is met in at most one cell — the one holding `L.lo` — and the output
//!    is an exact multiset with no dedup test and no cross-cell
//!    communication (arXiv 1908.11740's assignment to one tile).
//!
//! Cells share nothing — no queue, no bound, no locks — so
//! [`BulkDistanceJoin::run_with_workers`] sweeps them on a pool of scoped
//! workers that claim cells off one atomic cursor, sorts each worker's hits
//! once, and k-way merges the workers' runs into one distance-ordered
//! stream. The pool joins
//! inside that call, before any result is handed out; with one worker the
//! sweep runs inline on the caller's thread.
//!
//! The sort and the merge compare integers only: each hit carries the
//! monotone `u64` order image of its key (complemented in descending runs)
//! followed by its object ids, and the key is recovered from that image,
//! bit for bit, when the result is reported.
//!
//! # Correctness contract
//!
//! The output is multiset-equal to the incremental engine's and reports
//! bitwise-identical distances in the same order: final pair keys come from
//! the same axis-major kernel fold as the engine's, and the single `sqrt`
//! per reported pair is deferred exactly the same way. Equal-distance pairs
//! are emitted in ascending `(oid1, oid2)` order, in both directions, which
//! may differ from the incremental engine's tie order. That order is a
//! total order over the pairs, so the stream and every counter are the same for any
//! worker count. `crates/core/tests/bulk_equivalence.rs` enforces these
//! properties under proptest, and `tests/end_to_end.rs` pins the tie order.

use std::sync::atomic::{AtomicUsize, Ordering};

use sdj_geom::{KeySpace, Rect, SoaRects};
use sdj_obs::{Event, ObsContext, Phase, SpanTimer};
use sdj_pqueue::{f64_from_order_bits, f64_order_bits};
use sdj_rtree::ObjectId;

use crate::config::{JoinConfig, ResultOrder};
use crate::index::{IndexEntry, IndexNode, SpatialIndex};
use crate::join::{mindist_keys_into, EmissionWatermark, ResultPair};
use crate::stats::JoinStats;

/// Hard ceiling on the total number of grid cells, shared across any
/// dimensionality (the per-axis cap is derived from it).
const MAX_TOTAL_CELLS: usize = 1 << 18;

/// Tuning knobs of the bulk path's grid sizing.
#[derive(Clone, Copy, Debug)]
pub struct BulkConfig {
    /// Forces the cell width (all axes) instead of deriving it from `Dmax`
    /// and density. Used by the equivalence fuzzers to exercise degenerate
    /// grids; per-axis cell counts are still capped, so the effective width
    /// may be larger. Must be positive and finite.
    pub cell_width: Option<f64>,
    /// Density target: the derived width aims at roughly this many entries
    /// per cell (before `Dmax` widening).
    pub target_per_cell: usize,
}

impl Default for BulkConfig {
    fn default() -> Self {
        Self {
            cell_width: None,
            target_per_cell: 64,
        }
    }
}

/// Counters specific to the bulk path, alongside the usual [`JoinStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BulkStats {
    /// Total grid cells, over every grid level in use.
    pub cells: u64,
    /// Cells whose (left slice, right slice) pair was actually swept — both
    /// sides non-empty.
    pub cell_pairs_swept: u64,
    /// Always 0: each left entry lives in one cell, so no pair is met twice
    /// and nothing is deduplicated. Kept only because the benchmark's
    /// `core.bulk.dedup_share` reads it; it goes with ROADMAP items 1(e)/3.
    pub pairs_deduped: u64,
    /// Left entries placed in cells: exactly the left entry count, since
    /// each is assigned to the one cell holding its `lo` corner.
    pub replicated1: u64,
    /// Right-entry replicas across cells: each right entry lands in every
    /// cell that holds left entries and that a left partner's `lo` corner
    /// can lie in, on every grid level in use, so this grows with `Dmax`
    /// and each level's largest left extent relative to its cell width
    /// (at most one cell).
    pub replicated2: u64,
    /// Candidates suppressed by the adaptive handoff's emission-watermark
    /// floor: pairs the incremental prefix already reported (key strictly
    /// below the floor, or equal and in the tie set). Zero outside
    /// frontier-seeded runs.
    pub below_watermark: u64,
}

impl BulkStats {
    /// Accumulates `other` into `self` (all counters add).
    pub fn merge(&mut self, other: &BulkStats) {
        self.cells += other.cells;
        self.cell_pairs_swept += other.cell_pairs_swept;
        self.pairs_deduped += other.pairs_deduped;
        self.replicated1 += other.replicated1;
        self.replicated2 += other.replicated2;
        self.below_watermark += other.below_watermark;
    }

    /// Workers a sweep over up to `threads` threads ran: a run sweeps every
    /// active cell once, so `cell_pairs_swept` is the number of work units
    /// its pool shared out (at most one worker each, at least one worker).
    #[must_use]
    pub fn sweep_workers(&self, threads: usize) -> usize {
        pool_size(threads, self.cell_pairs_swept as usize)
    }
}

/// One qualifying pair before the deferred `sqrt`, ordered for emission.
///
/// The derived order on `(image, oid1, oid2)` is the bulk path's emission
/// order: distance first, in the run's direction, then object ids — the
/// equal-distance tie order, ascending in both directions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct BulkHit {
    /// Order image of the pair's key ([`JoinConfig::key_space`] domain):
    /// [`f64_order_bits`] of the key, XOR the run's [`direction_mask`].
    /// The map is monotone and equates -0.0 with +0.0, as a float compare
    /// does; kernel keys are never -0.0 or NaN, so [`BulkHit::key`]
    /// recovers each key bit for bit.
    image: u64,
    /// Object from the first relation.
    oid1: ObjectId,
    /// Object from the second relation.
    oid2: ObjectId,
}

impl BulkHit {
    /// The hit of pair `(oid1, oid2)` at `key`, in the direction `mask`.
    fn new(key: f64, oid1: ObjectId, oid2: ObjectId, mask: u64) -> Self {
        let hit = Self {
            image: f64_order_bits(key) ^ mask,
            oid1,
            oid2,
        };
        debug_assert!(
            !key.is_nan() && hit.key(mask).to_bits() == key.to_bits(),
            "key {key:e} has no exact order image"
        );
        hit
    }

    /// The key this hit was made from, given the same `mask`.
    fn key(&self, mask: u64) -> f64 {
        f64_from_order_bits(self.image ^ mask)
    }
}

/// XOR mask from a key's ascending order image to its image in a run of
/// `order`: none for ascending runs; for descending runs the bitwise
/// complement, which reverses the integer order. Negating the key instead
/// would turn a 0.0 key into -0.0, whose `sqrt` is a -0.0 distance.
fn direction_mask(order: ResultOrder) -> u64 {
    match order {
        ResultOrder::Ascending => 0,
        ResultOrder::Descending => u64::MAX,
    }
}

/// Counters of the cells one sweep worker swept, merged into the join's
/// stats by [`BulkDistanceJoin::absorb_tally`] once the workers have joined.
#[derive(Clone, Copy, Debug, Default)]
struct CellTally {
    /// MINDIST kernel evaluations performed.
    distance_calcs: u64,
    /// Candidates rejected by the `[Dmin, Dmax]` restriction.
    pruned_by_range: u64,
    /// Self-pairs dropped by `exclude_equal_ids`.
    filtered_self: u64,
    /// Candidates dropped by the emission-watermark floor (adaptive
    /// handoff; see [`BulkStats::below_watermark`]).
    below_watermark: u64,
    /// Hits appended to the output runs.
    emitted: u64,
    /// Cells whose slices were both non-empty, so a sweep actually ran.
    swept: u64,
}

/// Reusable per-worker scratch for cell sweeps: the sorted right slice, the
/// struct-of-arrays window operand and the key column. One instance serves
/// every cell a worker sweeps — the `ViewCache`/SoA buffer-reuse pattern of
/// the incremental engine, so steady-state sweeping performs no allocation.
#[derive(Debug, Default)]
struct CellScratch<const D: usize> {
    right: Vec<u32>,
    soa2: SoaRects<D>,
    keys_buf: Vec<f64>,
    /// Per-worker phase-span timer: every cell swept with this scratch
    /// records Sweep/Kernel spans, and its run sorting Merge spans, into the
    /// context's shared set.
    spans: Option<SpanTimer>,
}

/// A uniform grid over the joint bounding box.
#[derive(Clone, Debug)]
struct Grid<const D: usize> {
    origin: [f64; D],
    width: [f64; D],
    dims: [usize; D],
    stride: [usize; D],
    total: usize,
}

impl<const D: usize> Grid<D> {
    /// A grid of `dims` cells of `width` from `origin`. An axis of one cell
    /// is unbounded, so every entry fits it.
    fn new(origin: [f64; D], mut width: [f64; D], dims: [usize; D]) -> Self {
        let mut stride = [0usize; D];
        let mut total = 1usize;
        for a in 0..D {
            stride[a] = total;
            total *= dims[a];
            if dims[a] == 1 {
                width[a] = f64::INFINITY;
            }
        }
        Self {
            origin,
            width,
            dims,
            stride,
            total,
        }
    }

    /// The same grid with every cell twice as wide, so repeated coarsening
    /// ends in one unbounded cell.
    fn coarser(&self) -> Self {
        let dims = self.dims.map(|n| n.div_ceil(2));
        Self::new(self.origin, self.width.map(|w| 2.0 * w), dims)
    }

    fn build(bbox: &Rect<D>, cell_width: f64) -> Self {
        let per_axis_cap = (MAX_TOTAL_CELLS as f64)
            .powf(1.0 / D as f64)
            .floor()
            .max(1.0) as usize;
        let mut dims = [1usize; D];
        let mut width = [f64::INFINITY; D];
        if cell_width.is_finite() && cell_width > 0.0 {
            for a in 0..D {
                let extent = bbox.hi()[a] - bbox.lo()[a];
                if extent > 0.0 {
                    let n = (extent / cell_width).ceil();
                    dims[a] = (n as usize).clamp(1, per_axis_cap);
                    // Recompute the width so the grid exactly tiles the
                    // bounding box even after the cap clamps the count.
                    width[a] = extent / dims[a] as f64;
                }
            }
        }
        Self::new(*bbox.lo(), width, dims)
    }

    /// Cell coordinate of `x` along axis `a`, clamped into the grid. Cell
    /// indexing is monotone in `x` (subtraction, division and `floor` all
    /// are), which puts a left entry's one cell inside every replication
    /// range that must reach it. Non-finite inputs (a `Dmax = ∞` expansion)
    /// saturate at the clamp.
    fn cell_axis(&self, a: usize, x: f64) -> usize {
        if self.dims[a] == 1 {
            return 0;
        }
        let t = ((x - self.origin[a]) / self.width[a]).floor();
        (t as i64).clamp(0, self.dims[a] as i64 - 1) as usize
    }

    /// The flat id of the cell with per-axis coordinates `c`.
    fn flat(&self, c: [usize; D]) -> usize {
        c.iter().zip(&self.stride).map(|(&ca, &sa)| ca * sa).sum()
    }

    /// Visits every cell overlapping the per-axis coordinate ranges
    /// `[lo[a], hi[a]]`.
    fn for_each_cell(&self, lo: [usize; D], hi: [usize; D], mut f: impl FnMut(usize)) {
        let mut c = lo;
        loop {
            f(self.flat(c));
            let mut a = 0;
            loop {
                if a == D {
                    return;
                }
                c[a] += 1;
                if c[a] <= hi[a] {
                    break;
                }
                c[a] = lo[a];
                a += 1;
            }
        }
    }
}

/// One level of the grid while [`BulkDistanceJoin::replicate`] places
/// entries: level `k` is the grid coarsened `k` times.
struct Level<const D: usize> {
    grid: Grid<D>,
    /// Largest extent per axis of the left entries placed on this level.
    ext: [f64; D],
    /// Id of the level's first cell; levels in use number theirs in turn.
    first: usize,
    /// Level 0 is always in use, a coarser one once a left entry is on it.
    used: bool,
}

/// The bulk partition/plane-sweep distance join.
///
/// Constructed from two [`SpatialIndex`]es (the trees are read once, during
/// construction) and a [`JoinConfig`]; the range restriction, metric, key
/// domain, expansion path, `exclude_equal_ids` and `max_pairs` settings all
/// apply exactly as in the incremental engine. The constructors take no
/// semi-join configuration and no spatial selection windows: those queries
/// run on the incremental engine only.
#[derive(Debug)]
pub struct BulkDistanceJoin<const D: usize> {
    config: JoinConfig,
    bulk_config: BulkConfig,
    keys: KeySpace,
    min_key: f64,
    max_key: f64,
    /// The right side's replication radius: `max_key`'s distance image,
    /// padded ([`replication_radius`]).
    radius: f64,
    grid: Grid<D>,
    entries1: Vec<(ObjectId, Rect<D>)>,
    entries2: Vec<(ObjectId, Rect<D>)>,
    cells1: Vec<Vec<u32>>,
    cells2: Vec<Vec<u32>>,
    /// Cells with both slices non-empty — the parallel work units.
    active: Vec<u32>,
    /// Emission-watermark floor of a frontier-seeded run (`-inf` + empty
    /// tie set otherwise, which filters nothing): candidates with
    /// `key < floor_key` were all emitted by the incremental prefix, and
    /// candidates at exactly `floor_key` were emitted iff their id pair is
    /// in `floor_ties` (sorted for binary search).
    floor_key: f64,
    floor_ties: Vec<(u64, u64)>,
    stats: JoinStats,
    bulk: BulkStats,
    /// Where a run records its `bulk.*` counters, worker events and sampled
    /// result ranks.
    obs: Option<ObsContext>,
    /// Results the stream emitted before this run (an adaptive prefix), so
    /// the ranks a run reports continue it.
    base_rank: u64,
    /// Phase-span timer of the calling thread: build, merge and emit (each
    /// sweep worker times its cells with a timer of its own).
    spans: Option<SpanTimer>,
}

impl<const D: usize> BulkDistanceJoin<D> {
    /// Builds the partition for a bulk join of `tree1` × `tree2` under
    /// `config`, with default grid tuning.
    ///
    /// # Errors
    /// Propagates storage errors from the single harvesting pass over each
    /// tree.
    ///
    /// # Panics
    /// Panics on an invalid `config` (see [`JoinConfig::validate`]).
    pub fn new<I1, I2>(tree1: &I1, tree2: &I2, config: JoinConfig) -> sdj_storage::Result<Self>
    where
        I1: SpatialIndex<D> + ?Sized,
        I2: SpatialIndex<D> + ?Sized,
    {
        Self::with_bulk_config(tree1, tree2, config, BulkConfig::default())
    }

    /// [`BulkDistanceJoin::new`] with explicit grid tuning.
    ///
    /// # Errors
    /// Propagates storage errors from the harvesting pass.
    ///
    /// # Panics
    /// Panics on an invalid `config`, or a forced `cell_width` that is not
    /// positive and finite.
    pub fn with_bulk_config<I1, I2>(
        tree1: &I1,
        tree2: &I2,
        config: JoinConfig,
        bulk_config: BulkConfig,
    ) -> sdj_storage::Result<Self>
    where
        I1: SpatialIndex<D> + ?Sized,
        I2: SpatialIndex<D> + ?Sized,
    {
        Self::with_bulk_config_obs(tree1, tree2, config, bulk_config, None)
    }

    /// [`BulkDistanceJoin::with_bulk_config`] with observability: the
    /// harvest pass records a [`Phase::Partition`] span and the cell
    /// replication a [`Phase::Replicate`] span into `ctx`'s registry, and
    /// the run records its phase spans, `bulk.*` counters, worker events and
    /// sampled result ranks (see [`BulkDistanceJoin::run_with_workers`]).
    ///
    /// # Errors
    /// Propagates storage errors from the harvesting pass.
    ///
    /// # Panics
    /// Panics on an invalid `config` or forced `cell_width` (see
    /// [`BulkDistanceJoin::with_bulk_config`]).
    pub fn with_bulk_config_obs<I1, I2>(
        tree1: &I1,
        tree2: &I2,
        config: JoinConfig,
        bulk_config: BulkConfig,
        ctx: Option<&ObsContext>,
    ) -> sdj_storage::Result<Self>
    where
        I1: SpatialIndex<D> + ?Sized,
        I2: SpatialIndex<D> + ?Sized,
    {
        let mut spans = ctx.and_then(SpanTimer::from_context);
        let mut stats = JoinStats::default();
        let io_before = tree1.io_misses() + tree2.io_misses();

        let mut entries1 = Vec::with_capacity(tree1.len());
        let mut entries2 = Vec::with_capacity(tree2.len());
        if let Some(t) = &mut spans {
            t.enter(Phase::Partition);
        }
        let harvested = harvest(tree1, &mut stats, &mut entries1)
            .and_then(|()| harvest(tree2, &mut stats, &mut entries2));
        if let Some(t) = &mut spans {
            t.exit(Phase::Partition);
        }
        harvested?;
        stats.node_io = (tree1.io_misses() + tree2.io_misses()) - io_before;
        let bbox = tree1
            .root_region()
            .and_then(|r1| Ok(r1.union(&tree2.root_region()?)));
        let (bbox, hint) = (bbox.ok(), f64::INFINITY);
        let mut join = Self::build(entries1, entries2, config, bulk_config, bbox, hint, ctx);
        join.stats = stats;
        Ok(join)
    }

    /// Builds a bulk join seeded from an exported incremental frontier
    /// (the adaptive handoff): the entry sets are the objects harvested
    /// from the frontier's queue pairs — no tree pass runs here — and the
    /// run is restricted to the *remainder* of the incremental stream by
    /// two bounds, both in the key domain so comparisons are exact against
    /// the bit-identical kernel keys:
    ///
    /// * `floor` — the incremental prefix's [`EmissionWatermark`]:
    ///   candidates strictly below it were all emitted already (ascending
    ///   emission is monotone), candidates at exactly its key are dropped
    ///   iff they are in its tie set.
    /// * `max_key_hint` — the tightest maximum key the paused engine had
    ///   proven (query bound and estimator, the frontier's `dmax_hint`):
    ///   every result still owed lies within it, and everything above it
    ///   is either out of range or was legitimately pruned. The right
    ///   side's replication radius is derived from it exactly as in
    ///   [`BulkDistanceJoin::new`] ([`replication_radius`]).
    ///
    /// `base_rank` is the number of results the incremental prefix emitted,
    /// so the ranks the run reports into `ctx` continue that stream.
    ///
    /// # Panics
    /// Panics on an invalid `config`, a forced non-finite `cell_width`, or
    /// more than `u32::MAX` entries per side.
    #[must_use]
    #[allow(clippy::too_many_arguments)] // the frontier's parts, unbundled
    pub fn from_frontier(
        entries1: Vec<(ObjectId, Rect<D>)>,
        entries2: Vec<(ObjectId, Rect<D>)>,
        config: JoinConfig,
        bulk_config: BulkConfig,
        floor: Option<&EmissionWatermark>,
        max_key_hint: f64,
        ctx: Option<&ObsContext>,
        base_rank: u64,
    ) -> Self {
        let (bbox, hint) = (None, max_key_hint);
        let mut join = Self::build(entries1, entries2, config, bulk_config, bbox, hint, ctx);
        if let Some(wm) = floor {
            join.floor_key = wm.key;
            join.floor_ties = wm.ties.iter().map(|&(a, b)| (a.0, b.0)).collect();
            join.floor_ties.sort_unstable();
            join.floor_ties.dedup();
        }
        join.base_rank = base_rank;
        join
    }

    /// What both constructors share once the entries are in hand: checks
    /// the settings, takes the key range (capped at `max_key_hint`) and
    /// the replication radius, lays the grid over `bbox` (the entries' joint
    /// box when `None`) and places the entries ([`Phase::Replicate`]).
    fn build(
        entries1: Vec<(ObjectId, Rect<D>)>,
        entries2: Vec<(ObjectId, Rect<D>)>,
        config: JoinConfig,
        bulk_config: BulkConfig,
        bbox: Option<Rect<D>>,
        max_key_hint: f64,
        ctx: Option<&ObsContext>,
    ) -> Self {
        config.assert_valid();
        if let Some(w) = bulk_config.cell_width {
            assert!(
                w.is_finite() && w > 0.0,
                "forced cell width must be positive and finite"
            );
        }
        assert!(
            entries1.len() <= u32::MAX as usize && entries2.len() <= u32::MAX as usize,
            "bulk join supports at most u32::MAX objects per side"
        );
        let keys = config.key_space();
        let (min_key, max_key) = keys.range_keys(config.min_distance, config.max_distance);
        let max_key = max_key.min(max_key_hint);
        let radius = replication_radius(keys, max_key);

        // An empty side gets one cell: nothing will be swept.
        let bbox = bbox.unwrap_or_else(|| joint_bbox(&entries1, &entries2));
        let w = if entries1.is_empty() || entries2.is_empty() {
            f64::INFINITY
        } else {
            bulk_config.cell_width.unwrap_or_else(|| {
                let n = entries1.len() + entries2.len();
                derived_cell_width(&bbox, config.max_distance.min(radius), n, &bulk_config)
            })
        };

        let mut join = Self {
            config,
            bulk_config,
            keys,
            min_key,
            max_key,
            radius,
            grid: Grid::build(&bbox, w),
            entries1,
            entries2,
            cells1: Vec::new(),
            cells2: Vec::new(),
            active: Vec::new(),
            floor_key: f64::NEG_INFINITY,
            floor_ties: Vec::new(),
            stats: JoinStats::default(),
            bulk: BulkStats::default(),
            obs: ctx.cloned(),
            base_rank: 0,
            spans: ctx.and_then(SpanTimer::from_context),
        };
        if let Some(t) = &mut join.spans {
            t.enter(Phase::Replicate);
        }
        join.replicate();
        if let Some(t) = &mut join.spans {
            t.exit(Phase::Replicate);
        }
        join
    }

    /// Distributes both entry sets into grid cells. Each left entry `L`
    /// goes to the one cell holding its `lo` corner on the first level
    /// (level 0 is the grid, each next one [`Grid::coarser`]) whose cells
    /// are as wide as `L`. Each right entry `R` goes, on every level in use,
    /// to the cells holding left entries among those covering `[R.lo − r −
    /// E, R.hi + r]` per axis: `r` the padded radius, `E` the level's
    /// largest left extent on the axis, one ulp up so it is never below a
    /// real extent, and at most a cell. Every `L` within `Dmax` of `R` has
    /// its `lo` corner in that range, also after rounding (each bound is a
    /// rounded real value on the right side of a float `L.hi` or `L.lo`),
    /// and `cell_axis` is monotone, so the pair meets in exactly `L`'s cell
    /// (DESIGN §12).
    fn replicate(&mut self) {
        let level = |grid, used| Level {
            grid,
            ext: [0.0; D],
            first: 0,
            used,
        };
        let mut levels = vec![level(self.grid.clone(), true)];
        let mut placed = Vec::with_capacity(self.entries1.len());
        for (_, r) in &self.entries1 {
            let mut k = 0;
            while (0..D).any(|a| r.extent(a) > levels[k].grid.width[a]) {
                k += 1;
                if k == levels.len() {
                    levels.push(level(levels[k - 1].grid.coarser(), false));
                }
            }
            let level = &mut levels[k];
            let c = std::array::from_fn(|a| {
                level.ext[a] = level.ext[a].max(r.extent(a));
                level.grid.cell_axis(a, r.lo()[a])
            });
            level.used = true;
            placed.push((k, level.grid.flat(c)));
        }
        let mut total = 0;
        for level in levels.iter_mut().filter(|l| l.used) {
            level.first = total;
            total += level.grid.total;
            level.ext = level.ext.map(|e| if e > 0.0 { e.next_up() } else { e });
        }
        self.cells1 = std::iter::repeat_with(Vec::new).take(total).collect();
        self.cells2 = std::iter::repeat_with(Vec::new).take(total).collect();
        self.bulk.cells = total as u64;

        for (i, (k, c)) in placed.into_iter().enumerate() {
            self.cells1[levels[k].first + c].push(i as u32);
        }
        self.bulk.replicated1 = self.entries1.len() as u64;
        let radius = self.radius;
        for (i, (_, r)) in self.entries2.iter().enumerate() {
            for level in levels.iter().filter(|l| l.used) {
                let (grid, ext) = (&level.grid, level.ext);
                let lo = std::array::from_fn(|a| grid.cell_axis(a, r.lo()[a] - radius - ext[a]));
                let hi = std::array::from_fn(|a| grid.cell_axis(a, r.hi()[a] + radius));
                grid.for_each_cell(lo, hi, |c| {
                    let c = level.first + c;
                    if !self.cells1[c].is_empty() {
                        self.cells2[c].push(i as u32);
                        self.bulk.replicated2 += 1;
                    }
                });
            }
        }
        self.active = (0..total)
            .filter(|&c| !self.cells2[c].is_empty())
            .map(|c| c as u32)
            .collect();
    }

    /// Counters of the build phase plus every tally absorbed so far.
    #[must_use]
    pub fn stats(&self) -> JoinStats {
        self.stats
    }

    /// Bulk-path counters (cells, sweeps, replicas).
    #[must_use]
    pub fn bulk_stats(&self) -> BulkStats {
        self.bulk
    }

    /// Merges a sweep's counters into the join's stats.
    fn absorb_tally(&mut self, t: &CellTally) {
        self.stats.distance_calcs += t.distance_calcs;
        self.stats.pruned_by_range += t.pruned_by_range;
        self.stats.filtered_self += t.filtered_self;
        self.bulk.below_watermark += t.below_watermark;
        self.bulk.cell_pairs_swept += t.swept;
    }

    /// Sweeps one cell, appending its qualifying pairs (key domain) to
    /// `out` and counting into `tally`. Takes `&self` so independent workers
    /// can sweep disjoint cells concurrently, each with its own
    /// [`CellScratch`], output run and tally.
    fn sweep_cell(
        &self,
        cell: usize,
        scratch: &mut CellScratch<D>,
        out: &mut Vec<BulkHit>,
        tally: &mut CellTally,
    ) {
        let left = &self.cells1[cell];
        let right = &self.cells2[cell];
        if left.is_empty() || right.is_empty() {
            return;
        }
        tally.swept += 1;
        if let Some(t) = &mut scratch.spans {
            t.enter(Phase::Sweep);
        }
        let keys = self.keys;
        let entries1 = &self.entries1;
        let entries2 = &self.entries2;

        // Sort the right slice by lo[0] and decode it into the SoA window
        // operand (scratch buffers are reused across cells; `total_cmp`
        // keeps the sweep well-defined under NaN coordinates).
        scratch.right.clear();
        scratch.right.extend_from_slice(right);
        scratch.right.sort_unstable_by(|&i, &j| {
            entries2[i as usize].1.lo()[0].total_cmp(&entries2[j as usize].1.lo()[0])
        });
        scratch.soa2.clear();
        let mut max_width2 = 0.0f64;
        for &i in &scratch.right {
            let r = &entries2[i as usize].1;
            scratch.soa2.push(r);
            max_width2 = max_width2.max(r.extent(0));
        }

        let max_key = self.max_key;
        let min_key = self.min_key;
        let floor_key = self.floor_key;
        let exclude_equal = self.config.exclude_equal_ids;
        let mask = direction_mask(self.config.order);

        for &li in left {
            let (oid1, r1) = &entries1[li as usize];
            let e1_lo = r1.lo()[0];
            let e1_hi = r1.hi()[0];
            let lo2s = scratch.soa2.lo_axis(0);
            // The incremental engine's sweep window (see
            // `DistanceJoin::expand_both`): right entries whose
            // axis-0 interval cannot come within `Dmax` of `r1` are skipped
            // without a distance evaluation; both bounds are monotone in
            // `lo[0]`, so binary searches find them.
            let start = lo2s.partition_point(|&lo2| {
                let t = e1_lo - lo2 - max_width2;
                t > 0.0 && keys.axis_gap_exceeds(t, max_key)
            });
            let end = start
                + lo2s[start..].partition_point(|&lo2| {
                    let t = lo2 - e1_hi;
                    !(t > 0.0 && keys.axis_gap_exceeds(t, max_key))
                });
            if start == end {
                continue;
            }
            scratch.keys_buf.clear();
            if let Some(t) = &mut scratch.spans {
                t.enter(Phase::Kernel);
            }
            mindist_keys_into(
                &scratch.soa2,
                self.config.expansion,
                keys,
                r1,
                start..end,
                &mut scratch.keys_buf,
            );
            if let Some(t) = &mut scratch.spans {
                t.exit(Phase::Kernel);
            }
            tally.distance_calcs += (end - start) as u64;
            for (w, &key) in (start..end).zip(&scratch.keys_buf) {
                if key > max_key || key < min_key {
                    tally.pruned_by_range += 1;
                    continue;
                }
                let oid2 = &entries2[scratch.right[w] as usize].0;
                if key < floor_key
                    || (key == floor_key
                        && self.floor_ties.binary_search(&(oid1.0, oid2.0)).is_ok())
                {
                    tally.below_watermark += 1;
                    continue;
                }
                if exclude_equal && oid1 == oid2 {
                    tally.filtered_self += 1;
                    continue;
                }
                out.push(BulkHit::new(key, *oid1, *oid2, mask));
                tally.emitted += 1;
            }
        }
        if let Some(t) = &mut scratch.spans {
            t.exit(Phase::Sweep);
        }
    }

    /// The ordered run on the caller's thread:
    /// [`BulkDistanceJoin::run_with_workers`] with one worker.
    pub fn run(&mut self) -> Vec<ResultPair> {
        self.run_with_workers(1)
    }

    /// Sweeps every active cell over `workers` scoped threads — inline on
    /// the caller's thread, with no spawn, when `workers ≤ 1` — then k-way
    /// merges the workers' sorted runs into one distance-ordered result
    /// (ascending or descending per the config) truncated to `max_pairs`,
    /// and pays the deferred `sqrt`. Workers claim cells off one shared
    /// cursor and all join before the merge; the emission order is total,
    /// so the stream and every counter are the same for any worker count.
    /// At most one worker per active cell runs
    /// ([`BulkStats::sweep_workers`]).
    ///
    /// Built with an [`ObsContext`], the run also records its phase spans,
    /// one [`Event::WorkerFinished`] per worker, the `bulk.cells` and
    /// `bulk.cell_pairs_swept` registry counters, and the sampled
    /// [`Event::ResultReported`] ranks.
    pub fn run_with_workers(&mut self, workers: usize) -> Vec<ResultPair> {
        let workers = pool_size(workers, self.active.len());
        let next = AtomicUsize::new(0);
        let swept = if workers == 1 {
            vec![self.sweep_worker(1, &next)]
        } else {
            let (join, next) = (&*self, &next);
            std::thread::scope(|scope| {
                let handles: Vec<_> = (1..=workers)
                    .map(|w| scope.spawn(move || join.sweep_worker(w, next)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                    .collect()
            })
        };

        let runs = swept
            .into_iter()
            .map(|(run, tally)| {
                self.absorb_tally(&tally);
                run
            })
            .collect();
        if let Some(t) = &mut self.spans {
            t.enter(Phase::Merge);
        }
        let merged = merge_sorted_runs(runs, self.config.max_pairs);
        if let Some(t) = &mut self.spans {
            t.exit(Phase::Merge);
        }
        let results = self.finish(merged);
        if let Some(ctx) = &self.obs {
            let counter = |name: &str, n: u64| ctx.registry.counter(name).add(n);
            counter("bulk.cells", self.bulk.cells);
            counter("bulk.cell_pairs_swept", self.bulk.cell_pairs_swept);
            report_ranks(ctx, self.base_rank, &results);
        }
        results
    }

    /// One sweep worker: claims active cells off `next` until none remain,
    /// appending every cell's hits to one run that it sorts once into
    /// emission order, then announces itself finished as worker `worker`.
    /// Its scratch carries its own span timer, so workers on any thread
    /// record into the same set.
    fn sweep_worker(&self, worker: usize, next: &AtomicUsize) -> (Vec<BulkHit>, CellTally) {
        let mut scratch = CellScratch {
            spans: self.obs.as_ref().and_then(SpanTimer::from_context),
            ..CellScratch::default()
        };
        let mut run = Vec::new();
        let mut tally = CellTally::default();
        while let Some(&cell) = self.active.get(next.fetch_add(1, Ordering::Relaxed)) {
            self.sweep_cell(cell as usize, &mut scratch, &mut run, &mut tally);
        }
        // Sorting the run is part of the merge work.
        if let Some(t) = &mut scratch.spans {
            t.enter(Phase::Merge);
        }
        run.sort_unstable();
        if let Some(t) = &mut scratch.spans {
            t.exit(Phase::Merge);
        }
        if let Some(ctx) = &self.obs {
            ctx.sink.emit(&Event::WorkerFinished {
                worker: u32::try_from(worker).unwrap_or(u32::MAX),
                results: tally.emitted,
            });
        }
        (run, tally)
    }

    /// Converts hits to reported results, paying the deferred `sqrt` (once
    /// per emitted pair under squared keys) and counting emissions.
    fn finish(&mut self, hits: Vec<BulkHit>) -> Vec<ResultPair> {
        if let Some(t) = &mut self.spans {
            t.enter(Phase::Emit);
        }
        let keys = self.keys;
        let squared = keys.is_squared();
        let mask = direction_mask(self.config.order);
        let mut out = Vec::with_capacity(hits.len());
        for h in hits {
            if squared {
                self.stats.sqrt_calls += 1;
            }
            self.stats.pairs_reported += 1;
            out.push(ResultPair {
                oid1: h.oid1,
                oid2: h.oid2,
                distance: keys.to_distance(h.key(mask)),
            });
        }
        if let Some(t) = &mut self.spans {
            t.exit(Phase::Emit);
        }
        out
    }

    /// The grid's per-axis cell counts (diagnostics and tests).
    #[must_use]
    pub fn grid_dims(&self) -> [usize; D] {
        self.grid.dims
    }

    /// Effective bulk tuning (after defaulting).
    #[must_use]
    pub fn bulk_config(&self) -> &BulkConfig {
        &self.bulk_config
    }
}

/// The right side's replication radius for the key filter `key ≤ max_key`:
/// its distance image, padded one-sided so that every pair the filter keeps
/// has every axis gap within it. The relative term absorbs the rounding of
/// the kernel's axis gap, squares, sum and the `sqrt` back; the absolute
/// term covers gaps below `sqrt(f64::MIN_POSITIVE)`, whose squares underflow
/// and so lose relative precision (down to a key of 0).
fn replication_radius(keys: KeySpace, max_key: f64) -> f64 {
    let d = keys.to_distance(max_key);
    if d.is_finite() {
        d + d * 1e-9 + f64::MIN_POSITIVE.sqrt()
    } else {
        d
    }
}

/// Workers a sweep over up to `threads` threads runs for `cells` active
/// cells: never more than one per cell, never fewer than one.
fn pool_size(threads: usize, cells: usize) -> usize {
    threads.max(1).min(cells.max(1))
}

/// Emits the sampled [`Event::ResultReported`] events of a materialised run
/// that continues a stream `base` results long: its first result has global
/// rank `base + 1`, so an adaptive run's prefix and tail form one strictly
/// increasing rank series.
fn report_ranks(ctx: &ObsContext, base: u64, results: &[ResultPair]) {
    for (rank, r) in (base + 1..).zip(results) {
        if rank.is_multiple_of(ctx.result_sample_every) {
            ctx.sink.emit(&Event::ResultReported {
                rank,
                dist: r.distance,
            });
        }
    }
}

/// K-way merges per-worker runs, each sorted in [`BulkHit`] order, into a
/// single ordered result, truncated to `max_pairs` if set. The merge holds
/// one head per run — the classic tournament the parallel stream merge
/// uses, minus the channels; a single run is only truncated.
fn merge_sorted_runs(mut runs: Vec<Vec<BulkHit>>, max_pairs: Option<u64>) -> Vec<BulkHit> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// `(head hit, run index)` tournament entry.
    type Head = Reverse<(BulkHit, usize)>;

    let total: usize = runs.iter().map(Vec::len).sum();
    let limit = max_pairs.map_or(total, |k| (k as usize).min(total));
    if runs.len() == 1 {
        let mut out = runs.pop().unwrap_or_default();
        out.truncate(limit);
        return out;
    }
    let mut out = Vec::with_capacity(limit);
    let mut heap: BinaryHeap<Head> = runs
        .iter()
        .enumerate()
        .filter(|(_, r)| !r.is_empty())
        .map(|(i, r)| Reverse((r[0], i)))
        .collect();
    let mut cursors = vec![0usize; runs.len()];
    while out.len() < limit {
        let Some(Reverse((hit, i))) = heap.pop() else {
            break;
        };
        out.push(hit);
        cursors[i] += 1;
        if let Some(&next) = runs[i].get(cursors[i]) {
            heap.push(Reverse((next, i)));
        }
    }
    out
}

/// Collects every leaf object entry of `tree` with a single depth-first
/// walk, reusing one node buffer (the R-tree decodes straight off its page
/// guards, so warm reads never copy page bytes — asserted by the bulk
/// equivalence tests via the pool's `read_copies` counter).
fn harvest<const D: usize, I>(
    tree: &I,
    stats: &mut JoinStats,
    out: &mut Vec<(ObjectId, Rect<D>)>,
) -> sdj_storage::Result<()>
where
    I: SpatialIndex<D> + ?Sized,
{
    if tree.is_empty() {
        return Ok(());
    }
    let mut stack = vec![tree.root_id()];
    let mut buf = IndexNode::empty();
    while let Some(id) = stack.pop() {
        tree.read_node_into(id, &mut buf)?;
        stats.node_accesses += 1;
        for e in &buf.entries {
            match e {
                IndexEntry::Child { id, .. } => stack.push(*id),
                IndexEntry::Object { oid, mbr } => out.push((*oid, *mbr)),
            }
        }
    }
    Ok(())
}

/// The bounding box of both entry sets, when the trees' root regions are
/// not at hand.
fn joint_bbox<const D: usize>(e1: &[(ObjectId, Rect<D>)], e2: &[(ObjectId, Rect<D>)]) -> Rect<D> {
    let mut bbox = Rect::empty();
    for (_, r) in e1.iter().chain(e2) {
        bbox = bbox.union(r);
    }
    bbox
}

/// The grid sizing rule: a density width targeting
/// [`BulkConfig::target_per_cell`] entries per cell, widened to at least
/// `Dmax` (cells narrower than the search radius multiply right-side
/// replication without shrinking any sweep window). An unbounded `Dmax`
/// degenerates to a single cell — one full plane sweep, which is also what
/// the incremental engine's simultaneous expansion would do.
fn derived_cell_width<const D: usize>(
    bbox: &Rect<D>,
    dmax: f64,
    n: usize,
    config: &BulkConfig,
) -> f64 {
    if !dmax.is_finite() {
        return f64::INFINITY;
    }
    let target_cells = (n / config.target_per_cell.max(1)).max(1);
    let mut volume = 1.0f64;
    for a in 0..D {
        volume *= (bbox.hi()[a] - bbox.lo()[a]).max(f64::MIN_POSITIVE);
    }
    let w_density = (volume / target_cells as f64).powf(1.0 / D as f64);
    w_density.max(dmax)
}

#[cfg(test)]
mod tests;
