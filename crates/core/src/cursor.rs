//! One pull interface over every serial execution path.
//!
//! The paper's central observation is that the priority queue *is* the
//! query state, so a distance join is by nature a cursor its consumer may
//! stop after any pair (§2.2, `STOP AFTER`). [`JoinCursor`] is that cursor
//! as a trait, and every serial engine shows it to whatever drives it:
//!
//! * [`DistanceJoin`] — the incremental engine; a pull is `n` iterator
//!   steps and the held bytes are the queue's.
//! * [`AdaptiveCursor`](crate::AdaptiveCursor) — the incremental engine driven through replan
//!   checkpoints, possibly handing its remainder to a frontier-seeded bulk
//!   run mid-stream.
//! * [`BulkCursor`] — the bulk path, which materialises by nature: it
//!   partitions and sweeps on the first pull and drains the sorted run
//!   afterwards. It is also the tail of an adaptive cursor after a
//!   handoff, so "sweep, then drain" exists once.
//!
//! [`open_cursor`] is the one place a [`PlanChoice`] becomes a cursor. The
//! bulk sweep's workers join inside the first pull, before any result is
//! handed out, so a cursor can own them.

use std::collections::VecDeque;

use sdj_obs::ObsContext;
use sdj_rtree::RTree;

use crate::adaptive::{AdaptiveConfig, AdaptiveDistanceJoin};
use crate::bulk::{BulkConfig, BulkDistanceJoin, BulkStats};
use crate::config::{ConfigError, JoinConfig};
use crate::index::SpatialIndex;
use crate::join::{DistanceJoin, ResultPair};
use crate::oracle::DistanceOracle;
use crate::plan::PlanChoice;
use crate::stats::JoinStats;

/// A pull-paced result stream: the shape every serial engine shows its
/// driver (a session, a report, a test).
pub trait JoinCursor {
    /// Appends up to `n` further results to `out`, in stream order.
    ///
    /// `Ok(true)` means the stream is exhausted: nothing follows what this
    /// call appended (possibly fewer than `n` results, possibly none), and
    /// every later call appends nothing and answers `Ok(true)` again.
    /// `Ok(false)` means `n` results were appended and more may follow. `Err`
    /// is terminal and fail-clean: everything appended so far, by this call
    /// and the ones before it, is a correct prefix of the fault-free stream.
    fn advance(&mut self, n: usize, out: &mut Vec<ResultPair>) -> sdj_storage::Result<bool>;

    /// Bytes of query state held between pulls — queue tiers plus the
    /// buffers of results produced but not yet handed out. This is what a
    /// session's memory budget meters; an exhausted cursor holds none.
    fn held_bytes(&self) -> usize;

    /// Engine counters of the run so far.
    fn stats(&self) -> JoinStats;
}

impl<const D: usize, O, I1, I2> JoinCursor for DistanceJoin<'_, D, O, I1, I2>
where
    O: DistanceOracle<D>,
    I1: SpatialIndex<D>,
    I2: SpatialIndex<D>,
{
    fn advance(&mut self, n: usize, out: &mut Vec<ResultPair>) -> sdj_storage::Result<bool> {
        for _ in 0..n {
            match self.next() {
                Some(r) => out.push(r),
                None => return self.take_error().map_or(Ok(true), Err),
            }
        }
        Ok(false)
    }

    /// The queue and the estimator's set `M` *are* the paused query. Once
    /// the join has finished, whatever they still hold is dead weight
    /// awaiting the drop, not state.
    fn held_bytes(&self) -> usize {
        if self.is_done() {
            0
        } else {
            self.queue_bytes() + self.estimator_bytes()
        }
    }

    fn stats(&self) -> JoinStats {
        DistanceJoin::stats(self)
    }
}

/// What a [`BulkCursor`] sweeps on its first pull.
enum BulkSource<'a, const D: usize, I1, I2> {
    /// Two indexes still to be harvested and partitioned.
    Trees {
        tree1: &'a I1,
        tree2: &'a I2,
        config: JoinConfig,
        bulk_config: BulkConfig,
    },
    /// A partition built elsewhere (the adaptive handoff seeds one from the
    /// exported frontier).
    Built(Box<BulkDistanceJoin<D>>),
}

/// The bulk partition/plane-sweep join behind the pull interface.
///
/// Nothing is read before the first [`JoinCursor::advance`]: opening the
/// cursor is free, and a storage fault in the harvest surfaces where every
/// other engine's faults do. That first pull builds the partition, sweeps
/// every cell and merges the runs in distance order; the pulls after it
/// drain the materialised stream, whose buffer is freed with its last
/// result.
pub struct BulkCursor<'a, const D: usize, I1 = RTree<D>, I2 = RTree<D>> {
    /// Taken by the first pull.
    source: Option<BulkSource<'a, D, I1, I2>>,
    /// Sweep workers of the first pull.
    workers: usize,
    /// The swept stream, not yet handed out.
    tail: VecDeque<ResultPair>,
    stats: JoinStats,
    bulk_stats: BulkStats,
}

impl<'a, const D: usize, I1, I2> BulkCursor<'a, D, I1, I2>
where
    I1: SpatialIndex<D>,
    I2: SpatialIndex<D>,
{
    /// A cursor over the bulk join of `tree1` × `tree2`.
    #[must_use]
    pub fn new(tree1: &'a I1, tree2: &'a I2, config: JoinConfig, bulk_config: BulkConfig) -> Self {
        Self::over(
            BulkSource::Trees {
                tree1,
                tree2,
                config,
                bulk_config,
            },
            1,
        )
    }

    /// A cursor over an already built partition, swept by `workers`
    /// threads.
    pub(crate) fn seeded(bulk: BulkDistanceJoin<D>, workers: usize) -> Self {
        Self::over(BulkSource::Built(Box::new(bulk)), workers)
    }

    fn over(source: BulkSource<'a, D, I1, I2>, workers: usize) -> Self {
        Self {
            source: Some(source),
            workers,
            tail: VecDeque::new(),
            stats: JoinStats::default(),
            bulk_stats: BulkStats::default(),
        }
    }

    /// Bulk-path counters (cells, sweeps, dedup suppressions, replicas);
    /// all zero until the first pull has swept.
    #[must_use]
    pub fn bulk_stats(&self) -> BulkStats {
        self.bulk_stats
    }

    /// True once the swept stream has been handed out in full.
    pub(crate) fn is_drained(&self) -> bool {
        self.source.is_none() && self.tail.is_empty()
    }
}

impl<const D: usize, I1, I2> JoinCursor for BulkCursor<'_, D, I1, I2>
where
    I1: SpatialIndex<D>,
    I2: SpatialIndex<D>,
{
    fn advance(&mut self, n: usize, out: &mut Vec<ResultPair>) -> sdj_storage::Result<bool> {
        if let Some(source) = self.source.take() {
            let mut bulk = match source {
                BulkSource::Trees {
                    tree1,
                    tree2,
                    config,
                    bulk_config,
                } => BulkDistanceJoin::with_bulk_config(tree1, tree2, config, bulk_config)?,
                BulkSource::Built(bulk) => *bulk,
            };
            self.tail = bulk.run_with_workers(self.workers).into();
            self.stats = bulk.stats();
            self.bulk_stats = bulk.bulk_stats();
        }
        let k = n.min(self.tail.len());
        out.extend(self.tail.drain(..k));
        if self.tail.is_empty() {
            // The last result is out: free the buffer now, not at the drop.
            self.tail = VecDeque::new();
            return Ok(true);
        }
        Ok(false)
    }

    /// The buffer's whole allocation: handing results out does not shrink
    /// it, and it is freed with the last one.
    fn held_bytes(&self) -> usize {
        self.tail.capacity() * std::mem::size_of::<ResultPair>()
    }

    fn stats(&self) -> JoinStats {
        self.stats
    }
}

/// Opens the engine `plan` names as a boxed [`JoinCursor`] — the only place
/// besides `sdj-exec`'s `run_planned` where a [`PlanChoice`] turns into an
/// engine.
///
/// `gauges` registers the cursor's queue gauges as `{prefix}pq.*` in the
/// context's registry (a session service passes `session.<id>.`); the bulk
/// path has no queue and registers nothing.
///
/// # Errors
/// An invalid `config` (see [`JoinConfig::validate`]) is refused before any
/// engine is built or any node is read.
pub fn open_cursor<'a, const D: usize, I1, I2>(
    tree1: &'a I1,
    tree2: &'a I2,
    plan: PlanChoice,
    config: JoinConfig,
    bulk_config: BulkConfig,
    adaptive: AdaptiveConfig,
    gauges: Option<(&ObsContext, &str)>,
) -> Result<Box<dyn JoinCursor + Send + Sync + 'a>, ConfigError>
where
    I1: SpatialIndex<D> + Sync,
    I2: SpatialIndex<D> + Sync,
{
    config.validate()?;
    Ok(match plan {
        PlanChoice::Incremental => {
            let mut join = DistanceJoin::new(tree1, tree2, config);
            if let Some((ctx, prefix)) = gauges {
                join.attach_queue_obs_prefixed(ctx, prefix);
            }
            Box::new(join)
        }
        PlanChoice::Bulk => Box::new(BulkCursor::new(tree1, tree2, config, bulk_config)),
        PlanChoice::Adaptive => {
            let mut cursor =
                AdaptiveDistanceJoin::with_configs(tree1, tree2, config, bulk_config, adaptive)
                    .cursor();
            if let Some((ctx, prefix)) = gauges {
                cursor.attach_queue_obs_prefixed(ctx, prefix);
            }
            Box::new(cursor)
        }
    })
}
