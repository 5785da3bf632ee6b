//! The planned entry point over every execution path.
//!
//! [`run_planned`] asks the cost model for a plan and runs it: the
//! incremental plan as one serial `DistanceJoin` on the calling thread, the
//! bulk and adaptive plans through `sdj-core`'s own sweep pool, sized by
//! [`ParallelConfig::threads`] (see the `planned` module).
//!
//! The incremental join has no parallel executor: sharding its queue over
//! threads never won enough to pay for itself (`DESIGN.md` §6 records the
//! measurements). [`ParallelDistanceJoin`] remains only as a serial shim
//! for callers written against it.

mod planned;

pub use planned::{run_planned, ForcedPlan, PlannedRun};

use sdj_core::{DistanceJoin, JoinConfig, ResultPair, SpatialIndex};
use sdj_storage::StorageError;

/// Worker threads of a planned run's bulk sweep.
#[derive(Clone, Copy, Debug)]
pub struct ParallelConfig {
    /// Sweep workers of the bulk plan and of the adaptive plan's bulk tail.
    pub threads: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self::with_threads(std::thread::available_parallelism().map_or(4, usize::from))
    }
}

impl ParallelConfig {
    /// A configuration with `threads` sweep workers.
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        Self { threads }
    }
}

/// The results of a [`ParallelDistanceJoin`].
#[derive(Debug)]
pub struct RunOutput {
    /// Every result, in distance order.
    pub value: Vec<ResultPair>,
    /// The storage error that ended the stream early, if any.
    pub error: Option<StorageError>,
}

/// Serial stand-in for the deleted parallel incremental executor: the
/// serial [`DistanceJoin`], whatever [`ParallelConfig`] it is given.
pub struct ParallelDistanceJoin<'a, const D: usize, I1: SpatialIndex<D>, I2: SpatialIndex<D>> {
    join: DistanceJoin<'a, D, sdj_core::MbrOracle, I1, I2>,
}

impl<'a, const D: usize, I1: SpatialIndex<D>, I2: SpatialIndex<D>>
    ParallelDistanceJoin<'a, D, I1, I2>
{
    /// `DistanceJoin::new(tree1, tree2, config)`; `_parallel` is ignored.
    #[must_use]
    pub fn new(
        tree1: &'a I1,
        tree2: &'a I2,
        config: JoinConfig,
        _parallel: ParallelConfig,
    ) -> Self {
        Self {
            join: DistanceJoin::new(tree1, tree2, config),
        }
    }

    /// Runs the join to the end and collects every result in order.
    pub fn collect(mut self) -> RunOutput {
        let value = self.join.by_ref().collect();
        RunOutput {
            value,
            error: self.join.take_error(),
        }
    }
}
