//! Per-run performance counters, matching the measures the paper reports
//! (Table 1: distance calculations, maximum queue size, node I/O).

/// Counters accumulated by one join execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JoinStats {
    /// All bound-distance evaluations (MINDIST/MAXDIST/MINMAXDIST between
    /// items).
    pub distance_calcs: u64,
    /// Exact object-to-object distance computations.
    pub object_distance_calcs: u64,
    /// Pairs pushed onto the priority queue.
    pub pairs_enqueued: u64,
    /// Pairs popped from the priority queue.
    pub pairs_dequeued: u64,
    /// Queued pairs dropped unpopped because a pop-time filter had come to
    /// reject them (the queue compaction): the §2.2.4 estimate had fallen
    /// below their key, or, in a semi-join, their first object had been
    /// reported or their key exceeded their first item's `d_max` bound.
    /// Each of those filters only tightens, so the pair would have been
    /// dropped at its pop; dropping it early changes no result or node
    /// read. A join's dropped pair would never have been popped at all; a
    /// semi-join's might have, so its `pairs_dequeued` and pop-filter
    /// counts fall by the same amount.
    pub pairs_discarded: u64,
    /// Pairs on the queue when the counters were read (sampled at call
    /// time). Every enqueued pair is dequeued, discarded or still queued:
    /// `pairs_enqueued == pairs_dequeued + pairs_discarded + queue_len`,
    /// except after an adaptive handoff, which hands the queued frontier to
    /// the bulk path uncounted.
    pub queue_len: u64,
    /// Result pairs reported.
    pub pairs_reported: u64,
    /// High-water mark of the queue length.
    pub max_queue: usize,
    /// High-water mark of the queue's approximate resident bytes (entry
    /// storage, item arena, spill buffer pool), sampled once per insertion
    /// flush and when read. The registry's `pq.bytes` high-water mark is
    /// published from it.
    pub queue_bytes_peak: usize,
    /// Logical node reads performed by the join (each may or may not hit the
    /// buffer pool).
    pub node_accesses: u64,
    /// Buffer-pool misses across both trees during the join: the paper's
    /// "node I/O" measure.
    pub node_io: u64,
    /// Pairs rejected by the `[Dmin, Dmax]` range restriction.
    pub pruned_by_range: u64,
    /// Pairs rejected by the estimated maximum distance (§2.2.4), at the
    /// push or the pop. A queued pair the compaction dropped first is
    /// counted in `pairs_discarded` instead.
    pub pruned_by_estimate: u64,
    /// Pairs rejected by semi-join `d_max` bounds (§4.2.1), at the push,
    /// during expansion or at the pop. A queued pair the compaction dropped
    /// first is counted in `pairs_discarded` instead.
    pub pruned_by_dmax: u64,
    /// Pairs dropped because their first object already produced a
    /// semi-join result, at the push, during expansion, at the pop or at
    /// the report. A queued pair the compaction dropped first is counted in
    /// `pairs_discarded` instead.
    pub filtered_seen: u64,
    /// Self-pairs dropped by `exclude_equal_ids` (self-join applications).
    pub filtered_self: u64,
    /// Key-to-distance conversions (`sqrt` under the squared Euclidean key
    /// domain). With the default squared keys this equals the number of
    /// reported results: every internal bound, prune, and queue key stays in
    /// the sqrt-free key domain, so the root is paid exactly once per
    /// emitted pair. Always zero under a plain key domain.
    pub sqrt_calls: u64,
    /// Node pages handed to the indexes as queue-driven prefetch hints
    /// (zero unless `JoinConfig::prefetch_depth` is set). Whether a hint
    /// became an actual prefetch read or hit is counted by the buffer pool,
    /// not here.
    pub prefetch_hints: u64,
    /// Node/node pairs opened on both sides at once by the §2.2.2 plane
    /// sweep: every node pair under `TraversalPolicy::Simultaneous`, and
    /// under the default `Even` the equal-level pairs of a plain ascending
    /// join popped while the known maximum distance — at a leaf pair of a
    /// K-bounded join, the band ceiling when it is lower (`DESIGN.md` §22)
    /// — was under half the narrower node's axis-0 extent, and the deferred
    /// copies of swept pairs. Zero for semi-joins, descending runs and
    /// bound-less runs under `Even`.
    pub sweep_expansions: u64,
    /// Deferred copies queued by a K-bounded ascending join's distance
    /// bands (`DESIGN.md` §22): expansions that left children keyed at or
    /// above the band ceiling, and within the proven bound, for later. Each
    /// copy is one of `pairs_enqueued`, and leaves the queue as any pair
    /// does: popped, discarded by the compaction once the estimate falls
    /// below its key, or still queued. Zero for every other join.
    pub band_deferred: u64,
    /// Deferred copies popped and re-expanded for the next band: the
    /// frontier reached a ceiling the estimate had not yet pruned. Zero
    /// whenever the first ceiling is above the K-th distance.
    pub band_reexpanded: u64,
}

impl JoinStats {
    /// Sum of all pruning counters.
    #[must_use]
    pub fn total_pruned(&self) -> u64 {
        self.pruned_by_range
            + self.pruned_by_estimate
            + self.pruned_by_dmax
            + self.filtered_seen
            + self.filtered_self
    }

    /// Accumulates `other` into `self`: counters and queue lengths add,
    /// high-water marks take the maximum. Used to add an adaptive run's bulk
    /// tail to its incremental prefix.
    pub fn merge(&mut self, other: &JoinStats) {
        self.distance_calcs += other.distance_calcs;
        self.object_distance_calcs += other.object_distance_calcs;
        self.pairs_enqueued += other.pairs_enqueued;
        self.pairs_dequeued += other.pairs_dequeued;
        self.pairs_discarded += other.pairs_discarded;
        self.queue_len += other.queue_len;
        self.pairs_reported += other.pairs_reported;
        self.max_queue = self.max_queue.max(other.max_queue);
        self.queue_bytes_peak = self.queue_bytes_peak.max(other.queue_bytes_peak);
        self.node_accesses += other.node_accesses;
        self.node_io += other.node_io;
        self.pruned_by_range += other.pruned_by_range;
        self.pruned_by_estimate += other.pruned_by_estimate;
        self.pruned_by_dmax += other.pruned_by_dmax;
        self.filtered_seen += other.filtered_seen;
        self.filtered_self += other.filtered_self;
        self.sqrt_calls += other.sqrt_calls;
        self.prefetch_hints += other.prefetch_hints;
        self.sweep_expansions += other.sweep_expansions;
        self.band_deferred += other.band_deferred;
        self.band_reexpanded += other.band_reexpanded;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_pruned_sums() {
        let s = JoinStats {
            pruned_by_range: 1,
            pruned_by_estimate: 2,
            pruned_by_dmax: 3,
            filtered_seen: 4,
            ..JoinStats::default()
        };
        assert_eq!(s.total_pruned(), 10);
    }

    #[test]
    fn merge_adds_counters_and_maxes_peaks() {
        let mut a = JoinStats {
            distance_calcs: 10,
            pairs_reported: 2,
            max_queue: 7,
            ..JoinStats::default()
        };
        let b = JoinStats {
            distance_calcs: 5,
            pairs_reported: 1,
            max_queue: 12,
            pruned_by_dmax: 3,
            pairs_discarded: 4,
            queue_len: 9,
            band_deferred: 6,
            band_reexpanded: 2,
            ..JoinStats::default()
        };
        a.merge(&b);
        assert_eq!((a.band_deferred, a.band_reexpanded), (6, 2));
        assert_eq!(a.distance_calcs, 15);
        assert_eq!((a.pairs_discarded, a.queue_len), (4, 9));
        assert_eq!(a.pairs_reported, 3);
        assert_eq!(a.max_queue, 12);
        assert_eq!(a.pruned_by_dmax, 3);
    }
}
