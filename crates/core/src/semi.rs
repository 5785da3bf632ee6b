//! Distance semi-join bookkeeping (§2.3, evaluated in §4.2).
//!
//! A distance semi-join reports, for each object of the first relation, its
//! closest partner in the second — i.e. it is the distance join with pairs
//! `(o1, o2)` suppressed once some pair led by `o1` has been reported. The
//! knobs evaluated in §4.2.1 are *where* that suppression happens
//! ([`SemiFilter`]) and how aggressively known upper bounds on each
//! first-item's nearest-partner distance prune the queue
//! ([`DmaxStrategy`]).

use crate::idhash::{IdHashMap, IdHashSet};
use crate::pair::ItemId;

/// Where already-reported first objects are filtered out (§4.2.1, Figure 9).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SemiFilter {
    /// Run the distance join unchanged; drop duplicates only as results
    /// emerge from the algorithm.
    Outside,
    /// Additionally drop dequeued pairs whose first item is an already
    /// reported object (filtering in `INC_DIST_JOIN`).
    Inside1,
    /// Additionally skip already-reported objects while expanding nodes
    /// (filtering in `PROCESS_NODE1` too) — the paper's best filter.
    #[default]
    Inside2,
}

/// How `d_max` upper bounds are exploited to prune pairs (§4.2.1). All
/// strategies imply [`SemiFilter::Inside2`] filtering, as in the paper.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum DmaxStrategy {
    /// No `d_max` pruning.
    None,
    /// While expanding the second item of a pair `(i1, n2)`: the nearest
    /// partner of `i1` is within the smallest child `d_max`, so sibling
    /// children farther than that are skipped.
    #[default]
    Local,
    /// `Local`, plus a global table of the smallest known `d_max` for every
    /// *node* of the first index, inherited by its children.
    GlobalNodes,
    /// `GlobalNodes`, plus the same table for first-index objects. Because
    /// every object keeps its bound, a leaf/leaf pair is opened on both
    /// sides at once: each first object's nearest partner in the second leaf
    /// comes from one plane-sweep pass, instead of from an (object, leaf)
    /// pair queued per object that opens the second leaf again when popped.
    GlobalAll,
}

/// Configuration of a distance semi-join run.
#[derive(Clone, Copy, Debug, Default)]
pub struct SemiConfig {
    /// Duplicate-suppression placement.
    pub filter: SemiFilter,
    /// Upper-bound pruning strategy.
    pub dmax: DmaxStrategy,
}

/// The reported set `S` over object ids, in the paper's "bit string
/// representation" (§3.2) for the ids below the relation's size and a hash
/// set for any larger id, so a sparse id costs one entry rather than a bit
/// string reaching up to it.
#[derive(Clone, Debug, Default)]
pub struct SeenSet {
    bits: Vec<u64>,
    sparse: IdHashSet<u64>,
    len: usize,
}

impl SeenSet {
    /// Creates an empty set keeping ids below `n` as bits.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        Self {
            bits: vec![0; n.div_ceil(64)],
            sparse: IdHashSet::default(),
            len: 0,
        }
    }

    /// The bit-string word and mask of `oid`, when it is below the bits'
    /// range.
    fn bit(&self, oid: u64) -> Option<(usize, u64)> {
        let word = usize::try_from(oid / 64).ok()?;
        (word < self.bits.len()).then_some((word, 1 << (oid % 64)))
    }

    /// True if `oid` has been inserted.
    #[must_use]
    pub fn contains(&self, oid: u64) -> bool {
        match self.bit(oid) {
            Some((word, mask)) => self.bits[word] & mask != 0,
            None => self.sparse.contains(&oid),
        }
    }

    /// Inserts `oid`; returns true if it was new.
    pub fn insert(&mut self, oid: u64) -> bool {
        let new = match self.bit(oid) {
            Some((word, mask)) => {
                let new = self.bits[word] & mask == 0;
                self.bits[word] |= mask;
                new
            }
            None => self.sparse.insert(oid),
        };
        self.len += usize::from(new);
        new
    }

    /// Number of inserted ids.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing has been inserted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Heap bytes held: the bit string plus the hash set's buckets.
    #[cfg(test)]
    fn heap_bytes(&self) -> usize {
        self.bits.capacity() * std::mem::size_of::<u64>()
            + self.sparse.capacity() * (std::mem::size_of::<u64>() + 1)
    }
}

/// Mutable semi-join state carried by the join iterator.
pub(crate) struct SemiState {
    pub config: SemiConfig,
    /// Objects of the first relation already reported (the paper's `S`).
    pub seen: SeenSet,
    /// `GlobalAll`'s object bounds as a column indexed by object id, for
    /// the ids below the first relation's size (+∞ = none yet). Empty under
    /// every other strategy.
    object_bounds: Vec<f64>,
    /// Smallest known nearest-partner upper bound for every other tracked
    /// first-index item: nodes, and objects whose id lies beyond the column.
    bounds: IdHashMap<ItemId, f64>,
}

impl SemiState {
    pub fn new(config: SemiConfig, first_len: usize) -> Self {
        let column = if matches!(config.dmax, DmaxStrategy::GlobalAll) {
            first_len
        } else {
            0
        };
        Self {
            config,
            seen: SeenSet::with_capacity(first_len),
            object_bounds: vec![f64::INFINITY; column],
            bounds: IdHashMap::default(),
        }
    }

    /// Does the strategy keep a bound per object (`GlobalAll`)?
    pub fn bounds_objects(&self) -> bool {
        matches!(self.config.dmax, DmaxStrategy::GlobalAll)
    }

    /// Whether the strategy keeps a bound for `item1`.
    fn tracks(&self, item1: ItemId) -> bool {
        matches!(
            (self.config.dmax, item1),
            (DmaxStrategy::GlobalNodes, ItemId::Node(_)) | (DmaxStrategy::GlobalAll, _)
        )
    }

    /// `item1`'s cell in the object-bound column, if it has one.
    fn column_index(&self, item1: ItemId) -> Option<usize> {
        match item1 {
            ItemId::Object(oid) => usize::try_from(oid)
                .ok()
                .filter(|&i| i < self.object_bounds.len()),
            ItemId::Node(_) => None,
        }
    }

    /// Does the configuration filter dequeued pairs (`Inside1`/`Inside2`)?
    pub fn filters_on_dequeue(&self) -> bool {
        !matches!(self.config.filter, SemiFilter::Outside)
    }

    /// Does the configuration filter during node expansion (`Inside2`)?
    pub fn filters_on_expand(&self) -> bool {
        matches!(self.config.filter, SemiFilter::Inside2)
    }

    /// The global upper bound applicable to pairs led by `item1`, if the
    /// strategy tracks it. Bounds live in the join's key domain (squared
    /// distances under the default Euclidean configuration): the engine
    /// stores and compares them against MINDIST keys without conversion.
    pub fn bound_for(&self, item1: ItemId) -> Option<f64> {
        if !self.tracks(item1) {
            return None;
        }
        match self.column_index(item1) {
            Some(i) => Some(self.object_bounds[i]).filter(|b| b.is_finite()),
            None => self.bounds.get(&item1).copied(),
        }
    }

    /// Records a (possibly improved) upper bound for `item1`. Returns true
    /// when the stored bound actually changed (a new entry, or a strictly
    /// tighter one) — the join counts these as `d_max` tightenings.
    pub fn update_bound(&mut self, item1: ItemId, bound: f64) -> bool {
        if !self.tracks(item1) || !bound.is_finite() {
            return false;
        }
        let stored = match self.column_index(item1) {
            Some(i) => &mut self.object_bounds[i],
            None => self.bounds.entry(item1).or_insert(f64::INFINITY),
        };
        let tighter = bound < *stored;
        if tighter {
            *stored = bound;
        }
        tighter
    }

    /// Uses `Local` (or stronger) bounding during expansion?
    pub fn uses_local_bound(&self) -> bool {
        !matches!(self.config.dmax, DmaxStrategy::None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seen_set_basics() {
        let mut s = SeenSet::with_capacity(10);
        assert!(!s.contains(3));
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert!(s.contains(3));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn seen_set_grows_past_capacity() {
        let mut s = SeenSet::with_capacity(1);
        assert!(s.insert(1_000_000));
        assert!(s.contains(1_000_000));
        assert!(!s.contains(999_999));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn seen_set_dense_usage() {
        let mut s = SeenSet::with_capacity(128);
        for i in 0..128 {
            assert!(s.insert(i));
        }
        assert_eq!(s.len(), 128);
        assert!((0..128).all(|i| s.contains(i)));
        assert!(!s.contains(128));
    }

    #[test]
    fn seen_set_keeps_sparse_ids_in_a_hash_set() {
        let mut s = SeenSet::with_capacity(100);
        for oid in [7, 1 << 33, 1 << 40] {
            assert!(s.insert(oid));
            assert!(!s.insert(oid));
        }
        for oid in [7, 1 << 33, 1 << 40] {
            assert!(s.contains(oid));
        }
        assert!(!s.contains(8));
        assert!(!s.contains((1 << 33) + 1));
        assert_eq!(s.len(), 3);
        assert!(s.heap_bytes() < 1 << 20, "{} heap bytes", s.heap_bytes());
    }

    #[test]
    fn bound_tracking_respects_strategy() {
        let mut st = SemiState::new(
            SemiConfig {
                filter: SemiFilter::Inside2,
                dmax: DmaxStrategy::GlobalNodes,
            },
            10,
        );
        st.update_bound(ItemId::Node(1), 5.0);
        st.update_bound(ItemId::Object(1), 5.0);
        assert_eq!(st.bound_for(ItemId::Node(1)), Some(5.0));
        assert_eq!(st.bound_for(ItemId::Object(1)), None, "nodes-only strategy");
        st.update_bound(ItemId::Node(1), 3.0);
        assert_eq!(st.bound_for(ItemId::Node(1)), Some(3.0));
        st.update_bound(ItemId::Node(1), 9.0);
        assert_eq!(st.bound_for(ItemId::Node(1)), Some(3.0), "never loosens");
    }

    #[test]
    fn global_all_tracks_objects_too() {
        let mut st = SemiState::new(
            SemiConfig {
                filter: SemiFilter::Inside2,
                dmax: DmaxStrategy::GlobalAll,
            },
            10,
        );
        st.update_bound(ItemId::Object(7), 2.5);
        assert_eq!(st.bound_for(ItemId::Object(7)), Some(2.5));
        assert!(!st.update_bound(ItemId::Object(7), 3.0), "never loosens");
        assert!(st.update_bound(ItemId::Object(7), 1.5));
        assert_eq!(st.bound_for(ItemId::Object(7)), Some(1.5));
        // Ids past the column (sparse or beyond the relation) and nodes
        // keep their bounds in the table.
        assert_eq!(st.bound_for(ItemId::Object(1 << 40)), None);
        assert!(st.update_bound(ItemId::Object(1 << 40), 4.0));
        assert_eq!(st.bound_for(ItemId::Object(1 << 40)), Some(4.0));
        assert!(st.update_bound(ItemId::Node(7), 6.0));
        assert_eq!(st.bound_for(ItemId::Node(7)), Some(6.0));
        assert_eq!(st.bound_for(ItemId::Object(8)), None);
    }

    #[test]
    fn infinite_bounds_are_not_stored() {
        let mut st = SemiState::new(
            SemiConfig {
                filter: SemiFilter::Inside2,
                dmax: DmaxStrategy::GlobalAll,
            },
            10,
        );
        st.update_bound(ItemId::Object(7), f64::INFINITY);
        assert_eq!(st.bound_for(ItemId::Object(7)), None);
    }
}
