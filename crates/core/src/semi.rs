//! Distance semi-join bookkeeping (§2.3, evaluated in §4.2).
//!
//! A distance semi-join reports, for each object of the first relation, its
//! closest partner in the second — i.e. it is the distance join with pairs
//! `(o1, o2)` suppressed once some pair led by `o1` has been reported. The
//! knobs evaluated in §4.2.1 are *where* that suppression happens
//! ([`SemiFilter`]) and how aggressively known upper bounds on each
//! first-item's nearest-partner distance prune the queue
//! ([`DmaxStrategy`]).

use crate::idhash::IdHashMap;
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
    /// `GlobalNodes`, plus the same table for first-index objects.
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

/// A growable bit set over object ids — the paper's "bit string
/// representation" of the reported set `S` (§3.2).
#[derive(Clone, Debug, Default)]
pub struct SeenSet {
    bits: Vec<u64>,
    len: usize,
}

impl SeenSet {
    /// Creates an empty set with capacity hints for `n` object ids.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        Self {
            bits: vec![0; n.div_ceil(64)],
            len: 0,
        }
    }

    /// True if `oid` has been inserted.
    #[must_use]
    pub fn contains(&self, oid: u64) -> bool {
        let word = (oid / 64) as usize;
        self.bits
            .get(word)
            .is_some_and(|w| w & (1 << (oid % 64)) != 0)
    }

    /// Inserts `oid`; returns true if it was new.
    pub fn insert(&mut self, oid: u64) -> bool {
        let word = (oid / 64) as usize;
        if word >= self.bits.len() {
            self.bits.resize(word + 1, 0);
        }
        let mask = 1 << (oid % 64);
        if self.bits[word] & mask != 0 {
            return false;
        }
        self.bits[word] |= mask;
        self.len += 1;
        true
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
}

/// Mutable semi-join state carried by the join iterator.
pub(crate) struct SemiState {
    pub config: SemiConfig,
    /// Objects of the first relation already reported (the paper's `S`).
    pub seen: SeenSet,
    /// Smallest known nearest-partner upper bound per first-index item
    /// (`GlobalNodes` keeps nodes only; `GlobalAll` also objects).
    pub bounds: IdHashMap<ItemId, f64>,
}

impl SemiState {
    pub fn new(config: SemiConfig, first_len: usize) -> Self {
        Self {
            config,
            seen: SeenSet::with_capacity(first_len),
            bounds: IdHashMap::default(),
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
        match (self.config.dmax, item1) {
            (DmaxStrategy::GlobalNodes, ItemId::Node(_)) | (DmaxStrategy::GlobalAll, _) => {
                self.bounds.get(&item1).copied()
            }
            _ => None,
        }
    }

    /// Records a (possibly improved) upper bound for `item1`. Returns true
    /// when the stored bound actually changed (a new entry, or a strictly
    /// tighter one) — the join counts these as `d_max` tightenings.
    pub fn update_bound(&mut self, item1: ItemId, bound: f64) -> bool {
        let tracked = matches!(
            (self.config.dmax, item1),
            (DmaxStrategy::GlobalNodes, ItemId::Node(_)) | (DmaxStrategy::GlobalAll, _)
        );
        if !tracked || !bound.is_finite() {
            return false;
        }
        match self.bounds.entry(item1) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                if bound < *e.get() {
                    *e.get_mut() = bound;
                    true
                } else {
                    false
                }
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(bound);
                true
            }
        }
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
