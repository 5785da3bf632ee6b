//! Queue elements: pairs of items, one from each spatial index.
//!
//! §2.2.1: "each element contains a pair of items, one from each of the
//! input spatial indexes … An item can be either a data object or a node".
//! With object bounding rectangles stored in the leaves there are five pair
//! kinds in play: node/node, node/obr, obr/node, obr/obr and object/object.

use sdj_geom::{KeySpace, Metric, OrdF64, Rect};
use sdj_pqueue::{Codec, QueueKey};
use sdj_rtree::ObjectId;

use crate::index::NodeId;
use sdj_storage::codec::{PageReader, PageWriter};
use sdj_storage::StorageError;

/// One side of a queued pair.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Item<const D: usize> {
    /// An index node (with its level and region, taken from the parent
    /// entry; the root's region is the index's root region).
    Node {
        /// The node's id within its index.
        page: NodeId,
        /// Node level (0 = leaf).
        level: u8,
        /// Region covered by the node.
        mbr: Rect<D>,
    },
    /// An object bounding rectangle from a leaf (`[O]` in the paper's
    /// notation: "in practice the object reference must be enqueued along
    /// with the bounding rectangle").
    Obr {
        /// The referenced object.
        oid: ObjectId,
        /// Its minimal bounding rectangle.
        mbr: Rect<D>,
    },
    /// A data object whose exact distance has already been computed (only
    /// produced when objects are stored externally to the leaves).
    Object {
        /// The referenced object.
        oid: ObjectId,
        /// Its minimal bounding rectangle.
        mbr: Rect<D>,
    },
}

impl<const D: usize> Item<D> {
    /// The item's rectangle (node region or object bounding rectangle).
    #[must_use]
    pub fn rect(&self) -> &Rect<D> {
        match self {
            Item::Node { mbr, .. } | Item::Obr { mbr, .. } | Item::Object { mbr, .. } => mbr,
        }
    }

    /// True for node items.
    #[must_use]
    pub fn is_node(&self) -> bool {
        matches!(self, Item::Node { .. })
    }

    /// The node level, if this is a node.
    #[must_use]
    pub fn node_level(&self) -> Option<u8> {
        match self {
            Item::Node { level, .. } => Some(*level),
            _ => None,
        }
    }

    /// The object id, if this is an obr or object.
    #[must_use]
    pub fn object_id(&self) -> Option<ObjectId> {
        match self {
            Item::Obr { oid, .. } | Item::Object { oid, .. } => Some(*oid),
            Item::Node { .. } => None,
        }
    }

    /// A compact identity used for hashing pairs (estimation set `M`,
    /// semi-join bound tables).
    #[must_use]
    pub fn identity(&self) -> ItemId {
        match self {
            Item::Node { page, .. } => ItemId::Node(*page),
            Item::Obr { oid, .. } | Item::Object { oid, .. } => ItemId::Object(oid.0),
        }
    }
}

/// Hashable identity of an item.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ItemId {
    /// A node, by node id.
    Node(NodeId),
    /// An object (or its bounding rectangle), by object id.
    Object(u64),
}

/// A queued pair.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pair<const D: usize> {
    /// Item from the first index (`R1`).
    pub item1: Item<D>,
    /// Item from the second index (`R2`).
    pub item2: Item<D>,
}

impl<const D: usize> Pair<D> {
    /// Creates a pair.
    #[must_use]
    pub fn new(item1: Item<D>, item2: Item<D>) -> Self {
        Self { item1, item2 }
    }

    /// MINDIST between the pair's items (the queue key's distance part).
    #[must_use]
    pub fn mindist(&self, metric: Metric) -> f64 {
        metric.mindist_rect_rect(self.item1.rect(), self.item2.rect())
    }

    /// MAXDIST between the pair's items: an upper bound on the distance of
    /// every object pair generated from this pair.
    #[must_use]
    pub fn maxdist(&self, metric: Metric) -> f64 {
        metric.maxdist_rect_rect(self.item1.rect(), self.item2.rect())
    }

    /// MINMAXDIST between the pair's items: an upper bound on the distance
    /// of the *closest* object pair generated from this pair (valid because
    /// bounding rectangles are minimal at every level).
    #[must_use]
    pub fn minmaxdist(&self, metric: Metric) -> f64 {
        metric.minmaxdist_rect_rect(self.item1.rect(), self.item2.rect())
    }

    /// MINDIST in `keys`'s key domain (squared under sqrt-free Euclidean
    /// keys) — what the join actually pushes as [`PairKey::dist`].
    #[must_use]
    pub fn mindist_key(&self, keys: KeySpace) -> f64 {
        keys.mindist_rect_rect(self.item1.rect(), self.item2.rect())
    }

    /// MAXDIST in `keys`'s key domain.
    #[must_use]
    pub fn maxdist_key(&self, keys: KeySpace) -> f64 {
        keys.maxdist_rect_rect(self.item1.rect(), self.item2.rect())
    }

    /// MINMAXDIST in `keys`'s key domain.
    #[must_use]
    pub fn minmaxdist_key(&self, keys: KeySpace) -> f64 {
        keys.minmaxdist_rect_rect(self.item1.rect(), self.item2.rect())
    }

    /// Hashable identity of the pair.
    #[must_use]
    pub fn identity(&self) -> (ItemId, ItemId) {
        (self.item1.identity(), self.item2.identity())
    }

    /// True when both items are final (object, or exact obr) and the pair
    /// can be reported.
    #[must_use]
    pub fn is_final(&self, exact_obrs: bool) -> bool {
        let obj = |it: &Item<D>| match it {
            Item::Object { .. } => true,
            Item::Obr { .. } => exact_obrs,
            Item::Node { .. } => false,
        };
        obj(&self.item1) && obj(&self.item2)
    }
}

/// How equal-distance pairs are ordered (§2.2.2).
///
/// Pairs containing objects or obrs always sort ahead of pairs with nodes;
/// among node pairs, `DepthFirst` prefers deeper (lower-level) nodes,
/// producing a depth-first-like traversal, while `BreadthFirst` prefers
/// shallower ones.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum TiePolicy {
    /// Deeper node pairs first (the paper's best performer).
    #[default]
    DepthFirst,
    /// Shallower node pairs first.
    BreadthFirst,
}

/// Tie rank of a deferred copy (`DESIGN.md` §22) whose first expansion
/// opened one side; `DEFERRED_TIE + 1` marks one whose first expansion was
/// the plane sweep. A fresh pair ranks at most `DEFERRED_TIE - 1`, so the
/// rank alone tells a copy apart when it is popped, and a copy pops after
/// every fresh pair of equal distance.
const DEFERRED_TIE: u8 = u8::MAX - 1;

/// The composite priority-queue key: primary distance, then the
/// tie-breaking rank.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct PairKey {
    /// Key-domain distance between the pair's items (MINDIST for ascending
    /// joins, negated MAXDIST for descending ones). Under the default
    /// squared Euclidean key domain this is a *squared* distance; the join
    /// converts back with one `sqrt` when it reports a result.
    pub dist: OrdF64,
    /// Tie rank: smaller pops first.
    pub tie: u8,
}

impl PairKey {
    /// Builds the key for a pair whose item distance is `dist`.
    #[must_use]
    pub fn new<const D: usize>(dist: f64, pair: &Pair<D>, tie_policy: TiePolicy) -> Self {
        let node_level = match (pair.item1.node_level(), pair.item2.node_level()) {
            (None, None) => None,
            (a, b) => Some(a.unwrap_or(u8::MAX).min(b.unwrap_or(u8::MAX))),
        };
        // Ranks `1..DEFERRED_TIE`; a level no real index reaches (past 252)
        // shares the last one.
        let tie = match node_level.map(|level| level.min(DEFERRED_TIE - 2)) {
            // Objects and obrs ahead of everything.
            None => 0,
            Some(level) => match tie_policy {
                // Deeper level (smaller value) first.
                TiePolicy::DepthFirst => 1 + level,
                // Shallower level first.
                TiePolicy::BreadthFirst => DEFERRED_TIE - 1 - level,
            },
        };
        Self {
            dist: OrdF64::new(dist),
            tie,
        }
    }

    /// The key of a deferred copy whose band starts at `dist`; `swept`
    /// records that the expansion which deferred it was the plane sweep, so
    /// that the copy re-expands with the same shape.
    pub(crate) fn deferred(dist: f64, swept: bool) -> Self {
        Self {
            dist: OrdF64::new(dist),
            tie: DEFERRED_TIE + u8::from(swept),
        }
    }

    /// `Some(swept)` for a [`deferred`](Self::deferred) copy's key, `None`
    /// for a fresh pair's.
    pub(crate) fn deferred_shape(self) -> Option<bool> {
        (self.tie >= DEFERRED_TIE).then_some(self.tie > DEFERRED_TIE)
    }
}

impl QueueKey for PairKey {
    fn distance(&self) -> f64 {
        self.dist.get()
    }

    // The flat heap folds this into its compact entry tag; together with
    // the order bits it reproduces this key's full `Ord`.
    fn tie_rank(&self) -> u8 {
        self.tie
    }

    // The key *is* its order image — `(dist, tie)` and nothing else — so
    // the flat heap stores no key copies and rebuilds popped keys from
    // their compact entries.
    fn from_parts(bits: u64, tie_rank: u8) -> Self {
        Self {
            dist: OrdF64::new(sdj_pqueue::f64_from_order_bits(bits)),
            tie: tie_rank,
        }
    }
}

impl Codec for PairKey {
    const ENCODED_SIZE: usize = 9;

    fn encode(&self, w: &mut PageWriter<'_>) -> sdj_storage::Result<()> {
        w.put_f64(self.dist.get())?;
        w.put_u8(self.tie)
    }

    fn decode(r: &mut PageReader<'_>) -> sdj_storage::Result<Self> {
        let dist = r.get_f64()?;
        let tie = r.get_u8()?;
        if dist.is_nan() {
            return Err(StorageError::Corrupt("NaN pair key"));
        }
        Ok(Self {
            dist: OrdF64::new(dist),
            tie,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect(lo: f64, hi: f64) -> Rect<2> {
        Rect::new([lo, lo], [hi, hi])
    }

    fn node(page: u64, level: u8) -> Item<2> {
        Item::Node {
            page,
            level,
            mbr: rect(0.0, 1.0),
        }
    }

    fn obr(oid: u64) -> Item<2> {
        Item::Obr {
            oid: ObjectId(oid),
            mbr: rect(0.0, 0.0),
        }
    }

    #[test]
    fn tie_ranks_objects_first() {
        let oo = Pair::new(obr(1), obr(2));
        let nn_deep = Pair::new(node(1, 0), node(2, 0));
        let nn_shallow = Pair::new(node(1, 3), node(2, 3));
        let k_oo = PairKey::new(1.0, &oo, TiePolicy::DepthFirst);
        let k_deep = PairKey::new(1.0, &nn_deep, TiePolicy::DepthFirst);
        let k_shallow = PairKey::new(1.0, &nn_shallow, TiePolicy::DepthFirst);
        assert!(k_oo < k_deep);
        assert!(k_deep < k_shallow);
    }

    #[test]
    fn breadth_first_flips_node_order() {
        let nn_deep = Pair::new(node(1, 0), node(2, 0));
        let nn_shallow = Pair::new(node(1, 3), node(2, 3));
        let k_deep = PairKey::new(1.0, &nn_deep, TiePolicy::BreadthFirst);
        let k_shallow = PairKey::new(1.0, &nn_shallow, TiePolicy::BreadthFirst);
        assert!(k_shallow < k_deep);
        // Objects still first.
        let k_oo = PairKey::new(1.0, &Pair::new(obr(1), obr(2)), TiePolicy::BreadthFirst);
        assert!(k_oo < k_shallow);
    }

    #[test]
    fn distance_dominates_ties() {
        let oo = Pair::new(obr(1), obr(2));
        let nn = Pair::new(node(1, 5), node(2, 5));
        assert!(
            PairKey::new(1.0, &nn, TiePolicy::DepthFirst)
                < PairKey::new(2.0, &oo, TiePolicy::DepthFirst)
        );
    }

    #[test]
    fn mixed_pair_uses_min_node_level() {
        let pair = Pair::new(node(1, 4), obr(2));
        let key = PairKey::new(0.0, &pair, TiePolicy::DepthFirst);
        assert_eq!(key.tie, 5);
    }

    #[test]
    fn deferred_copies_rank_apart_from_fresh_pairs() {
        for policy in [TiePolicy::DepthFirst, TiePolicy::BreadthFirst] {
            for level in [0, 1, 7, 200, 252, 253, u8::MAX] {
                let key = PairKey::new(1.0, &Pair::new(node(1, level), node(2, level)), policy);
                assert_eq!(key.deferred_shape(), None, "{policy:?} level {level}");
                assert!(
                    key < PairKey::deferred(1.0, false),
                    "{policy:?} level {level}"
                );
            }
        }
        assert_eq!(PairKey::deferred(2.0, false).deferred_shape(), Some(false));
        assert_eq!(PairKey::deferred(2.0, true).deferred_shape(), Some(true));
        assert!(
            PairKey::deferred(1.0, true)
                < PairKey::new(1.5, &Pair::new(obr(1), obr(2)), TiePolicy::DepthFirst)
        );
    }

    #[test]
    fn key_codec_roundtrip() {
        let k = PairKey {
            dist: OrdF64::new(123.456),
            tie: 7,
        };
        let mut buf = vec![0u8; PairKey::ENCODED_SIZE];
        k.encode(&mut PageWriter::new(&mut buf)).unwrap();
        assert_eq!(PairKey::decode(&mut PageReader::new(&buf)).unwrap(), k);
    }

    #[test]
    fn identity_distinguishes_kinds() {
        assert_ne!(node(5, 0).identity(), obr(5).identity());
        assert_eq!(
            obr(5).identity(),
            Item::<2>::Object {
                oid: ObjectId(5),
                mbr: rect(0.0, 0.0)
            }
            .identity(),
            "an obr and its object are the same identity (paper §2.3 fn. 5)"
        );
    }

    #[test]
    fn is_final_depends_on_exactness() {
        let p = Pair::new(obr(1), obr(2));
        assert!(p.is_final(true));
        assert!(!p.is_final(false));
        let q = Pair::new(
            Item::Object {
                oid: ObjectId(1),
                mbr: rect(0.0, 0.0),
            },
            Item::Object {
                oid: ObjectId(2),
                mbr: rect(0.0, 0.0),
            },
        );
        assert!(q.is_final(false));
        assert!(!Pair::new(node(1, 0), obr(1)).is_final(true));
    }
}
