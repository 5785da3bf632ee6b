//! The index abstraction the join algorithms traverse.
//!
//! §2.2: "the algorithm works for any spatial data structure based on a
//! hierarchical decomposition … we assume a spatial data structure that
//! forms a tree structure, where each tree node represents some region of
//! space". [`SpatialIndex`] captures exactly that contract; `sdj-rtree`'s
//! R*-tree implements it here, and `sdj-quadtree`'s PR quadtree implements
//! it in its own crate — including *mixed* joins of one index kind against
//! another.
//!
//! One subtlety the paper calls out (§2.2.3): MINMAXDIST-style upper bounds
//! are only valid over *minimal* bounding rectangles, where every face
//! touches an object. R-tree regions are minimal; quadtree quadrants are
//! not. [`SpatialIndex::MINIMAL_REGIONS`] lets the join fall back to plain
//! MAXDIST bounds when node regions give no face guarantee.

use sdj_geom::Rect;
use sdj_rtree::{EntryPtr, ObjectId, PageId, RTree};
use sdj_storage::Result;

/// Opaque node identifier within an index (page numbers for the provided
/// implementations).
pub type NodeId = u64;

/// One entry of a traversed node.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum IndexEntry<const D: usize> {
    /// A child node, with the region its subtree is confined to.
    Child {
        /// The child's node id.
        id: NodeId,
        /// The child's level (see [`IndexNode::level`]).
        level: u8,
        /// Region covered by the child's subtree.
        region: Rect<D>,
    },
    /// An object, with its minimal bounding rectangle.
    Object {
        /// The object's id.
        oid: ObjectId,
        /// The object's minimal bounding rectangle.
        mbr: Rect<D>,
    },
}

impl<const D: usize> IndexEntry<D> {
    /// The entry's rectangle (child region or object MBR).
    #[must_use]
    pub fn rect(&self) -> &Rect<D> {
        match self {
            IndexEntry::Child { region, .. } => region,
            IndexEntry::Object { mbr, .. } => mbr,
        }
    }

    /// The object id, for object entries.
    #[must_use]
    pub fn object_id(&self) -> Option<ObjectId> {
        match self {
            IndexEntry::Object { oid, .. } => Some(*oid),
            IndexEntry::Child { .. } => None,
        }
    }
}

/// A traversed node: its level and entries.
///
/// Levels only need two properties: `0` means "all entries are objects",
/// and levels strictly decrease from parent to child — the join's
/// tie-breaking (depth-first vs breadth-first) and even traversal compare
/// them, nothing else does. Balanced structures use height above the leaves;
/// unbalanced ones may use any monotone encoding of shallowness.
#[derive(Clone, Debug)]
pub struct IndexNode<const D: usize> {
    /// Node level (0 = all-object node).
    pub level: u8,
    /// The node's entries.
    pub entries: Vec<IndexEntry<D>>,
}

impl<const D: usize> IndexNode<D> {
    /// An empty level-0 node — the starting state of a reusable read buffer
    /// for [`SpatialIndex::read_node_into`].
    #[must_use]
    pub fn empty() -> Self {
        Self {
            level: 0,
            entries: Vec::new(),
        }
    }
}

impl<const D: usize> Default for IndexNode<D> {
    fn default() -> Self {
        Self::empty()
    }
}

/// A hierarchical spatial index traversable by the incremental join.
pub trait SpatialIndex<const D: usize> {
    /// Whether node regions are minimal bounding rectangles (every face
    /// touched by an object). Enables MINMAXDIST-based bounds.
    const MINIMAL_REGIONS: bool;

    /// True if the index holds no objects.
    fn is_empty(&self) -> bool;

    /// Number of indexed objects.
    fn len(&self) -> usize;

    /// The root node's id.
    fn root_id(&self) -> NodeId;

    /// The root node's level.
    fn root_level(&self) -> u8;

    /// The region of the root (the whole index's bounding region).
    fn root_region(&self) -> Result<Rect<D>>;

    /// Reads a node.
    fn read_node(&self, id: NodeId) -> Result<IndexNode<D>>;

    /// Reads a node into a caller-provided buffer, reusing its allocations.
    ///
    /// The expansion hot path reads one node per pop; this variant lets
    /// implementations decode straight into `out.entries` (the R-tree
    /// streams entries off the page buffer) instead of allocating a fresh
    /// `Vec` per read. The default delegates to [`SpatialIndex::read_node`].
    fn read_node_into(&self, id: NodeId, out: &mut IndexNode<D>) -> Result<()> {
        *out = self.read_node(id)?;
        Ok(())
    }

    /// A conservative lower bound on the objects in the subtree of a node
    /// at `level` (1 is always safe for a non-empty subtree).
    fn min_subtree_objects(&self, level: u8, is_root: bool) -> u64;

    /// Cumulative buffer misses (the node I/O measure); used to report
    /// per-run deltas.
    fn io_misses(&self) -> u64;

    /// Hints that the given nodes are likely to be read soon.
    ///
    /// Implementations backed by a buffer pool fault absent pages in and
    /// count them as *prefetch reads*, never as demand misses, so hinting
    /// must not perturb [`SpatialIndex::io_misses`]. Best-effort: hints may
    /// be ignored (the default does exactly that) and stale ids must not
    /// fail the join.
    fn prefetch_nodes(&self, _ids: &[NodeId]) {}
}

/// Chunk size for translating [`NodeId`] hints into page-id batches without
/// allocating.
const PREFETCH_CHUNK: usize = 16;

impl<const D: usize> SpatialIndex<D> for RTree<D> {
    const MINIMAL_REGIONS: bool = true;

    fn is_empty(&self) -> bool {
        RTree::is_empty(self)
    }

    fn len(&self) -> usize {
        RTree::len(self)
    }

    fn root_id(&self) -> NodeId {
        NodeId::from(RTree::root_id(self).0)
    }

    fn root_level(&self) -> u8 {
        self.height() - 1
    }

    fn root_region(&self) -> Result<Rect<D>> {
        self.mbr()
    }

    fn read_node(&self, id: NodeId) -> Result<IndexNode<D>> {
        let mut out = IndexNode::empty();
        SpatialIndex::read_node_into(self, id, &mut out)?;
        Ok(out)
    }

    fn read_node_into(&self, id: NodeId, out: &mut IndexNode<D>) -> Result<()> {
        // Node ids come from decoded pages; an out-of-range one means the
        // page was damaged, not a programming error.
        let page =
            PageId(u32::try_from(id).map_err(|_| {
                sdj_storage::StorageError::Corrupt("node id exceeds u32 page range")
            })?);
        out.entries.clear();
        let entries = &mut out.entries;
        out.level = self.scan_node(page, |level, e| {
            entries.push(match e.ptr {
                EntryPtr::Object(oid) => IndexEntry::Object { oid, mbr: e.mbr },
                EntryPtr::Child(child) => IndexEntry::Child {
                    id: NodeId::from(child.0),
                    level: level - 1,
                    region: e.mbr,
                },
            });
        })?;
        Ok(())
    }

    fn min_subtree_objects(&self, level: u8, is_root: bool) -> u64 {
        RTree::min_subtree_objects(self, level, is_root)
    }

    fn io_misses(&self) -> u64 {
        self.pool_stats().misses
    }

    fn prefetch_nodes(&self, ids: &[NodeId]) {
        // Prefetching is best-effort by contract ("stale ids must not fail
        // the join"), so ids that don't fit a u32 page are skipped, not
        // reported.
        let mut pages = [PageId::INVALID; PREFETCH_CHUNK];
        for chunk in ids.chunks(PREFETCH_CHUNK) {
            let mut n = 0;
            for &id in chunk {
                if let Ok(page) = u32::try_from(id) {
                    pages[n] = PageId(page);
                    n += 1;
                }
            }
            if n > 0 {
                self.prefetch_pages(&pages[..n]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdj_geom::Point;
    use sdj_rtree::RTreeConfig;

    #[test]
    fn rtree_implements_spatial_index() {
        let mut tree = RTree::new(RTreeConfig::small(4));
        for i in 0..40u64 {
            let p = Point::xy((i % 8) as f64, (i / 8) as f64);
            tree.insert(ObjectId(i), p.to_rect()).unwrap();
        }
        // Call through the trait explicitly (the inherent R-tree methods
        // would otherwise shadow it).
        fn as_index<const D: usize, I: SpatialIndex<D>>(i: &I) -> &I {
            i
        }
        let idx = as_index::<2, _>(&tree);
        assert_eq!(SpatialIndex::len(idx), 40);
        assert!(!SpatialIndex::is_empty(idx));
        let root = SpatialIndex::read_node(idx, SpatialIndex::root_id(idx)).unwrap();
        assert_eq!(root.level, SpatialIndex::root_level(idx));
        assert!(!root.entries.is_empty());
        // Walk to a leaf and check object entries appear at level 0.
        let mut node = root;
        while node.level > 0 {
            let IndexEntry::Child { id, level, .. } = node.entries[0] else {
                panic!("internal node with object entry");
            };
            assert_eq!(level, node.level - 1);
            node = SpatialIndex::read_node(idx, id).unwrap();
            assert_eq!(node.level, level);
        }
        assert!(node
            .entries
            .iter()
            .all(|e| matches!(e, IndexEntry::Object { .. })));
    }
}
