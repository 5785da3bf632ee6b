//! Reusable struct-of-arrays node views for the expansion hot path.
//!
//! Every pop of a node pair re-reads a node and evaluates MINDIST (and
//! often MAXDIST) against each of its entries. The batched kernels in
//! [`sdj_geom::kernels`] want the entries' rectangles as per-axis `lo`/`hi`
//! columns; decoding a page into that layout costs one pass, so it pays to
//! do it once per page and reuse the result while the page stays hot. A
//! [`NodeView`] bundles the decoded entries with their [`SoaRects`] columns,
//! and a [`ViewCache`] keeps recently used views keyed by node id.
//!
//! The cache hands views out by value (`checkout`) and takes them back
//! (`checkin`) so the join can iterate a view's entries while calling
//! `&mut self` methods — no aliasing with the cache's own storage. Views are
//! never dropped: a cache miss refills a spare buffer, so steady-state
//! expansion performs no allocation.
//!
//! Staleness is a non-issue by construction: a join borrows its trees
//! immutably for its whole lifetime, and the cache lives inside the join.

use sdj_geom::SoaRects;
use sdj_storage::Result;

use crate::idhash::IdHashMap;
use crate::index::{IndexNode, NodeId, SpatialIndex};

/// Views retained per tree side before the least-recently-used one is
/// recycled. Sized for the working sets of §4's experiments: deep two-tree
/// traversals keep a handful of pages per side hot at a time.
pub(crate) const VIEW_CACHE_CAP: usize = 64;

/// A decoded node plus the struct-of-arrays layout of its entry rectangles.
#[derive(Debug, Default)]
pub(crate) struct NodeView<const D: usize> {
    /// The decoded node (level and entries).
    pub node: IndexNode<D>,
    /// Per-axis `lo`/`hi` columns of `node.entries[i].rect()`, in entry
    /// order — the operand the batched distance kernels run over.
    pub rects: SoaRects<D>,
}

impl<const D: usize> NodeView<D> {
    /// Refills the view from node `id` of `tree`, reusing all buffers.
    fn fill<I: SpatialIndex<D> + ?Sized>(&mut self, tree: &I, id: NodeId) -> Result<()> {
        tree.read_node_into(id, &mut self.node)?;
        self.rects.clear();
        for e in &self.node.entries {
            self.rects.push(e.rect());
        }
        Ok(())
    }
}

/// A small LRU cache of [`NodeView`]s, keyed by node id (page).
#[derive(Debug)]
pub(crate) struct ViewCache<const D: usize> {
    slots: IdHashMap<NodeId, (u64, NodeView<D>)>,
    spare: Vec<NodeView<D>>,
    tick: u64,
    cap: usize,
    hits: u64,
    fills: u64,
}

impl<const D: usize> ViewCache<D> {
    pub(crate) fn new(cap: usize) -> Self {
        Self {
            slots: IdHashMap::default(),
            spare: Vec::new(),
            tick: 0,
            cap,
            hits: 0,
            fills: 0,
        }
    }

    /// Hands out the view for node `id`, decoding it only on a cache miss.
    /// The view is *moved out* of the cache; return it with
    /// [`ViewCache::checkin`] once the expansion is done.
    pub(crate) fn checkout<I: SpatialIndex<D> + ?Sized>(
        &mut self,
        tree: &I,
        id: NodeId,
    ) -> Result<NodeView<D>> {
        if let Some((_, view)) = self.slots.remove(&id) {
            self.hits += 1;
            return Ok(view);
        }
        let mut view = self.spare.pop().unwrap_or_default();
        match view.fill(tree, id) {
            Ok(()) => {
                self.fills += 1;
                Ok(view)
            }
            Err(e) => {
                self.spare.push(view);
                Err(e)
            }
        }
    }

    /// Returns a checked-out view, retaining it for future hits (and
    /// recycling the least recently used view if the cache is full).
    pub(crate) fn checkin(&mut self, id: NodeId, view: NodeView<D>) {
        self.tick += 1;
        if self.slots.len() >= self.cap {
            let victim = self
                .slots
                .iter()
                .min_by_key(|(_, (tick, _))| *tick)
                .map(|(&id, _)| id);
            if let Some(victim) = victim {
                if let Some((_, evicted)) = self.slots.remove(&victim) {
                    self.spare.push(evicted);
                }
            }
        }
        self.slots.insert(id, (self.tick, view));
    }

    /// (cache hits, page decodes) since construction.
    #[cfg(test)]
    pub(crate) fn counters(&self) -> (u64, u64) {
        (self.hits, self.fills)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdj_geom::Point;
    use sdj_rtree::{ObjectId, RTree, RTreeConfig};

    fn small_tree() -> RTree<2> {
        let mut tree = RTree::new(RTreeConfig::small(4));
        for i in 0..64u64 {
            let p = Point::xy((i % 8) as f64, (i / 8) as f64);
            tree.insert(ObjectId(i), p.to_rect()).unwrap();
        }
        tree
    }

    #[test]
    fn checkout_matches_read_node_and_hits_on_reuse() {
        let tree = small_tree();
        let root = SpatialIndex::root_id(&tree);
        let mut cache: ViewCache<2> = ViewCache::new(4);

        let view = cache.checkout(&tree, root).unwrap();
        let direct = SpatialIndex::read_node(&tree, root).unwrap();
        assert_eq!(view.node.level, direct.level);
        assert_eq!(view.node.entries, direct.entries);
        assert_eq!(view.rects.len(), direct.entries.len());
        for (i, e) in direct.entries.iter().enumerate() {
            assert_eq!(&view.rects.get(i), e.rect());
        }
        cache.checkin(root, view);

        let again = cache.checkout(&tree, root).unwrap();
        assert_eq!(cache.counters(), (1, 1));
        cache.checkin(root, again);
    }

    #[test]
    fn lru_eviction_recycles_buffers() {
        let tree = small_tree();
        let root = SpatialIndex::read_node(&tree, SpatialIndex::root_id(&tree)).unwrap();
        let child_ids: Vec<NodeId> = root
            .entries
            .iter()
            .filter_map(|e| match e {
                crate::index::IndexEntry::Child { id, .. } => Some(*id),
                crate::index::IndexEntry::Object { .. } => None,
            })
            .collect();
        assert!(child_ids.len() >= 3, "tree too shallow for the test");

        let mut cache: ViewCache<2> = ViewCache::new(2);
        for &id in &child_ids {
            let view = cache.checkout(&tree, id).unwrap();
            cache.checkin(id, view);
        }
        // Only `cap` views retained; each checkout so far was a fill.
        assert_eq!(cache.counters(), (0, child_ids.len() as u64));
        // The most recently used id is still cached.
        let last = *child_ids.last().unwrap();
        let view = cache.checkout(&tree, last).unwrap();
        assert_eq!(cache.counters().0, 1);
        cache.checkin(last, view);
    }
}
