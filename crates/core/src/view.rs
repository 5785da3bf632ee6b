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

use std::collections::VecDeque;

use sdj_geom::SoaRects;
use sdj_storage::Result;

use crate::idhash::IdHashMap;
use crate::index::{IndexEntry, IndexNode, NodeId, SpatialIndex};

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
        self.rects
            .extend(self.node.entries.iter().map(IndexEntry::rect));
        Ok(())
    }
}

/// A small LRU cache of [`NodeView`]s, keyed by node id (page).
#[derive(Debug)]
pub(crate) struct ViewCache<const D: usize> {
    slots: IdHashMap<NodeId, (u64, NodeView<D>)>,
    /// `(tick, id)` of every checkin, oldest first. A record is live while
    /// `slots` holds `id` at that tick; a checkout or an eviction leaves it
    /// stale. Stale records are skipped when they reach the front and shed
    /// once the queue outgrows twice the cache, so finding the victim is
    /// amortised O(1).
    order: VecDeque<(u64, NodeId)>,
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
            order: VecDeque::new(),
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
            // The oldest live record holds the smallest tick: the LRU view.
            while let Some((tick, victim)) = self.order.pop_front() {
                if Self::is_live(&self.slots, tick, victim) {
                    if let Some((_, evicted)) = self.slots.remove(&victim) {
                        self.spare.push(evicted);
                    }
                    break;
                }
            }
        }
        self.slots.insert(id, (self.tick, view));
        self.order.push_back((self.tick, id));
        if self.order.len() > 2 * self.cap {
            let slots = &self.slots;
            self.order
                .retain(|&(tick, id)| Self::is_live(slots, tick, id));
        }
    }

    /// True if the checkin record `(tick, id)` is the one `slots` holds.
    fn is_live(slots: &IdHashMap<NodeId, (u64, NodeView<D>)>, tick: u64, id: NodeId) -> bool {
        slots.get(&id).is_some_and(|&(t, _)| t == tick)
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

    /// Bytes of an R-tree node header (level, count, pad) and of one 2-D
    /// entry (pointer, `lo`, `hi`): the page layout `sdj_rtree::Node` reads.
    const HEADER: usize = 4;
    const ENTRY: usize = 40;

    /// A raw node page: header, then `(ptr, lo, hi)` entries, zero-padded.
    /// `count` is written as given, whatever the entries.
    fn raw_page(
        size: usize,
        level: u8,
        count: u16,
        entries: &[(u64, [f64; 2], [f64; 2])],
    ) -> Vec<u8> {
        let mut page = vec![0u8; size];
        page[0] = level;
        page[1..3].copy_from_slice(&count.to_le_bytes());
        let mut at = HEADER;
        for &(ptr, lo, hi) in entries {
            let mut put = |bytes: [u8; 8]| {
                page[at..at + 8].copy_from_slice(&bytes);
                at += 8;
            };
            put(ptr.to_le_bytes());
            for v in lo.into_iter().chain(hi) {
                put(v.to_le_bytes());
            }
        }
        page
    }

    /// `tree` saved and reopened with `page` appended as one more page,
    /// checksummed like any other. Nothing points at it, so the reopened
    /// tree validates; reading it is the only way to see its damage.
    fn with_orphan_page(tree: &RTree<2>, page: &[u8]) -> (RTree<2>, NodeId) {
        let mut image = Vec::new();
        tree.save_to(&mut image).unwrap();
        // The pager image follows the tree header: magic, page size, then
        // the slot count, then one `present, crc, bytes` record per slot.
        let at = image.windows(8).position(|w| w == b"SDJPAGE2").unwrap() + 16;
        let slots = u64::from_le_bytes(image[at..at + 8].try_into().unwrap());
        image[at..at + 8].copy_from_slice(&(slots + 1).to_le_bytes());
        image.push(1);
        image.extend_from_slice(&sdj_storage::codec::crc32(page).to_le_bytes());
        image.extend_from_slice(page);
        (RTree::load_from(&mut image.as_slice()).unwrap(), slots)
    }

    #[test]
    fn corrupt_pages_fail_alike_on_every_read_path() {
        use sdj_rtree::Node;
        use sdj_storage::StorageError::Corrupt;

        let tree = small_tree();
        let size = tree.config().page_size;
        let cap = u16::try_from((size - HEADER) / ENTRY).unwrap();
        let ok = (7u64, [0.0, 0.0], [1.0, 1.0]);
        let rect = Corrupt("invalid entry rectangle");
        let cases = [
            (
                "lo > hi",
                raw_page(size, 0, 2, &[ok, (8, [2.0, 0.0], [1.0, 1.0])]),
                rect.clone(),
            ),
            (
                "-inf lo",
                raw_page(size, 0, 1, &[(8, [f64::NEG_INFINITY, 0.0], [1.0, 1.0])]),
                rect.clone(),
            ),
            (
                "+inf hi",
                raw_page(size, 0, 2, &[ok, (8, [0.0, 0.0], [1.0, f64::INFINITY])]),
                rect,
            ),
            (
                "child id >= 2^32",
                raw_page(size, 1, 2, &[ok, (1 << 32, [0.0, 0.0], [1.0, 1.0])]),
                Corrupt("child page id exceeds u32"),
            ),
            (
                "count overruns the page",
                raw_page(size, 0, cap + 1, &[ok]),
                Corrupt("node entry count exceeds capacity"),
            ),
            (
                "count u16::MAX",
                raw_page(size, 0, u16::MAX, &[ok]),
                Corrupt("node entry count exceeds capacity"),
            ),
        ];
        for (what, page, want) in cases {
            assert_eq!(
                Node::<2>::decode(&page),
                Err(want.clone()),
                "{what}: decode"
            );
            assert_eq!(
                Node::<2>::scan(&page, |_, _| {}),
                Err(want.clone()),
                "{what}: scan"
            );
            let (tree, id) = with_orphan_page(&tree, &page);
            let page_id = sdj_rtree::PageId(u32::try_from(id).unwrap());
            assert_eq!(
                tree.read_node(page_id),
                Err(want.clone()),
                "{what}: read_node"
            );
            assert_eq!(
                tree.scan_node(page_id, |_, _| {}).map(|_| ()),
                Err(want.clone()),
                "{what}: scan_node"
            );
            let mut node = IndexNode::empty();
            assert_eq!(
                SpatialIndex::read_node_into(&tree, id, &mut node),
                Err(want.clone()),
                "{what}: read_node_into"
            );
            // A failed fill leaves the cache usable: the next checkout of a
            // sound page fills normally.
            let mut cache: ViewCache<2> = ViewCache::new(2);
            assert_eq!(
                cache.checkout(&tree, id).map(|_| ()),
                Err(want),
                "{what}: view fill"
            );
            let root = SpatialIndex::root_id(&tree);
            let view = cache.checkout(&tree, root).unwrap();
            assert_eq!(cache.counters(), (0, 1));
            cache.checkin(root, view);
        }
    }

    /// Every node id of `tree`, root first.
    fn all_ids(tree: &RTree<2>) -> Vec<NodeId> {
        let mut ids = vec![SpatialIndex::root_id(tree)];
        let mut next = 0;
        while next < ids.len() {
            let node = SpatialIndex::read_node(tree, ids[next]).unwrap();
            next += 1;
            ids.extend(node.entries.iter().filter_map(|e| match e {
                crate::index::IndexEntry::Child { id, .. } => Some(*id),
                crate::index::IndexEntry::Object { .. } => None,
            }));
        }
        ids
    }

    /// The victim order the cache must keep: on a full checkin, evict the
    /// resident id with the smallest tick, found by a scan.
    #[derive(Default)]
    struct ScanLru {
        resident: Vec<(u64, NodeId)>,
        tick: u64,
        hits: u64,
        fills: u64,
    }

    impl ScanLru {
        fn checkout(&mut self, id: NodeId) {
            match self.resident.iter().position(|&(_, r)| r == id) {
                Some(i) => {
                    self.resident.swap_remove(i);
                    self.hits += 1;
                }
                None => self.fills += 1,
            }
        }

        fn checkin(&mut self, id: NodeId, cap: usize) {
            self.tick += 1;
            if self.resident.len() >= cap {
                let lru = (0..self.resident.len()).min_by_key(|&i| self.resident[i].0);
                if let Some(i) = lru {
                    self.resident.swap_remove(i);
                }
            }
            self.resident.push((self.tick, id));
        }
    }

    #[test]
    fn victim_order_matches_the_smallest_tick_scan() {
        let tree = small_tree();
        let ids = all_ids(&tree);
        assert!(ids.len() >= 12, "tree too small for the test");
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut rand = |n: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % n as u64) as usize
        };
        for cap in [1, 2, 5, 8] {
            let mut cache: ViewCache<2> = ViewCache::new(cap);
            let mut model = ScanLru::default();
            for step in 0..3_000 {
                // Like an expansion: one or two views out at a time, back in
                // either order; a skewed id choice keeps a hot set hitting.
                let hot = rand(4) != 0;
                let pick = |r: usize| if hot { r % (cap + 2) } else { r };
                let a = ids[pick(rand(ids.len()))];
                let b = ids[pick(rand(ids.len()))];
                let mut out = vec![(a, cache.checkout(&tree, a).unwrap())];
                model.checkout(a);
                if b != a && rand(2) == 0 {
                    out.push((b, cache.checkout(&tree, b).unwrap()));
                    model.checkout(b);
                }
                if rand(2) == 0 {
                    out.reverse();
                }
                for (id, view) in out {
                    cache.checkin(id, view);
                    model.checkin(id, cap);
                }
                let mut got: Vec<NodeId> = cache.slots.keys().copied().collect();
                let mut want: Vec<NodeId> = model.resident.iter().map(|&(_, id)| id).collect();
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "cap {cap}, step {step}");
                assert_eq!(cache.counters(), (model.hits, model.fills));
                assert!(cache.order.len() <= 2 * cap + 1);
            }
        }
    }
}
