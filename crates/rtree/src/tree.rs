//! The R*-tree proper: insertion with forced reinsertion, deletion with
//! condense-tree, window queries, and page-level access for the join
//! algorithms.

use sdj_geom::{Metric, Rect};
use sdj_storage::{BufferPool, DiskStats, PageId, Pager, PoolStats, Result, StorageError};

use crate::config::RTreeConfig;
use crate::entry::{Entry, ObjectId};
use crate::node::Node;
use crate::split::rstar_split;

/// A disk-resident R*-tree over `D`-dimensional rectangles.
///
/// Every node occupies one page of a simulated disk and is accessed through
/// an LRU buffer pool, so [`RTree::pool_stats`] reports the node I/O counts the
/// paper's experiments measure. Object ids are opaque `u64`s; leaf entries
/// store the object's minimal bounding rectangle inline (for points, the MBR
/// *is* the point).
pub struct RTree<const D: usize> {
    pool: BufferPool,
    config: RTreeConfig,
    root: PageId,
    /// Number of levels; the root is at level `height - 1`, leaves at 0.
    height: u8,
    len: usize,
    max_entries: usize,
    min_entries: usize,
    reinsert_count: usize,
}

impl<const D: usize> std::fmt::Debug for RTree<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RTree")
            .field("len", &self.len)
            .field("height", &self.height)
            .field("fanout", &self.max_entries)
            .finish()
    }
}

impl<const D: usize> RTree<D> {
    /// Creates an empty tree with the given configuration.
    #[must_use]
    pub fn new(config: RTreeConfig) -> Self {
        let pager = Pager::new(config.page_size);
        let pool = BufferPool::sharded(pager, config.buffer_frames, config.buffer_shards);
        let root = pool.allocate();
        let tree = Self {
            pool,
            config,
            root,
            height: 1,
            len: 0,
            max_entries: config.max_entries::<D>(),
            min_entries: config.min_entries::<D>(),
            reinsert_count: config.reinsert_count::<D>(),
        };
        tree.write_node(root, &Node::new(0))
            .expect("writing the empty root cannot fail");
        tree
    }

    /// Creates a tree with the default (paper) configuration.
    #[must_use]
    pub fn with_default_config() -> Self {
        Self::new(RTreeConfig::default())
    }

    // ---------------------------------------------------------------- meta

    /// Number of indexed objects.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the tree holds no objects.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of levels (1 for a tree that is just a root leaf).
    #[must_use]
    pub fn height(&self) -> u8 {
        self.height
    }

    /// Page id of the root node.
    #[must_use]
    pub fn root_id(&self) -> PageId {
        self.root
    }

    /// The tree's configuration.
    #[must_use]
    pub fn config(&self) -> &RTreeConfig {
        &self.config
    }

    /// Maximum entries per node.
    #[must_use]
    pub fn max_entries(&self) -> usize {
        self.max_entries
    }

    /// Minimum entries per non-root node.
    #[must_use]
    pub fn min_entries(&self) -> usize {
        self.min_entries
    }

    /// Bounding rectangle of the whole tree (empty if no objects).
    pub fn mbr(&self) -> Result<Rect<D>> {
        Ok(self.read_node(self.root)?.mbr())
    }

    /// Disk counters of the underlying pager.
    #[must_use]
    pub fn disk_stats(&self) -> DiskStats {
        self.pool.disk_stats()
    }

    /// Resets I/O counters (tree contents unaffected).
    pub fn reset_io_stats(&self) {
        self.pool.reset_stats();
    }

    /// Replaces the buffer pool with a freshly built (cold) one of the
    /// given frame budget and shard count, flushing dirty pages first.
    /// Tree contents are unaffected; all counters start from zero. Lets
    /// experiments measure cold-cache behaviour on a tree that was built
    /// warm, and switch sharding without a persist round-trip.
    pub fn rebuild_buffer(&mut self, frames: usize, shards: usize) -> Result<()> {
        self.config.buffer_frames = frames;
        self.config.buffer_shards = shards;
        let dummy = BufferPool::new(Pager::new(self.config.page_size), 1);
        let pager = std::mem::replace(&mut self.pool, dummy).into_pager()?;
        self.pool = BufferPool::sharded(pager, frames, shards);
        Ok(())
    }

    /// Batch prefetch hint for node pages likely to be read soon (see
    /// [`sdj_storage::BufferPool::prefetch`]): absent pages are faulted in
    /// and counted as prefetch reads, *not* demand misses, so
    /// [`RTree::pool_stats`] miss counts stay comparable across runs with and
    /// without hinting.
    pub fn prefetch_pages(&self, pages: &[PageId]) {
        self.pool.prefetch(pages);
    }

    /// Attaches an observability handle to the tree's buffer pool: node
    /// accesses are mirrored into the handle's hit/miss/eviction counters
    /// and evictions emit buffer events (see
    /// [`sdj_storage::BufferPool::attach_obs`]).
    pub fn attach_obs(&self, obs: sdj_storage::BufferObs) {
        self.pool.attach_obs(obs);
    }

    /// Installs (or clears) a fault injector on the tree's simulated disk:
    /// every node read/write through the buffer pool becomes subject to the
    /// injector's schedule, retried as often as its
    /// [`FaultConfig::retries`](sdj_storage::FaultConfig::retries) allows
    /// (chaos testing).
    pub fn set_fault_injector(&self, injector: Option<std::sync::Arc<sdj_storage::FaultInjector>>) {
        self.pool.set_fault_injector(injector);
    }

    /// Buffer-pool counters (misses = node I/O), including fault/retry
    /// totals.
    #[must_use]
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Resident frames currently pinned by outstanding page guards (see
    /// [`sdj_storage::BufferPool::pinned_frames`]); zero when no reader is
    /// mid-access, which the session service asserts after cancelling a
    /// cursor over this tree.
    #[must_use]
    pub fn pinned_frames(&self) -> usize {
        self.pool.pinned_frames()
    }

    /// A conservative lower bound on the number of objects in the subtree of
    /// a node at `level` (used by the maximum-distance estimation of
    /// §2.2.4: "derived from the minimum fan-out and the height of the
    /// corresponding tree").
    ///
    /// The root is exempt from the minimum-fill rule, so callers should pass
    /// `is_root = true` when the node is the root.
    #[must_use]
    pub fn min_subtree_objects(&self, level: u8, is_root: bool) -> u64 {
        if is_root {
            // The root guarantees nothing beyond non-emptiness.
            return u64::from(self.len > 0);
        }
        (self.min_entries as u64).saturating_pow(u32::from(level) + 1)
    }

    // ------------------------------------------------------------ node I/O

    /// Reads and decodes the node stored on `page`, through the buffer pool.
    pub fn read_node(&self, page: PageId) -> Result<Node<D>> {
        self.pool.with_page(page, Node::decode)?
    }

    /// Reads the node stored on `page`, streaming each entry through
    /// `f(level, &entry)` without materialising a [`Node`]; returns the
    /// node's level. This is the allocation-free read path the join's
    /// struct-of-arrays node views decode through.
    pub fn scan_node(&self, page: PageId, mut f: impl FnMut(u8, &Entry<D>)) -> Result<u8> {
        self.pool.with_page(page, |buf| Node::scan(buf, &mut f))?
    }

    /// Encodes and writes `node` to `page`, through the buffer pool.
    pub fn write_node(&self, page: PageId, node: &Node<D>) -> Result<()> {
        self.pool.update(page, |buf| {
            buf.fill(0);
            node.encode(buf)
        })?
    }

    pub(crate) fn allocate_page(&self) -> PageId {
        self.pool.allocate()
    }

    pub(crate) fn set_shape(&mut self, root: PageId, height: u8, len: usize) {
        self.root = root;
        self.height = height;
        self.len = len;
    }

    pub(crate) fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Reassembles a tree from its persisted parts (see `persist`).
    pub(crate) fn from_parts(
        pool: BufferPool,
        config: RTreeConfig,
        root: PageId,
        height: u8,
        len: usize,
    ) -> Self {
        Self {
            pool,
            config,
            root,
            height,
            len,
            max_entries: config.max_entries::<D>(),
            min_entries: config.min_entries::<D>(),
            reinsert_count: config.reinsert_count::<D>(),
        }
    }

    // ------------------------------------------------------------- insert

    /// Inserts an object with the given minimal bounding rectangle.
    ///
    /// # Errors
    /// [`StorageError::InvalidInput`] if `mbr` is empty or has a NaN or
    /// infinite coordinate (the tree is left unchanged), or the storage
    /// error that stopped the insertion.
    pub fn insert(&mut self, oid: ObjectId, mbr: Rect<D>) -> Result<()> {
        if !mbr.is_finite() {
            return Err(StorageError::InvalidInput(
                "object MBR must be finite and non-empty",
            ));
        }
        let mut reinserted_levels: u64 = 0;
        self.insert_at_level(Entry::object(mbr, oid), 0, &mut reinserted_levels)?;
        self.len += 1;
        Ok(())
    }

    /// Inserts `entry` into a node at `target_level`, applying R* overflow
    /// treatment. `reinserted_levels` is a bitmask of levels where forced
    /// reinsertion already ran during the current top-level insertion.
    fn insert_at_level(
        &mut self,
        entry: Entry<D>,
        target_level: u8,
        reinserted_levels: &mut u64,
    ) -> Result<()> {
        debug_assert!(target_level < self.height);
        let mut path: Vec<(PageId, usize)> = Vec::with_capacity(self.height as usize);
        let mut page = self.root;
        let mut node = self.read_node(page)?;
        while node.level > target_level {
            let idx = choose_subtree(&node, &entry.mbr);
            path.push((page, idx));
            page = node.entries[idx].child_page();
            node = self.read_node(page)?;
        }
        node.entries.push(entry);
        self.add_and_treat(page, node, path, reinserted_levels)
    }

    /// Writes back a node that just gained an entry, handling overflow by
    /// forced reinsertion or split (propagating splits upward).
    fn add_and_treat(
        &mut self,
        page: PageId,
        mut node: Node<D>,
        mut path: Vec<(PageId, usize)>,
        reinserted_levels: &mut u64,
    ) -> Result<()> {
        if node.entries.len() <= self.max_entries {
            self.write_node(page, &node)?;
            return self.adjust_upward(&path, node.mbr());
        }

        let level = node.level;
        let is_root = path.is_empty();
        let level_bit = 1u64 << level;
        if !is_root && *reinserted_levels & level_bit == 0 {
            // Forced reinsertion (R* OverflowTreatment): evict the
            // `reinsert_count` entries whose centers lie farthest from the
            // node's center and re-insert them closest-first.
            *reinserted_levels |= level_bit;
            let node_center = node.mbr().center();
            let mut entries = std::mem::take(&mut node.entries);
            entries.sort_by(|a, b| {
                let da = Metric::Euclidean.distance(&a.mbr.center(), &node_center);
                let db = Metric::Euclidean.distance(&b.mbr.center(), &node_center);
                db.partial_cmp(&da).expect("finite centers")
            });
            let removed: Vec<Entry<D>> = entries.drain(..self.reinsert_count).collect();
            node.entries = entries;
            self.write_node(page, &node)?;
            self.adjust_upward(&path, node.mbr())?;
            for e in removed.into_iter().rev() {
                self.insert_at_level(e, level, reinserted_levels)?;
            }
            return Ok(());
        }

        // Split.
        let split = rstar_split(std::mem::take(&mut node.entries), self.min_entries);
        let original = Node {
            level,
            entries: split.first,
        };
        self.write_node(page, &original)?;
        let new_page = self.pool.allocate();
        let sibling = Node {
            level,
            entries: split.second,
        };
        self.write_node(new_page, &sibling)?;

        if is_root {
            let new_root = self.pool.allocate();
            let mut root_node = Node::new(level + 1);
            root_node.entries.push(Entry::child(split.first_mbr, page));
            root_node
                .entries
                .push(Entry::child(split.second_mbr, new_page));
            self.write_node(new_root, &root_node)?;
            self.root = new_root;
            self.height += 1;
            return Ok(());
        }

        let (parent_page, child_idx) = path.pop().expect("non-root has a parent");
        let mut parent = self.read_node(parent_page)?;
        debug_assert_eq!(parent.entries[child_idx].child_page(), page);
        parent.entries[child_idx].mbr = split.first_mbr;
        parent
            .entries
            .push(Entry::child(split.second_mbr, new_page));
        self.add_and_treat(parent_page, parent, path, reinserted_levels)
    }

    /// Refreshes ancestor entry MBRs along `path` after the child at the
    /// bottom changed shape to `child_mbr`.
    fn adjust_upward(&mut self, path: &[(PageId, usize)], mut child_mbr: Rect<D>) -> Result<()> {
        for &(page, idx) in path.iter().rev() {
            let mut node = self.read_node(page)?;
            if node.entries[idx].mbr == child_mbr {
                break; // Nothing changed; ancestors are already tight.
            }
            node.entries[idx].mbr = child_mbr;
            self.write_node(page, &node)?;
            child_mbr = node.mbr();
        }
        Ok(())
    }

    // ------------------------------------------------------------- delete

    /// Deletes the object `oid` whose MBR is `mbr`. Returns `true` if it was
    /// present.
    pub fn delete(&mut self, oid: ObjectId, mbr: &Rect<D>) -> Result<bool> {
        let mut path: Vec<(PageId, usize)> = Vec::new();
        let Some((leaf_page, entry_idx)) = self.find_leaf(self.root, oid, mbr, &mut path)? else {
            return Ok(false);
        };
        let mut node = self.read_node(leaf_page)?;
        node.entries.remove(entry_idx);
        self.len -= 1;

        // Condense: walk up removing underflowing nodes, collecting their
        // surviving entries for re-insertion at their original level.
        let mut orphans: Vec<(Entry<D>, u8)> = Vec::new();
        let mut cur_page = leaf_page;
        let mut cur_node = node;
        loop {
            if path.is_empty() {
                // The root may underflow freely.
                self.write_node(cur_page, &cur_node)?;
                break;
            }
            if cur_node.entries.len() < self.min_entries {
                let level = cur_node.level;
                for e in cur_node.entries.drain(..) {
                    orphans.push((e, level));
                }
                self.pool.free(cur_page)?;
                let (parent_page, idx) = path.pop().expect("checked non-empty");
                let mut parent = self.read_node(parent_page)?;
                debug_assert_eq!(parent.entries[idx].child_page(), cur_page);
                parent.entries.remove(idx);
                cur_page = parent_page;
                cur_node = parent;
            } else {
                self.write_node(cur_page, &cur_node)?;
                self.adjust_upward(&path, cur_node.mbr())?;
                break;
            }
        }

        // Re-insert orphaned entries at their original levels (deepest
        // first so leaf objects keep the tree populated for higher levels).
        orphans.sort_by_key(|(_, level)| *level);
        for (entry, level) in orphans {
            let mut mask = 0u64;
            self.insert_at_level(entry, level, &mut mask)?;
        }

        // Shrink the root while it is an internal node with a single child
        // (or replace an empty internal root with an empty leaf).
        loop {
            let root_node = self.read_node(self.root)?;
            if root_node.is_leaf() {
                break;
            }
            match root_node.entries.len() {
                0 => {
                    self.write_node(self.root, &Node::new(0))?;
                    self.height = 1;
                    break;
                }
                1 => {
                    let child = root_node.entries[0].child_page();
                    self.pool.free(self.root)?;
                    self.root = child;
                    self.height -= 1;
                }
                _ => break,
            }
        }
        Ok(true)
    }

    /// Finds the leaf holding `oid`, recording the root-to-parent path as
    /// `(page, child index)` pairs. Returns the leaf page and entry index.
    fn find_leaf(
        &self,
        page: PageId,
        oid: ObjectId,
        mbr: &Rect<D>,
        path: &mut Vec<(PageId, usize)>,
    ) -> Result<Option<(PageId, usize)>> {
        let node = self.read_node(page)?;
        if node.is_leaf() {
            for (i, e) in node.entries.iter().enumerate() {
                if e.object_id() == oid {
                    return Ok(Some((page, i)));
                }
            }
            return Ok(None);
        }
        for (i, e) in node.entries.iter().enumerate() {
            if e.mbr.contains_rect(mbr) {
                path.push((page, i));
                if let Some(found) = self.find_leaf(e.child_page(), oid, mbr, path)? {
                    return Ok(Some(found));
                }
                path.pop();
            }
        }
        Ok(None)
    }

    // ------------------------------------------------------------- queries

    /// All objects whose MBR intersects `window`, as `(id, mbr)` pairs.
    pub fn query_window(&self, window: &Rect<D>) -> Result<Vec<(ObjectId, Rect<D>)>> {
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        while let Some(page) = stack.pop() {
            let node = self.read_node(page)?;
            for e in &node.entries {
                if e.mbr.intersects(window) {
                    if node.is_leaf() {
                        out.push((e.object_id(), e.mbr));
                    } else {
                        stack.push(e.child_page());
                    }
                }
            }
        }
        Ok(out)
    }

    /// All objects in the tree, as `(id, mbr)` pairs (leaf scan order).
    pub fn all_objects(&self) -> Result<Vec<(ObjectId, Rect<D>)>> {
        let mut out = Vec::with_capacity(self.len);
        let mut stack = vec![self.root];
        while let Some(page) = stack.pop() {
            let node = self.read_node(page)?;
            for e in &node.entries {
                if node.is_leaf() {
                    out.push((e.object_id(), e.mbr));
                } else {
                    stack.push(e.child_page());
                }
            }
        }
        Ok(out)
    }
}

/// R* ChooseSubtree: pick the child entry that needs the least (overlap or
/// area) enlargement to accommodate `mbr`.
fn choose_subtree<const D: usize>(node: &Node<D>, mbr: &Rect<D>) -> usize {
    debug_assert!(!node.is_leaf());
    debug_assert!(!node.entries.is_empty());
    if node.level == 1 {
        // Children are leaves: minimise overlap enlargement, ties by area
        // enlargement, then by area.
        let mut best = 0;
        let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for (i, e) in node.entries.iter().enumerate() {
            let enlarged = e.mbr.union(mbr);
            let mut overlap_delta = 0.0;
            for (j, other) in node.entries.iter().enumerate() {
                if i != j {
                    overlap_delta +=
                        enlarged.overlap_area(&other.mbr) - e.mbr.overlap_area(&other.mbr);
                }
            }
            let key = (overlap_delta, e.mbr.enlargement(mbr), e.mbr.area());
            if key < best_key {
                best_key = key;
                best = i;
            }
        }
        best
    } else {
        // Children are internal: minimise area enlargement, ties by area.
        let mut best = 0;
        let mut best_key = (f64::INFINITY, f64::INFINITY);
        for (i, e) in node.entries.iter().enumerate() {
            let key = (e.mbr.enlargement(mbr), e.mbr.area());
            if key < best_key {
                best_key = key;
                best = i;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdj_geom::Point;

    fn pt(x: f64, y: f64) -> Rect<2> {
        Point::xy(x, y).to_rect()
    }

    fn grid_tree(n: usize, fanout: usize) -> RTree<2> {
        let mut tree = RTree::new(RTreeConfig::small(fanout));
        let side = (n as f64).sqrt().ceil() as usize;
        for i in 0..n {
            let (x, y) = ((i % side) as f64, (i / side) as f64);
            tree.insert(ObjectId(i as u64), pt(x, y)).unwrap();
        }
        tree
    }

    #[test]
    fn insert_and_len() {
        let tree = grid_tree(100, 4);
        assert_eq!(tree.len(), 100);
        assert!(tree.height() > 1);
        tree.validate().unwrap();
    }

    #[test]
    fn bad_mbrs_are_refused_with_a_typed_error() {
        let mut tree = grid_tree(50, 4);
        let nan = Point::xy(f64::NAN, 0.5);
        for bad in [
            Rect::from_corners(&nan, &nan),
            Rect::new([0.0, 0.0], [f64::INFINITY, 1.0]),
            Rect::new([f64::NEG_INFINITY, 0.0], [0.0, 1.0]),
            Rect::empty(),
        ] {
            assert!(
                matches!(
                    tree.insert(ObjectId(999), bad),
                    Err(StorageError::InvalidInput(_))
                ),
                "{bad:?} must be refused"
            );
            assert_eq!(tree.len(), 50, "{bad:?} changed the tree");
            tree.validate().unwrap();
        }
        tree.insert(ObjectId(50), pt(0.5, 0.5)).unwrap();
        assert_eq!(tree.len(), 51);
        tree.validate().unwrap();
    }

    #[test]
    fn all_objects_complete() {
        let tree = grid_tree(77, 5);
        let mut ids: Vec<u64> = tree
            .all_objects()
            .unwrap()
            .iter()
            .map(|(o, _)| o.0)
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..77).collect::<Vec<u64>>());
    }

    #[test]
    fn window_query_matches_linear_scan() {
        let tree = grid_tree(100, 4);
        let window = Rect::new([2.5, 2.5], [6.5, 7.5]);
        let mut got: Vec<u64> = tree
            .query_window(&window)
            .unwrap()
            .iter()
            .map(|(o, _)| o.0)
            .collect();
        got.sort_unstable();
        let mut want: Vec<u64> = (0..100u64)
            .filter(|i| {
                let (x, y) = ((i % 10) as f64, (i / 10) as f64);
                window.contains_point(&Point::xy(x, y))
            })
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn delete_removes_and_keeps_invariants() {
        let mut tree = grid_tree(60, 4);
        for i in (0..60u64).step_by(2) {
            let (x, y) = ((i % 8) as f64, (i / 8) as f64);
            assert!(tree.delete(ObjectId(i), &pt(x, y)).unwrap());
            tree.validate().unwrap();
        }
        assert_eq!(tree.len(), 30);
        let ids: Vec<u64> = tree
            .all_objects()
            .unwrap()
            .iter()
            .map(|(o, _)| o.0)
            .collect();
        assert!(ids.iter().all(|i| i % 2 == 1));
    }

    #[test]
    fn delete_missing_returns_false() {
        let mut tree = grid_tree(10, 4);
        assert!(!tree.delete(ObjectId(999), &pt(0.0, 0.0)).unwrap());
        assert_eq!(tree.len(), 10);
    }

    #[test]
    fn delete_everything_leaves_empty_tree() {
        let mut tree = grid_tree(30, 4);
        let side = (30f64).sqrt().ceil() as usize;
        for i in 0..30u64 {
            let (x, y) = ((i as usize % side) as f64, (i as usize / side) as f64);
            assert!(tree.delete(ObjectId(i), &pt(x, y)).unwrap());
        }
        assert!(tree.is_empty());
        assert_eq!(tree.height(), 1);
        tree.validate().unwrap();
        assert!(tree.mbr().unwrap().is_empty());
    }

    #[test]
    fn pool_stats_accumulate() {
        let tree = grid_tree(200, 4);
        tree.reset_io_stats();
        let _ = tree
            .query_window(&Rect::new([0.0, 0.0], [20.0, 20.0]))
            .unwrap();
        let stats = tree.pool_stats();
        assert!(stats.accesses() > 0);
    }

    #[test]
    fn min_subtree_objects_bounds() {
        let tree = grid_tree(500, 5);
        // Non-root leaf holds at least min_entries objects.
        let m = tree.min_entries() as u64;
        assert_eq!(tree.min_subtree_objects(0, false), m);
        assert_eq!(tree.min_subtree_objects(1, false), m * m);
        assert_eq!(tree.min_subtree_objects(3, true), 1);
    }

    #[test]
    fn duplicate_points_supported() {
        let mut tree = RTree::new(RTreeConfig::small(4));
        for i in 0..50u64 {
            tree.insert(ObjectId(i), pt(1.0, 1.0)).unwrap();
        }
        tree.validate().unwrap();
        assert_eq!(tree.len(), 50);
        assert_eq!(
            tree.query_window(&Rect::new([1.0, 1.0], [1.0, 1.0]))
                .unwrap()
                .len(),
            50
        );
    }

    #[test]
    fn rect_objects_supported() {
        let mut tree = RTree::new(RTreeConfig::small(4));
        for i in 0..40u64 {
            let x = (i % 8) as f64 * 3.0;
            let y = (i / 8) as f64 * 3.0;
            tree.insert(ObjectId(i), Rect::new([x, y], [x + 2.0, y + 2.0]))
                .unwrap();
        }
        tree.validate().unwrap();
        let hits = tree
            .query_window(&Rect::new([0.0, 0.0], [4.0, 4.0]))
            .unwrap();
        assert!(hits.len() >= 4);
    }
}
