//! The PR quadtree proper.

use sdj_core::index::{IndexEntry, IndexNode, NodeId, SpatialIndex};
use sdj_geom::{Point, Rect};
use sdj_rtree::ObjectId;
use sdj_storage::{BufferPool, PageId, Pager, PoolStats, Result};

use crate::node::{
    fan_out, leaf_capacity, min_internal_page, quadrant_of, quadrant_region, QuadNode, QuadNodeKind,
};

/// Construction parameters of a [`PrQuadtree`].
#[derive(Clone, Copy, Debug)]
pub struct QuadtreeConfig<const D: usize> {
    /// The fixed region the root covers; every inserted point must fall
    /// inside it.
    pub bounds: Rect<D>,
    /// Page size in bytes.
    pub page_size: usize,
    /// Buffer-pool frames.
    pub buffer_frames: usize,
    /// Depth at which splitting stops and leaves chain overflow pages
    /// instead (bounds the trie for duplicate-heavy data).
    pub max_depth: u8,
}

impl<const D: usize> QuadtreeConfig<D> {
    /// A configuration over `bounds` with 1K pages and defaults matching the
    /// R-tree environment.
    #[must_use]
    pub fn new(bounds: Rect<D>) -> Self {
        Self {
            bounds,
            page_size: 1024,
            buffer_frames: 256,
            max_depth: 48,
        }
    }

    /// A small-page configuration for tests (low leaf capacity → deep trees).
    #[must_use]
    pub fn small(bounds: Rect<D>, leaf_points: usize) -> Self {
        let page = (crate::node::HEADER_SIZE
            + crate::node::region_size::<D>()
            + 4
            + leaf_points * crate::node::point_entry_size::<D>())
        .max(min_internal_page::<D>());
        Self {
            bounds,
            page_size: page,
            buffer_frames: 64,
            max_depth: 48,
        }
    }
}

/// A paged point-region quadtree (`2^D`-ary trie over space).
pub struct PrQuadtree<const D: usize> {
    pool: BufferPool,
    config: QuadtreeConfig<D>,
    root: PageId,
    len: usize,
    leaf_cap: usize,
}

impl<const D: usize> std::fmt::Debug for PrQuadtree<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrQuadtree")
            .field("len", &self.len)
            .field("leaf_cap", &self.leaf_cap)
            .finish()
    }
}

impl<const D: usize> PrQuadtree<D> {
    /// Creates an empty quadtree.
    ///
    /// # Panics
    /// Panics if the configuration is degenerate (page too small, empty
    /// bounds).
    #[must_use]
    pub fn new(config: QuadtreeConfig<D>) -> Self {
        assert!(
            config.bounds.is_finite() && config.bounds.area() > 0.0,
            "quadtree bounds must be a finite, non-degenerate region"
        );
        assert!(
            config.page_size >= min_internal_page::<D>(),
            "page size {} cannot hold a {}-child internal node",
            config.page_size,
            fan_out::<D>()
        );
        let leaf_cap = leaf_capacity::<D>(config.page_size);
        assert!(leaf_cap >= 1, "page size too small for one point");
        let pool = BufferPool::new(Pager::new(config.page_size), config.buffer_frames);
        let root = pool.allocate();
        let tree = Self {
            pool,
            config,
            root,
            len: 0,
            leaf_cap,
        };
        tree.write_node(root, &QuadNode::empty_leaf(0, config.bounds))
            .expect("writing the empty root cannot fail");
        tree
    }

    /// Number of indexed points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no points are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The configured bounds.
    #[must_use]
    pub fn bounds(&self) -> Rect<D> {
        self.config.bounds
    }

    /// Leaf capacity per page.
    #[must_use]
    pub fn leaf_capacity(&self) -> usize {
        self.leaf_cap
    }

    /// Buffer-pool counters (misses = node I/O), including fault/retry
    /// totals.
    #[must_use]
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Resets the I/O counters.
    pub fn reset_io_stats(&self) {
        self.pool.reset_stats();
    }

    /// Installs (or clears) a fault injector on the tree's simulated disk
    /// (chaos testing); see the R-tree's method of the same name.
    pub fn set_fault_injector(&self, injector: Option<std::sync::Arc<sdj_storage::FaultInjector>>) {
        self.pool.set_fault_injector(injector);
    }

    pub(crate) fn pool(&self) -> &BufferPool {
        &self.pool
    }

    pub(crate) fn root_page(&self) -> PageId {
        self.root
    }

    pub(crate) fn config(&self) -> &QuadtreeConfig<D> {
        &self.config
    }

    /// Reassembles a tree from its persisted parts (see `persist`).
    pub(crate) fn from_parts(
        pool: BufferPool,
        config: QuadtreeConfig<D>,
        root: PageId,
        len: usize,
    ) -> Self {
        Self {
            pool,
            config,
            root,
            len,
            leaf_cap: leaf_capacity::<D>(config.page_size),
        }
    }

    fn read_raw(&self, page: PageId) -> Result<QuadNode<D>> {
        self.pool.with_page(page, QuadNode::decode)?
    }

    fn write_node(&self, page: PageId, node: &QuadNode<D>) -> Result<()> {
        self.pool.update(page, |buf| {
            buf.fill(0);
            node.encode(buf)
        })?
    }

    /// Inserts a point.
    ///
    /// # Panics
    /// Panics if the point lies outside the configured bounds.
    pub fn insert(&mut self, oid: ObjectId, point: Point<D>) -> Result<()> {
        assert!(
            self.config.bounds.contains_point(&point),
            "point outside quadtree bounds"
        );
        self.insert_into(self.root, oid, point)?;
        self.len += 1;
        Ok(())
    }

    fn insert_into(&mut self, page: PageId, oid: ObjectId, point: Point<D>) -> Result<()> {
        let mut node = self.read_raw(page)?;
        match &mut node.kind {
            QuadNodeKind::Internal { children } => {
                let q = quadrant_of(&node.region, &point);
                match children[q] {
                    Some(child) => self.insert_into(child, oid, point),
                    None => {
                        let child = self.pool.allocate();
                        let mut leaf =
                            QuadNode::empty_leaf(node.depth + 1, quadrant_region(&node.region, q));
                        let QuadNodeKind::Leaf { points, .. } = &mut leaf.kind else {
                            unreachable!()
                        };
                        points.push((oid, point));
                        self.write_node(child, &leaf)?;
                        children[q] = Some(child);
                        self.write_node(page, &node)
                    }
                }
            }
            QuadNodeKind::Leaf { points, next } => {
                if points.len() < self.leaf_cap {
                    points.push((oid, point));
                    return self.write_node(page, &node);
                }
                if node.depth >= self.config.max_depth {
                    // Overflow chain (duplicate-heavy regions).
                    if next.is_invalid() {
                        let overflow = self.pool.allocate();
                        let mut chained = QuadNode::empty_leaf(node.depth, node.region);
                        let QuadNodeKind::Leaf { points, .. } = &mut chained.kind else {
                            unreachable!()
                        };
                        points.push((oid, point));
                        self.write_node(overflow, &chained)?;
                        *next = overflow;
                        self.write_node(page, &node)
                    } else {
                        let next = *next;
                        self.insert_into(next, oid, point)
                    }
                } else {
                    // Split: turn this leaf into an internal node and
                    // re-insert its points one quadrant down.
                    let old_points = std::mem::take(points);
                    debug_assert!(next.is_invalid(), "only max-depth leaves chain");
                    node.kind = QuadNodeKind::Internal {
                        children: vec![None; fan_out::<D>()],
                    };
                    self.write_node(page, &node)?;
                    for (o, p) in old_points {
                        self.insert_into(page, o, p)?;
                    }
                    self.insert_into(page, oid, point)
                }
            }
        }
    }

    /// All points whose coordinates fall inside `window`.
    pub fn query_window(&self, window: &Rect<D>) -> Result<Vec<(ObjectId, Point<D>)>> {
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        while let Some(page) = stack.pop() {
            let node = self.read_raw(page)?;
            if !node.region.intersects(window) {
                continue;
            }
            match node.kind {
                QuadNodeKind::Leaf { points, next } => {
                    out.extend(points.into_iter().filter(|(_, p)| window.contains_point(p)));
                    if !next.is_invalid() {
                        stack.push(next);
                    }
                }
                QuadNodeKind::Internal { children } => {
                    stack.extend(children.into_iter().flatten());
                }
            }
        }
        Ok(out)
    }

    /// All stored points.
    pub fn all_objects(&self) -> Result<Vec<(ObjectId, Point<D>)>> {
        self.query_window(&self.config.bounds)
    }

    /// Checks structural invariants (region nesting, depths, chain rules,
    /// point placement), returning a description of the first violation.
    pub fn validate(&self) -> std::result::Result<(), String> {
        let mut count = 0usize;
        self.validate_node(self.root, 0, &self.config.bounds, false, &mut count)?;
        if count != self.len {
            return Err(format!("tree reports len {} but holds {count}", self.len));
        }
        Ok(())
    }

    fn validate_node(
        &self,
        page: PageId,
        depth: u8,
        region: &Rect<D>,
        is_chain: bool,
        count: &mut usize,
    ) -> std::result::Result<(), String> {
        let node = self
            .read_raw(page)
            .map_err(|e| format!("cannot read {page:?}: {e}"))?;
        if node.depth != depth {
            return Err(format!("node {page:?} depth {} != {depth}", node.depth));
        }
        if node.region != *region {
            return Err(format!("node {page:?} region mismatch"));
        }
        match node.kind {
            QuadNodeKind::Leaf { points, next } => {
                if points.len() > self.leaf_cap {
                    return Err(format!("leaf {page:?} over capacity"));
                }
                for (_, p) in &points {
                    if !region.contains_point(p) {
                        return Err(format!("point {p:?} outside leaf region"));
                    }
                }
                *count += points.len();
                if !next.is_invalid() {
                    if depth < self.config.max_depth {
                        return Err(format!("leaf {page:?} chains below max depth"));
                    }
                    self.validate_node(next, depth, region, true, count)?;
                }
                let _ = is_chain;
            }
            QuadNodeKind::Internal { children } => {
                if is_chain {
                    return Err("internal node in an overflow chain".to_owned());
                }
                if children.iter().all(Option::is_none) {
                    return Err(format!("internal node {page:?} with no children"));
                }
                for (q, child) in children.iter().enumerate() {
                    if let Some(child) = child {
                        let sub = quadrant_region(region, q);
                        self.validate_node(*child, depth + 1, &sub, false, count)?;
                    }
                }
            }
        }
        Ok(())
    }
}

impl<const D: usize> SpatialIndex<D> for PrQuadtree<D> {
    /// Quadrant regions partition space; they are *not* minimal bounding
    /// rectangles, so MINMAXDIST bounds are invalid over them.
    const MINIMAL_REGIONS: bool = false;

    fn is_empty(&self) -> bool {
        PrQuadtree::is_empty(self)
    }

    fn len(&self) -> usize {
        PrQuadtree::len(self)
    }

    fn root_id(&self) -> NodeId {
        NodeId::from(self.root.0)
    }

    fn root_level(&self) -> u8 {
        // Levels decrease with depth; the deepest possible node still gets
        // level 1.
        self.config.max_depth + 1
    }

    fn root_region(&self) -> Result<Rect<D>> {
        Ok(self.config.bounds)
    }

    fn read_node(&self, id: NodeId) -> Result<IndexNode<D>> {
        let page = PageId(u32::try_from(id).expect("quadtree node ids are u32 pages"));
        let node = self.read_raw(page)?;
        let level = self.config.max_depth + 1 - node.depth;
        let mut entries = Vec::new();
        match node.kind {
            QuadNodeKind::Leaf { points, mut next } => {
                // Present the whole overflow chain as one logical node.
                for (oid, p) in points {
                    entries.push(IndexEntry::Object {
                        oid,
                        mbr: p.to_rect(),
                    });
                }
                while !next.is_invalid() {
                    let chained = self.read_raw(next)?;
                    let QuadNodeKind::Leaf { points, next: n } = chained.kind else {
                        return Err(sdj_storage::StorageError::Corrupt(
                            "internal node in overflow chain",
                        ));
                    };
                    for (oid, p) in points {
                        entries.push(IndexEntry::Object {
                            oid,
                            mbr: p.to_rect(),
                        });
                    }
                    next = n;
                }
            }
            QuadNodeKind::Internal { children } => {
                for (q, child) in children.iter().enumerate() {
                    if let Some(child) = child {
                        entries.push(IndexEntry::Child {
                            id: NodeId::from(child.0),
                            level: level - 1,
                            region: quadrant_region(&node.region, q),
                        });
                    }
                }
            }
        }
        Ok(IndexNode { level, entries })
    }

    fn min_subtree_objects(&self, _level: u8, _is_root: bool) -> u64 {
        // Quadtree nodes have no minimum fill; lazily allocated nodes are
        // merely non-empty.
        u64::from(self.len > 0)
    }

    fn io_misses(&self) -> u64 {
        self.pool.stats().misses
    }

    fn prefetch_nodes(&self, ids: &[NodeId]) {
        // Overflow chains hang off the head page; prefetching the head is
        // what a subsequent `read_node` faults first.
        let mut pages = [PageId::INVALID; 16];
        for chunk in ids.chunks(16) {
            for (slot, &id) in pages.iter_mut().zip(chunk) {
                *slot = PageId(u32::try_from(id).expect("quadtree node ids are u32 pages"));
            }
            self.pool.prefetch(&pages[..chunk.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use sdj_geom::Metric;

    fn unit() -> Rect<2> {
        Rect::new([0.0, 0.0], [1.0, 1.0])
    }

    fn random_points(n: usize, seed: u64) -> Vec<Point<2>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::xy(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)))
            .collect()
    }

    fn build(points: &[Point<2>], leaf_points: usize) -> PrQuadtree<2> {
        let mut t = PrQuadtree::new(QuadtreeConfig::small(unit(), leaf_points));
        for (i, p) in points.iter().enumerate() {
            t.insert(ObjectId(i as u64), *p).unwrap();
        }
        t
    }

    #[test]
    fn insert_and_retrieve_all() {
        let pts = random_points(500, 1);
        let tree = build(&pts, 4);
        tree.validate().unwrap();
        assert_eq!(tree.len(), 500);
        let mut ids: Vec<u64> = tree
            .all_objects()
            .unwrap()
            .iter()
            .map(|(o, _)| o.0)
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..500).collect::<Vec<u64>>());
    }

    #[test]
    fn window_query_matches_scan() {
        let pts = random_points(800, 2);
        let tree = build(&pts, 6);
        let window = Rect::new([0.2, 0.3], [0.6, 0.7]);
        let mut got: Vec<u64> = tree
            .query_window(&window)
            .unwrap()
            .iter()
            .map(|(o, _)| o.0)
            .collect();
        got.sort_unstable();
        let mut want: Vec<u64> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| window.contains_point(p))
            .map(|(i, _)| i as u64)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn duplicates_chain_at_max_depth() {
        let mut config = QuadtreeConfig::small(unit(), 3);
        config.max_depth = 4;
        let mut tree = PrQuadtree::new(config);
        for i in 0..50u64 {
            tree.insert(ObjectId(i), Point::xy(0.123, 0.456)).unwrap();
        }
        tree.validate().unwrap();
        assert_eq!(tree.len(), 50);
        assert_eq!(tree.all_objects().unwrap().len(), 50);
        // Through the SpatialIndex view, the chain appears as one node.
        let mut stack = vec![SpatialIndex::root_id(&tree)];
        let mut seen = 0usize;
        while let Some(id) = stack.pop() {
            let node = SpatialIndex::read_node(&tree, id).unwrap();
            for e in &node.entries {
                match e {
                    IndexEntry::Object { .. } => seen += 1,
                    IndexEntry::Child { id, .. } => stack.push(*id),
                }
            }
        }
        assert_eq!(seen, 50);
    }

    #[test]
    fn spatial_index_levels_decrease() {
        let pts = random_points(300, 3);
        let tree = build(&pts, 4);
        let root = SpatialIndex::read_node(&tree, SpatialIndex::root_id(&tree)).unwrap();
        assert_eq!(root.level, SpatialIndex::root_level(&tree));
        let mut stack = vec![root];
        while let Some(node) = stack.pop() {
            for e in &node.entries {
                if let IndexEntry::Child { id, level, region } = e {
                    assert_eq!(*level, node.level - 1);
                    assert!(region.area() > 0.0);
                    let child = SpatialIndex::read_node(&tree, *id).unwrap();
                    assert_eq!(child.level, *level);
                    stack.push(child);
                }
            }
        }
    }

    #[test]
    fn nearest_point_via_regions_is_consistent() {
        // MINDIST to quadrant regions lower-bounds point distances (the
        // join's consistency requirement), even though regions are not
        // minimal.
        let pts = random_points(200, 4);
        let tree = build(&pts, 4);
        let q = Point::xy(0.5, 0.5);
        let root = SpatialIndex::read_node(&tree, SpatialIndex::root_id(&tree)).unwrap();
        let mut stack = vec![root];
        while let Some(node) = stack.pop() {
            for e in &node.entries {
                match e {
                    IndexEntry::Object { mbr, .. } => {
                        let d = Metric::Euclidean.mindist_point_rect(&q, mbr);
                        assert!(d >= 0.0);
                    }
                    IndexEntry::Child { id, region, .. } => {
                        let child = SpatialIndex::read_node(&tree, *id).unwrap();
                        for ce in &child.entries {
                            let lb = Metric::Euclidean.mindist_rect_rect(region, &q.to_rect());
                            let cd = Metric::Euclidean.mindist_rect_rect(ce.rect(), &q.to_rect());
                            assert!(lb <= cd + 1e-12, "region bound must be consistent");
                        }
                        stack.push(child);
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside quadtree bounds")]
    fn out_of_bounds_rejected() {
        let mut tree = PrQuadtree::new(QuadtreeConfig::small(unit(), 4));
        tree.insert(ObjectId(0), Point::xy(2.0, 0.5)).unwrap();
    }

    #[test]
    fn boundary_points_accepted() {
        let mut tree = PrQuadtree::new(QuadtreeConfig::small(unit(), 2));
        for (i, (x, y)) in [(0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (0.5, 0.5)]
            .iter()
            .enumerate()
        {
            tree.insert(ObjectId(i as u64), Point::xy(*x, *y)).unwrap();
        }
        tree.validate().unwrap();
        assert_eq!(tree.all_objects().unwrap().len(), 5);
    }

    #[test]
    fn three_dimensional_octree() {
        let bounds: Rect<3> = Rect::new([0.0; 3], [1.0; 3]);
        let mut tree = PrQuadtree::new(QuadtreeConfig::<3>::small(bounds, 4));
        let mut rng = StdRng::seed_from_u64(9);
        for i in 0..200u64 {
            let p = Point::new([
                rng.random_range(0.0..1.0),
                rng.random_range(0.0..1.0),
                rng.random_range(0.0..1.0),
            ]);
            tree.insert(ObjectId(i), p).unwrap();
        }
        tree.validate().unwrap();
        assert_eq!(tree.len(), 200);
        assert_eq!(tree.all_objects().unwrap().len(), 200);
    }
}
