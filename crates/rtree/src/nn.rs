//! Incremental nearest-neighbour search (Hjaltason & Samet 1995).
//!
//! This is the single-tree ancestor of the incremental distance join: a
//! priority queue holds nodes and objects keyed by their MINDIST to the
//! query point; popping an object reports it as the next nearest neighbour,
//! popping a node enqueues its entries. The distance-join paper (§2.2) calls
//! `PROCESS_NODE1`/`PROCESS_NODE2` "essentially the same as the basic loop of
//! the nearest neighbor algorithm".
//!
//! The iterator is used directly by the baseline semi-join implementation
//! (§4.2.3: "for each object in relation A, we perform a nearest neighbor
//! computation in relation B").

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use sdj_geom::{Metric, OrdF64, Point, Rect};
use sdj_storage::{PageId, Result};

use crate::entry::ObjectId;
use crate::tree::RTree;

/// One result of the incremental nearest-neighbour iterator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Neighbor<const D: usize> {
    /// The neighbour's object id.
    pub oid: ObjectId,
    /// The neighbour's bounding rectangle (the point itself for point data).
    pub mbr: Rect<D>,
    /// Distance from the query point.
    pub distance: f64,
}

enum QueueItem<const D: usize> {
    Node(PageId),
    Object(ObjectId, Rect<D>),
}

struct QueueElem<const D: usize> {
    key: OrdF64,
    /// Pops objects before nodes at equal distance so results stream out as
    /// early as possible.
    object_first: bool,
    seq: u64,
    item: QueueItem<D>,
}

impl<const D: usize> PartialEq for QueueElem<D> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<const D: usize> Eq for QueueElem<D> {}
impl<const D: usize> PartialOrd for QueueElem<D> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<const D: usize> Ord for QueueElem<D> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for min-order on (key, ¬object, seq).
        other
            .key
            .cmp(&self.key)
            .then_with(|| self.object_first.cmp(&other.object_first))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Iterator yielding the objects of an [`RTree`] in increasing distance from
/// a query point.
pub struct NearestNeighbors<'t, const D: usize> {
    tree: &'t RTree<D>,
    query: Point<D>,
    metric: Metric,
    heap: BinaryHeap<QueueElem<D>>,
    seq: u64,
    /// Pending I/O or decoding error, reported once by `next()`.
    error: Option<sdj_storage::StorageError>,
}

impl<'t, const D: usize> NearestNeighbors<'t, D> {
    /// Starts an incremental nearest-neighbour search from `query`.
    #[must_use]
    pub fn new(tree: &'t RTree<D>, query: Point<D>, metric: Metric) -> Self {
        let mut nn = Self {
            tree,
            query,
            metric,
            heap: BinaryHeap::new(),
            seq: 0,
            error: None,
        };
        if !tree.is_empty() {
            nn.push(OrdF64::ZERO, QueueItem::Node(tree.root_id()));
        }
        nn
    }

    fn push(&mut self, key: OrdF64, item: QueueItem<D>) {
        let object_first = matches!(item, QueueItem::Object(..));
        self.heap.push(QueueElem {
            key,
            object_first,
            seq: self.seq,
            item,
        });
        self.seq += 1;
    }

    /// Takes a pending error, if iteration stopped because of one.
    pub fn take_error(&mut self) -> Option<sdj_storage::StorageError> {
        self.error.take()
    }

    fn step(&mut self) -> Result<Option<Neighbor<D>>> {
        while let Some(elem) = self.heap.pop() {
            match elem.item {
                QueueItem::Object(oid, mbr) => {
                    return Ok(Some(Neighbor {
                        oid,
                        mbr,
                        distance: elem.key.get(),
                    }));
                }
                QueueItem::Node(page) => {
                    let node = self.tree.read_node(page)?;
                    for e in &node.entries {
                        let d = self.metric.mindist_point_rect(&self.query, &e.mbr);
                        let item = if node.is_leaf() {
                            QueueItem::Object(e.object_id(), e.mbr)
                        } else {
                            QueueItem::Node(e.child_page())
                        };
                        self.push(OrdF64::new(d), item);
                    }
                }
            }
        }
        Ok(None)
    }
}

impl<const D: usize> Iterator for NearestNeighbors<'_, D> {
    type Item = Neighbor<D>;

    fn next(&mut self) -> Option<Neighbor<D>> {
        match self.step() {
            Ok(n) => n,
            Err(e) => {
                self.error = Some(e);
                None
            }
        }
    }
}

impl<const D: usize> RTree<D> {
    /// Objects of the tree in increasing distance from `query`.
    #[must_use]
    pub fn nearest_neighbors(&self, query: Point<D>, metric: Metric) -> NearestNeighbors<'_, D> {
        NearestNeighbors::new(self, query, metric)
    }

    /// The `k` nearest objects to `query`, in increasing distance order
    /// (fewer if the tree holds fewer objects).
    pub fn k_nearest(&self, query: Point<D>, k: usize, metric: Metric) -> Vec<Neighbor<D>> {
        self.nearest_neighbors(query, metric).take(k).collect()
    }

    /// Objects within `radius` of `query`, in increasing distance order.
    /// Stops traversal as soon as the next candidate exceeds the radius.
    pub fn neighbors_within(
        &self,
        query: Point<D>,
        radius: f64,
        metric: Metric,
    ) -> impl Iterator<Item = Neighbor<D>> + '_ {
        self.nearest_neighbors(query, metric)
            .take_while(move |n| n.distance <= radius)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RTreeConfig;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_tree(n: usize, seed: u64) -> (RTree<2>, Vec<Point<2>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tree = RTree::new(RTreeConfig::small(8));
        let mut pts = Vec::with_capacity(n);
        for i in 0..n {
            let p = Point::xy(rng.random_range(0.0..100.0), rng.random_range(0.0..100.0));
            tree.insert(ObjectId(i as u64), p.to_rect()).unwrap();
            pts.push(p);
        }
        (tree, pts)
    }

    #[test]
    fn yields_all_in_distance_order() {
        let (tree, pts) = random_tree(300, 7);
        let q = Point::xy(50.0, 50.0);
        let results: Vec<Neighbor<2>> = tree.nearest_neighbors(q, Metric::Euclidean).collect();
        assert_eq!(results.len(), pts.len());
        for w in results.windows(2) {
            assert!(w[0].distance <= w[1].distance);
        }
        // First result matches a linear scan.
        let best = pts
            .iter()
            .map(|p| Metric::Euclidean.distance(&q, p))
            .fold(f64::INFINITY, f64::min);
        assert!((results[0].distance - best).abs() < 1e-9);
    }

    #[test]
    fn distances_match_linear_scan_for_k() {
        let (tree, pts) = random_tree(200, 99);
        let q = Point::xy(10.0, 90.0);
        let mut brute: Vec<f64> = pts
            .iter()
            .map(|p| Metric::Euclidean.distance(&q, p))
            .collect();
        brute.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let got: Vec<f64> = tree
            .nearest_neighbors(q, Metric::Euclidean)
            .take(25)
            .map(|n| n.distance)
            .collect();
        for (g, b) in got.iter().zip(&brute) {
            assert!((g - b).abs() < 1e-9);
        }
    }

    #[test]
    fn works_with_all_metrics() {
        let (tree, pts) = random_tree(100, 3);
        for metric in [Metric::Euclidean, Metric::Manhattan, Metric::Chessboard] {
            let q = Point::xy(42.0, 17.0);
            let first = tree.nearest_neighbors(q, metric).next().unwrap();
            let best = pts
                .iter()
                .map(|p| metric.distance(&q, p))
                .fold(f64::INFINITY, f64::min);
            assert!((first.distance - best).abs() < 1e-9, "{metric:?}");
        }
    }

    #[test]
    fn empty_tree_yields_nothing() {
        let tree: RTree<2> = RTree::new(RTreeConfig::small(4));
        assert_eq!(
            tree.nearest_neighbors(Point::xy(0.0, 0.0), Metric::Euclidean)
                .count(),
            0
        );
    }

    #[test]
    fn k_nearest_and_within() {
        let (tree, pts) = random_tree(250, 21);
        let q = Point::xy(30.0, 60.0);
        let k = tree.k_nearest(q, 12, Metric::Euclidean);
        assert_eq!(k.len(), 12);
        let mut brute: Vec<f64> = pts
            .iter()
            .map(|p| Metric::Euclidean.distance(&q, p))
            .collect();
        brute.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (n, b) in k.iter().zip(&brute) {
            assert!((n.distance - b).abs() < 1e-9);
        }
        let radius = brute[30];
        let within: Vec<_> = tree
            .neighbors_within(q, radius, Metric::Euclidean)
            .collect();
        let want = brute.iter().filter(|d| **d <= radius).count();
        assert_eq!(within.len(), want);
        assert!(within.iter().all(|n| n.distance <= radius));
    }

    #[test]
    fn early_termination_is_cheap() {
        let (tree, _) = random_tree(500, 11);
        tree.reset_io_stats();
        let _first = tree
            .nearest_neighbors(Point::xy(50.0, 50.0), Metric::Euclidean)
            .next()
            .unwrap();
        let one = tree.pool_stats().accesses();
        tree.reset_io_stats();
        let _all: Vec<_> = tree
            .nearest_neighbors(Point::xy(50.0, 50.0), Metric::Euclidean)
            .collect();
        let all = tree.pool_stats().accesses();
        assert!(
            one * 5 < all,
            "first neighbour should touch far fewer nodes ({one} vs {all})"
        );
    }
}
