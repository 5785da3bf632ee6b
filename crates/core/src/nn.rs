//! Index-generic incremental nearest-neighbour search.
//!
//! The Hjaltason–Samet nearest-neighbour algorithm (the single-tree parent
//! of the distance join, §2.2) expressed over the [`SpatialIndex`] trait:
//! one priority queue of nodes and objects keyed by MINDIST to the query
//! point. `sdj-rtree` ships its own specialised iterator; this one runs over
//! *any* index implementing the trait — in particular the PR quadtree.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use sdj_geom::{KeySpace, Metric, OrdF64, Point, Rect, SoaRects};
use sdj_rtree::ObjectId;
use sdj_storage::StorageError;

use crate::index::{IndexEntry, IndexNode, NodeId, SpatialIndex};

/// One result of the generic nearest-neighbour iterator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IndexNeighbor<const D: usize> {
    /// The neighbour's object id.
    pub oid: ObjectId,
    /// The neighbour's bounding rectangle.
    pub mbr: Rect<D>,
    /// Distance from the query point.
    pub distance: f64,
}

enum QueueItem<const D: usize> {
    Node(NodeId),
    Object(ObjectId, Rect<D>),
}

struct Elem<const D: usize> {
    key: OrdF64,
    object_first: bool,
    seq: u64,
    item: QueueItem<D>,
}

impl<const D: usize> PartialEq for Elem<D> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<const D: usize> Eq for Elem<D> {}
impl<const D: usize> PartialOrd for Elem<D> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<const D: usize> Ord for Elem<D> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .key
            .cmp(&self.key)
            .then_with(|| self.object_first.cmp(&other.object_first))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Iterator yielding an index's objects in increasing distance from a query
/// point.
pub struct IndexNearestNeighbors<'a, const D: usize, I: SpatialIndex<D>> {
    index: &'a I,
    query: Point<D>,
    /// Sqrt-free key domain of the metric: heap keys are squared distances
    /// under Euclidean, converted back once per reported neighbour.
    keys: KeySpace,
    heap: BinaryHeap<Elem<D>>,
    seq: u64,
    /// Reusable node buffer: expansions stream pages into it instead of
    /// allocating a fresh entry vector per read.
    node_scratch: IndexNode<D>,
    /// Struct-of-arrays copy of the scratch node's entry rectangles — the
    /// operand of the batched point-MINDIST kernel.
    soa: SoaRects<D>,
    /// Key output column of the batched kernel, reused across expansions.
    keys_buf: Vec<f64>,
    error: Option<StorageError>,
}

impl<'a, const D: usize, I: SpatialIndex<D>> IndexNearestNeighbors<'a, D, I> {
    /// Starts a search from `query`.
    #[must_use]
    pub fn new(index: &'a I, query: Point<D>, metric: Metric) -> Self {
        let mut nn = Self {
            index,
            query,
            keys: KeySpace::squared(metric),
            heap: BinaryHeap::new(),
            seq: 0,
            node_scratch: IndexNode::empty(),
            soa: SoaRects::new(),
            keys_buf: Vec::new(),
            error: None,
        };
        if !index.is_empty() {
            nn.push(OrdF64::ZERO, QueueItem::Node(index.root_id()));
        }
        nn
    }

    fn push(&mut self, key: OrdF64, item: QueueItem<D>) {
        let object_first = matches!(item, QueueItem::Object(..));
        self.heap.push(Elem {
            key,
            object_first,
            seq: self.seq,
            item,
        });
        self.seq += 1;
    }

    /// Takes a pending error, if iteration stopped because of one.
    pub fn take_error(&mut self) -> Option<StorageError> {
        self.error.take()
    }

    fn step(&mut self) -> sdj_storage::Result<Option<IndexNeighbor<D>>> {
        while let Some(elem) = self.heap.pop() {
            match elem.item {
                QueueItem::Object(oid, mbr) => {
                    return Ok(Some(IndexNeighbor {
                        oid,
                        mbr,
                        // The only key → distance conversion: one sqrt per
                        // reported neighbour under the squared domain.
                        distance: self.keys.to_distance(elem.key.get()),
                    }));
                }
                QueueItem::Node(id) => {
                    // Stream the page into the reusable scratch buffers,
                    // then key all children in one batched kernel pass.
                    let mut node = std::mem::take(&mut self.node_scratch);
                    let mut soa = std::mem::take(&mut self.soa);
                    let mut kbuf = std::mem::take(&mut self.keys_buf);
                    let read = self.index.read_node_into(id, &mut node);
                    if read.is_ok() {
                        soa.clear();
                        soa.extend(node.entries.iter().map(IndexEntry::rect));
                        kbuf.clear();
                        soa.point_mindist_keys(self.keys, &self.query, 0..soa.len(), &mut kbuf);
                        for (entry, &k) in node.entries.iter().zip(&kbuf) {
                            let item = match entry {
                                IndexEntry::Object { oid, mbr } => QueueItem::Object(*oid, *mbr),
                                IndexEntry::Child { id, .. } => QueueItem::Node(*id),
                            };
                            self.push(OrdF64::new(k), item);
                        }
                    }
                    self.node_scratch = node;
                    self.soa = soa;
                    self.keys_buf = kbuf;
                    read?;
                }
            }
        }
        Ok(None)
    }
}

impl<const D: usize, I: SpatialIndex<D>> Iterator for IndexNearestNeighbors<'_, D, I> {
    type Item = IndexNeighbor<D>;

    fn next(&mut self) -> Option<IndexNeighbor<D>> {
        match self.step() {
            Ok(n) => n,
            Err(e) => {
                self.error = Some(e);
                None
            }
        }
    }
}

/// Convenience: starts a nearest-neighbour scan over any spatial index.
#[must_use]
pub fn nearest_neighbors<const D: usize, I: SpatialIndex<D>>(
    index: &I,
    query: Point<D>,
    metric: Metric,
) -> IndexNearestNeighbors<'_, D, I> {
    IndexNearestNeighbors::new(index, query, metric)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdj_rtree::{RTree, RTreeConfig};

    #[test]
    fn generic_nn_over_rtree_matches_specialised() {
        let mut tree = RTree::new(RTreeConfig::small(5));
        let pts: Vec<Point<2>> = (0..150)
            .map(|i| Point::xy(((i * 37) % 101) as f64, ((i * 73) % 89) as f64))
            .collect();
        for (i, p) in pts.iter().enumerate() {
            tree.insert(ObjectId(i as u64), p.to_rect()).unwrap();
        }
        let q = Point::xy(42.0, 17.0);
        let generic: Vec<f64> = nearest_neighbors(&tree, q, Metric::Euclidean)
            .take(40)
            .map(|n| n.distance)
            .collect();
        let specialised: Vec<f64> = tree
            .nearest_neighbors(q, Metric::Euclidean)
            .take(40)
            .map(|n| n.distance)
            .collect();
        assert_eq!(generic, specialised);
    }

    #[test]
    fn empty_index_yields_nothing() {
        let tree: RTree<2> = RTree::new(RTreeConfig::small(4));
        assert_eq!(
            nearest_neighbors(&tree, Point::xy(0.0, 0.0), Metric::Euclidean).count(),
            0
        );
    }
}
