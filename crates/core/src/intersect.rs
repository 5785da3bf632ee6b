//! The §2.2.5 secondary-ordering extension: an intersection join whose
//! results stream out ordered by their distance from a *focus* point.
//!
//! "We may wish to find the intersections of roads and rivers in order of
//! distance from a given house. … for the special case of finding
//! intersections, the distance functions could return ∞ for nonintersecting
//! pairs, but for intersecting pairs, the functions would return some
//! ordering value (such as the distance from the house)."
//!
//! That is exactly the implementation here: pairs whose rectangles do not
//! intersect are discarded outright (the ∞ case); surviving pairs are keyed
//! by the MINDIST from the focus to the *intersection* of their rectangles.
//! Consistency holds because a child pair's intersection region is contained
//! in its parent's, so keys never decrease down the tree.
//!
//! The ordering value is exact for objects stored directly in the leaves
//! (points and rectangles: the reported distance is from the focus to the
//! nearest point of the objects' common region). Extended objects would
//! need an oracle producing intersection geometry; their MBR-based ordering
//! value is still a valid lower bound.

use sdj_geom::{KeySpace, Metric, Point, SoaRects};
use sdj_rtree::ObjectId;
use sdj_storage::StorageError;

use crate::config::{QueueBackend, QueueLayout};
use crate::index::{IndexEntry, IndexNode, SpatialIndex};
use crate::pair::{Item, Pair, PairKey, TiePolicy};
use crate::queue::JoinQueue;

/// One result of the ordered intersection join.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IntersectionPair {
    /// Object from the first relation.
    pub oid1: ObjectId,
    /// Object from the second relation.
    pub oid2: ObjectId,
    /// Distance from the focus point to the pair's common region.
    pub distance_from_focus: f64,
}

/// Incremental intersection join ordered by distance from a focus point.
pub struct OrderedIntersectionJoin<'a, const D: usize, I1, I2>
where
    I1: SpatialIndex<D>,
    I2: SpatialIndex<D>,
{
    tree1: &'a I1,
    tree2: &'a I2,
    focus: Point<D>,
    /// Sqrt-free key domain of the ordering metric: queue keys are squared
    /// focus distances under Euclidean, and the single `sqrt` per result is
    /// paid when the pair is reported.
    keys: KeySpace,
    /// The distance join's queue and key scheme, reused: keys order by the
    /// focus distance of the common region, with the shared depth-first tie
    /// rank (object pairs ahead of node pairs, deeper nodes first).
    queue: JoinQueue<D>,
    /// Reusable node buffer: expansions stream pages into it instead of
    /// allocating a fresh entry vector per read.
    node_scratch: IndexNode<D>,
    /// Struct-of-arrays copy of the scratch node's entry rectangles — the
    /// operand of the batched focus-intersection kernel.
    soa: SoaRects<D>,
    /// Key output column of the batched kernel, reused across expansions.
    keys_buf: Vec<f64>,
    error: Option<StorageError>,
}

impl<'a, const D: usize, I1, I2> OrderedIntersectionJoin<'a, D, I1, I2>
where
    I1: SpatialIndex<D>,
    I2: SpatialIndex<D>,
{
    /// Starts the join: intersecting `(o1, o2)` pairs, nearest to `focus`
    /// first.
    #[must_use]
    pub fn new(tree1: &'a I1, tree2: &'a I2, focus: Point<D>, metric: Metric) -> Self {
        let keys = KeySpace::squared(metric);
        let mut join = Self {
            tree1,
            tree2,
            focus,
            keys,
            queue: JoinQueue::new(&QueueBackend::Memory, QueueLayout::default(), keys),
            node_scratch: IndexNode::empty(),
            soa: SoaRects::new(),
            keys_buf: Vec::new(),
            error: None,
        };
        join.seed();
        join
    }

    fn seed(&mut self) {
        if self.tree1.is_empty() || self.tree2.is_empty() {
            return;
        }
        let roots = (|| -> sdj_storage::Result<Pair<D>> {
            Ok(Pair::new(
                Item::Node {
                    page: self.tree1.root_id(),
                    level: self.tree1.root_level(),
                    mbr: self.tree1.root_region()?,
                },
                Item::Node {
                    page: self.tree2.root_id(),
                    level: self.tree2.root_level(),
                    mbr: self.tree2.root_region()?,
                },
            ))
        })();
        if let Err(e) = roots.and_then(|pair| self.consider(pair)) {
            self.error = Some(e);
        }
    }

    /// Takes a pending I/O error, if iteration stopped because of one.
    pub fn take_error(&mut self) -> Option<StorageError> {
        self.error.take()
    }

    /// Discards non-intersecting pairs (the "∞" case) and enqueues the rest
    /// keyed by the focus distance of their common region.
    fn consider(&mut self, pair: Pair<D>) -> sdj_storage::Result<()> {
        let common = pair.item1.rect().intersection(pair.item2.rect());
        if common.is_empty() {
            return Ok(());
        }
        let k = self.keys.mindist_point_rect(&self.focus, &common);
        let key = PairKey::new(k, &pair, TiePolicy::DepthFirst);
        self.queue.push(key, pair)
    }

    fn expand(&mut self, pair: &Pair<D>, first_side: bool) -> sdj_storage::Result<()> {
        let (node_item, other) = if first_side {
            (&pair.item1, pair.item2)
        } else {
            (&pair.item2, pair.item1)
        };
        let Item::Node { page, .. } = *node_item else {
            unreachable!("expand on a non-node item")
        };
        // Stream the page into the reusable scratch buffers, then compute
        // every child's key — MINDIST from the focus to the child ∩ other
        // intersection, +inf when disjoint — in one batched kernel pass.
        let mut node = std::mem::take(&mut self.node_scratch);
        let mut soa = std::mem::take(&mut self.soa);
        let mut kbuf = std::mem::take(&mut self.keys_buf);
        let mut read = if first_side {
            self.tree1.read_node_into(page, &mut node)
        } else {
            self.tree2.read_node_into(page, &mut node)
        };
        if read.is_ok() {
            soa.clear();
            soa.extend(node.entries.iter().map(IndexEntry::rect));
            kbuf.clear();
            soa.focus_intersection_keys(
                self.keys,
                other.rect(),
                &self.focus,
                0..soa.len(),
                &mut kbuf,
            );
            for (entry, &k) in node.entries.iter().zip(&kbuf) {
                if !k.is_finite() {
                    continue;
                }
                let child = match entry {
                    crate::index::IndexEntry::Object { oid, mbr } => Item::Obr {
                        oid: *oid,
                        mbr: *mbr,
                    },
                    crate::index::IndexEntry::Child { id, level, region } => Item::Node {
                        page: *id,
                        level: *level,
                        mbr: *region,
                    },
                };
                let child_pair = if first_side {
                    Pair::new(child, other)
                } else {
                    Pair::new(other, child)
                };
                let key = PairKey::new(k, &child_pair, TiePolicy::DepthFirst);
                if let Err(e) = self.queue.push(key, child_pair) {
                    read = Err(e);
                    break;
                }
            }
        }
        self.node_scratch = node;
        self.soa = soa;
        self.keys_buf = kbuf;
        read
    }

    fn step(&mut self) -> sdj_storage::Result<Option<IntersectionPair>> {
        while let Some((key, pair)) = self.queue.pop()? {
            if pair.is_final(true) {
                // Same fail-clean contract as the distance join: a
                // kind-confused decode surfaces as a typed error.
                let corrupt = StorageError::Corrupt("final pair holds a node-kind item");
                return Ok(Some(IntersectionPair {
                    oid1: pair.item1.object_id().ok_or(corrupt.clone())?,
                    oid2: pair.item2.object_id().ok_or(corrupt)?,
                    // The only key → distance conversion: one sqrt per
                    // reported pair under the squared Euclidean domain.
                    distance_from_focus: self.keys.to_distance(key.dist.get()),
                }));
            }
            // Expand the shallower node (even traversal); node/obr pairs
            // expand their node side.
            match (pair.item1.node_level(), pair.item2.node_level()) {
                (Some(l1), Some(l2)) => self.expand(&pair, l1 >= l2)?,
                (Some(_), None) => self.expand(&pair, true)?,
                (None, Some(_)) => self.expand(&pair, false)?,
                (None, None) => {
                    return Err(StorageError::Corrupt(
                        "pair kind combination impossible for an intact queue",
                    ))
                }
            }
        }
        Ok(None)
    }
}

impl<const D: usize, I1, I2> Iterator for OrderedIntersectionJoin<'_, D, I1, I2>
where
    I1: SpatialIndex<D>,
    I2: SpatialIndex<D>,
{
    type Item = IntersectionPair;

    fn next(&mut self) -> Option<IntersectionPair> {
        match self.step() {
            Ok(r) => r,
            Err(e) => {
                self.error = Some(e);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdj_geom::Rect;
    use sdj_rtree::{RTree, RTreeConfig};

    fn rect_tree(rects: &[Rect<2>]) -> RTree<2> {
        let mut t = RTree::new(RTreeConfig::small(4));
        for (i, r) in rects.iter().enumerate() {
            t.insert(ObjectId(i as u64), *r).unwrap();
        }
        t
    }

    fn grid_rects(n: usize, size: f64, stride: f64, offset: f64) -> Vec<Rect<2>> {
        let side = (n as f64).sqrt().ceil() as usize;
        (0..n)
            .map(|i| {
                let x = (i % side) as f64 * stride + offset;
                let y = (i / side) as f64 * stride + offset;
                Rect::new([x, y], [x + size, y + size])
            })
            .collect()
    }

    #[test]
    fn matches_bruteforce_ordering() {
        // Two overlapping rectangle grids; intersections ordered by focus
        // distance.
        let a = grid_rects(49, 1.2, 1.0, 0.0);
        let b = grid_rects(64, 0.8, 0.9, 0.3);
        let t1 = rect_tree(&a);
        let t2 = rect_tree(&b);
        let focus = Point::xy(3.5, 3.5);

        let got: Vec<(u64, u64, f64)> =
            OrderedIntersectionJoin::new(&t1, &t2, focus, Metric::Euclidean)
                .map(|p| (p.oid1.0, p.oid2.0, p.distance_from_focus))
                .collect();

        let mut want: Vec<(u64, u64, f64)> = Vec::new();
        for (i, r) in a.iter().enumerate() {
            for (j, s) in b.iter().enumerate() {
                let common = r.intersection(s);
                if !common.is_empty() {
                    want.push((
                        i as u64,
                        j as u64,
                        Metric::Euclidean.mindist_point_rect(&focus, &common),
                    ));
                }
            }
        }
        want.sort_by(|x, y| x.2.partial_cmp(&y.2).unwrap());

        assert_eq!(got.len(), want.len(), "every intersecting pair reported");
        for (g, w) in got.iter().zip(&want) {
            assert!((g.2 - w.2).abs() < 1e-9);
        }
        // All reported pairs really intersect.
        for (i, j, _) in &got {
            assert!(a[*i as usize].intersects(&b[*j as usize]));
        }
    }

    #[test]
    fn point_data_reports_coincident_points() {
        let pts_a = [
            Point::xy(1.0, 1.0),
            Point::xy(5.0, 5.0),
            Point::xy(9.0, 9.0),
        ];
        let pts_b = [
            Point::xy(5.0, 5.0),
            Point::xy(9.0, 9.0),
            Point::xy(2.0, 2.0),
        ];
        let t1 = rect_tree(&pts_a.map(|p| p.to_rect()));
        let t2 = rect_tree(&pts_b.map(|p| p.to_rect()));
        let focus = Point::xy(10.0, 10.0);
        let got: Vec<IntersectionPair> =
            OrderedIntersectionJoin::new(&t1, &t2, focus, Metric::Euclidean).collect();
        // Coincident pairs: (5,5) and (9,9); (9,9) is nearer to the focus.
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].oid1, ObjectId(2));
        assert_eq!(got[0].oid2, ObjectId(1));
        assert!(got[0].distance_from_focus < got[1].distance_from_focus);
    }

    #[test]
    fn empty_when_nothing_intersects() {
        let a = grid_rects(9, 0.1, 1.0, 0.0);
        let b = grid_rects(9, 0.1, 1.0, 0.5);
        let t1 = rect_tree(&a);
        let t2 = rect_tree(&b);
        assert_eq!(
            OrderedIntersectionJoin::new(&t1, &t2, Point::xy(0.0, 0.0), Metric::Euclidean).count(),
            0
        );
    }

    #[test]
    fn empty_inputs() {
        let t1: RTree<2> = RTree::new(RTreeConfig::small(4));
        let t2 = rect_tree(&[Rect::new([0.0, 0.0], [1.0, 1.0])]);
        assert_eq!(
            OrderedIntersectionJoin::new(&t1, &t2, Point::xy(0.0, 0.0), Metric::Euclidean).count(),
            0
        );
    }
}
