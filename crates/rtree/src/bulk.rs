//! Sort-Tile-Recursive (STR) bulk loading.
//!
//! Packs a static data set into a tree bottom-up: entries are sorted by
//! center along axis 0, tiled into slabs, each slab sorted along the next
//! axis, and so on; runs of `capacity` entries become nodes. Loading is much
//! faster than repeated insertion and yields well-clustered leaves (the
//! paper's trees are insertion-built; benches use bulk loading only where
//! tree construction is not the quantity being measured).
//!
//! Every node but the root keeps the R* minimum fill, as an insertion-built
//! tree's do: a last slab too small for a node joins the slab before it, and
//! a last node under the minimum shares the entries of the node before it.
//! The join's §2.2.4 estimator counts a subtree's objects from that minimum
//! (`RTree::min_subtree_objects`); an underfull leaf let it prove pairs that
//! do not exist and prune results.

use sdj_geom::Rect;

use crate::config::RTreeConfig;
use crate::entry::{Entry, ObjectId};
use crate::node::Node;
use crate::tree::RTree;

impl<const D: usize> RTree<D> {
    /// Builds a tree from `(id, mbr)` pairs using STR packing.
    ///
    /// # Panics
    /// Panics if any MBR is empty or non-finite.
    #[must_use]
    pub fn bulk_load(config: RTreeConfig, items: Vec<(ObjectId, Rect<D>)>) -> Self {
        let mut tree = RTree::new(config);
        if items.is_empty() {
            return tree;
        }
        for (_, mbr) in &items {
            assert!(mbr.is_finite(), "object MBR must be finite and non-empty");
        }
        let capacity = tree.max_entries();
        let min = tree.min_entries();
        let len = items.len();

        // Pack leaf entries into leaf nodes.
        let entries: Vec<Entry<D>> = items
            .into_iter()
            .map(|(oid, mbr)| Entry::object(mbr, oid))
            .collect();
        let mut level: u8 = 0;
        let mut current: Vec<Entry<D>> = entries;
        loop {
            let groups = str_tile(current, capacity, min, 0);
            let mut parent_entries: Vec<Entry<D>> = Vec::with_capacity(groups.len());
            let single = groups.len() == 1;
            for group in groups {
                let node = Node {
                    level,
                    entries: group,
                };
                let mbr = node.mbr();
                let page = tree.allocate_page();
                tree.write_node(page, &node).expect("bulk node fits page");
                parent_entries.push(Entry::child(mbr, page));
            }
            if single {
                // The only group became the root.
                let root = parent_entries[0].child_page();
                tree.set_shape(root, level + 1, len);
                break;
            }
            current = parent_entries;
            level += 1;
        }
        tree
    }
}

/// Recursively tiles `entries` into groups of at most `capacity`, sorted by
/// MBR center along `axis`, then sub-tiled along the following axes. When
/// `entries` fills more than one group, each holds at least `min`.
fn str_tile<const D: usize>(
    mut entries: Vec<Entry<D>>,
    capacity: usize,
    min: usize,
    axis: usize,
) -> Vec<Vec<Entry<D>>> {
    if entries.len() <= capacity {
        return vec![entries];
    }
    entries.sort_by(|a, b| {
        a.mbr
            .center()
            .coord(axis)
            .partial_cmp(&b.mbr.center().coord(axis))
            .expect("finite centers")
    });
    if axis + 1 == D {
        let mut groups = chunk(entries, capacity);
        if let [.., prev, last] = groups.as_mut_slice() {
            if last.len() < min {
                // `capacity + last.len()` entries, at least `2 · min` since
                // the R* minimum is at most half the capacity: two halves.
                prev.append(last);
                *last = prev.split_off(prev.len() / 2);
            }
        }
        return groups;
    }
    // Number of capacity-sized pages this set needs, spread over the
    // remaining axes: S = ceil(P^(1/r)) slabs on this axis, each sized to
    // hold S^(r-1) full pages (the canonical STR tiling).
    let pages = entries.len().div_ceil(capacity);
    let remaining = D - axis;
    let slabs = (pages as f64).powf(1.0 / remaining as f64).ceil() as usize;
    let per_slab = slabs.pow(remaining as u32 - 1) * capacity;
    let mut slabs = chunk(entries, per_slab);
    if let [.., prev, last] = slabs.as_mut_slice() {
        if last.len() < min {
            prev.append(last);
            slabs.pop();
        }
    }
    let mut out = Vec::new();
    for slab in slabs {
        out.extend(str_tile(slab, capacity, min, axis + 1));
    }
    out
}

fn chunk<T>(items: Vec<T>, size: usize) -> Vec<Vec<T>> {
    let mut out = Vec::with_capacity(items.len().div_ceil(size));
    let mut it = items.into_iter();
    loop {
        let group: Vec<T> = it.by_ref().take(size).collect();
        if group.is_empty() {
            break;
        }
        out.push(group);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdj_geom::{Metric, Point};

    fn points(n: usize) -> Vec<(ObjectId, Rect<2>)> {
        (0..n)
            .map(|i| {
                // Low-discrepancy-ish scatter.
                let x = (i as f64 * 0.754_877_666_247).fract() * 100.0;
                let y = (i as f64 * 0.569_840_290_998).fract() * 100.0;
                (ObjectId(i as u64), Point::xy(x, y).to_rect())
            })
            .collect()
    }

    #[test]
    fn bulk_load_roundtrip() {
        let tree = RTree::bulk_load(RTreeConfig::small(8), points(1000));
        assert_eq!(tree.len(), 1000);
        let mut ids: Vec<u64> = tree
            .all_objects()
            .unwrap()
            .iter()
            .map(|(o, _)| o.0)
            .collect();
        ids.sort_unstable();
        assert_eq!(ids.len(), 1000);
        assert_eq!(ids[0], 0);
        assert_eq!(ids[999], 999);
    }

    #[test]
    fn bulk_load_structure_is_packed() {
        let tree = RTree::bulk_load(RTreeConfig::small(10), points(1000));
        // 1000 objects at fan-out 10: 100 leaves, 10 internals, 1 root.
        assert_eq!(tree.height(), 3);
    }

    #[test]
    fn bulk_load_empty_and_single() {
        let tree = RTree::<2>::bulk_load(RTreeConfig::small(4), vec![]);
        assert!(tree.is_empty());
        tree.validate().unwrap();

        let tree = RTree::bulk_load(
            RTreeConfig::small(4),
            vec![(ObjectId(9), Point::xy(1.0, 2.0).to_rect())],
        );
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.height(), 1);
        tree.validate().unwrap();
    }

    #[test]
    fn bulk_load_queries_match_insertion_build() {
        let items = points(500);
        let bulk = RTree::bulk_load(RTreeConfig::small(8), items.clone());
        let mut ins = RTree::new(RTreeConfig::small(8));
        for (oid, mbr) in &items {
            ins.insert(*oid, *mbr).unwrap();
        }
        let window = Rect::new([20.0, 20.0], [60.0, 45.0]);
        let mut a: Vec<u64> = bulk
            .query_window(&window)
            .unwrap()
            .iter()
            .map(|(o, _)| o.0)
            .collect();
        let mut b: Vec<u64> = ins
            .query_window(&window)
            .unwrap()
            .iter()
            .map(|(o, _)| o.0)
            .collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn bulk_load_nn_agrees_with_scan() {
        let items = points(400);
        let tree = RTree::bulk_load(RTreeConfig::small(8), items.clone());
        let q = Point::xy(33.0, 66.0);
        let first = tree.nearest_neighbors(q, Metric::Euclidean).next().unwrap();
        let best = items
            .iter()
            .map(|(_, r)| Metric::Euclidean.mindist_point_rect(&q, r))
            .fold(f64::INFINITY, f64::min);
        assert!((first.distance - best).abs() < 1e-9);
    }

    /// Every node but the root holds the R* minimum: `validate` checks it,
    /// with minimal MBRs and the object count, at sizes that leave a short
    /// last slab, a short last node, or both.
    #[test]
    fn bulk_loaded_trees_keep_the_minimum_fill() {
        for fanout in [4, 6, 10] {
            for n in (1..=400).chain([999, 1000, 1001, 2005, 2237]) {
                let tree = RTree::bulk_load(RTreeConfig::small(fanout), points(n));
                tree.validate()
                    .unwrap_or_else(|e| panic!("fan-out {fanout}, {n} objects: {e}"));
            }
        }
    }

    #[test]
    fn bulk_tree_mbr_containment_holds() {
        let tree = RTree::bulk_load(RTreeConfig::small(6), points(300));
        let root = tree.read_node(tree.root_id()).unwrap();
        let mut stack = vec![(tree.root_id(), root)];
        while let Some((_, node)) = stack.pop() {
            for e in &node.entries {
                if !node.is_leaf() {
                    let child = tree.read_node(e.child_page()).unwrap();
                    assert!(e.mbr.contains_rect(&child.mbr()));
                    stack.push((e.child_page(), child));
                }
            }
        }
    }
}
