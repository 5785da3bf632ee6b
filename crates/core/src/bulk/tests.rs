//! Unit tests of the bulk path: agreement with the incremental engine,
//! assignment to one cell, and the emission order of hits.

use super::*;
use crate::join::DistanceJoin;
use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};
use sdj_geom::{OrdF64, Point};
use sdj_rtree::{RTree, RTreeConfig};

fn tree_of(points: &[(f64, f64)]) -> RTree<2> {
    let mut tree = RTree::new(RTreeConfig::small(4));
    for (i, &(x, y)) in points.iter().enumerate() {
        tree.insert(ObjectId(i as u64), Point::xy(x, y).to_rect())
            .unwrap();
    }
    tree
}

fn grid_points(n: usize) -> Vec<(f64, f64)> {
    (0..n).map(|i| ((i % 8) as f64, (i / 8) as f64)).collect()
}

fn canon(mut v: Vec<ResultPair>) -> Vec<(u64, u64, u64)> {
    let mut out: Vec<(u64, u64, u64)> = v
        .drain(..)
        .map(|r| (r.distance.to_bits(), r.oid1.0, r.oid2.0))
        .collect();
    out.sort_unstable();
    out
}

#[test]
fn bulk_matches_incremental_on_a_grid() {
    let t1 = tree_of(&grid_points(64));
    let t2 = tree_of(&grid_points(64));
    let config = JoinConfig::default().with_range(0.0, 2.5);
    let incremental: Vec<ResultPair> = DistanceJoin::new(&t1, &t2, config).collect();
    let mut bulk = BulkDistanceJoin::new(&t1, &t2, config).unwrap();
    let got = bulk.run();
    assert_eq!(canon(incremental), canon(got));
    assert!(bulk.bulk_stats().cell_pairs_swept >= 1);
}

#[test]
fn ordered_run_reports_identical_distances() {
    let t1 = tree_of(&grid_points(48));
    let t2 = tree_of(&grid_points(40));
    let config = JoinConfig::default().with_range(0.5, 3.0);
    let incremental: Vec<ResultPair> = DistanceJoin::new(&t1, &t2, config).collect();
    let mut bulk = BulkDistanceJoin::new(&t1, &t2, config).unwrap();
    let got = bulk.run();
    assert_eq!(incremental.len(), got.len());
    for (a, b) in incremental.iter().zip(&got) {
        assert_eq!(a.distance.to_bits(), b.distance.to_bits());
    }
    assert_eq!(canon(incremental), canon(got));
}

fn tree_of_boxes(points: &[(f64, f64)], half: f64) -> RTree<2> {
    let mut tree = RTree::new(RTreeConfig::small(4));
    for (i, &(x, y)) in points.iter().enumerate() {
        let r = Rect::new([x - half, y - half], [x + half, y + half]);
        tree.insert(ObjectId(i as u64), r).unwrap();
    }
    tree
}

/// A forced-width bulk run over `t1 × t2`, checked against the
/// incremental engine: the same multiset with bit-equal distances, each
/// left entry placed in exactly one cell, and no pair reported twice.
fn assert_assigned_once(t1: &RTree<2>, t2: &RTree<2>, config: JoinConfig, width: f64) {
    let incremental: Vec<ResultPair> = DistanceJoin::new(t1, t2, config).collect();
    let cells = BulkConfig {
        cell_width: Some(width),
        ..BulkConfig::default()
    };
    let mut bulk = BulkDistanceJoin::with_bulk_config(t1, t2, config, cells).unwrap();
    let got = bulk.run();
    let mut ids: Vec<(u64, u64)> = got.iter().map(|r| (r.oid1.0, r.oid2.0)).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), got.len(), "a pair was reported twice");
    assert_eq!(canon(incremental), canon(got), "width {width}");
    assert_eq!(bulk.bulk_stats().replicated1, t1.len() as u64);
    assert_eq!(bulk.bulk_stats().pairs_deduped, 0);
}

#[test]
fn forced_tiny_cells_assign_each_left_entry_once() {
    // Extended MBRs straddle the (deliberately tiny) cells; each left
    // entry still lives in the one cell holding its `lo` corner.
    let t1 = tree_of_boxes(&grid_points(64), 0.45);
    let t2 = tree_of(&grid_points(64));
    assert_assigned_once(&t1, &t2, JoinConfig::default().with_range(0.0, 1.5), 0.6);
}

#[test]
fn a_left_entry_wider_than_a_cell_moves_to_a_coarser_level() {
    // One left rectangle covers the whole data set: it lands on a level
    // of one cell, where each right entry takes one more replica, and
    // leaves the right entries' ranges on the fine grid as they were.
    let points = grid_points(64);
    let t2 = tree_of(&points);
    let config = JoinConfig::default().with_range(0.0, 1.5);
    let cells = BulkConfig {
        cell_width: Some(0.6),
        ..BulkConfig::default()
    };
    let replicas = |t1: &RTree<2>| {
        let bulk = BulkDistanceJoin::with_bulk_config(t1, &t2, config, cells).unwrap();
        bulk.bulk_stats().replicated2
    };
    let mut t1 = tree_of(&points);
    let alone = replicas(&t1);
    t1.insert(ObjectId(64), Rect::new([0.0, 0.0], [7.0, 7.0]))
        .unwrap();
    assert_eq!(replicas(&t1), alone + t2.len() as u64);
    assert_assigned_once(&t1, &t2, config, 0.6);
}

#[test]
fn pairs_at_exactly_dmax_are_met_across_cell_edges() {
    let keys = KeySpace::squared(sdj_geom::Metric::Euclidean);
    let at = |x: f64, y: f64| Rect::new([x, y], [x, y]);
    // `L1.lo` has an odd mantissa, so a right point `x` just above 0 can
    // have a gap that rounds down to its reported distance `d` and an
    // `x + d` that rounds below `L1.lo`, while the pair's key passes the
    // `Dmax = d` filter: the replication radius must be padded past `d`.
    let l1 = Rect::new([1.0f64.next_up(), 0.1], [1.001, 0.101]);
    let x = (1..64)
        .map(|i| f64::from(i) * 2f64.powi(-54))
        .find(|&x| {
            let key = keys.mindist_rect_rect(&l1, &at(x, 0.1));
            let d = keys.to_distance(key);
            x + d < l1.lo()[0] && key <= keys.range_keys(0.0, d).1
        })
        .expect("some gap rounds down to a distance that falls short of it");
    let d = keys.to_distance(keys.mindist_rect_rect(&l1, &at(x, 0.1)));
    // `L2` spans many cells, so it sits on a coarser level of the grid.
    // Right points sit at exactly `d` from it on both axes (right of
    // `L2.hi` needs `E`), and the anchor at the origin and `(2, _)` fix
    // the bounding box to `[0, 2] × [0, 1.8]`.
    let l2 = Rect::new([0.25, 0.5], [0.75, 0.8]);
    let left = [l1, l2, at(0.0, 0.1)];
    let right = [
        at(x, 0.1),
        at(2.0, 0.1),
        at(0.75 + d, 0.6),
        at(0.5, 0.8 + d),
    ];
    let bbox = left
        .iter()
        .chain(&right)
        .fold(Rect::empty(), |b, r| b.union(r));
    // A forced width whose grid puts a cell edge between `x + d` and
    // `L1.lo`, with cells wide enough to keep `L1` on that grid.
    let width = (1..=512)
        .map(|n| 2.0 / f64::from(n))
        .find(|&w| {
            let grid = Grid::<2>::build(&bbox, w);
            grid.cell_axis(0, x + d) < grid.cell_axis(0, l1.lo()[0])
                && (0..2).all(|a| l1.extent(a) <= grid.width[a])
        })
        .expect("some grid splits `x + d` from `L1.lo`");
    let build = |rects: &[Rect<2>]| {
        let mut tree = RTree::new(RTreeConfig::small(4));
        for (i, r) in rects.iter().enumerate() {
            tree.insert(ObjectId(i as u64), *r).unwrap();
        }
        tree
    };
    let (t1, t2) = (build(&left), build(&right));
    let config = JoinConfig::default().with_range(0.0, d);
    let incremental: Vec<ResultPair> = DistanceJoin::new(&t1, &t2, config).collect();
    for pair in [(0, 0), (1, 2), (1, 3)] {
        assert!(
            incremental.iter().any(|r| (r.oid1.0, r.oid2.0) == pair),
            "{pair:?} is not at distance ≤ {d}"
        );
    }
    for width in [width, 0.125, 0.25] {
        assert_assigned_once(&t1, &t2, config, width);
    }
}

#[test]
fn a_key_that_underflows_to_zero_still_meets_its_partner() {
    // The gap 1e-170 squares to 0, so `Dmax = 0` keeps the pair
    // (reported at distance 0) across 100 cells of width 1e-172.
    let t1 = tree_of(&[(1e-170, 0.0)]);
    let t2 = tree_of(&[(0.0, 0.0)]);
    let config = JoinConfig::default().with_range(0.0, 0.0);
    assert_eq!(DistanceJoin::new(&t1, &t2, config).count(), 1);
    assert_assigned_once(&t1, &t2, config, 1e-172);
}

#[test]
fn unbounded_dmax_degenerates_to_one_cell() {
    let t1 = tree_of(&grid_points(16));
    let t2 = tree_of(&grid_points(16));
    let mut bulk = BulkDistanceJoin::new(&t1, &t2, JoinConfig::default()).unwrap();
    assert_eq!(bulk.grid_dims(), [1, 1]);
    let got = bulk.run();
    assert_eq!(got.len(), 16 * 16);
}

#[test]
fn max_pairs_truncates_the_ordered_stream() {
    let t1 = tree_of(&grid_points(32));
    let t2 = tree_of(&grid_points(32));
    let config = JoinConfig::default().with_max_pairs(10);
    let incremental: Vec<ResultPair> = DistanceJoin::new(&t1, &t2, config).collect();
    let mut bulk = BulkDistanceJoin::new(&t1, &t2, config).unwrap();
    let got = bulk.run();
    assert_eq!(got.len(), 10);
    for (a, b) in incremental.iter().zip(&got) {
        assert_eq!(a.distance.to_bits(), b.distance.to_bits());
    }
}

#[test]
fn empty_side_yields_no_results() {
    let t1 = tree_of(&grid_points(8));
    let t2: RTree<2> = RTree::new(RTreeConfig::small(4));
    let mut bulk = BulkDistanceJoin::new(&t1, &t2, JoinConfig::default()).unwrap();
    assert!(bulk.run().is_empty());
    assert_eq!(bulk.stats().pairs_reported, 0);
}

/// `(key, oid1, oid2)` triples as one sorted run of direction `mask`, the
/// way a sweep worker sorts its hits.
fn run_of(mask: u64, hits: &[(f64, u64, u64)]) -> Vec<BulkHit> {
    let mut run: Vec<BulkHit> = hits
        .iter()
        .map(|&(k, a, b)| BulkHit::new(k, ObjectId(a), ObjectId(b), mask))
        .collect();
    run.sort_unstable();
    run
}

/// Hits back as `(key, oid1, oid2)` triples.
fn triples(mask: u64, hits: &[BulkHit]) -> Vec<(f64, u64, u64)> {
    hits.iter()
        .map(|h| (h.key(mask), h.oid1.0, h.oid2.0))
        .collect()
}

#[test]
fn merge_sorted_runs_is_a_total_order_merge() {
    let up = direction_mask(ResultOrder::Ascending);
    let down = direction_mask(ResultOrder::Descending);
    let runs = vec![
        run_of(up, &[(0.5, 0, 0), (2.0, 2, 0), (3.5, 3, 0)]),
        run_of(up, &[(1.0, 1, 0), (1.5, 4, 0)]),
        run_of(up, &[]),
    ];
    assert_eq!(
        triples(up, &merge_sorted_runs(runs, None)),
        [
            (0.5, 0, 0),
            (1.0, 1, 0),
            (1.5, 4, 0),
            (2.0, 2, 0),
            (3.5, 3, 0)
        ]
    );

    // One tie group at key 1.0 spread over three runs.
    let hits = [
        (1.0, 3, 1),
        (1.0, 1, 2),
        (1.0, 2, 0),
        (1.0, 1, 0),
        (0.5, 9, 9),
        (2.0, 0, 0),
    ];
    let spread = |mask| {
        vec![
            run_of(mask, &[hits[0], hits[3], hits[5]]),
            run_of(mask, &[hits[1], hits[4]]),
            run_of(mask, &[hits[2]]),
        ]
    };
    let ties = [(1.0, 1, 0), (1.0, 1, 2), (1.0, 2, 0), (1.0, 3, 1)];
    for (mask, first, last) in [
        (up, (0.5, 9, 9), (2.0, 0, 0)),
        (down, (2.0, 0, 0), (0.5, 9, 9)),
    ] {
        // Ties come out in `(oid1, oid2)` order across runs, ascending in
        // both directions, and the merge is the sort of all hits.
        let mut want = vec![first];
        want.extend(ties);
        want.push(last);
        let merged = merge_sorted_runs(spread(mask), None);
        assert_eq!(triples(mask, &merged), want);
        let mut all: Vec<BulkHit> = spread(mask).concat();
        all.sort_unstable();
        assert_eq!(merged, all);
        // A `max_pairs` cut inside the tie group keeps its id-first members.
        let cut = merge_sorted_runs(spread(mask), Some(3));
        assert_eq!(triples(mask, &cut), want[..3]);
    }

    let runs = vec![
        run_of(down, &[(3.5, 0, 0), (2.0, 1, 0)]),
        run_of(down, &[(4.0, 2, 0), (1.0, 3, 0)]),
    ];
    let merged = merge_sorted_runs(runs, Some(3));
    assert_eq!(
        triples(down, &merged),
        [(4.0, 2, 0), (3.5, 0, 0), (2.0, 1, 0)]
    );
    let merged = merge_sorted_runs(
        vec![run_of(up, &[(0.5, 0, 0), (1.0, 1, 0), (2.0, 2, 0)])],
        Some(2),
    );
    assert_eq!(triples(up, &merged), [(0.5, 0, 0), (1.0, 1, 0)]);
}

/// The float-keyed emission order that the integer image stands in for:
/// the key as an [`OrdF64`] (negated in descending runs), then the ids.
fn float_order(order: ResultOrder, (key, oid1, oid2): (f64, u64, u64)) -> (OrdF64, u64, u64) {
    let key = match order {
        ResultOrder::Ascending => key,
        ResultOrder::Descending => -key,
    };
    (OrdF64::new(key), oid1, oid2)
}

#[test]
fn hit_order_is_the_float_key_order() {
    let mut rng = StdRng::seed_from_u64(43);
    let mut keys = vec![
        0.0,
        5e-324,
        f64::MIN_POSITIVE / 3.0,
        f64::MIN_POSITIVE,
        0.5,
        1.0,
        1.0f64.next_up(),
        2.0,
        f64::MAX,
        f64::INFINITY,
    ];
    keys.extend((0..40).map(|_| rng.random_range(0.0..4.0)));
    // Arbitrary non-negative bit patterns: every exponent, subnormals too.
    keys.extend(
        (0..40)
            .map(|_| f64::from_bits(rng.next_u64() >> 1))
            .filter(|k| !k.is_nan()),
    );
    // Few distinct ids, so equal keys meet with every id order.
    let pairs: Vec<(f64, u64, u64)> = (0..300)
        .map(|_| {
            let key = keys[rng.random_range(0..keys.len())];
            (key, rng.random_range(0..4u64), rng.random_range(0..4u64))
        })
        .collect();
    for order in [ResultOrder::Ascending, ResultOrder::Descending] {
        let mask = direction_mask(order);
        let hits: Vec<BulkHit> = pairs
            .iter()
            .map(|&(k, a, b)| BulkHit::new(k, ObjectId(a), ObjectId(b), mask))
            .collect();
        for (h, &(k, ..)) in hits.iter().zip(&pairs) {
            assert_eq!(h.key(mask).to_bits(), k.to_bits(), "{order:?} key {k:e}");
        }
        for (h, &p) in hits.iter().zip(&pairs) {
            for (g, &q) in hits.iter().zip(&pairs) {
                assert_eq!(
                    h.cmp(g),
                    float_order(order, p).cmp(&float_order(order, q)),
                    "{order:?}: {p:?} vs {q:?}"
                );
            }
        }
    }
}

#[test]
fn finish_reports_each_key_bit_for_bit() {
    let t = tree_of(&grid_points(4));
    let keys = [
        0.0,
        5e-324,
        f64::MIN_POSITIVE,
        0.25,
        2.0,
        f64::MAX,
        f64::INFINITY,
    ];
    for metric in [sdj_geom::Metric::Euclidean, sdj_geom::Metric::Manhattan] {
        for order in [ResultOrder::Ascending, ResultOrder::Descending] {
            let config = JoinConfig {
                metric,
                order,
                ..JoinConfig::default()
            };
            let mut bulk = BulkDistanceJoin::new(&t, &t, config).unwrap();
            let mask = direction_mask(order);
            let hits = keys
                .iter()
                .zip(0..)
                .map(|(&k, i)| BulkHit::new(k, ObjectId(i), ObjectId(0), mask))
                .collect();
            let got = bulk.finish(hits);
            assert_eq!(got.len(), keys.len());
            for (r, &k) in got.iter().zip(&keys) {
                let want = bulk.keys.to_distance(k);
                assert_eq!(r.distance.to_bits(), want.to_bits(), "{metric:?} {order:?}");
            }
            // A 0.0 key reports +0.0, not -0.0, in either direction.
            assert!(got[0].distance.is_sign_positive(), "{metric:?} {order:?}");
        }
    }
}
