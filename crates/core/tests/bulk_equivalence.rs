//! The bulk path's correctness contract against the incremental engine:
//!
//! * **Multiset**: the bulk output, swept by a worker pool, is
//!   multiset-equal to the incremental stream (same pairs, bitwise-same
//!   distances).
//! * **Order**: the bulk merge reports a bitwise-identical distance
//!   sequence (equal-distance *tie order* may differ — the same contract
//!   the parallel executor's merged stream has) and the same pair multiset.
//!
//! Fuzzed across grid cell widths (including degenerate slivers that force
//! heavy replication), `[Dmin, Dmax]` restrictions, all three metrics, both
//! orderings, `max_pairs` truncation, self-join id exclusion, and
//! boundary-straddling extended rectangles — the inputs that stress the
//! replicate-and-dedup owner-cell rule.

use proptest::prelude::*;
use sdj_core::bulk::{BulkConfig, BulkDistanceJoin};
use sdj_core::{DistanceJoin, ExpansionPath, JoinConfig, ResultOrder};
use sdj_geom::{Metric, Rect};
use sdj_rtree::{ObjectId, RTree, RTreeConfig};

fn tree(rects: &[Rect<2>], fanout: usize) -> RTree<2> {
    let mut t = RTree::new(RTreeConfig::small(fanout));
    for (i, r) in rects.iter().enumerate() {
        t.insert(ObjectId(i as u64), *r).unwrap();
    }
    t
}

/// Rectangles in a 10×10 box: mostly points, some extended boxes whose
/// edges straddle any grid the bulk path may choose.
fn arb_rects(max: usize) -> impl Strategy<Value = Vec<Rect<2>>> {
    prop::collection::vec(
        (
            0.0..10.0f64,
            0.0..10.0f64,
            prop_oneof![Just(0.0), 0.0..2.0f64],
            prop_oneof![Just(0.0), 0.0..2.0f64],
        ),
        1..max,
    )
    .prop_map(|v| {
        v.into_iter()
            .map(|(x, y, w, h)| Rect::new([x, y], [x + w, y + h]))
            .collect()
    })
}

#[derive(Clone, Debug)]
struct Case {
    a: Vec<Rect<2>>,
    b: Vec<Rect<2>>,
    fanout: usize,
    metric: Metric,
    range: Option<(f64, f64)>,
    max_pairs: Option<u64>,
    descending: bool,
    exclude_equal_ids: bool,
    lanes: bool,
    cell_width: Option<f64>,
}

fn arb_case() -> impl Strategy<Value = Case> {
    let metric = prop::sample::select(vec![
        Metric::Euclidean,
        Metric::Manhattan,
        Metric::Chessboard,
    ]);
    (
        arb_rects(30),
        arb_rects(35),
        3usize..7,
        metric,
        prop::option::of((0.0..4.0f64, 0.0..10.0f64)),
        prop::option::of(1u64..50),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        prop::option::of(0.05..6.0f64),
    )
        .prop_map(
            |(
                a,
                b,
                fanout,
                metric,
                range,
                max_pairs,
                descending,
                exclude_equal_ids,
                lanes,
                cell_width,
            )| Case {
                a,
                b,
                fanout,
                metric,
                range: range.map(|(lo, w)| (lo, lo + w)),
                max_pairs,
                descending,
                exclude_equal_ids,
                lanes,
                cell_width,
            },
        )
}

fn config_of(case: &Case) -> JoinConfig {
    let mut config = JoinConfig {
        metric: case.metric,
        exclude_equal_ids: case.exclude_equal_ids,
        ..JoinConfig::default()
    };
    if let Some((lo, hi)) = case.range {
        config = config.with_range(lo, hi);
    }
    if let Some(k) = case.max_pairs {
        config.max_pairs = Some(k);
    }
    if case.descending {
        config.order = ResultOrder::Descending;
    }
    if case.lanes {
        config = config.with_expansion(ExpansionPath::Lanes);
    }
    config
}

fn bulk_config_of(case: &Case) -> BulkConfig {
    BulkConfig {
        cell_width: case.cell_width,
        ..BulkConfig::default()
    }
}

/// `(distance bits, oid1, oid2)` triples, sorted — the multiset fingerprint.
fn canon(results: &[(u64, u64, u64)]) -> Vec<(u64, u64, u64)> {
    let mut v = results.to_vec();
    v.sort_unstable();
    v
}

fn incremental_stream(case: &Case) -> Vec<(u64, u64, u64)> {
    let t1 = tree(&case.a, case.fanout);
    let t2 = tree(&case.b, case.fanout);
    let mut join = DistanceJoin::new(&t1, &t2, config_of(case));
    let out = join
        .by_ref()
        .map(|r| (r.distance.to_bits(), r.oid1.0, r.oid2.0))
        .collect();
    assert!(join.take_error().is_none());
    out
}

fn bulk_stream(case: &Case, workers: usize) -> Vec<(u64, u64, u64)> {
    let t1 = tree(&case.a, case.fanout);
    let t2 = tree(&case.b, case.fanout);
    let mut join =
        BulkDistanceJoin::with_bulk_config(&t1, &t2, config_of(case), bulk_config_of(case))
            .expect("bulk build");
    join.run_with_workers(workers)
        .iter()
        .map(|r| (r.distance.to_bits(), r.oid1.0, r.oid2.0))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A pooled sweep's output is exactly the incremental engine's result
    /// multiset.
    #[test]
    fn pooled_bulk_is_multiset_equal(case in arb_case()) {
        let reference = incremental_stream(&case);
        let got = bulk_stream(&case, 3);
        prop_assert_eq!(canon(&got), canon(&reference));
    }

    /// The bulk merge reports the identical distance sequence, bit for
    /// bit, and the identical pair multiset.
    #[test]
    fn ordered_bulk_reports_identical_distances(case in arb_case()) {
        let reference = incremental_stream(&case);
        let got = bulk_stream(&case, 1);
        prop_assert_eq!(got.len(), reference.len());
        let ref_dists: Vec<u64> = reference.iter().map(|r| r.0).collect();
        let got_dists: Vec<u64> = got.iter().map(|r| r.0).collect();
        prop_assert_eq!(got_dists, ref_dists);
        prop_assert_eq!(canon(&got), canon(&reference));
    }
}

/// The harvest pass decodes nodes straight off pinned page guards: warm
/// re-reads must never fall back to the copying `read` API. This is the
/// scratch-reuse satellite's observable: zero `read_copies` across an
/// entire bulk run on a warmed tree.
#[test]
fn bulk_harvest_performs_zero_read_copies() {
    let pts: Vec<Rect<2>> = (0..512)
        .map(|i| {
            let p = [(i % 32) as f64, (i / 32) as f64];
            Rect::new(p, p)
        })
        .collect();
    let t1 = tree(&pts, 8);
    let t2 = tree(&pts, 8);
    // Warm pass, then a second run on warm pools.
    let config = JoinConfig::default().with_range(0.0, 1.5);
    let mut warm = BulkDistanceJoin::new(&t1, &t2, config).unwrap();
    let _ = warm.run();
    let before = (t1.pool_stats().read_copies, t2.pool_stats().read_copies);
    let mut join = BulkDistanceJoin::new(&t1, &t2, config).unwrap();
    let n = join.run().len();
    assert!(n > 0);
    let after = (t1.pool_stats().read_copies, t2.pool_stats().read_copies);
    assert_eq!(before, after, "bulk warm reads copied page bytes");
    assert_eq!(before.0, 0, "harvest used the copying read API");
    assert_eq!(before.1, 0, "harvest used the copying read API");
}

/// Degenerate grids: a forced sliver-thin cell width exercises the
/// per-axis cell-count cap and maximal right-side replication; output must
/// not change, and each left entry still lives in exactly one cell.
#[test]
fn sliver_cells_match_default_grid() {
    let rects: Vec<Rect<2>> = (0..200)
        .map(|i| {
            let x = (i % 20) as f64 * 0.5;
            let y = (i / 20) as f64;
            Rect::new([x, y], [x + 0.4, y + 1.3])
        })
        .collect();
    let t1 = tree(&rects, 5);
    let t2 = tree(&rects, 5);
    let config = JoinConfig {
        exclude_equal_ids: true,
        ..JoinConfig::default()
    }
    .with_range(0.1, 2.0);
    let mut default_grid = BulkDistanceJoin::new(&t1, &t2, config).unwrap();
    let mut sliver = BulkDistanceJoin::with_bulk_config(
        &t1,
        &t2,
        config,
        BulkConfig {
            cell_width: Some(0.07),
            ..BulkConfig::default()
        },
    )
    .unwrap();
    let mut a: Vec<_> = default_grid
        .run()
        .iter()
        .map(|r| (r.distance.to_bits(), r.oid1.0, r.oid2.0))
        .collect();
    let mut b: Vec<_> = sliver
        .run()
        .iter()
        .map(|r| (r.distance.to_bits(), r.oid1.0, r.oid2.0))
        .collect();
    let mut c: Vec<_> = DistanceJoin::new(&t1, &t2, config)
        .map(|r| (r.distance.to_bits(), r.oid1.0, r.oid2.0))
        .collect();
    a.sort_unstable();
    b.sort_unstable();
    c.sort_unstable();
    assert_eq!(a, b);
    assert_eq!(b, c);
    // Each left entry sits in one sliver cell, so no pair is met twice.
    let mut ids: Vec<_> = b.iter().map(|&(_, o1, o2)| (o1, o2)).collect();
    ids.dedup();
    assert_eq!(ids.len(), b.len(), "a pair was reported twice");
    assert_eq!(sliver.bulk_stats().replicated1, rects.len() as u64);
}
