//! Brute-force cross-checks for every join variant: the incremental
//! algorithms must produce exactly the distance-ordered results a nested
//! loop over the raw data produces.

use sdj_core::bulk::BulkConfig;
use sdj_core::{
    open_cursor, AdaptiveConfig, DistanceJoin, DmaxStrategy, EstimationBound, JoinConfig,
    JoinStats, PlanChoice, QueueBackend, QueueLayout, ResultOrder, ResultPair, SemiConfig,
    SemiFilter, SliceOracle, TiePolicy, TraversalPolicy,
};
use sdj_datagen::{gaussian_clusters, tiger, uniform_points, unit_box};
use sdj_geom::{Metric, Point, Segment, SpatialObject};
use sdj_pqueue::HybridConfig;
use sdj_rtree::{ObjectId, RTree, RTreeConfig};

const EPS: f64 = 1e-9;

fn build_tree(points: &[Point<2>], fanout: usize) -> RTree<2> {
    let mut tree = RTree::new(RTreeConfig::small(fanout));
    for (i, p) in points.iter().enumerate() {
        tree.insert(ObjectId(i as u64), p.to_rect()).unwrap();
    }
    tree
}

fn sample_sets() -> (Vec<Point<2>>, Vec<Point<2>>) {
    let a = tiger::water_like(180, 11);
    let b = tiger::roads_like(320, 11);
    (a, b)
}

/// All pair distances, ascending.
fn brute_distances(a: &[Point<2>], b: &[Point<2>], metric: Metric) -> Vec<f64> {
    let mut out: Vec<f64> = a
        .iter()
        .flat_map(|p| b.iter().map(move |q| metric.distance(p, q)))
        .collect();
    out.sort_by(|x, y| x.partial_cmp(y).unwrap());
    out
}

/// Per-first-object nearest distance, ascending over first objects' results.
fn brute_semi(a: &[Point<2>], b: &[Point<2>], metric: Metric) -> Vec<(usize, f64)> {
    let mut out: Vec<(usize, f64)> = a
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let d = b
                .iter()
                .map(|q| metric.distance(p, q))
                .fold(f64::INFINITY, f64::min);
            (i, d)
        })
        .collect();
    out.sort_by(|x, y| x.1.partial_cmp(&y.1).unwrap());
    out
}

#[test]
fn join_matches_bruteforce_prefix_for_all_policies() {
    let (a, b) = sample_sets();
    let t1 = build_tree(&a, 6);
    let t2 = build_tree(&b, 6);
    let want = brute_distances(&a, &b, Metric::Euclidean);
    for traversal in [
        TraversalPolicy::Basic,
        TraversalPolicy::Even,
        TraversalPolicy::Simultaneous,
    ] {
        for tie in [TiePolicy::DepthFirst, TiePolicy::BreadthFirst] {
            let config = JoinConfig {
                traversal,
                tie,
                ..JoinConfig::default()
            };
            let got: Vec<f64> = DistanceJoin::new(&t1, &t2, config)
                .take(500)
                .map(|r| r.distance)
                .collect();
            assert_eq!(got.len(), 500);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert!(
                    (g - w).abs() < EPS,
                    "{traversal:?}/{tie:?}: result {i} = {g}, want {w}"
                );
            }
        }
    }
}

#[test]
fn full_join_of_small_sets_is_complete() {
    let a = uniform_points(40, &unit_box(), 5);
    let b = uniform_points(55, &unit_box(), 6);
    let t1 = build_tree(&a, 4);
    let t2 = build_tree(&b, 4);
    let want = brute_distances(&a, &b, Metric::Euclidean);
    let got: Vec<f64> = DistanceJoin::new(&t1, &t2, JoinConfig::default())
        .map(|r| r.distance)
        .collect();
    assert_eq!(got.len(), 40 * 55);
    for (g, w) in got.iter().zip(&want) {
        assert!((g - w).abs() < EPS);
    }
}

#[test]
fn results_carry_correct_object_ids() {
    let (a, b) = sample_sets();
    let t1 = build_tree(&a, 8);
    let t2 = build_tree(&b, 8);
    for r in DistanceJoin::new(&t1, &t2, JoinConfig::default()).take(200) {
        let p = &a[r.oid1.0 as usize];
        let q = &b[r.oid2.0 as usize];
        assert!((Metric::Euclidean.distance(p, q) - r.distance).abs() < EPS);
    }
}

#[test]
fn all_metrics_order_correctly() {
    let (a, b) = sample_sets();
    let t1 = build_tree(&a, 8);
    let t2 = build_tree(&b, 8);
    for metric in [Metric::Euclidean, Metric::Manhattan, Metric::Chessboard] {
        let config = JoinConfig {
            metric,
            ..JoinConfig::default()
        };
        let got: Vec<f64> = DistanceJoin::new(&t1, &t2, config)
            .take(300)
            .map(|r| r.distance)
            .collect();
        let want = brute_distances(&a, &b, metric);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < EPS, "{metric:?}");
        }
    }
}

#[test]
fn distance_range_restriction() {
    let (a, b) = sample_sets();
    let t1 = build_tree(&a, 6);
    let t2 = build_tree(&b, 6);
    let (dmin, dmax) = (0.05, 0.2);
    let config = JoinConfig::default().with_range(dmin, dmax);
    let got: Vec<f64> = DistanceJoin::new(&t1, &t2, config)
        .map(|r| r.distance)
        .collect();
    let want: Vec<f64> = brute_distances(&a, &b, Metric::Euclidean)
        .into_iter()
        .filter(|d| *d >= dmin && *d <= dmax)
        .collect();
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(&want) {
        assert!((g - w).abs() < EPS);
    }
}

#[test]
fn max_pairs_estimation_returns_exactly_k() {
    let (a, b) = sample_sets();
    let t1 = build_tree(&a, 6);
    let t2 = build_tree(&b, 6);
    let want = brute_distances(&a, &b, Metric::Euclidean);
    for k in [1usize, 10, 100, 1000] {
        for bound in [EstimationBound::AllPairs, EstimationBound::ExistsPair] {
            let config = JoinConfig {
                estimation: bound,
                ..JoinConfig::default()
            }
            .with_max_pairs(k as u64);
            let join = DistanceJoin::new(&t1, &t2, config);
            let got: Vec<f64> = join.map(|r| r.distance).collect();
            assert_eq!(got.len(), k, "{bound:?} k={k}");
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() < EPS, "{bound:?} k={k}");
            }
        }
    }
}

#[test]
fn estimation_prunes_queue_growth() {
    let (a, b) = sample_sets();
    let t1 = build_tree(&a, 6);
    let t2 = build_tree(&b, 6);
    let mut unlimited = DistanceJoin::new(&t1, &t2, JoinConfig::default());
    for _ in 0..10 {
        unlimited.next().unwrap();
    }
    let q_unlimited = unlimited.stats().max_queue;

    let mut limited = DistanceJoin::new(&t1, &t2, JoinConfig::default().with_max_pairs(10));
    for _ in 0..10 {
        limited.next().unwrap();
    }
    let q_limited = limited.stats().max_queue;
    assert!(
        q_limited < q_unlimited,
        "estimation should cap the queue: {q_limited} vs {q_unlimited}"
    );
}

/// `estimated_max_distance` reads the §2.2.4 bound: absent without `K` and
/// under descending order; with `K`, never below the K-th reported distance
/// and never rising while the stream is read.
#[test]
fn estimated_max_distance_bounds_the_kth_result_and_never_rises() {
    let (a, b) = sample_sets();
    let t1 = build_tree(&a, 6);
    let t2 = build_tree(&b, 6);
    let descending = JoinConfig {
        order: ResultOrder::Descending,
        ..JoinConfig::default()
    };
    for config in [JoinConfig::default(), descending.with_max_pairs(100)] {
        let mut join = DistanceJoin::new(&t1, &t2, config);
        assert_eq!(join.estimated_max_distance(), None);
        while join.next().is_some() {
            assert_eq!(join.estimated_max_distance(), None);
        }
    }
    for k in [1u64, 10, 100, 1_000] {
        let mut join = DistanceJoin::new(&t1, &t2, JoinConfig::default().with_max_pairs(k));
        let mut reads = vec![join.estimated_max_distance().unwrap()];
        let mut kth = 0.0;
        while let Some(r) = join.next() {
            kth = r.distance;
            reads.push(join.estimated_max_distance().unwrap());
        }
        assert_eq!(reads.len() as u64, k + 1, "K = {k} results");
        assert!(
            reads.iter().all(|d| *d >= kth),
            "K = {k}: {reads:?} vs {kth}"
        );
        assert!(
            reads.windows(2).all(|w| w[1] <= w[0]),
            "K = {k}: the bound rose: {reads:?}"
        );
        assert!(
            reads[k as usize].is_finite(),
            "K = {k}: the bound tightened"
        );
    }
}

/// Regression: `max_queue` must observe *batch* insertions, not just single
/// pushes. Expansions stage children and flush them in one `push_batch`, so
/// both the flush-time sample and the backend high-water mark must keep the
/// reported peak at least the live queue length at every step.
#[test]
fn max_queue_tracks_batch_insertions() {
    let (a, b) = sample_sets();
    let t1 = build_tree(&a, 6);
    let t2 = build_tree(&b, 6);
    let mut join = DistanceJoin::new(&t1, &t2, JoinConfig::default());
    let mut peak = 0usize;
    for _ in 0..200 {
        if join.next().is_none() {
            break;
        }
        let live = join.queue_len();
        peak = peak.max(live);
        assert!(
            join.stats().max_queue >= live,
            "high-water {} below live length {live}",
            join.stats().max_queue
        );
    }
    assert!(peak > 0, "run must actually grow the queue");
    assert!(join.stats().max_queue >= peak);
}

#[test]
fn hybrid_queue_backend_agrees_with_memory() {
    let (a, b) = sample_sets();
    let t1 = build_tree(&a, 6);
    let t2 = build_tree(&b, 6);
    let mem: Vec<f64> = DistanceJoin::new(&t1, &t2, JoinConfig::default())
        .take(400)
        .map(|r| r.distance)
        .collect();
    for dt in [0.01, 0.1, 1.0] {
        let config = JoinConfig {
            queue: QueueBackend::Hybrid(HybridConfig::with_dt(dt)),
            ..JoinConfig::default()
        };
        let hyb: Vec<f64> = DistanceJoin::new(&t1, &t2, config)
            .take(400)
            .map(|r| r.distance)
            .collect();
        assert_eq!(mem.len(), hyb.len());
        for (m, h) in mem.iter().zip(&hyb) {
            assert!((m - h).abs() < EPS, "dt={dt}");
        }
    }
}

#[test]
fn semi_join_all_strategies_match_bruteforce() {
    let (a, b) = sample_sets();
    let t1 = build_tree(&a, 6);
    let t2 = build_tree(&b, 6);
    let want = brute_semi(&a, &b, Metric::Euclidean);
    let variants = [
        (SemiFilter::Outside, DmaxStrategy::None),
        (SemiFilter::Inside1, DmaxStrategy::None),
        (SemiFilter::Inside2, DmaxStrategy::None),
        (SemiFilter::Inside2, DmaxStrategy::Local),
        (SemiFilter::Inside2, DmaxStrategy::GlobalNodes),
        (SemiFilter::Inside2, DmaxStrategy::GlobalAll),
    ];
    for (filter, dmax) in variants {
        let semi = SemiConfig { filter, dmax };
        let got: Vec<(u64, f64)> = DistanceJoin::semi(&t1, &t2, JoinConfig::default(), semi)
            .map(|r| (r.oid1.0, r.distance))
            .collect();
        assert_eq!(got.len(), a.len(), "{filter:?}/{dmax:?}: one result per o1");
        // Distances ascend.
        for w in got.windows(2) {
            assert!(w[0].1 <= w[1].1 + EPS, "{filter:?}/{dmax:?}");
        }
        // Each first object appears once with its true NN distance.
        let mut seen = vec![false; a.len()];
        for (oid, d) in &got {
            assert!(!seen[*oid as usize], "{filter:?}/{dmax:?}: duplicate {oid}");
            seen[*oid as usize] = true;
            let nn = want.iter().find(|(i, _)| *i == *oid as usize).unwrap().1;
            assert!((d - nn).abs() < EPS, "{filter:?}/{dmax:?}: oid {oid}");
        }
    }
}

#[test]
fn semi_join_with_max_pairs() {
    let (a, b) = sample_sets();
    let t1 = build_tree(&a, 6);
    let t2 = build_tree(&b, 6);
    let want = brute_semi(&a, &b, Metric::Euclidean);
    for k in [1usize, 25, 120] {
        let got: Vec<f64> = DistanceJoin::semi(
            &t1,
            &t2,
            JoinConfig::default().with_max_pairs(k as u64),
            SemiConfig::default(),
        )
        .map(|r| r.distance)
        .collect();
        assert_eq!(got.len(), k);
        for (g, (_, w)) in got.iter().zip(&want) {
            assert!((g - w).abs() < EPS, "k={k}");
        }
    }
}

#[test]
fn descending_join_reports_farthest_first() {
    let a = gaussian_clusters(60, 4, 0.05, &unit_box(), 9);
    let b = gaussian_clusters(80, 4, 0.05, &unit_box(), 10);
    let t1 = build_tree(&a, 5);
    let t2 = build_tree(&b, 5);
    let config = JoinConfig {
        order: ResultOrder::Descending,
        ..JoinConfig::default()
    };
    let got: Vec<f64> = DistanceJoin::new(&t1, &t2, config)
        .take(200)
        .map(|r| r.distance)
        .collect();
    let mut want = brute_distances(&a, &b, Metric::Euclidean);
    want.reverse();
    assert_eq!(got.len(), 200);
    for (g, w) in got.iter().zip(&want) {
        assert!((g - w).abs() < EPS);
    }
}

#[test]
fn descending_semi_join_reports_farthest_partner_per_object() {
    let a = uniform_points(50, &unit_box(), 21);
    let b = uniform_points(70, &unit_box(), 22);
    let t1 = build_tree(&a, 5);
    let t2 = build_tree(&b, 5);
    let config = JoinConfig {
        order: ResultOrder::Descending,
        ..JoinConfig::default()
    };
    let semi = SemiConfig {
        filter: SemiFilter::Inside2,
        dmax: DmaxStrategy::None, // d_max bounds nearest partners: ascending only
    };
    let got: Vec<(u64, f64)> = DistanceJoin::semi(&t1, &t2, config, semi)
        .map(|r| (r.oid1.0, r.distance))
        .collect();
    assert_eq!(got.len(), a.len());
    for w in got.windows(2) {
        assert!(w[0].1 >= w[1].1 - EPS);
    }
    for (oid, d) in &got {
        let farthest = b
            .iter()
            .map(|q| Metric::Euclidean.distance(&a[*oid as usize], q))
            .fold(0.0f64, f64::max);
        assert!((d - farthest).abs() < EPS);
    }
}

#[test]
fn segment_objects_with_refinement_oracle() {
    // Indexed objects are line segments stored externally: leaf entries hold
    // obrs, and obr/obr pairs must be refined through the oracle.
    let mk_segs = |pts: &[Point<2>], len: f64, seed: u64| -> Vec<Segment> {
        pts.iter()
            .enumerate()
            .map(|(i, p)| {
                let angle = ((i as u64).wrapping_mul(seed) % 360) as f64;
                let (dx, dy) = (angle.to_radians().cos(), angle.to_radians().sin());
                Segment::new(*p, Point::xy(p.x() + len * dx, p.y() + len * dy))
            })
            .collect()
    };
    let pa = uniform_points(60, &unit_box(), 31);
    let pb = uniform_points(80, &unit_box(), 32);
    let segs_a = mk_segs(&pa, 0.08, 7919);
    let segs_b = mk_segs(&pb, 0.05, 104729);

    let mut t1 = RTree::new(RTreeConfig::small(5));
    for (i, s) in segs_a.iter().enumerate() {
        t1.insert(ObjectId(i as u64), s.mbr()).unwrap();
    }
    let mut t2 = RTree::new(RTreeConfig::small(5));
    for (i, s) in segs_b.iter().enumerate() {
        t2.insert(ObjectId(i as u64), s.mbr()).unwrap();
    }

    let oracle = SliceOracle::new(&segs_a, &segs_b, Metric::Euclidean);
    let got: Vec<f64> = DistanceJoin::with_oracle(&t1, &t2, oracle, JoinConfig::default())
        .take(500)
        .map(|r| r.distance)
        .collect();

    let mut want: Vec<f64> = segs_a
        .iter()
        .flat_map(|s| segs_b.iter().map(move |t| s.distance_to_segment(t)))
        .collect();
    want.sort_by(|x, y| x.partial_cmp(y).unwrap());
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert!((g - w).abs() < EPS, "result {i}: {g} vs {w}");
    }
}

#[test]
fn empty_inputs_yield_nothing() {
    let t_empty: RTree<2> = RTree::new(RTreeConfig::small(4));
    let a = uniform_points(10, &unit_box(), 1);
    let t1 = build_tree(&a, 4);
    assert_eq!(
        DistanceJoin::new(&t1, &t_empty, JoinConfig::default()).count(),
        0
    );
    assert_eq!(
        DistanceJoin::new(&t_empty, &t1, JoinConfig::default()).count(),
        0
    );
    assert_eq!(
        DistanceJoin::semi(&t_empty, &t1, JoinConfig::default(), SemiConfig::default()).count(),
        0
    );
}

/// `STOP AFTER 0` is an empty stream that reads nothing — `done` used to be
/// set only after a report, so the first pair slipped out. (The bulk and
/// adaptive engines: `open_cursor_streams_every_plan_at_every_batch_size`.)
#[test]
fn stop_after_zero_yields_nothing() {
    let (a, b) = sample_sets();
    let (t1, t2) = (build_tree(&a, 6), build_tree(&b, 6));
    let config = JoinConfig::default().with_max_pairs(0);

    let mut join = DistanceJoin::new(&t1, &t2, config);
    assert_eq!(join.by_ref().count(), 0);
    assert!(join.is_done() && join.take_error().is_none());
    assert_eq!(join.stats().node_accesses, 0, "nothing asked, nothing read");

    let mut semi = DistanceJoin::semi(&t1, &t2, config, SemiConfig::default());
    assert_eq!(semi.by_ref().count(), 0);
    assert!(semi.is_done() && semi.take_error().is_none());
}

/// The one pull interface: whichever plan `open_cursor` is given and
/// however the consumer chops its pulls, the stream is the incremental
/// engine's; `STOP AFTER 0` is empty and done on the first call; a finished
/// cursor holds nothing. The adaptive plan is forced to hand off mid-stream
/// with a short stride, so its checkpoints, its buffered surplus and its
/// bulk tail are all on the path.
#[test]
fn open_cursor_streams_every_plan_at_every_batch_size() {
    let (a, b) = sample_sets();
    let (t1, t2) = (build_tree(&a, 6), build_tree(&b, 6));
    let config = JoinConfig::default().with_range(0.0, 0.05);
    let adaptive = AdaptiveConfig {
        pop_stride: 16,
        force_handoff_at: Some(40),
        ..AdaptiveConfig::default()
    };
    let dists =
        |rs: &[ResultPair]| -> Vec<u64> { rs.iter().map(|r| r.distance.to_bits()).collect() };
    // Tie order inside an equal-distance group is each path's own.
    let canon = |rs: &[ResultPair]| {
        let mut v: Vec<_> = rs
            .iter()
            .map(|r| (r.distance.to_bits(), r.oid1.0, r.oid2.0))
            .collect();
        v.sort_unstable();
        v
    };
    let reference: Vec<ResultPair> = DistanceJoin::new(&t1, &t2, config).collect();
    assert!(reference.len() > 100, "the range must select a real stream");

    for plan in PlanChoice::ALL {
        let open = |config| {
            open_cursor(
                &t1,
                &t2,
                plan,
                config,
                BulkConfig::default(),
                adaptive,
                None,
            )
            .expect("a valid config opens")
        };
        for batch in [1, 7, usize::MAX] {
            let mut cursor = open(config);
            let mut out = Vec::new();
            let mut held = 0;
            loop {
                let before = out.len();
                let done = cursor.advance(batch, &mut out).unwrap();
                assert!(
                    out.len() - before <= batch,
                    "{plan} x{batch}: over-full pull"
                );
                if done {
                    break;
                }
                assert_eq!(out.len() - before, batch, "{plan} x{batch}: short pull");
                // The materialised stream's buffer keeps its whole
                // allocation until the last result is out.
                if plan == PlanChoice::Bulk {
                    assert!(cursor.held_bytes() >= held, "{plan} x{batch}: held shrank");
                    held = cursor.held_bytes();
                }
            }
            assert_eq!(dists(&out), dists(&reference), "{plan} x{batch}");
            assert_eq!(canon(&out), canon(&reference), "{plan} x{batch}");
            assert_eq!(cursor.stats().pairs_reported, out.len() as u64, "{plan}");
            assert_eq!(cursor.held_bytes(), 0, "{plan} x{batch}: done but holding");
            assert!(cursor.advance(batch, &mut out).unwrap(), "done stays done");
            assert_eq!(out.len(), reference.len());
        }

        let mut cursor = open(config.with_max_pairs(0));
        let mut out = Vec::new();
        assert!(
            cursor.advance(16, &mut out).unwrap(),
            "{plan}: K = 0 is done"
        );
        assert!(out.is_empty(), "{plan}: K = 0 is empty");
        assert_eq!(cursor.held_bytes(), 0);
    }
    assert_eq!(t1.pinned_frames() + t2.pinned_frames(), 0);
}

#[test]
fn single_object_each_side() {
    let t1 = build_tree(&[Point::xy(0.0, 0.0)], 4);
    let t2 = build_tree(&[Point::xy(3.0, 4.0)], 4);
    let results: Vec<_> = DistanceJoin::new(&t1, &t2, JoinConfig::default()).collect();
    assert_eq!(results.len(), 1);
    assert!((results[0].distance - 5.0).abs() < EPS);
}

#[test]
fn identical_sets_include_zero_distances() {
    let a = uniform_points(30, &unit_box(), 77);
    let t1 = build_tree(&a, 4);
    let t2 = build_tree(&a, 4);
    let first: Vec<_> = DistanceJoin::new(&t1, &t2, JoinConfig::default())
        .take(30)
        .collect();
    assert!(first.iter().all(|r| r.distance.abs() < EPS));
}

#[test]
fn early_termination_is_much_cheaper_than_full_join() {
    let (a, b) = sample_sets();
    let t1 = build_tree(&a, 8);
    let t2 = build_tree(&b, 8);

    let mut one = DistanceJoin::new(&t1, &t2, JoinConfig::default());
    one.next().unwrap();
    let io_one = one.stats().node_accesses;

    let mut full = DistanceJoin::new(&t1, &t2, JoinConfig::default());
    let n = full.by_ref().count();
    assert_eq!(n, a.len() * b.len());
    let io_full = full.stats().node_accesses;
    assert!(
        io_one * 3 < io_full,
        "first result should touch far fewer nodes: {io_one} vs {io_full}"
    );
}

#[test]
fn stats_are_internally_consistent() {
    let (a, b) = sample_sets();
    let t1 = build_tree(&a, 6);
    let t2 = build_tree(&b, 6);
    let mut join = DistanceJoin::new(&t1, &t2, JoinConfig::default().with_max_pairs(50));
    let results = join.by_ref().count();
    let s = join.stats();
    assert_eq!(results as u64, s.pairs_reported);
    assert!(s.pairs_dequeued <= s.pairs_enqueued);
    assert!(s.max_queue > 0);
    assert!(s.distance_calcs > 0);
    assert_eq!(s.object_distance_calcs, 0, "exact oracle never refines");
    assert!(join.take_error().is_none());
}

#[test]
fn within_query_equivalence() {
    // A distance join with max distance = within predicate; compare against
    // a brute-force within join, ignoring order.
    let (a, b) = sample_sets();
    let t1 = build_tree(&a, 6);
    let t2 = build_tree(&b, 6);
    let eps_d = 0.03;
    let got = DistanceJoin::new(&t1, &t2, JoinConfig::default().with_range(0.0, eps_d)).count();
    let want = a
        .iter()
        .flat_map(|p| b.iter().map(move |q| Metric::Euclidean.distance(p, q)))
        .filter(|d| *d <= eps_d)
        .count();
    assert_eq!(got, want);
}

/// The default (flat) layout's queue accounting is deterministic: the same
/// query on freshly built trees reports identical counters, and the queue's
/// byte peak is equal to the byte — for a K-bounded drain and for a
/// semi-join alike.
#[test]
fn default_layout_stats_repeat_exactly() {
    let a = uniform_points(1_200, &unit_box(), 41);
    let b = uniform_points(1_200, &unit_box(), 42);
    let k_drain = || {
        let (t1, t2) = (build_tree(&a, 8), build_tree(&b, 8));
        let mut join = DistanceJoin::new(&t1, &t2, JoinConfig::default().with_max_pairs(5_000));
        assert_eq!(join.by_ref().count(), 5_000);
        assert!(join.take_error().is_none());
        join.stats()
    };
    let semi = || {
        let (t1, t2) = (build_tree(&a, 8), build_tree(&b, 8));
        let semi = SemiConfig {
            filter: SemiFilter::Inside2,
            dmax: DmaxStrategy::GlobalAll,
        };
        let mut join = DistanceJoin::semi(&t1, &t2, JoinConfig::default(), semi);
        assert_eq!(join.by_ref().count(), a.len());
        assert!(join.take_error().is_none());
        join.stats()
    };
    for run in [&k_drain as &dyn Fn() -> _, &semi] {
        let (first, second) = (run(), run());
        assert!(first.queue_bytes_peak > 0);
        assert_eq!(first, second);
    }
}

/// K-bounded joins and semi-joins give the same stream and the same
/// counters on every queue backend: memory in both layouts, and the hybrid
/// queue. Each queued pair carries its §2.2.4 estimator slot through the
/// queue, and a backend that lost it — in a pop, a batch push or a spill
/// page — would leave stale members in `M` and prune pairs the reference
/// keeps. The hybrid runs spill.
///
/// The memory backends also compact their queue against the pop-time
/// filters: the estimate, and a semi-join's reported set and `d_max`
/// bounds. The two layouts drop the same pairs, so they agree on every
/// counter, queue high-water and discards included, and every semi-join on
/// the larger trees with a pop-time filter compacts. The hybrid backend
/// never compacts. A join agrees with it on everything but the queue's
/// high-water, discards and the length it is left with. A semi-join pops
/// the pairs compaction dropped on the hybrid queue and filters them there,
/// so its pops and its three pop-filter counts may differ too, by the same
/// amount. Every run accounts for each enqueued pair as dequeued, discarded
/// or still queued, deferred copies of the distance bands included.
#[test]
fn estimator_slots_survive_every_queue_backend() {
    let (a, b) = sample_sets();
    let (t1, t2) = (build_tree(&a, 6), build_tree(&b, 6));
    let want = brute_distances(&a, &b, Metric::Euclidean);
    let all = (a.len() * b.len()) as u64;
    // Large enough for the queue to pass the compaction floor.
    let (c, d) = (
        uniform_points(1_500, &unit_box(), 51),
        uniform_points(1_500, &unit_box(), 52),
    );
    let (t3, t4) = (build_tree(&c, 8), build_tree(&d, 8));
    let (e, f) = (
        uniform_points(600, &unit_box(), 53),
        uniform_points(600, &unit_box(), 54),
    );
    let (t5, t6) = (build_tree(&e, 8), build_tree(&f, 8));
    let (g, h) = (
        uniform_points(4_000, &unit_box(), 51),
        uniform_points(4_000, &unit_box(), 52),
    );
    let (t7, t8) = (build_tree(&g, 8), build_tree(&h, 8));
    // A K = 1 join queues only the pairs under its band ceiling
    // (`DESIGN.md` §22), about 0.004 here, so its hybrid queue spills only
    // with a `D_T` below that.
    let backends = |k: Option<u64>| {
        let dt = if k == Some(1) { 0.000_5 } else { 0.01 };
        [
            (QueueBackend::Memory, QueueLayout::FlatDary),
            (QueueBackend::Memory, QueueLayout::Pairing),
            (
                QueueBackend::Hybrid(HybridConfig::with_dt(dt)),
                QueueLayout::FlatDary,
            ),
        ]
    };
    let semi = |filter, dmax| Some(SemiConfig { filter, dmax });
    // (trees, brute-force distances, estimation bound, K, semi-join)
    let sample = ((&t1, &t2), Some(&want));
    let large = ((&t3, &t4), None);
    let mut queries = vec![(
        sample,
        EstimationBound::AllPairs,
        Some(120),
        semi(SemiFilter::Inside2, DmaxStrategy::GlobalAll),
    )];
    for bound in [EstimationBound::AllPairs, EstimationBound::ExistsPair] {
        queries.extend([1, 100, all].map(|k| (sample, bound, Some(k), None)));
        queries.push((large, bound, Some(5_000), None));
    }
    // Every semi-join configuration with a pop-time filter (a `d_max`
    // strategy implies `Inside2`; `Outside` filters nothing at the pop),
    // unbounded and K-bounded. At K = 5 000, more than the first objects,
    // the estimate never drops; a K below them puts members in `M` that a
    // pass must leave queued: one that dropped them would change these runs'
    // counters. Without the global bounds a semi-join expands far more
    // node pairs (on the 1 500 × 1 500 trees `Inside1` enqueues about 40
    // times what `GlobalAll` does), so those run on 600 × 600 trees.
    // `GlobalAll` sweeps its leaf pairs instead of queueing an (object,
    // leaf) pair per first object: on the 1 500 × 1 500 trees at K = 1 000
    // its queue peaks at 3 382 pairs, under the compaction floor of 4 096,
    // so it runs on 4 000 × 4 000 trees, where K = 2 000 peaks near 7 000.
    // (As `M` is never offered an (object, leaf) pair there, no `GlobalAll`
    // run met so far queues a dead pair holding a member of `M`; `Inside1`
    // at K = 1 000 is the run that does.)
    let medium = ((&t5, &t6), None);
    let larger = ((&t7, &t8), None);
    for (trees, filter, dmax, k_below) in [
        (medium, SemiFilter::Inside1, DmaxStrategy::None, 1_000),
        (medium, SemiFilter::Inside2, DmaxStrategy::None, 1_000),
        (medium, SemiFilter::Inside2, DmaxStrategy::Local, 1_000),
        (large, SemiFilter::Inside2, DmaxStrategy::GlobalNodes, 1_000),
        (larger, SemiFilter::Inside2, DmaxStrategy::GlobalAll, 2_000),
    ] {
        for k in [None, Some(k_below), Some(5_000)] {
            queries.push((trees, EstimationBound::AllPairs, k, semi(filter, dmax)));
        }
    }
    // `Inside1` leaves the pairs led by reported objects queued, and the
    // global bounds kill queued pairs as they tighten: those compact.
    // `Inside2` without them filters reported objects as it expands, so a
    // pass may find only node-led pairs queued, which no pop filter drops.
    let must_compact = |semi: SemiConfig| {
        semi.filter == SemiFilter::Inside1
            || matches!(
                semi.dmax,
                DmaxStrategy::GlobalNodes | DmaxStrategy::GlobalAll
            )
    };
    // What backends may differ in: spill traffic and queue bytes, and —
    // since only the memory backends compact — the queue's high-water mark,
    // its discards and the length it is left with; for a semi-join also
    // its pops and pop-filter counts.
    let masked = |stats: JoinStats, hybrid: bool, is_semi: bool| {
        let mut s = JoinStats {
            node_io: 0,
            queue_bytes_peak: 0,
            ..stats
        };
        if hybrid {
            (s.max_queue, s.pairs_discarded, s.queue_len) = (0, 0, 0);
        }
        if hybrid && is_semi {
            (s.pairs_dequeued, s.filtered_seen) = (0, 0);
            (s.pruned_by_dmax, s.pruned_by_estimate) = (0, 0);
        }
        s
    };
    let pop_filtered = |s: &JoinStats| s.filtered_seen + s.pruned_by_dmax + s.pruned_by_estimate;
    let (mut discarded, mut deferred) = (0, 0);
    for (((t1, t2), want), bound, k, semi) in queries {
        let mut reference = None;
        for (queue, layout) in backends(k) {
            let config = JoinConfig {
                estimation: bound,
                queue,
                layout,
                max_pairs: k,
                ..JoinConfig::default()
            };
            let mut join = match semi {
                Some(semi) => DistanceJoin::semi(t1, t2, config, semi),
                None => DistanceJoin::new(t1, t2, config),
            };
            let what = format!("{bound:?} K={k:?} semi={semi:?} {queue:?}/{layout:?}");
            let got: Vec<(u64, u64, u64)> = join
                .by_ref()
                .map(|r| (r.distance.to_bits(), r.oid1.0, r.oid2.0))
                .collect();
            assert!(join.take_error().is_none(), "{what}");
            let first_objects = t1.len() as u64;
            let want_len = match semi {
                Some(_) => k.map_or(first_objects, |k| k.min(first_objects)),
                None => k.unwrap(),
            };
            assert_eq!(got.len() as u64, want_len, "{what}");
            if let Some((tiers, _)) = join.hybrid_queue_info() {
                assert!(tiers.spilled > 0, "{what}: the hybrid queue never spilled");
            }
            let stats = join.stats();
            assert_eq!(stats.queue_len, join.queue_len() as u64, "{what}");
            assert_eq!(
                stats.pairs_enqueued,
                stats.pairs_dequeued + stats.pairs_discarded + stats.queue_len,
                "{what}: every enqueued pair is dequeued, discarded or queued"
            );
            // A join's deferred copies are among those pairs, and only a
            // queued copy can be re-expanded; a semi-join defers nothing.
            assert!(stats.band_reexpanded <= stats.band_deferred, "{what}");
            if semi.is_some() {
                assert_eq!(stats.band_deferred, 0, "{what}: a semi-join deferred");
            }
            deferred += stats.band_deferred;
            let hybrid = matches!(queue, QueueBackend::Hybrid(_));
            if hybrid {
                assert_eq!(stats.pairs_discarded, 0, "{what}: compacted");
            } else if semi.is_some_and(must_compact) && want.is_none() {
                assert!(stats.pairs_discarded > 0, "{what}: never compacted");
            }
            discarded += stats.pairs_discarded;
            match &reference {
                None => {
                    if let (None, Some(want)) = (semi, want) {
                        for (g, w) in got.iter().zip(want) {
                            assert!((f64::from_bits(g.0) - w).abs() < EPS, "{what}");
                        }
                    }
                    reference = Some((got, stats));
                }
                Some((stream, first)) => {
                    assert_eq!(&got, stream, "{what}: stream");
                    let is_semi = semi.is_some();
                    assert_eq!(
                        masked(stats, hybrid, is_semi),
                        masked(*first, hybrid, is_semi),
                        "{what}: counters"
                    );
                    // The pairs compaction dropped are the pairs the other
                    // queue popped and filtered.
                    assert_eq!(
                        stats.pairs_dequeued.wrapping_sub(first.pairs_dequeued),
                        pop_filtered(&stats).wrapping_sub(pop_filtered(first)),
                        "{what}: pops and pop filters differ by the same count"
                    );
                }
            }
        }
    }
    assert!(discarded > 0, "no query compacted its queue");
    assert!(deferred > 0, "no join deferred a band");
}

/// A `GlobalAll` semi-join sweeps its leaf pairs; `GlobalNodes` expands them
/// one side at a time, queueing an (object, leaf) pair per first object.
/// Both must answer the same: on the 1 500 × 1 500 trees, unbounded, at
/// K = 1 000 and within a `Dmax`, the two give the same number of results,
/// the same distance sequence bit for bit, and the same first objects. The
/// sweep opens each leaf pair once, so `GlobalAll` reads strictly fewer
/// nodes and pops strictly fewer pairs; both account for every enqueued
/// pair.
#[test]
fn global_all_leaf_sweep_agrees_with_one_sided_global_nodes() {
    let a = uniform_points(1_500, &unit_box(), 51);
    let b = uniform_points(1_500, &unit_box(), 52);
    let (t1, t2) = (build_tree(&a, 8), build_tree(&b, 8));
    let run = |config: JoinConfig, dmax| {
        let semi = SemiConfig {
            filter: SemiFilter::Inside2,
            dmax,
        };
        let mut join = DistanceJoin::semi(&t1, &t2, config, semi);
        let got: Vec<ResultPair> = join.by_ref().collect();
        assert!(join.take_error().is_none());
        let s = join.stats();
        assert_eq!(
            s.pairs_enqueued,
            s.pairs_dequeued + s.pairs_discarded + s.queue_len,
            "{dmax:?}: every enqueued pair is dequeued, discarded or queued"
        );
        (got, s)
    };
    for config in [
        JoinConfig::default(),
        JoinConfig::default().with_max_pairs(1_000),
        JoinConfig::default().with_range(0.0, 0.02),
    ] {
        let what = format!("K={:?} Dmax={}", config.max_pairs, config.max_distance);
        let (swept, s) = run(config, DmaxStrategy::GlobalAll);
        let (one_sided, o) = run(config, DmaxStrategy::GlobalNodes);
        assert!(s.sweep_expansions > 0, "{what}: GlobalAll never swept");
        assert_eq!(o.sweep_expansions, 0, "{what}: GlobalNodes swept");
        assert!(!swept.is_empty(), "{what}");
        assert_eq!(swept.len(), one_sided.len(), "{what}");
        let bits = |r: &[ResultPair]| r.iter().map(|p| p.distance.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&swept), bits(&one_sided), "{what}: distances");
        let firsts = |r: &[ResultPair]| {
            let mut ids: Vec<u64> = r.iter().map(|p| p.oid1.0).collect();
            ids.sort_unstable();
            ids
        };
        assert_eq!(firsts(&swept), firsts(&one_sided), "{what}: first objects");
        assert!(
            s.node_accesses < o.node_accesses,
            "{what}: node accesses {} vs {}",
            s.node_accesses,
            o.node_accesses
        );
        assert!(
            s.pairs_dequeued < o.pairs_dequeued,
            "{what}: pops {} vs {}",
            s.pairs_dequeued,
            o.pairs_dequeued
        );
    }
}
