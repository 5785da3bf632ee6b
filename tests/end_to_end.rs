//! Cross-crate end-to-end tests through the facade: data generation →
//! indexing → incremental joins → baselines → query layer, all agreeing.

use incremental_distance_join::baselines::{nested_loop_topk, nn_semijoin, within_join};
use incremental_distance_join::datagen::tiger;
use incremental_distance_join::exec::{run_planned, ParallelConfig, ParallelDistanceJoin};
use incremental_distance_join::geom::{Metric, Point};
use incremental_distance_join::join::{
    AdaptiveConfig, BulkConfig, BulkDistanceJoin, DistanceJoin, DmaxStrategy, EstimationBound,
    JoinConfig, PlanChoice, ResultOrder, ResultPair, SemiConfig, SemiFilter,
};
use incremental_distance_join::obs::ObsContext;
use incremental_distance_join::query::{
    CmpOp, DistanceQuery, FilterPlacement, Predicate, Relation, Value,
};
use incremental_distance_join::rtree::{ObjectId, RTree, RTreeConfig};

type Items = Vec<(ObjectId, sdj_geom::Rect<2>)>;

fn env() -> (RTree<2>, RTree<2>, Items, Items) {
    let water = tiger::water_like(400, 3);
    let roads = tiger::roads_like(1_500, 3);
    let w_items: Vec<_> = water
        .iter()
        .enumerate()
        .map(|(i, p)| (ObjectId(i as u64), p.to_rect()))
        .collect();
    let r_items: Vec<_> = roads
        .iter()
        .enumerate()
        .map(|(i, p)| (ObjectId(i as u64), p.to_rect()))
        .collect();
    let tw = RTree::bulk_load(RTreeConfig::default(), w_items.clone());
    let tr = RTree::bulk_load(RTreeConfig::default(), r_items.clone());
    (tw, tr, w_items, r_items)
}

#[test]
fn incremental_join_agrees_with_nested_loop_baseline() {
    let (tw, tr, w_items, r_items) = env();
    let k = 1_000;
    let incremental: Vec<f64> = DistanceJoin::new(&tw, &tr, JoinConfig::default())
        .take(k)
        .map(|r| r.distance)
        .collect();
    let baseline = nested_loop_topk(&w_items, &r_items, Metric::Euclidean, k);
    assert_eq!(incremental.len(), baseline.len());
    for (a, b) in incremental.iter().zip(&baseline) {
        assert!((a - b.distance).abs() < 1e-9);
    }
}

/// A K-bounded drain under distance bands (`DESIGN.md` §22) at small scale:
/// 3 000 × 3 000 uniform points and K = 3 000, the shape of the benchmark's
/// `drain_ordered`, then the same K over two clusters about 8 apart whose
/// roots overlap, where the first band ceiling is far too small. Each
/// stream is the nested loop's top K, distances bit for bit and pairs as a
/// set (uniform coordinates tie nowhere), and each run accounts for its
/// deferred copies: uniform data re-expands none, the clusters several.
#[test]
fn banded_drain_agrees_with_nested_loop_baseline() {
    use incremental_distance_join::datagen::uniform_points;
    use incremental_distance_join::geom::Rect;
    let items = |points: Vec<Point<2>>| -> Items {
        points
            .iter()
            .enumerate()
            .map(|(i, p)| (ObjectId(i as u64), p.to_rect()))
            .collect()
    };
    let apart = |seed, x0: f64| {
        let mut points = uniform_points(1_500, &Rect::new([x0, 0.0], [x0 + 1.0, 1.0]), seed);
        points.push(Point::xy(10.0 - x0, 10.0));
        items(points)
    };
    let unit = Rect::new([0.0, 0.0], [1.0, 1.0]);
    let k = 3_000;
    for (name, i1, i2, reexpands) in [
        (
            "uniform",
            items(uniform_points(3_000, &unit, 5)),
            items(uniform_points(3_000, &unit, 6)),
            false,
        ),
        ("apart", apart(7, 0.0), apart(8, 9.0), true),
    ] {
        let t1 = RTree::bulk_load(RTreeConfig::default(), i1.clone());
        let t2 = RTree::bulk_load(RTreeConfig::default(), i2.clone());
        let mut join = DistanceJoin::new(&t1, &t2, JoinConfig::default().with_max_pairs(k));
        let got: Vec<ResultPair> = join.by_ref().collect();
        assert!(join.take_error().is_none(), "{name}");
        let want = nested_loop_topk(&i1, &i2, Metric::Euclidean, k as usize);
        assert_eq!(got.len(), want.len(), "{name}");
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.distance.to_bits(), w.distance.to_bits(), "{name}");
        }
        let pairs = |v: Vec<(u64, u64)>| v.into_iter().collect::<std::collections::HashSet<_>>();
        assert_eq!(
            pairs(got.iter().map(|r| (r.oid1.0, r.oid2.0)).collect()),
            pairs(want.iter().map(|r| (r.oid1.0, r.oid2.0)).collect()),
            "{name}"
        );
        let stats = join.stats();
        assert!(stats.band_deferred > 0, "{name}: nothing was deferred");
        assert_eq!(stats.band_reexpanded > 0, reexpands, "{name}: {stats:?}");
        assert_eq!(
            stats.pairs_enqueued,
            stats.pairs_dequeued + stats.pairs_discarded + stats.queue_len,
            "{name}: every enqueued pair is dequeued, discarded or still queued"
        );
    }
}

/// K-bounded joins over points snapped to an integer grid, so that every
/// squared distance and every node pair's squared `d_max` is an integer and
/// the §2.2.4 estimator's buckets, the top 17 bits of a squared key
/// (`DESIGN.md` §19), each hold whole groups of them: from a squared key of
/// 64 on, two or more integers share a bucket. K is put on both sides of a
/// bucket edge: the K-th distance is the last of its bucket, then the first
/// of the next. Each stream's distances are the nested loop's bit for bit,
/// the pairs strictly closer than the K-th distance are the nested loop's,
/// and the estimate never falls below the K-th distance.
#[test]
fn k_bounded_join_over_crowded_buckets_agrees_with_nested_loop() {
    use incremental_distance_join::datagen::uniform_points;
    use incremental_distance_join::geom::Rect;
    let snapped = |seed| -> Items {
        uniform_points(400, &Rect::new([0.0, 0.0], [24.0, 24.0]), seed)
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let q = Point::xy(p.x().floor(), p.y().floor());
                (ObjectId(i as u64), q.to_rect())
            })
            .collect()
    };
    let (i1, i2) = (snapped(11), snapped(12));
    let t1 = RTree::bulk_load(RTreeConfig::default(), i1.clone());
    let t2 = RTree::bulk_load(RTreeConfig::default(), i2.clone());
    let bucket = |distance: f64| (distance * distance).round().to_bits() >> 47;
    let all = nested_loop_topk(&i1, &i2, Metric::Euclidean, i1.len() * i2.len());
    // The first bucket edge past 50 000 pairs, at a squared distance
    // above 64, where a bucket spans more than one integer.
    let edge = (50_000..all.len())
        .find(|&k| bucket(all[k - 1].distance) != bucket(all[k].distance))
        .expect("an edge");
    assert!(all[edge].distance.powi(2) > 64.0);
    for estimation in [EstimationBound::AllPairs, EstimationBound::ExistsPair] {
        for k in [edge, edge + 1] {
            let label = format!("{estimation:?} K={k}");
            let config = JoinConfig {
                estimation,
                ..JoinConfig::default()
            }
            .with_max_pairs(k as u64);
            let kth = all[k - 1].distance;
            let mut join = DistanceJoin::new(&t1, &t2, config);
            let mut got = Vec::new();
            while let Some(r) = join.next() {
                got.push(r);
                let estimate = join.estimated_max_distance().expect("K-bounded");
                assert!(estimate >= kth, "{label}: estimate {estimate} < {kth}");
            }
            assert!(join.take_error().is_none(), "{label}");
            assert_eq!(got.len(), k, "{label}");
            for (g, w) in got.iter().zip(&all) {
                assert_eq!(g.distance.to_bits(), w.distance.to_bits(), "{label}");
            }
            let closer = |pairs: Vec<(u64, u64, f64)>| -> std::collections::HashSet<(u64, u64)> {
                pairs
                    .into_iter()
                    .filter(|&(.., d)| d < kth)
                    .map(|(a, b, _)| (a, b))
                    .collect()
            };
            assert_eq!(
                closer(
                    got.iter()
                        .map(|r| (r.oid1.0, r.oid2.0, r.distance))
                        .collect()
                ),
                closer(
                    all[..k]
                        .iter()
                        .map(|r| (r.oid1.0, r.oid2.0, r.distance))
                        .collect()
                ),
                "{label}"
            );
            let distinct: std::collections::HashSet<_> =
                got.iter().map(|r| (r.oid1, r.oid2)).collect();
            assert_eq!(distinct.len(), k, "{label}: a pair repeated");
            for r in &got {
                let exact = Metric::Euclidean
                    .mindist_rect_rect(&i1[r.oid1.0 as usize].1, &i2[r.oid2.0 as usize].1);
                assert_eq!(r.distance.to_bits(), exact.to_bits(), "{label}");
            }
        }
    }
}

#[test]
fn incremental_semijoin_agrees_with_nn_baseline() {
    let (tw, tr, ..) = env();
    let semi = SemiConfig {
        filter: SemiFilter::Inside2,
        dmax: DmaxStrategy::GlobalAll,
    };
    let incremental: Vec<(u64, f64)> = DistanceJoin::semi(&tw, &tr, JoinConfig::default(), semi)
        .map(|r| (r.oid1.0, r.distance))
        .collect();
    let baseline = nn_semijoin(&tw, &tr, Metric::Euclidean).unwrap();
    assert_eq!(incremental.len(), baseline.len());
    for (a, b) in incremental.iter().zip(&baseline) {
        assert!((a.1 - b.distance).abs() < 1e-9);
    }
}

/// A semi-join whose queue passes the compaction floor drops queued pairs
/// its pop-time filters would drop (first objects already reported, keys
/// above their first item's `d_max` bound) and still answers exactly the
/// per-object nearest-neighbour baseline. Under `GlobalAll` its leaf pairs
/// are opened by the semi-join leaf sweep; both join orders are checked,
/// the smaller relation outer and the larger.
#[test]
fn compacting_semijoin_agrees_with_nn_baseline() {
    let load = |points: Vec<Point<2>>| {
        let items = points
            .iter()
            .enumerate()
            .map(|(i, p)| (ObjectId(i as u64), p.to_rect()))
            .collect();
        RTree::bulk_load(RTreeConfig::default(), items)
    };
    let tw = load(tiger::water_like(2_000, 17));
    let tr = load(tiger::roads_like(10_000, 17));
    let semi = SemiConfig {
        filter: SemiFilter::Inside2,
        dmax: DmaxStrategy::GlobalAll,
    };
    for (name, t1, t2) in [("water x roads", &tw, &tr), ("roads x water", &tr, &tw)] {
        let mut join = DistanceJoin::semi(t1, t2, JoinConfig::default(), semi);
        let mut got: Vec<(u64, f64)> = join.by_ref().map(|r| (r.oid1.0, r.distance)).collect();
        assert!(join.take_error().is_none(), "{name}");
        let stats = join.stats();
        assert!(stats.sweep_expansions > 0, "{name}: no leaf pair was swept");
        assert!(
            stats.pairs_discarded > 0,
            "{name}: the queue never compacted"
        );
        assert_eq!(
            stats.pairs_enqueued,
            stats.pairs_dequeued + stats.pairs_discarded + stats.queue_len,
            "{name}: every enqueued pair is dequeued, discarded or still queued"
        );
        let mut want: Vec<(u64, f64)> = nn_semijoin(t1, t2, Metric::Euclidean)
            .unwrap()
            .iter()
            .map(|p| (p.oid1.0, p.distance))
            .collect();
        assert!(
            got.windows(2).all(|w| w[0].1 <= w[1].1),
            "{name}: stream out of order"
        );
        got.sort_by_key(|p| p.0);
        want.sort_by_key(|p| p.0);
        assert_eq!(got.len(), want.len(), "{name}");
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.0, w.0, "{name}");
            assert!(
                (g.1 - w.1).abs() < 1e-9,
                "{name}: object {}: {} vs {}",
                g.0,
                g.1,
                w.1
            );
        }
    }
}

#[test]
fn incremental_range_join_agrees_with_within_baseline() {
    let (tw, tr, ..) = env();
    let dmax = 0.01;
    let incremental: Vec<f64> =
        DistanceJoin::new(&tw, &tr, JoinConfig::default().with_range(0.0, dmax))
            .map(|r| r.distance)
            .collect();
    let baseline = within_join(&tw, &tr, Metric::Euclidean, 0.0, dmax).unwrap();
    assert_eq!(incremental.len(), baseline.len());
    for (a, b) in incremental.iter().zip(&baseline) {
        assert!((a - b.distance).abs() < 1e-9);
    }
}

/// The bulk partition/sweep path over overlapping rectangles (left extents
/// above 0), on its derived grid and on a forced fine one: the same pairs
/// as the within-distance baseline with bit-equal distances, the bound
/// being a reported distance so the pair on it must survive, and each left
/// entry assigned to exactly one cell.
#[test]
fn bulk_range_join_over_rectangles_agrees_with_within_baseline() {
    let boxes = |points: &[Point<2>], half: f64| -> RTree<2> {
        let items = points
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let (x, y) = (p.coord(0), p.coord(1));
                let r = sdj_geom::Rect::new([x - half, y - half], [x + half, y + half]);
                (ObjectId(i as u64), r)
            })
            .collect();
        RTree::bulk_load(RTreeConfig::default(), items)
    };
    let t1 = boxes(&tiger::water_like(400, 3), 0.004);
    let t2 = boxes(&tiger::roads_like(1_500, 3), 0.001);
    let wide = within_join(&t1, &t2, Metric::Euclidean, 0.0, 0.01).unwrap();
    let dmax = wide[wide.len() * 3 / 4].distance;
    let mut want: Vec<(u64, u64, u64)> = within_join(&t1, &t2, Metric::Euclidean, 0.0, dmax)
        .unwrap()
        .iter()
        .map(|p| (p.distance.to_bits(), p.oid1.0, p.oid2.0))
        .collect();
    want.sort_unstable();
    assert!(want.iter().any(|&(d, ..)| d == dmax.to_bits()));
    let config = JoinConfig::default().with_range(0.0, dmax);
    for cell_width in [None, Some(0.003)] {
        let cells = BulkConfig {
            cell_width,
            ..BulkConfig::default()
        };
        let mut bulk = BulkDistanceJoin::with_bulk_config(&t1, &t2, config, cells).unwrap();
        let mut got: Vec<(u64, u64, u64)> = bulk
            .run()
            .iter()
            .map(|r| (r.distance.to_bits(), r.oid1.0, r.oid2.0))
            .collect();
        got.sort_unstable();
        assert_eq!(got, want, "cell width {cell_width:?}");
        assert_eq!(bulk.bulk_stats().replicated1, t1.len() as u64);
    }
}

#[test]
fn query_layer_over_generated_relations() {
    let water = tiger::water_like(300, 5);
    let roads = tiger::roads_like(900, 5);
    let mut rivers = Relation::new("rivers", &["kind"]);
    for p in &water {
        rivers.insert(*p, vec![Value::from("water")]).unwrap();
    }
    let mut streets = Relation::new("streets", &["lanes"]);
    for (i, p) in roads.iter().enumerate() {
        streets
            .insert(*p, vec![Value::from((i % 4 + 1) as i64)])
            .unwrap();
    }
    // Multi-lane streets near water, closest first, stop after 20.
    let rows: Vec<_> = DistanceQuery::join(&streets, &rivers)
        .where_left(Predicate::cmp("lanes", CmpOp::Ge, 3i64))
        .stop_after(20)
        .execute()
        .collect();
    assert_eq!(rows.len(), 20);
    for w in rows.windows(2) {
        assert!(w[0].distance <= w[1].distance);
    }
    for row in &rows {
        let lanes = streets.value(row.left, "lanes").unwrap();
        assert!(matches!(lanes, Value::Int(l) if l >= 3));
    }
}

/// A semi-join reports every left row's nearest *qualifying* right row. Each
/// store has a closed warehouse 0.5 away and an open one 3.0 away; filtering
/// the semi-join's pairs after the join would drop every store, so a right
/// predicate always runs before the join, whatever plan is asked for.
#[test]
fn semi_join_with_a_right_predicate_keeps_every_left_row() {
    let mut stores = Relation::new("stores", &[]);
    let mut warehouses = Relation::new("warehouses", &["open"]);
    for i in 0..3 {
        let x = 100.0 * f64::from(i);
        stores.insert(Point::xy(x, 0.0), vec![]).unwrap();
        warehouses
            .insert(Point::xy(x + 0.5, 0.0), vec![Value::from(0i64)])
            .unwrap();
        warehouses
            .insert(Point::xy(x, 3.0), vec![Value::from(1i64)])
            .unwrap();
    }
    let open = Predicate::cmp("open", CmpOp::Eq, 1i64);
    for plan in [
        FilterPlacement::Auto,
        FilterPlacement::FilterAfterJoin,
        FilterPlacement::FilterBeforeJoin,
    ] {
        let query = DistanceQuery::semi_join(&stores, &warehouses)
            .where_right(open.clone())
            .with_plan(plan);
        assert!(
            query.explain().contains("plan: FilterBeforeJoin"),
            "{plan:?}"
        );
        let mut out = query.execute();
        assert_eq!(out.plan(), FilterPlacement::FilterBeforeJoin, "{plan:?}");
        let rows: Vec<_> = out.by_ref().collect();
        assert!(out.take_error().is_none());
        assert_eq!(rows.len(), 3, "{plan:?} lost semi-join rows");
        for row in &rows {
            assert!((row.distance - 3.0).abs() < 1e-12, "{plan:?}: {row:?}");
            assert_eq!(warehouses.value(row.right, "open"), Some(Value::from(1i64)));
        }
    }
}

#[test]
fn pipelining_pays_only_for_what_is_consumed() {
    let (tw, tr, ..) = env();
    let mut ten = DistanceJoin::new(&tw, &tr, JoinConfig::default());
    for _ in 0..10 {
        ten.next().unwrap();
    }
    let cost_ten = ten.stats().distance_calcs;

    let mut all = DistanceJoin::new(&tw, &tr, JoinConfig::default());
    let n = all.by_ref().count();
    assert_eq!(n, tw.len() * tr.len());
    let cost_all = all.stats().distance_calcs;
    assert!(
        cost_ten * 10 < cost_all,
        "ten pairs should cost a small fraction of the full join \
         ({cost_ten} vs {cost_all})"
    );
}

/// `run_planned`'s incremental plan is the serial engine on the calling
/// thread: at any thread count, instrumented or not, it returns the stream
/// and the queue counts of `DistanceJoin::new(..).collect()` and spawns no
/// worker. The `ParallelDistanceJoin` shim returns the same stream.
#[test]
fn planned_incremental_runs_are_the_serial_engine() {
    let (tw, tr, ..) = env();
    let config = JoinConfig::default().with_max_pairs(2_000);
    let bits = |rs: &[ResultPair]| -> Vec<(u64, u64, u64)> {
        rs.iter()
            .map(|r| (r.distance.to_bits(), r.oid1.0, r.oid2.0))
            .collect()
    };
    let mut serial = DistanceJoin::new(&tw, &tr, config);
    let want: Vec<ResultPair> = serial.by_ref().collect();
    let want_stats = serial.stats();
    assert_eq!(want.len(), 2_000);
    for threads in [1, 2] {
        for obs in [None, Some(ObsContext::noop())] {
            let what = format!("threads={threads} obs={}", obs.is_some());
            let run = run_planned(
                &tw,
                &tr,
                config,
                ParallelConfig::with_threads(threads),
                BulkConfig::default(),
                AdaptiveConfig::default(),
                Some(PlanChoice::Incremental),
                obs,
            );
            assert!(run.error.is_none(), "{what}");
            assert_eq!(run.executed, PlanChoice::Incremental, "{what}");
            assert_eq!(bits(&run.results), bits(&want), "{what}: stream");
            assert_eq!(
                (run.stats.pairs_dequeued, run.stats.pairs_enqueued),
                (want_stats.pairs_dequeued, want_stats.pairs_enqueued),
                "{what}: queue counts"
            );
            assert_eq!(run.workers_spawned, 0, "{what}: workers");
        }
        let shim =
            ParallelDistanceJoin::new(&tw, &tr, config, ParallelConfig::with_threads(threads))
                .collect();
        assert!(shim.error.is_none());
        assert_eq!(bits(&shim.value), bits(&want), "shim at threads={threads}");
    }
}

#[test]
fn insertion_and_bulk_built_trees_join_identically() {
    let water = tiger::water_like(250, 8);
    let roads = tiger::roads_like(600, 8);
    let mut ins_w = RTree::new(RTreeConfig::default());
    for (i, p) in water.iter().enumerate() {
        ins_w.insert(ObjectId(i as u64), p.to_rect()).unwrap();
    }
    let bulk_w = RTree::bulk_load(
        RTreeConfig::default(),
        water
            .iter()
            .enumerate()
            .map(|(i, p)| (ObjectId(i as u64), p.to_rect()))
            .collect(),
    );
    let mut tr = RTree::new(RTreeConfig::default());
    for (i, p) in roads.iter().enumerate() {
        tr.insert(ObjectId(i as u64), p.to_rect()).unwrap();
    }
    ins_w.validate().unwrap();
    let a: Vec<f64> = DistanceJoin::new(&ins_w, &tr, JoinConfig::default())
        .take(500)
        .map(|r| r.distance)
        .collect();
    let b: Vec<f64> = DistanceJoin::new(&bulk_w, &tr, JoinConfig::default())
        .take(500)
        .map(|r| r.distance)
        .collect();
    for (x, y) in a.iter().zip(&b) {
        assert!(
            (x - y).abs() < 1e-9,
            "tree build method must not change results"
        );
    }
}

/// Points on a small integer grid, visited in an order that puts several
/// objects on most grid points: coincident points and many exactly equal
/// distances.
fn grid_with_duplicates(n: u64, stride: u64, side: u64) -> Items {
    (0..n)
        .map(|i| {
            let cell = (i * stride) % (side * side);
            let p = Point::xy((cell % side) as f64, (cell / side) as f64);
            (ObjectId(i), p.to_rect())
        })
        .collect()
}

/// Ordered bulk runs over relations full of exact distance ties: ascending
/// and descending, K = 1, a K that cuts a tie group and all pairs, on one
/// worker and on two. The distances must be the nested loop's (reversed for
/// descending), every equal-distance group must come out in ascending
/// `(oid1, oid2)` order, and both worker counts must give the same stream:
/// the tie order the bulk module promises.
#[test]
fn ordered_bulk_runs_break_distance_ties_by_object_ids() {
    let a = grid_with_duplicates(90, 7, 6);
    let b = grid_with_duplicates(70, 3, 5);
    let ta = RTree::bulk_load(RTreeConfig::small(4), a.clone());
    let tb = RTree::bulk_load(RTreeConfig::small(4), b.clone());
    let all: Vec<u64> = nested_loop_topk(&a, &b, Metric::Euclidean, a.len() * b.len())
        .iter()
        .map(|p| p.distance.to_bits())
        .collect();
    assert_eq!(all.len(), a.len() * b.len());
    // `Dmax` above every distance, over cells narrower than the data, so
    // every pair qualifies and two workers share the cells.
    let cells = BulkConfig {
        cell_width: Some(1.5),
        ..BulkConfig::default()
    };
    for order in [ResultOrder::Ascending, ResultOrder::Descending] {
        let want: Vec<u64> = match order {
            ResultOrder::Ascending => all.clone(),
            ResultOrder::Descending => all.iter().rev().copied().collect(),
        };
        // A K inside a tie group: the distance at K - 1 recurs at K.
        let cut = (want.len() / 3..want.len())
            .find(|&k| want[k - 1] == want[k])
            .expect("the relations have ties");
        for k in [1, cut, want.len()] {
            let config = JoinConfig {
                order,
                ..JoinConfig::default()
            }
            .with_range(0.0, 10.0)
            .with_max_pairs(k as u64);
            let label = format!("{order:?} K={k}");
            let streams: Vec<Vec<(u64, u64, u64)>> = [1, 2]
                .into_iter()
                .map(|workers| {
                    let mut bulk =
                        BulkDistanceJoin::with_bulk_config(&ta, &tb, config, cells).unwrap();
                    let stream = bulk
                        .run_with_workers(workers)
                        .iter()
                        .map(|r| (r.distance.to_bits(), r.oid1.0, r.oid2.0))
                        .collect();
                    assert_eq!(bulk.bulk_stats().sweep_workers(workers), workers);
                    stream
                })
                .collect();
            assert_eq!(streams[0], streams[1], "{label}: worker counts disagree");
            let got = &streams[0];
            let dists: Vec<u64> = got.iter().map(|&(d, ..)| d).collect();
            assert_eq!(dists, want[..k], "{label}");
            for w in got.windows(2) {
                if w[0].0 == w[1].0 {
                    assert!(w[0] < w[1], "{label}: tie out of id order: {w:?}");
                }
            }
        }
    }
}

/// K-bounded joins whose §2.2.4 estimate is decided by ties: exact distance
/// ties inside the estimator's set `M` share a bucket, so the crossing that
/// sets the bound falls inside a tie group. Every K from one pair to
/// more than all pairs, with and without `Dmin`, and a self-join with
/// `exclude_equal_ids`, under both estimation bounds, must return exactly
/// the nested loop's distances; a K-bounded semi-join must return the
/// nearest-neighbour baseline's first K.
#[test]
fn k_bounded_joins_with_distance_ties_agree_with_baselines() {
    let a = grid_with_duplicates(90, 7, 6);
    let b = grid_with_duplicates(70, 3, 5);
    let ta = RTree::bulk_load(RTreeConfig::small(4), a.clone());
    let tb = RTree::bulk_load(RTreeConfig::small(4), b.clone());
    let metric = Metric::Euclidean;
    let all_ab = nested_loop_topk(&a, &b, metric, a.len() * b.len());
    let all_aa = nested_loop_topk(&a, &a, metric, a.len() * a.len());
    let exact = |x: &Items, y: &Items, o1: ObjectId, o2: ObjectId| {
        metric.mindist_rect_rect(&x[o1.0 as usize].1, &y[o2.0 as usize].1)
    };

    for estimation in [EstimationBound::AllPairs, EstimationBound::ExistsPair] {
        let base = JoinConfig {
            estimation,
            ..JoinConfig::default()
        };
        for k in [1, 7, all_ab.len() / 2, all_ab.len() + 10] {
            for dmin in [0.0, 1.0] {
                let config = base
                    .with_max_pairs(k as u64)
                    .with_range(dmin, f64::INFINITY);
                let got: Vec<_> = DistanceJoin::new(&ta, &tb, config).collect();
                let want: Vec<f64> = all_ab
                    .iter()
                    .map(|p| p.distance)
                    .filter(|&d| d >= dmin)
                    .take(k)
                    .collect();
                let label = format!("{estimation:?} K={k} Dmin={dmin}");
                assert_eq!(got.len(), want.len(), "{label}");
                let mut pairs = std::collections::HashSet::new();
                for (r, w) in got.iter().zip(&want) {
                    assert!((r.distance - w).abs() < 1e-9, "{label}");
                    assert!((r.distance - exact(&a, &b, r.oid1, r.oid2)).abs() < 1e-9);
                    assert!(pairs.insert((r.oid1, r.oid2)), "{label}: pair repeated");
                }
            }

            let mut config = base.with_max_pairs(k as u64);
            config.exclude_equal_ids = true;
            let got: Vec<_> = DistanceJoin::new(&ta, &ta, config).collect();
            let want: Vec<f64> = all_aa
                .iter()
                .filter(|p| p.oid1 != p.oid2)
                .map(|p| p.distance)
                .take(k)
                .collect();
            assert_eq!(got.len(), want.len(), "{estimation:?} self-join K={k}");
            for (r, w) in got.iter().zip(&want) {
                assert_ne!(r.oid1, r.oid2);
                assert!(
                    (r.distance - w).abs() < 1e-9,
                    "{estimation:?} self-join K={k}"
                );
            }
        }
    }

    let semi = SemiConfig {
        filter: SemiFilter::Inside2,
        dmax: DmaxStrategy::GlobalAll,
    };
    let nn = nn_semijoin(&ta, &tb, metric).unwrap();
    for k in [1, 7, a.len() / 2] {
        let config = JoinConfig::default().with_max_pairs(k as u64);
        let got: Vec<_> = DistanceJoin::semi(&ta, &tb, config, semi).collect();
        assert_eq!(got.len(), k);
        for (r, w) in got.iter().zip(&nn) {
            assert!((r.distance - w.distance).abs() < 1e-9, "semi-join K={k}");
        }
        let firsts: std::collections::HashSet<_> = got.iter().map(|r| r.oid1).collect();
        assert_eq!(firsts.len(), k, "semi-join K={k}: first object repeated");
    }
}
