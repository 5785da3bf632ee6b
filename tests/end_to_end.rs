//! Cross-crate end-to-end tests through the facade: data generation →
//! indexing → incremental joins → baselines → query layer, all agreeing.

use incremental_distance_join::baselines::{nested_loop_topk, nn_semijoin, within_join};
use incremental_distance_join::datagen::tiger;
use incremental_distance_join::geom::{Metric, Point};
use incremental_distance_join::join::{
    BulkConfig, BulkDistanceJoin, DistanceJoin, DmaxStrategy, EstimationBound, JoinConfig,
    SemiConfig, SemiFilter,
};
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

/// K-bounded joins whose §2.2.4 estimate is decided by ties: with exact
/// distance ties inside the estimator's set `M`, which equal-`d_max` member
/// is evicted first is the only thing that varies. Every K from one pair to
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
