//! The default traversal's expansion dispatch: under `Even`, an equal-level
//! node pair of a plain ascending join is opened on both sides by the
//! plane sweep while the known maximum distance is under half the narrower
//! node's axis-0 extent, and on one side otherwise. At a leaf/leaf pair of
//! a K-bounded join the dispatch reads the distance band's ceiling when it
//! is below that distance, and a deferred copy re-expands with the shape
//! its pair first took (`DESIGN.md` §22). A leaf/leaf pair of a
//! `GlobalAll` semi-join is opened on both sides by the semi-join leaf
//! sweep. Whichever expansion a pair gets, the stream must be the
//! brute-force answer — checked here over random trees and every kind of
//! restriction the dispatch reads or the sweep window depends on.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;
use sdj_baselines::nested_loop_topk;
use sdj_core::{
    DistanceJoin, DmaxStrategy, JoinConfig, ResultOrder, ResultPair, SemiConfig, SemiFilter,
};
use sdj_geom::{Metric, Point, Rect};
use sdj_rtree::{ObjectId, RTree, RTreeConfig};

const EPS: f64 = 1e-9;

#[derive(Clone, Copy, Debug)]
enum KKind {
    One,
    Small(u64),
    /// More than `|R1| * |R2|`: the bound never bites, the stream drains.
    Huge,
}

#[derive(Clone, Debug)]
struct Case {
    a: Vec<Point<2>>,
    b: Vec<Point<2>>,
    fanout: usize,
    k: KKind,
    k_extra: u64,
    dmax: Option<f64>,
    dmin: Option<f64>,
    exclude_equal_ids: bool,
    window1: Option<Rect<2>>,
    window2: Option<Rect<2>>,
}

/// 0..max points; `snap` puts them on a coarse grid so exact duplicates
/// (and many tied distances) occur.
fn arb_points(max: usize) -> impl Strategy<Value = Vec<Point<2>>> {
    (
        prop::collection::vec((0.0..10.0f64, 0.0..10.0f64), 0..max),
        any::<bool>(),
    )
        .prop_map(|(v, snap)| {
            v.into_iter()
                .map(|(x, y)| {
                    if snap {
                        Point::xy((x * 0.5).round() * 2.0, (y * 0.5).round() * 2.0)
                    } else {
                        Point::xy(x, y)
                    }
                })
                .collect()
        })
}

fn arb_window() -> impl Strategy<Value = Option<Rect<2>>> {
    prop::option::of((0.0..6.0f64, 0.0..6.0f64, 2.0..8.0f64, 2.0..8.0f64))
        .prop_map(|w| w.map(|(x, y, dx, dy)| Rect::new([x, y], [x + dx, y + dy])))
}

fn arb_case() -> impl Strategy<Value = Case> {
    let k = prop_oneof![
        Just(KKind::One),
        (2u64..40).prop_map(KKind::Small),
        Just(KKind::Huge),
    ];
    (
        // Very different cardinalities give trees of unequal height; one
        // side may hold a single object or nothing at all.
        (
            prop_oneof![arb_points(2), arb_points(40)],
            arb_points(160),
            3usize..7,
        ),
        (
            k,
            1u64..30,
            prop::option::of(0.2..6.0f64),
            prop::option::of(0.0..1.0f64),
        ),
        (any::<bool>(), arb_window(), arb_window()),
    )
        .prop_map(
            |((a, b, fanout), (k, k_extra, dmax, dmin), (exclude_equal_ids, window1, window2))| {
                Case {
                    a,
                    b,
                    fanout,
                    k,
                    k_extra,
                    dmax,
                    // `Dmin` as a fraction of `Dmax` (or of the data's
                    // typical spacing) keeps `Dmin <= Dmax`.
                    dmin: dmin.map(|f| f * dmax.unwrap_or(3.0)),
                    exclude_equal_ids,
                    window1,
                    window2,
                }
            },
        )
}

fn tree(points: &[Point<2>], fanout: usize) -> RTree<2> {
    let mut t = RTree::new(RTreeConfig::small(fanout));
    for (i, p) in points.iter().enumerate() {
        t.insert(ObjectId(i as u64), p.to_rect()).unwrap();
    }
    t
}

/// The objects of one side that a window admits, in the baseline's format.
fn relation(points: &[Point<2>], window: &Option<Rect<2>>) -> Vec<(ObjectId, Rect<2>)> {
    points
        .iter()
        .enumerate()
        .map(|(i, p)| (ObjectId(i as u64), p.to_rect()))
        .filter(|(_, r)| window.as_ref().is_none_or(|w| w.contains_rect(r)))
        .collect()
}

fn run(t1: &RTree<2>, t2: &RTree<2>, case: &Case, config: JoinConfig) -> Vec<ResultPair> {
    let mut join = DistanceJoin::new(t1, t2, config).with_windows(case.window1, case.window2);
    let out: Vec<_> = join.by_ref().collect();
    assert!(join.take_error().is_none());
    out
}

/// `K` as the case asks for it, against `all` possible results.
fn k_of(case: &Case, all: usize) -> u64 {
    match case.k {
        KKind::One => 1,
        KKind::Small(k) => k,
        KKind::Huge => all as u64 + 7,
    }
}

/// The case's restrictions as a join configuration, with `K`.
fn restricted(case: &Case, k: u64) -> JoinConfig {
    let (lo, hi) = (case.dmin.unwrap_or(0.0), case.dmax.unwrap_or(f64::INFINITY));
    JoinConfig {
        exclude_equal_ids: case.exclude_equal_ids,
        ..JoinConfig::default().with_range(lo, hi).with_max_pairs(k)
    }
}

const GLOBAL_ALL: SemiConfig = SemiConfig {
    filter: SemiFilter::Inside2,
    dmax: DmaxStrategy::GlobalAll,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn default_stream_matches_nested_loop(case in arb_case()) {
        let (t1, t2) = (tree(&case.a, case.fanout), tree(&case.b, case.fanout));
        let all = case.a.len() * case.b.len();
        let k = k_of(&case, all);
        let (lo, hi) = (case.dmin.unwrap_or(0.0), case.dmax.unwrap_or(f64::INFINITY));
        let config = restricted(&case, k);

        // Brute force: every pair of admitted objects, closest first, then
        // the restrictions the baseline does not know about, then `K`.
        let expected: Vec<_> = nested_loop_topk(
            &relation(&case.a, &case.window1),
            &relation(&case.b, &case.window2),
            Metric::Euclidean,
            all,
        )
        .into_iter()
        .filter(|p| p.distance >= lo && p.distance <= hi)
        .filter(|p| !(case.exclude_equal_ids && p.oid1 == p.oid2))
        .take(k as usize)
        .collect();

        let got = run(&t1, &t2, &case, config);
        prop_assert_eq!(got.len(), expected.len());
        let mut pairs = std::collections::HashSet::new();
        for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
            // Same distance-sorted multiset: rank by rank the same distance
            // (ties may order their pairs differently), every pair real,
            // none reported twice.
            prop_assert!((g.distance - e.distance).abs() < EPS, "rank {}: {} vs {}", i, g.distance, e.distance);
            let truth = Metric::Euclidean
                .distance(&case.a[g.oid1.0 as usize], &case.b[g.oid2.0 as usize]);
            prop_assert!((g.distance - truth).abs() < EPS);
            prop_assert!(pairs.insert((g.oid1, g.oid2)), "pair reported twice");
            prop_assert!(i == 0 || got[i - 1].distance <= g.distance, "distances decreased");
        }

        // `stream(K)` is a prefix of `stream(K' > K)` in distances, bit for
        // bit — the two runs shrink `d_max` (and so pick sweeps) differently.
        let longer = run(&t1, &t2, &case, config.with_max_pairs(k + case.k_extra));
        prop_assert!(longer.len() >= got.len());
        for (g, l) in got.iter().zip(&longer) {
            prop_assert_eq!(g.distance.to_bits(), l.distance.to_bits());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// A `GlobalAll` semi-join, whose leaf pairs the leaf sweep opens, gives
    /// every admitted first object its nearest qualifying partner — inside
    /// `window2`, within `[Dmin, Dmax]`, not itself under
    /// `exclude_equal_ids` — in distance order, cut at `K`. Tied distances
    /// may order their objects differently, and at the `K` cut may pick
    /// different ones.
    #[test]
    fn global_all_semi_join_matches_brute_force(case in arb_case()) {
        let (t1, t2) = (tree(&case.a, case.fanout), tree(&case.b, case.fanout));
        let k = k_of(&case, case.a.len());
        let (lo, hi) = (case.dmin.unwrap_or(0.0), case.dmax.unwrap_or(f64::INFINITY));
        let partners = relation(&case.b, &case.window2);
        let distance = |o1: ObjectId, o2: ObjectId| {
            Metric::Euclidean.distance(&case.a[o1.0 as usize], &case.b[o2.0 as usize])
        };
        let nearest: HashMap<ObjectId, f64> = relation(&case.a, &case.window1)
            .into_iter()
            .filter_map(|(o1, _)| {
                partners
                    .iter()
                    .filter(|(o2, _)| !(case.exclude_equal_ids && o1 == *o2))
                    .map(|(o2, _)| distance(o1, *o2))
                    .filter(|d| *d >= lo && *d <= hi)
                    .min_by(f64::total_cmp)
                    .map(|d| (o1, d))
            })
            .collect();
        let mut expected: Vec<f64> = nearest.values().copied().collect();
        expected.sort_by(f64::total_cmp);
        expected.truncate(k as usize);

        let mut join = DistanceJoin::semi(&t1, &t2, restricted(&case, k), GLOBAL_ALL)
            .with_windows(case.window1, case.window2);
        let got: Vec<_> = join.by_ref().collect();
        prop_assert!(join.take_error().is_none());
        prop_assert_eq!(got.len(), expected.len());
        let mut firsts = HashSet::new();
        for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
            prop_assert!((g.distance - e).abs() < EPS, "rank {}: {} vs {}", i, g.distance, e);
            prop_assert!(firsts.insert(g.oid1), "first object {:?} reported twice", g.oid1);
            prop_assert!(partners.iter().any(|(o2, _)| *o2 == g.oid2), "partner outside window2");
            prop_assert!((g.distance - distance(g.oid1, g.oid2)).abs() < EPS);
            let want = nearest.get(&g.oid1).copied();
            prop_assert!(
                want.is_some_and(|d| (g.distance - d).abs() < EPS),
                "object {:?}: {} vs nearest {:?}", g.oid1, g.distance, want
            );
            prop_assert!(i == 0 || got[i - 1].distance <= g.distance, "distances decreased");
        }
    }
}

/// The dispatch is read from engine state: a bound that is tight against
/// the nodes' widths makes a plain ascending join sweep, a `GlobalAll`
/// semi-join sweeps its leaf pairs, and nothing else sweeps.
#[test]
fn sweep_expansions_follow_the_guard() {
    let a: Vec<_> = (0..300)
        .map(|i| Point::xy(f64::from(i % 20) * 0.5, f64::from(i / 20) * 0.7))
        .collect();
    let b: Vec<_> = (0..400)
        .map(|i| Point::xy(f64::from(i % 25) * 0.4 + 0.1, f64::from(i / 25) * 0.6))
        .collect();
    let (t1, t2) = (tree(&a, 6), tree(&b, 6));
    let sweeps = |mut join: DistanceJoin<'_, 2>, take: usize| {
        assert_eq!(join.by_ref().take(take).count(), take);
        join.stats().sweep_expansions
    };
    let k_bounded = JoinConfig::default().with_max_pairs(50);
    let ranged = JoinConfig::default().with_range(0.0, 0.8);
    assert!(sweeps(DistanceJoin::new(&t1, &t2, k_bounded), 50) > 0);
    assert!(sweeps(DistanceJoin::new(&t1, &t2, ranged), 50) > 0);
    // No bound (Figure 6), or one wider than any node (the data spans
    // 10 x 10.5): the sweep window would be the whole node, so one-sided
    // expansion throughout.
    assert_eq!(
        sweeps(DistanceJoin::new(&t1, &t2, JoinConfig::default()), 50),
        0
    );
    let loose = JoinConfig::default().with_range(0.0, 6.0);
    assert_eq!(sweeps(DistanceJoin::new(&t1, &t2, loose), 50), 0);
    // Semi-joins keep their per-object pruning; descending runs key on
    // MAXDIST. Both have a bound here and still never take the join's
    // sweep. A `GlobalAll` semi-join, which stores a bound per first
    // object, sweeps its leaf pairs; no other semi-join does.
    let semi = |dmax| SemiConfig {
        filter: SemiFilter::Inside2,
        dmax,
    };
    for config in [k_bounded, JoinConfig::default()] {
        let global_all = DistanceJoin::semi(&t1, &t2, config, GLOBAL_ALL);
        assert!(sweeps(global_all, 50) > 0);
        for semi in [
            SemiConfig::default(),
            semi(DmaxStrategy::None),
            semi(DmaxStrategy::GlobalNodes),
        ] {
            assert_eq!(sweeps(DistanceJoin::semi(&t1, &t2, config, semi), 50), 0);
        }
    }
    let descending = JoinConfig {
        order: ResultOrder::Descending,
        ..ranged
    };
    assert_eq!(sweeps(DistanceJoin::new(&t1, &t2, descending), 50), 0);
    let descending_semi = DistanceJoin::semi(&t1, &t2, descending, semi(DmaxStrategy::None));
    assert_eq!(sweeps(descending_semi, 50), 0);
}
