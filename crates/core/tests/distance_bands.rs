//! Distance bands (`DESIGN.md` §22): a K-bounded ascending join expands a
//! pair only for the children keyed under its band ceiling and leaves the
//! rest to one deferred copy of the pair, which the queue pops once the
//! frontier reaches the ceiling. Whatever the bands do — a first ceiling
//! far below the K-th distance, ties and coincident points, `Dmin`,
//! windows, self-pair exclusion, any kernel path, tie policy, traversal or
//! queue backend — the stream must be the brute-force answer: the same
//! distance sequence bit for bit, and each group of equal distances the
//! same set of pairs (the last group may be cut by `K`).

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;
use sdj_baselines::nested_loop_topk;
use sdj_core::{
    DistanceJoin, ExpansionPath, JoinConfig, JoinStats, QueueBackend, ResultPair, TiePolicy,
    TraversalPolicy,
};
use sdj_geom::{KeySpace, Metric, Point, Rect};
use sdj_pqueue::HybridConfig;
use sdj_rtree::{ObjectId, RTree, RTreeConfig};

#[derive(Clone, Copy, Debug)]
enum Layout {
    /// Both relations spread over the same 10 × 10 box.
    Uniform,
    /// Each relation is a cluster in its own corner of the box plus one
    /// anchor in a far corner, so the roots overlap across the whole box
    /// while the closest pairs are about 8 apart: the first ceiling is 10
    /// or more times too small.
    Apart,
}

#[derive(Clone, Debug)]
struct Case {
    a: Vec<Point<2>>,
    b: Vec<Point<2>>,
    fanout: usize,
    k: u64,
    dmin: Option<f64>,
    exclude_equal_ids: bool,
    window1: Option<Rect<2>>,
    window2: Option<Rect<2>>,
    path: ExpansionPath,
    tie: TiePolicy,
    traversal: TraversalPolicy,
    hybrid_dt: Option<f64>,
}

/// `n` points of `unit` (coordinates in `[0, 1)`) scaled by `scale` and
/// moved to `at`; `snap` puts them on a coarse grid, so that exact
/// duplicates and many tied distances occur.
fn place(unit: &[(f64, f64)], scale: f64, at: (f64, f64), snap: bool) -> Vec<Point<2>> {
    unit.iter()
        .map(|&(x, y)| {
            let (x, y) = (at.0 + x * scale, at.1 + y * scale);
            if snap {
                Point::xy((x * 4.0).round() / 4.0, (y * 4.0).round() / 4.0)
            } else {
                Point::xy(x, y)
            }
        })
        .collect()
}

fn relations(
    layout: Layout,
    a: &[(f64, f64)],
    b: &[(f64, f64)],
    snap: bool,
) -> (Vec<Point<2>>, Vec<Point<2>>) {
    match layout {
        Layout::Uniform => (
            place(a, 10.0, (0.0, 0.0), snap),
            place(b, 10.0, (0.0, 0.0), snap),
        ),
        Layout::Apart => {
            let mut a = place(a, 1.0, (0.0, 0.0), snap);
            let mut b = place(b, 1.0, (9.0, 0.0), snap);
            a.push(Point::xy(10.0, 10.0));
            b.push(Point::xy(0.0, 10.0));
            (a, b)
        }
    }
}

fn arb_window() -> impl Strategy<Value = Option<Rect<2>>> {
    prop::option::of((0.0..6.0f64, 0.0..6.0f64, 2.0..10.0f64, 2.0..10.0f64))
        .prop_map(|w| w.map(|(x, y, dx, dy)| Rect::new([x, y], [x + dx, y + dy])))
}

fn arb_case() -> impl Strategy<Value = Case> {
    let unit = |max| prop::collection::vec((0.0..1.0f64, 0.0..1.0f64), 1..max);
    let layout = prop_oneof![Just(Layout::Uniform), Just(Layout::Apart)];
    let path = prop::sample::select(vec![
        ExpansionPath::Batched,
        ExpansionPath::Lanes,
        ExpansionPath::Scalar,
    ]);
    let tie = prop::sample::select(vec![TiePolicy::DepthFirst, TiePolicy::BreadthFirst]);
    let traversal = prop::sample::select(vec![
        TraversalPolicy::Even,
        TraversalPolicy::Basic,
        TraversalPolicy::Simultaneous,
    ]);
    (
        (layout, unit(90), unit(120), any::<bool>(), 3usize..7),
        (1u64..60, prop::option::of(0.0..1.5f64), any::<bool>()),
        (arb_window(), arb_window()),
        (path, tie, traversal, prop::option::of(0.05..2.0f64)),
    )
        .prop_map(
            |(
                (layout, a, b, snap, fanout),
                (k, dmin, exclude_equal_ids),
                (window1, window2),
                (path, tie, traversal, hybrid_dt),
            )| {
                let (a, b) = relations(layout, &a, &b, snap);
                Case {
                    a,
                    b,
                    fanout,
                    k,
                    dmin,
                    exclude_equal_ids,
                    window1,
                    window2,
                    path,
                    tie,
                    traversal,
                    hybrid_dt,
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
fn relation(points: &[Point<2>], window: Option<Rect<2>>) -> Vec<(ObjectId, Rect<2>)> {
    points
        .iter()
        .enumerate()
        .map(|(i, p)| (ObjectId(i as u64), p.to_rect()))
        .filter(|(_, r)| window.is_none_or(|w| w.contains_rect(r)))
        .collect()
}

fn config_of(case: &Case) -> JoinConfig {
    let mut config = JoinConfig {
        exclude_equal_ids: case.exclude_equal_ids,
        tie: case.tie,
        traversal: case.traversal,
        ..JoinConfig::default()
            .with_range(case.dmin.unwrap_or(0.0), f64::INFINITY)
            .with_max_pairs(case.k)
            .with_expansion(case.path)
    };
    if let Some(dt) = case.hybrid_dt {
        config.queue = QueueBackend::Hybrid(HybridConfig {
            dt,
            page_size: 256,
            buffer_frames: 2,
            keys: KeySpace::squared(Metric::Euclidean),
        });
    }
    config
}

/// What a run of the case's join produced.
struct Run {
    got: Vec<ResultPair>,
    stats: JoinStats,
    /// The smallest §2.2.4 estimate read after any result.
    lowest_estimate: f64,
}

/// Runs the case's join; panics on an I/O error.
fn run(case: &Case) -> Run {
    let (t1, t2) = (tree(&case.a, case.fanout), tree(&case.b, case.fanout));
    let mut join =
        DistanceJoin::new(&t1, &t2, config_of(case)).with_windows(case.window1, case.window2);
    let mut got = Vec::new();
    let mut lowest_estimate = f64::INFINITY;
    while let Some(r) = join.next() {
        got.push(r);
        let estimate = join.estimated_max_distance().unwrap_or(f64::INFINITY);
        lowest_estimate = lowest_estimate.min(estimate);
    }
    assert!(join.take_error().is_none());
    Run {
        got,
        stats: join.stats(),
        lowest_estimate,
    }
}

/// Checks a run against the brute-force answer: every qualifying pair,
/// closest first, then `K`. Distances must agree bit for bit and rank by
/// rank; each group of equal distances must hold the same pairs, except the
/// last, which `K` may cut and which must then hold a subset of its group.
/// The §2.2.4 estimate must never have fallen below the true K-th distance:
/// a deferred copy counted in `M` next to the children its pair already
/// queued would count pairs twice and let it.
fn check(case: &Case, run: &Run) -> Result<(), TestCaseError> {
    let got = &run.got;
    let (r1, r2) = (
        relation(&case.a, case.window1),
        relation(&case.b, case.window2),
    );
    let lo = case.dmin.unwrap_or(0.0);
    let all: Vec<_> = nested_loop_topk(&r1, &r2, Metric::Euclidean, r1.len() * r2.len())
        .into_iter()
        .filter(|p| p.distance >= lo)
        .filter(|p| !(case.exclude_equal_ids && p.oid1 == p.oid2))
        .collect();
    let k = (case.k as usize).min(all.len());
    prop_assert_eq!(got.len(), k);
    if k == case.k as usize {
        let kth = all[k - 1].distance;
        prop_assert!(
            run.lowest_estimate >= kth,
            "estimate {} under the K-th distance {}",
            run.lowest_estimate,
            kth
        );
    }
    let mut groups: HashMap<u64, HashSet<(u64, u64)>> = HashMap::new();
    for p in &all {
        groups
            .entry(p.distance.to_bits())
            .or_default()
            .insert((p.oid1.0, p.oid2.0));
    }
    for (i, (g, e)) in got.iter().zip(&all).enumerate() {
        prop_assert_eq!(
            g.distance.to_bits(),
            e.distance.to_bits(),
            "rank {}: {} vs {}",
            i,
            g.distance,
            e.distance
        );
    }
    let mut start = 0;
    while start < got.len() {
        let bits = got[start].distance.to_bits();
        let end = start + got[start..].partition_point(|p| p.distance.to_bits() == bits);
        let group: HashSet<(u64, u64)> = got[start..end]
            .iter()
            .map(|p| (p.oid1.0, p.oid2.0))
            .collect();
        prop_assert_eq!(group.len(), end - start, "a pair was reported twice");
        let want = &groups[&bits];
        if end < got.len() || got.len() == all.len() {
            prop_assert_eq!(&group, want, "tie group at {}", got[start].distance);
        } else {
            prop_assert!(
                group.is_subset(want),
                "tie group at {}",
                got[start].distance
            );
        }
        start = end;
    }
    Ok(())
}

/// Every enqueued pair, deferred copies included, is dequeued, discarded or
/// still queued, and only a copy that was queued can be re-expanded.
fn check_conservation(stats: &JoinStats) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        stats.pairs_enqueued,
        stats.pairs_dequeued + stats.pairs_discarded + stats.queue_len
    );
    prop_assert!(stats.band_reexpanded <= stats.band_deferred);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn banded_joins_match_the_nested_loop(case in arb_case()) {
        let run = run(&case);
        check(&case, &run)?;
        check_conservation(&run.stats)?;
    }
}

/// `n × n` points on a unit lattice from `(0.5, 0.5)`, moved by `shift`,
/// each nudged by a distinct sub-lattice offset so that no two distances
/// tie.
fn lattice(n: usize, shift: (f64, f64), seed: u64) -> Vec<Point<2>> {
    let mut state = seed;
    let mut jitter = || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 0.1
    };
    (0..n * n)
        .map(|i| {
            let (x, y) = ((i % n) as f64 + 0.5, (i / n) as f64 + 0.5);
            Point::xy(x + shift.0 + jitter(), y + shift.1 + jitter())
        })
        .collect()
}

/// Two 100-point jittered lattices about 8 apart, in `[0, 1]²` and
/// `[9, 10] × [0, 1]`, with one object per side in a far corner, so that
/// the roots overlap across the whole 10 × 10 box.
fn apart(seed: u64) -> (Vec<Point<2>>, Vec<Point<2>>) {
    let cluster = |x0: f64, seed| -> Vec<Point<2>> {
        lattice(10, (0.0, 0.0), seed)
            .iter()
            .map(|p| Point::xy(x0 + 0.1 * p.coords()[0], 0.1 * p.coords()[1]))
            .collect()
    };
    let (mut a, mut b) = (cluster(0.0, seed), cluster(9.0, seed + 1));
    a.push(Point::xy(10.0, 10.0));
    b.push(Point::xy(0.0, 10.0));
    (a, b)
}

fn default_case(a: Vec<Point<2>>, b: Vec<Point<2>>, fanout: usize, k: u64) -> Case {
    Case {
        a,
        b,
        fanout,
        k,
        dmin: None,
        exclude_equal_ids: false,
        window1: None,
        window2: None,
        path: ExpansionPath::Batched,
        tie: TiePolicy::DepthFirst,
        traversal: TraversalPolicy::Even,
        hybrid_dt: None,
    }
}

/// Two relations whose roots overlap over the whole box while their
/// closest pairs lie about 8 apart: the first ceiling (about 0.4 here) is
/// some twenty times too small. The frontier reaches each ceiling before
/// the estimate prunes the copies keyed there, so copies are re-expanded
/// at least three times, at ceilings doubling from the first — and the
/// stream is still the brute-force answer, on either queue backend.
#[test]
fn a_ceiling_far_below_the_kth_distance_widens_until_k_pairs_are_found() {
    let (a, b) = apart(3);
    for hybrid_dt in [None, Some(0.5)] {
        let case = Case {
            hybrid_dt,
            ..default_case(a.clone(), b.clone(), 5, 12)
        };
        let run = run(&case);
        check(&case, &run).unwrap();
        let Run { got, stats, .. } = run;
        check_conservation(&stats).unwrap();
        assert!(got[0].distance > 7.0, "{}", got[0].distance);
        assert!(
            stats.band_reexpanded >= 3,
            "{hybrid_dt:?}: {} copies re-expanded",
            stats.band_reexpanded
        );
    }
}

/// Two far clusters and a small pocket of four objects per side, whose 16
/// pairs lie 0.3–0.7 apart, across the first ceiling (about 0.5): the
/// pocket's one-sided expansions defer their far children to copies. At
/// K = 18, 20 and 30 the answer is the pocket's pairs and then pairs of the
/// clusters, about 8 apart; the estimate must stay at or above the K-th
/// distance throughout, which a copy counted in `M` next to the children
/// its pair already queued would put at risk.
#[test]
fn a_pocket_across_the_first_ceiling_keeps_every_pair() {
    let (mut a, mut b) = apart(7);
    a.extend([(5.0, 5.0), (5.6, 5.0), (5.0, 5.6), (5.6, 5.6)].map(|(x, y)| Point::xy(x, y)));
    b.extend([(5.3, 5.3), (5.3, 4.9), (4.7, 5.3), (5.9, 5.35)].map(|(x, y)| Point::xy(x, y)));
    for k in [18, 20, 30] {
        let case = default_case(a.clone(), b.clone(), 4, k);
        let run = run(&case);
        check(&case, &run).unwrap();
        check_conservation(&run.stats).unwrap();
        assert!(run.stats.band_deferred > 0, "K={k}: nothing deferred");
    }
}

/// A leaf pair the plane sweep opened under a ceiling below half its
/// leaves' width re-expands, once the ceiling has doubled, from a copy
/// whose fresh dispatch would now open one side: two jittered lattices
/// offset by half a cell, whose closest pairs (about 0.7 apart) lie past
/// the first ceiling (about 0.3), on leaves about one cell wide. A copy
/// that re-expanded one side would skip the (object, leaf) pairs keyed
/// under its band and lose their object pairs, which the sweep never
/// generated. Every kernel path must agree with the brute force.
#[test]
fn a_copy_re_expands_with_the_shape_it_was_deferred_with() {
    let a = lattice(10, (0.0, 0.0), 1);
    let b = lattice(10, (0.5, 0.5), 2);
    for path in [
        ExpansionPath::Batched,
        ExpansionPath::Lanes,
        ExpansionPath::Scalar,
    ] {
        for k in [5, 10, 20] {
            let case = Case {
                path,
                ..default_case(a.clone(), b.clone(), 4, k)
            };
            let run = run(&case);
            check(&case, &run).unwrap();
            let stats = run.stats;
            check_conservation(&stats).unwrap();
            assert!(stats.sweep_expansions > 0, "{path:?} K={k}: nothing swept");
            assert!(
                stats.band_reexpanded > 0,
                "{path:?} K={k}: no copy re-expanded"
            );
        }
    }
}

/// Only a K-bounded ascending join is banded: a `Dmax`-only join, an
/// unbounded one and a descending one defer nothing.
#[test]
fn only_k_bounded_ascending_joins_defer() {
    let a = lattice(8, (0.0, 0.0), 5);
    let b = lattice(8, (0.5, 0.5), 6);
    let (t1, t2) = (tree(&a, 4), tree(&b, 4));
    let deferred = |config: JoinConfig| {
        let mut join = DistanceJoin::new(&t1, &t2, config);
        assert!(join.by_ref().count() > 0);
        join.stats().band_deferred
    };
    assert!(deferred(JoinConfig::default().with_max_pairs(10)) > 0);
    assert_eq!(deferred(JoinConfig::default().with_range(0.0, 0.8)), 0);
    assert_eq!(deferred(JoinConfig::default()), 0);
    let descending = JoinConfig {
        order: sdj_core::ResultOrder::Descending,
        ..JoinConfig::default().with_max_pairs(10)
    };
    assert_eq!(deferred(descending), 0);
}
