//! Range as a filter: the paper's distance range is closed (§2.2.3,
//! `Dmin ≤ d ≤ Dmax`), so a run restricted by `with_range(lo, hi)` must
//! equal the unrestricted stream filtered by `lo ≤ d ≤ hi`, pair for pair,
//! on every engine: incremental, bulk, adaptive, semi and the hybrid queue. Bounds are drawn from reported distances — the values a
//! caller feeds back as a cut-off — which is exactly where a bound rounded
//! inward into the squared key domain loses the pair lying on it.

use proptest::prelude::*;
use sdj_core::bulk::{BulkConfig, BulkDistanceJoin};
use sdj_core::{
    AdaptiveConfig, AdaptiveDistanceJoin, DistanceJoin, DmaxStrategy, JoinConfig, QueueBackend,
    ResultPair, SemiConfig, SemiFilter,
};
use sdj_geom::Rect;
use sdj_rtree::{ObjectId, RTree, RTreeConfig};

fn tree(rects: &[Rect<2>]) -> RTree<2> {
    let mut t = RTree::new(RTreeConfig::small(5));
    for (i, r) in rects.iter().enumerate() {
        t.insert(ObjectId(i as u64), *r).unwrap();
    }
    t
}

/// Points, with every third object widened into a small rectangle so the
/// bulk path's left extents are not all zero.
fn arb_rects() -> impl Strategy<Value = Vec<Rect<2>>> {
    proptest::collection::vec((0.0..10.0f64, 0.0..10.0f64, 0.0..0.4f64), 8..48).prop_map(|v| {
        v.into_iter()
            .enumerate()
            .map(|(i, (x, y, w))| {
                let w = if i % 3 == 0 { w } else { 0.0 };
                Rect::new([x, y], [x + w, y + w / 2.0])
            })
            .collect()
    })
}

type Triple = (u64, u64, u64);

fn triples(results: &[ResultPair]) -> Vec<Triple> {
    results
        .iter()
        .map(|r| (r.distance.to_bits(), r.oid1.0, r.oid2.0))
        .collect()
}

/// The same pairs, and the same distance sequence (tie order may differ
/// between engines, so pairs are compared as sorted multisets).
fn same_stream(got: &[ResultPair], want: &[ResultPair]) -> Result<(), TestCaseError> {
    let dists = |rs: &[ResultPair]| rs.iter().map(|r| r.distance.to_bits()).collect::<Vec<_>>();
    prop_assert_eq!(dists(got), dists(want));
    let (mut g, mut w) = (triples(got), triples(want));
    g.sort_unstable();
    w.sort_unstable();
    prop_assert_eq!(g, w);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn range_restriction_is_a_filter_on_every_engine(
        a in arb_rects(),
        b in arb_rects(),
        cut in (0.0..1.0f64, 0.0..1.0f64),
    ) {
        let (t1, t2) = (tree(&a), tree(&b));
        let all: Vec<ResultPair> = DistanceJoin::new(&t1, &t2, JoinConfig::default()).collect();
        let at = |f: f64| all[((all.len() - 1) as f64 * f) as usize].distance;
        let (lo, hi) = (at(cut.0.min(cut.1)), at(cut.0.max(cut.1)));
        let want: Vec<ResultPair> = all
            .iter()
            .copied()
            .filter(|r| lo <= r.distance && r.distance <= hi)
            .collect();
        let config = JoinConfig::default().with_range(lo, hi);

        let incremental: Vec<ResultPair> = DistanceJoin::new(&t1, &t2, config).collect();
        same_stream(&incremental, &want)?;

        for cell_width in [None, Some(0.7)] {
            let bulk_config = BulkConfig { cell_width, ..BulkConfig::default() };
            let mut bulk = BulkDistanceJoin::with_bulk_config(&t1, &t2, config, bulk_config).unwrap();
            same_stream(&bulk.run(), &want)?;
            prop_assert_eq!(bulk.bulk_stats().replicated1, a.len() as u64);
        }

        let adaptive = AdaptiveConfig {
            pop_stride: 4,
            force_handoff_at: Some(8),
            ..AdaptiveConfig::default()
        };
        let run = AdaptiveDistanceJoin::with_configs(&t1, &t2, config, BulkConfig::default(), adaptive)
            .run();
        prop_assert!(run.error.is_none());
        same_stream(&run.results, &want)?;

        // A bucket increment at a reported distance puts tier boundaries on
        // result distances.
        let hybrid = JoinConfig {
            queue: QueueBackend::Hybrid(sdj_pqueue::HybridConfig {
                dt: if hi > 0.0 { hi / 4.0 } else { 0.25 },
                page_size: 256,
                buffer_frames: 2,
                ..sdj_pqueue::HybridConfig::default()
            }),
            ..config
        };
        let hybrid: Vec<ResultPair> = DistanceJoin::new(&t1, &t2, hybrid).collect();
        same_stream(&hybrid, &want)?;

        // A semi-join's nearest partner only survives a `Dmin` unchanged at
        // 0, so its filter is `d ≤ hi`; the witness may differ under a tie.
        let semi = SemiConfig { filter: SemiFilter::Inside2, dmax: DmaxStrategy::GlobalAll };
        let nearest = |config| {
            let mut v: Vec<(u64, u64)> = DistanceJoin::semi(&t1, &t2, config, semi)
                .map(|r| (r.oid1.0, r.distance.to_bits()))
                .collect();
            v.sort_unstable();
            v
        };
        let mut semi_want = nearest(JoinConfig::default());
        semi_want.retain(|&(_, d)| f64::from_bits(d) <= hi);
        prop_assert_eq!(nearest(JoinConfig::default().with_range(0.0, hi)), semi_want);
    }
}
