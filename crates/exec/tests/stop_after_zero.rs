//! `STOP AFTER 0` through the parallel drivers and the planner: every path
//! returns an empty stream without an error.

use sdj_core::bulk::BulkConfig;
use sdj_core::{AdaptiveConfig, JoinConfig, PlanChoice, SemiConfig};
use sdj_exec::{run_planned, ParallelBulkJoin, ParallelConfig, ParallelDistanceJoin};
use sdj_geom::Point;
use sdj_rtree::{ObjectId, RTree, RTreeConfig};

fn grid_tree(n: usize, shift: f64) -> RTree<2> {
    let mut t = RTree::new(RTreeConfig::small(6));
    for i in 0..n {
        let p = Point::xy((i % 16) as f64 + shift, (i / 16) as f64);
        t.insert(ObjectId(i as u64), p.to_rect()).unwrap();
    }
    t
}

#[test]
fn stop_after_zero_yields_nothing_in_parallel() {
    let (t1, t2) = (grid_tree(150, 0.0), grid_tree(200, 0.3));
    let config = JoinConfig::default().with_max_pairs(0);
    for threads in [1, 3] {
        let parallel = ParallelConfig::with_threads(threads);
        let join = ParallelDistanceJoin::new(&t1, &t2, config, parallel).collect();
        assert!(join.value.is_empty() && join.error.is_none());
        let semi =
            ParallelDistanceJoin::semi(&t1, &t2, config, SemiConfig::default(), parallel).collect();
        assert!(semi.value.is_empty() && semi.error.is_none());
        let bulk = ParallelBulkJoin::new(&t1, &t2, config.with_range(0.0, 2.0), parallel).collect();
        assert!(bulk.value.is_empty() && bulk.error.is_none());
        for plan in [
            PlanChoice::Incremental,
            PlanChoice::Bulk,
            PlanChoice::Adaptive,
        ] {
            let run = run_planned(
                &t1,
                &t2,
                config.with_range(0.0, 2.0),
                parallel,
                BulkConfig::default(),
                AdaptiveConfig::default(),
                Some(plan),
                None,
            );
            assert!(
                run.results.is_empty() && run.error.is_none(),
                "{plan:?} x{threads}"
            );
        }
    }
}
