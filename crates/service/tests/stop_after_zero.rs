//! `STOP AFTER 0` through a service session: whatever the plan, the first
//! pull is an empty, done batch.

use sdj_core::{AdaptiveConfig, JoinConfig, PlanChoice};
use sdj_geom::Point;
use sdj_rtree::{ObjectId, RTree, RTreeConfig};
use sdj_service::{JoinService, ServiceConfig, SessionConfig};

fn grid_tree(n: usize, shift: f64) -> RTree<2> {
    let mut t = RTree::new(RTreeConfig::small(6));
    for i in 0..n {
        let p = Point::xy((i % 16) as f64 + shift, (i / 16) as f64);
        t.insert(ObjectId(i as u64), p.to_rect()).unwrap();
    }
    t
}

#[test]
fn stop_after_zero_session_is_empty_and_done() {
    let (t1, t2) = (grid_tree(150, 0.0), grid_tree(200, 0.3));
    let service = JoinService::new(&t1, &t2, ServiceConfig::default());
    for plan in [
        PlanChoice::Incremental,
        PlanChoice::Bulk,
        PlanChoice::Adaptive,
    ] {
        let mut session = service
            .open(SessionConfig {
                join: JoinConfig::default().with_range(0.0, 2.0).with_max_pairs(0),
                force_plan: Some(plan),
                adaptive: AdaptiveConfig::default(),
                ..SessionConfig::default()
            })
            .unwrap();
        let batch = session.next_batch(16).unwrap();
        assert!(batch.results.is_empty() && batch.done, "{plan:?}");
        assert_eq!(session.results_emitted(), 0);
    }
    assert_eq!(service.pinned_frames(), 0);
}
