//! The bulk and adaptive worker pools, and the planned entry point:
//!
//! * **Worker-count invariance**: per-cell runs are deterministic and
//!   `BulkDistanceJoin::run_with_workers` merges them in a total order, so
//!   the stream is *identical* — bit for bit, including tie order — for any
//!   worker count, and so are `JoinStats` and `BulkStats`. The adaptive
//!   driver's bulk tail sweeps through the same pool and inherits this.
//! * **Equivalence**: the pooled bulk output matches the serial incremental
//!   engine's result multiset, and the ordered distance sequence bitwise.
//! * **Planned runs**: `run_planned` executes the forced path, both paths
//!   agree, and the obs wiring records `plan_chosen` / `plan.*` / `bulk.*`.
//! * **`STOP AFTER 0`**: the pooled bulk sweep and `run_planned` under each
//!   forced plan return an empty stream
//!   without an error (the serial engines behind `open_cursor` are covered by
//!   `sdj-core`'s `open_cursor_streams_every_plan_at_every_batch_size`).

use std::sync::Arc;

use sdj_core::bulk::{BulkConfig, BulkDistanceJoin};
use sdj_core::{
    AdaptiveConfig, AdaptiveDistanceJoin, DistanceJoin, JoinConfig, PlanChoice, ResultOrder,
    ResultPair,
};
use sdj_exec::{run_planned, ParallelConfig};
use sdj_geom::{Point, Rect};
use sdj_obs::{ObsContext, RingRecorder};
use sdj_rtree::{ObjectId, RTree, RTreeConfig};

fn tree_of(points: &[(f64, f64)]) -> RTree<2> {
    let mut t = RTree::new(RTreeConfig::small(6));
    for (i, &(x, y)) in points.iter().enumerate() {
        t.insert(ObjectId(i as u64), Point::xy(x, y).to_rect())
            .unwrap();
    }
    t
}

fn tree_of_boxes(n: usize, half: f64) -> RTree<2> {
    let mut t = RTree::new(RTreeConfig::small(6));
    for i in 0..n {
        let (x, y) = ((i % 16) as f64, (i / 16) as f64);
        let r = Rect::new([x - half, y - half], [x + half, y + half]);
        t.insert(ObjectId(i as u64), r).unwrap();
    }
    t
}

fn grid_points(n: usize) -> Vec<(f64, f64)> {
    (0..n).map(|i| ((i % 16) as f64, (i / 16) as f64)).collect()
}

fn key(r: &ResultPair) -> (u64, u64, u64) {
    (r.distance.to_bits(), r.oid1.0, r.oid2.0)
}

/// Thread counts every invariance test sweeps over.
const THREADS: [usize; 4] = [1, 2, 3, 8];

#[test]
fn ordered_output_is_invariant_across_thread_counts() {
    let config = JoinConfig::default().with_range(0.2, 2.5);
    let runs: Vec<_> = THREADS
        .iter()
        .map(|&threads| {
            // Fresh trees per run: a warm buffer pool would change `node_io`.
            let t1 = tree_of_boxes(192, 0.4);
            let t2 = tree_of(&grid_points(200));
            let mut join = BulkDistanceJoin::new(&t1, &t2, config).unwrap();
            let results: Vec<_> = join.run_with_workers(threads).iter().map(key).collect();
            (results, join.stats(), join.bulk_stats())
        })
        .collect();
    assert!(!runs[0].0.is_empty());
    for (threads, run) in THREADS.iter().zip(&runs) {
        assert_eq!(run.0, runs[0].0, "threads={threads}: stream diverged");
        assert_eq!(run.1, runs[0].1, "threads={threads}: JoinStats diverged");
        assert_eq!(run.2, runs[0].2, "threads={threads}: BulkStats diverged");
    }
}

#[test]
fn adaptive_tail_is_invariant_across_thread_counts() {
    let config = JoinConfig::default().with_max_pairs(900);
    let adaptive = AdaptiveConfig {
        pop_stride: 32,
        force_handoff_at: Some(200),
        ..AdaptiveConfig::default()
    };
    let runs: Vec<_> = THREADS
        .iter()
        .map(|&threads| {
            let t1 = tree_of_boxes(192, 0.4);
            let t2 = tree_of(&grid_points(200));
            AdaptiveDistanceJoin::with_configs(&t1, &t2, config, BulkConfig::default(), adaptive)
                .run_with_workers(threads)
        })
        .collect();
    assert!(runs[0].replanned.is_some(), "forced handoff must fire");
    assert_eq!(runs[0].results.len(), 900);
    let stream = |r: &[ResultPair]| -> Vec<_> { r.iter().map(key).collect() };
    for (threads, run) in THREADS.iter().zip(&runs) {
        assert!(run.error.is_none());
        assert_eq!(
            stream(&run.results),
            stream(&runs[0].results),
            "threads={threads}: stream diverged"
        );
        assert_eq!(run.stats, runs[0].stats, "threads={threads}: JoinStats");
        assert_eq!(
            run.bulk_stats, runs[0].bulk_stats,
            "threads={threads}: BulkStats"
        );
    }
}

#[test]
fn parallel_bulk_matches_serial_incremental() {
    let t1 = tree_of_boxes(160, 0.45);
    let t2 = tree_of(&grid_points(180));
    for descending in [false, true] {
        let mut config = JoinConfig::default().with_range(0.1, 3.0);
        if descending {
            config.order = ResultOrder::Descending;
        }
        let serial: Vec<_> = DistanceJoin::new(&t1, &t2, config).collect();
        let pooled = BulkDistanceJoin::new(&t1, &t2, config)
            .unwrap()
            .run_with_workers(4);
        assert_eq!(pooled.len(), serial.len());
        for (a, b) in serial.iter().zip(&pooled) {
            assert_eq!(
                a.distance.to_bits(),
                b.distance.to_bits(),
                "distance sequence diverged (descending={descending})"
            );
        }
        let mut got: Vec<_> = pooled.iter().map(key).collect();
        let mut want: Vec<_> = serial.iter().map(key).collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }
}

#[test]
fn max_pairs_truncation_matches_incremental() {
    let t1 = tree_of(&grid_points(150));
    let t2 = tree_of(&grid_points(150));
    let config = JoinConfig::default().with_max_pairs(25);
    let serial: Vec<_> = DistanceJoin::new(&t1, &t2, config).collect();
    let pooled = BulkDistanceJoin::new(&t1, &t2, config)
        .unwrap()
        .run_with_workers(3);
    assert_eq!(pooled.len(), 25);
    for (a, b) in serial.iter().zip(&pooled) {
        assert_eq!(a.distance.to_bits(), b.distance.to_bits());
    }
}

#[test]
fn planned_runs_agree_and_record_the_choice() {
    let t1 = tree_of(&grid_points(150));
    let t2 = tree_of(&grid_points(150));
    let config = JoinConfig::default().with_range(0.0, 2.0);
    let parallel = ParallelConfig::with_threads(2);

    let mut outputs = Vec::new();
    for force in PlanChoice::ALL {
        let sink = Arc::new(RingRecorder::new(64));
        let ctx = ObsContext::new(Arc::clone(&sink) as Arc<dyn sdj_obs::EventSink>);
        let run = run_planned(
            &t1,
            &t2,
            config,
            parallel,
            BulkConfig::default(),
            AdaptiveConfig::default(),
            Some(force),
            Some(ctx.clone()),
        );
        assert!(run.error.is_none());
        assert_eq!(run.executed, force);
        assert!(run.forced);
        assert_eq!(sink.counts().plan_chosen, 1, "plan_chosen event missing");
        let snapshot = ctx.registry.snapshot();
        let counter = |name: &str| snapshot.counter(name).unwrap_or(0);
        match force {
            PlanChoice::Incremental => {
                assert_eq!(counter("plan.incremental"), 1);
                assert!(run.bulk.is_none());
                assert_eq!(snapshot.gauge("plan.choice").map(|(v, _)| v), Some(0));
            }
            PlanChoice::Bulk => {
                assert_eq!(counter("plan.bulk"), 1);
                assert!(counter("bulk.cells") > 0);
                assert!(counter("bulk.cell_pairs_swept") > 0);
                assert_eq!(snapshot.gauge("plan.choice").map(|(v, _)| v), Some(1));
                let bulk = run.bulk.expect("bulk stats present");
                assert_eq!(bulk.cells, counter("bulk.cells"));
            }
            PlanChoice::Adaptive => {
                assert_eq!(counter("plan.adaptive"), 1);
                assert_eq!(snapshot.gauge("plan.choice").map(|(v, _)| v), Some(2));
                // Whether a replan fired is the cost model's call; when it
                // did, the switch must be visible in event and gauge form.
                if run.replanned.is_some() {
                    assert_eq!(sink.counts().replanned, 1, "replanned event missing");
                    assert_eq!(snapshot.gauge("plan.replans").map(|(v, _)| v), Some(1));
                    assert!(run.bulk.is_some());
                }
            }
        }
        let mut sorted: Vec<_> = run.results.iter().map(key).collect();
        sorted.sort_unstable();
        outputs.push(sorted);
    }
    assert_eq!(
        outputs[0], outputs[1],
        "paths disagree on the result multiset"
    );
    assert_eq!(
        outputs[0], outputs[2],
        "adaptive disagrees on the result multiset"
    );
}

#[test]
fn auto_plan_follows_the_cost_model() {
    let t1 = tree_of(&grid_points(150));
    let t2 = tree_of(&grid_points(150));
    // Tiny K on an unbounded range: squarely incremental territory.
    let run = run_planned(
        &t1,
        &t2,
        JoinConfig::default().with_max_pairs(5),
        ParallelConfig::with_threads(1),
        BulkConfig::default(),
        AdaptiveConfig::default(),
        None,
        None,
    );
    assert!(!run.forced);
    assert_eq!(run.executed, run.plan.choice);
    assert_eq!(run.executed, PlanChoice::Incremental);
    assert_eq!(run.results.len(), 5);
}

#[test]
fn stop_after_zero_yields_nothing_in_parallel() {
    let (t1, t2) = (tree_of(&grid_points(150)), tree_of(&grid_points(200)));
    let config = JoinConfig::default().with_max_pairs(0);
    for threads in [1, 3] {
        let parallel = ParallelConfig::with_threads(threads);
        let mut bulk = BulkDistanceJoin::new(&t1, &t2, config.with_range(0.0, 2.0)).unwrap();
        assert!(bulk.run_with_workers(threads).is_empty());
        for plan in PlanChoice::ALL {
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
