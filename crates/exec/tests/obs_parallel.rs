//! Observability of a parallel run: every spawned worker announces
//! `WorkerFinished`, the merged stream reports strictly increasing global
//! ranks with non-decreasing distances, and the per-worker result counts
//! reconcile with the merged output.

use std::sync::Arc;

use sdj_core::bulk::BulkConfig;
use sdj_core::{AdaptiveConfig, AdaptiveDistanceJoin, JoinConfig, PlanChoice};
use sdj_exec::{run_planned, ParallelConfig, ParallelDistanceJoin};
use sdj_geom::Point;
use sdj_obs::{Event, ObsContext, RingRecorder, RunRecorder, RunReport};
use sdj_rtree::{ObjectId, RTree, RTreeConfig};

fn tree(n: u64, stride: f64, offset: f64) -> RTree<2> {
    let mut t = RTree::new(RTreeConfig::small(8));
    for i in 0..n {
        let p = Point::xy(offset + stride * (i % 37) as f64, (i / 37) as f64);
        t.insert(ObjectId(i), p.to_rect()).unwrap();
    }
    t
}

#[test]
fn parallel_run_reports_workers_and_global_ranks() {
    let t1 = tree(400, 1.0, 0.0);
    let t2 = tree(400, 1.0, 0.25);
    let recorder = Arc::new(RingRecorder::new(65_536));
    let ctx = ObsContext::new(recorder.clone() as Arc<dyn sdj_obs::EventSink>);

    let config = JoinConfig::default().with_max_pairs(500);
    let parallel = ParallelConfig {
        threads: 3,
        frontier_factor: 8,
        channel_capacity: 64,
    };
    let run = ParallelDistanceJoin::new(&t1, &t2, config, parallel)
        .with_obs(ctx.clone())
        .collect();
    assert_eq!(run.error, None);
    assert_eq!(run.value.len(), 500);
    assert_eq!(recorder.dropped(), 0, "ring must be large enough");

    let events = recorder.events();

    // Every spawned worker finished, and their result counts cover at least
    // the merged (non-prefix) output: semi-join dedup aside (this is a full
    // join), each merged result was sent by exactly one worker, but workers
    // may send results the consumer never drains after `max_pairs` is hit.
    let finished: Vec<(u32, u64)> = events
        .iter()
        .filter_map(|e| match e {
            Event::WorkerFinished { worker, results } => Some((*worker, *results)),
            _ => None,
        })
        .collect();
    assert_eq!(
        finished.len(),
        run.workers_spawned,
        "one WorkerFinished per spawned worker"
    );
    for (worker, _) in &finished {
        assert!(*worker >= 1, "spawned workers report ids 1..");
    }

    // ResultReported ranks are globally strictly increasing, contiguous
    // from 1, and distances never decrease (ascending run).
    let reported: Vec<(u64, f64)> = events
        .iter()
        .filter_map(|e| match e {
            Event::ResultReported { rank, dist } => Some((*rank, *dist)),
            _ => None,
        })
        .collect();
    assert_eq!(reported.len(), 500, "cadence 1 reports every result");
    let mut last_dist = 0.0f64;
    for (i, (rank, dist)) in reported.iter().enumerate() {
        assert_eq!(*rank, i as u64 + 1, "ranks contiguous from 1");
        assert!(*dist >= last_dist, "distances non-decreasing");
        last_dist = *dist;
    }
    // The reported distances are exactly the collected stream's.
    for (r, (_, dist)) in run.value.iter().zip(&reported) {
        assert_eq!(r.distance.to_bits(), dist.to_bits());
    }

    // The counters saw every result exactly once across all engines.
    let snap = ctx.registry.snapshot();
    assert!(snap.counter("join.results").unwrap_or(0) >= 500);
    assert!(snap.counter("join.expansions").unwrap_or(0) > 0);
}

#[test]
fn sampled_cadence_thins_result_events() {
    let t1 = tree(200, 1.0, 0.0);
    let t2 = tree(200, 1.0, 0.5);
    let recorder = Arc::new(RingRecorder::new(8192));
    let ctx = ObsContext::new(recorder.clone() as Arc<dyn sdj_obs::EventSink>)
        .with_result_sample_every(50);

    let config = JoinConfig::default().with_max_pairs(300);
    let run = ParallelDistanceJoin::new(&t1, &t2, config, ParallelConfig::with_threads(2))
        .with_obs(ctx)
        .collect();
    assert_eq!(run.error, None);
    assert_eq!(run.value.len(), 300);

    let ranks: Vec<u64> = recorder
        .events()
        .iter()
        .filter_map(|e| match e {
            Event::ResultReported { rank, .. } => Some(*rank),
            _ => None,
        })
        .collect();
    assert_eq!(ranks, vec![50, 100, 150, 200, 250, 300]);
}

/// An adaptive run that hands off after its first results reports one rank
/// series: the bulk tail continues the prefix's ranks instead of restarting
/// at 1, so the recorded report validates and its last rank is the result
/// count. The pooled tail (`run_planned`, two threads) and the serial one
/// (`AdaptiveDistanceJoin::run`) sweep through the same method, so they also
/// record the same `bulk.*` counters.
#[test]
fn adaptive_handoff_keeps_one_rank_series() {
    let t1 = tree(400, 1.0, 0.0);
    let t2 = tree(400, 1.0, 0.25);
    let config = JoinConfig::default().with_max_pairs(600);
    let adaptive = AdaptiveConfig {
        pop_stride: 64,
        force_handoff_at: Some(700),
        ..AdaptiveConfig::default()
    };
    let check = |label: &str, recorder: &RunRecorder, produced: usize, at_pair: u64| {
        assert_eq!(produced, 600, "{label}");
        assert!(
            (1..600).contains(&at_pair),
            "{label}: handoff at pair {at_pair} splits nothing"
        );
        let mut report = RunReport::new(label);
        recorder.fill_report(&mut report);
        report
            .validate()
            .unwrap_or_else(|e| panic!("{label}: {e:?}"));
        assert_eq!(report.distance_by_rank.len(), 600, "{label}: cadence 1");
        assert_eq!(report.distance_by_rank.last().map(|r| r.0), Some(600));
    };
    let bulk_counters = |ctx: &ObsContext| -> Vec<u64> {
        let snapshot = ctx.registry.snapshot();
        ["bulk.cells", "bulk.cell_pairs_swept"]
            .iter()
            .map(|name| snapshot.counter(name).unwrap_or(0))
            .collect()
    };

    let recorder = Arc::new(RunRecorder::new());
    let ctx = ObsContext::new(recorder.clone() as Arc<dyn sdj_obs::EventSink>);
    let pooled = run_planned(
        &t1,
        &t2,
        config,
        ParallelConfig::with_threads(2),
        BulkConfig::default(),
        adaptive,
        Some(PlanChoice::Adaptive),
        Some(ctx.clone()),
    );
    assert_eq!(pooled.error, None);
    assert_eq!(pooled.workers_spawned, 2);
    let at_pair = pooled.replanned.expect("forced handoff").at_pair;
    check("pooled tail", &recorder, pooled.results.len(), at_pair);
    let pooled_counters = bulk_counters(&ctx);

    let recorder = Arc::new(RunRecorder::new());
    let ctx = ObsContext::new(recorder.clone() as Arc<dyn sdj_obs::EventSink>);
    let serial =
        AdaptiveDistanceJoin::with_configs(&t1, &t2, config, BulkConfig::default(), adaptive)
            .with_obs(&ctx)
            .run();
    assert_eq!(serial.error, None);
    let at_pair = serial.replanned.expect("forced handoff").at_pair;
    check("serial tail", &recorder, serial.results.len(), at_pair);

    assert!(pooled_counters[1] > 0, "the tail swept no cells");
    assert_eq!(
        bulk_counters(&ctx),
        pooled_counters,
        "bulk.cells / cell_pairs_swept"
    );
}
