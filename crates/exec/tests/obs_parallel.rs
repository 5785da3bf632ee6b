//! Observability of planned runs: the incremental plan reports the serial
//! engine's ranks at the context's cadence, and an adaptive run whose bulk
//! tail is swept by a worker pool keeps one rank series across the handoff
//! and records the same `bulk.*` counters as the serial tail.

use std::sync::Arc;

use sdj_core::bulk::BulkConfig;
use sdj_core::{AdaptiveConfig, AdaptiveDistanceJoin, JoinConfig, PlanChoice};
use sdj_exec::{run_planned, ParallelConfig};
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

/// `run_planned`'s incremental plan reports every result's global rank and
/// distance at cadence 1, and every 50th rank at cadence 50.
#[test]
fn sampled_cadence_thins_result_events() {
    let t1 = tree(200, 1.0, 0.0);
    let t2 = tree(200, 1.0, 0.5);
    let config = JoinConfig::default().with_max_pairs(300);
    for every in [1, 50] {
        let recorder = Arc::new(RingRecorder::new(8192));
        let ctx = ObsContext::new(recorder.clone() as Arc<dyn sdj_obs::EventSink>)
            .with_result_sample_every(every);
        let run = run_planned(
            &t1,
            &t2,
            config,
            ParallelConfig::with_threads(2),
            BulkConfig::default(),
            AdaptiveConfig::default(),
            Some(PlanChoice::Incremental),
            Some(ctx),
        );
        assert_eq!(run.error, None);
        assert_eq!(run.results.len(), 300);
        let reported: Vec<(u64, u64)> = recorder
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::ResultReported { rank, dist } => Some((*rank, dist.to_bits())),
                _ => None,
            })
            .collect();
        let want: Vec<(u64, u64)> = (1..=300u64)
            .filter(|rank| rank % every == 0)
            .map(|rank| (rank, run.results[rank as usize - 1].distance.to_bits()))
            .collect();
        assert_eq!(reported, want, "cadence {every}");
    }
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
