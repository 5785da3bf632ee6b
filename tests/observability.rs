//! End-to-end observability: one instrumented join exercises every layer —
//! the engine's counters and event sampling (sdj-core), the hybrid queue's
//! tier gauges and migration events (sdj-pqueue), the buffer pool's
//! hit/miss/eviction counters (sdj-storage via sdj-rtree) — and the
//! collected stream must reconstruct into a valid [`RunReport`] whose
//! series match the results the join actually produced. The NDJSON event
//! format that `exp --out` and `sdj-report --events` write is pinned line
//! by line.

use std::io::{self, Write};
use std::sync::{Arc, Mutex};

use sdj_core::{
    DistanceJoin, DmaxStrategy, JoinConfig, QueueBackend, ResultPair, SemiConfig, SemiFilter,
};
use sdj_datagen::{uniform_points, unit_box};
use sdj_geom::Point;
use sdj_obs::{
    Event, EventSink, NdjsonWriter, ObsContext, PlanPath, RingRecorder, RunRecorder, RunReport,
    TeeSink, Tier,
};
use sdj_pqueue::HybridConfig;
use sdj_rtree::{ObjectId, RTree, RTreeConfig};
use sdj_storage::BufferObs;

fn small_tree(seed: u64, n: usize) -> RTree<2> {
    let pts: Vec<Point<2>> = uniform_points(n, &unit_box(), seed);
    // A tiny buffer pool so the run actually evicts.
    let mut t = RTree::new(RTreeConfig {
        buffer_frames: 8,
        ..RTreeConfig::small(8)
    });
    for (i, p) in pts.iter().enumerate() {
        t.insert(ObjectId(i as u64), p.to_rect()).unwrap();
    }
    t
}

#[test]
fn instrumented_join_observes_every_layer() {
    let t1 = small_tree(11, 600);
    let t2 = small_tree(12, 600);

    let ring = Arc::new(RingRecorder::new(1 << 16));
    let run_rec = Arc::new(RunRecorder::new());
    let sink: Arc<dyn EventSink> = Arc::new(TeeSink::new(Arc::clone(&ring), Arc::clone(&run_rec)));
    let ctx = ObsContext::new(sink).with_pop_sample_every(32);

    // Hybrid queue backend so tier events fire; tiny buffer so evictions do.
    t1.attach_obs(BufferObs::new(&ctx, "buf.tree1"));
    t2.attach_obs(BufferObs::new(&ctx, "buf.tree2"));
    let config = JoinConfig {
        queue: QueueBackend::Hybrid(HybridConfig::with_dt(0.01)),
        ..JoinConfig::default()
    }
    .with_max_pairs(500);
    let mut join = DistanceJoin::new(&t1, &t2, config).with_obs(&ctx);
    let results: Vec<_> = join.by_ref().collect();
    let stats = join.stats();
    assert_eq!(results.len(), 500);
    assert_eq!(ring.dropped(), 0);

    // Engine layer: registry counters agree with the run.
    let snap = ctx.registry.snapshot();
    assert_eq!(snap.counter("join.results"), Some(500));
    assert!(snap.counter("join.expansions").unwrap() > 0);
    let (_, queue_peak) = snap.gauge("join.queue_depth").unwrap();
    assert!(queue_peak > 0);
    assert!(stats.max_queue >= queue_peak as usize);

    // Queue layer: tier gauges registered and all elements drained back out.
    let (heap, _) = snap.gauge("pq.tier.heap").unwrap();
    let (list, _) = snap.gauge("pq.tier.list").unwrap();
    let (disk, _) = snap.gauge("pq.tier.disk").unwrap();
    assert_eq!(
        (heap + list + disk) as usize,
        join.queue_len(),
        "tier gauges must sum to the live queue length"
    );

    // Storage layer: the tiny pools were actually exercised.
    let fetches: u64 = ["buf.tree1", "buf.tree2"]
        .iter()
        .map(|p| {
            snap.counter(&format!("{p}.hits")).unwrap()
                + snap.counter(&format!("{p}.misses")).unwrap()
        })
        .sum();
    assert!(fetches > 0, "joins must fetch nodes through the pools");
    let counts = ring.counts();
    assert_eq!(counts.result_reported, 500);
    assert!(counts.queue_sampled > 0, "pop sampling must fire");

    // Report layer: the recorded series reconstruct a valid report whose
    // rank curve is exactly the produced result distances.
    let mut report = RunReport::new("integration");
    run_rec.fill_report(&mut report);
    report.counters = snap.counters.iter().map(|(n, v)| (n.clone(), *v)).collect();
    report.validate().expect("report must validate");
    assert_eq!(report.distance_by_rank.len(), 500);
    for (i, ((rank, dist), r)) in report.distance_by_rank.iter().zip(&results).enumerate() {
        assert_eq!(*rank, i as u64 + 1);
        assert_eq!(dist.to_bits(), r.distance.to_bits());
    }
}

/// Instrumentation is a pure observer: a bare engine and an instrumented
/// twin emit the same stream and do exactly the same work — the whole
/// `JoinStats`, `queue_bytes_peak` included — for a K-bounded join, an
/// `Inside2`/`GlobalAll` semi-join and a hybrid-queue run. Each run builds
/// its own trees, so the buffer pools start equally cold.
#[test]
fn noop_instrumentation_is_invisible() {
    let k_bounded = JoinConfig::default().with_max_pairs(200);
    let semi = SemiConfig {
        filter: SemiFilter::Inside2,
        dmax: DmaxStrategy::GlobalAll,
    };
    let hybrid = JoinConfig {
        queue: QueueBackend::Hybrid(HybridConfig::with_dt(0.01)),
        ..k_bounded
    };
    for (what, config, semi) in [
        ("k-bounded join", k_bounded, None),
        (
            "semi-join",
            JoinConfig::default().with_max_pairs(150),
            Some(semi),
        ),
        ("hybrid queue", hybrid, None),
    ] {
        let run = |ctx: Option<&ObsContext>| {
            let (t1, t2) = (small_tree(21, 300), small_tree(22, 300));
            let join = match semi {
                Some(semi) => DistanceJoin::semi(&t1, &t2, config, semi),
                None => DistanceJoin::new(&t1, &t2, config),
            };
            let mut join = match ctx {
                Some(ctx) => join.with_obs(ctx),
                None => join,
            };
            // Distances compared bit for bit: a 0.0 and a -0.0 are equal
            // under `ResultPair`'s `PartialEq`.
            let out: Vec<(ResultPair, u64)> =
                join.by_ref().map(|r| (r, r.distance.to_bits())).collect();
            (out, join.stats())
        };
        let ring = Arc::new(RingRecorder::new(1 << 14));
        let ctx = ObsContext::new(ring.clone() as Arc<dyn EventSink>);
        let (bare_out, bare_stats) = run(None);
        let (obs_out, obs_stats) = run(Some(&ctx));
        assert!(!bare_out.is_empty(), "{what}: produced nothing");
        assert_eq!(
            bare_out, obs_out,
            "{what}: instrumentation must not change results"
        );
        assert_eq!(
            bare_stats, obs_stats,
            "{what}: instrumentation must not change the work done"
        );
        assert!(
            ring.counts().total() > 0,
            "{what}: instrumented twin did emit"
        );
    }
}

/// The engine counts in plain fields and writes the registry only at its
/// publish points: the pop-sampling stride (the first pop, then every
/// `pop_sample_every` pops), the end of the stream and drop. With a stride
/// longer than the run, the registry's pop histogram stays at the first
/// pop while the stream is live, and agrees with `JoinStats` exactly once
/// the stream has ended and once the join is dropped — under the memory
/// backend and under the hybrid one, whose queue bytes can fall.
#[test]
fn registry_is_published_at_the_stride_not_per_pop() {
    let memory = JoinConfig::default().with_max_pairs(300);
    let hybrid = JoinConfig {
        queue: QueueBackend::Hybrid(HybridConfig::with_dt(0.01)),
        ..memory
    };
    for config in [memory, hybrid] {
        published_at_the_stride(config);
    }
}

fn published_at_the_stride(config: JoinConfig) {
    let t1 = small_tree(31, 400);
    let t2 = small_tree(32, 400);
    let ctx = ObsContext::noop().with_pop_sample_every(1 << 20);
    let mut join = DistanceJoin::new(&t1, &t2, config).with_obs(&ctx);
    let pops_seen = || {
        ctx.registry
            .snapshot()
            .histogram("join.pop_distance")
            .map_or(0, |h| h.count)
    };
    let mut checked = 0;
    while join.next().is_some() {
        let dequeued = join.stats().pairs_dequeued;
        if dequeued >= 2 {
            let seen = pops_seen();
            assert!(
                seen < dequeued,
                "a live join published {seen} of {dequeued} pops: the pop path wrote the registry"
            );
            checked += 1;
        }
    }
    assert!(checked > 0, "the stream must run past its second pop");

    let stats = join.stats();
    let agrees = |when: &str| {
        let snap = ctx.registry.snapshot();
        assert_eq!(
            pops_seen(),
            stats.pairs_dequeued,
            "{when}: join.pop_distance"
        );
        assert_eq!(
            snap.counter("join.results"),
            Some(stats.pairs_reported),
            "{when}: join.results"
        );
        assert_eq!(
            snap.counter("join.discarded"),
            Some(stats.pairs_discarded),
            "{when}: join.discarded"
        );
        let (_, bytes_peak) = snap.gauge("pq.bytes").expect("pq.bytes registered");
        assert_eq!(
            usize::try_from(bytes_peak).unwrap(),
            stats.queue_bytes_peak,
            "{when}: pq.bytes high-water"
        );
    };
    agrees("at the end of the stream");
    drop(join);
    agrees("after drop");
}

/// An in-memory `Write` target readable while a writer owns a clone.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One line per event variant, as the `NdjsonWriter` renders it. An
/// integral distance keeps its `.0` and an infinite bound is the string
/// `"inf"`, since JSON has no infinities.
const GOLDEN_LOG: &str = r#"{"e":"result_reported","rank":7,"dist":2.0}
{"e":"queue_sampled","pops":1024,"len":4096,"results":12}
{"e":"tier_migration","from":"list","to":"disk","n":200}
{"e":"buffer_evict","writeback":true}
{"e":"bound_tightened","worker":0,"bound":"inf"}
{"e":"worker_finished","worker":1,"results":999}
{"e":"fault_injected","write":false,"transient":true}
{"e":"retry_succeeded","retries":3}
{"e":"plan_chosen","path":"bulk","forced":false,"est_incremental":1000000.0,"est_bulk":0.125}
{"e":"replanned","from":"incremental","to":"bulk","at_pop":8192,"at_pair":120,"est_incremental_remaining":950000.0,"est_bulk_remaining":325000.5}
{"e":"session_opened","session":3,"path":"adaptive"}
{"e":"session_batch","session":3,"results":64,"total":192}
{"e":"session_closed","session":3,"results":192,"cancelled":true}
"#;

#[test]
fn ndjson_log_writes_one_golden_line_per_event() {
    let events = [
        Event::ResultReported { rank: 7, dist: 2.0 },
        Event::QueueSampled {
            pops: 1024,
            len: 4096,
            results: 12,
        },
        Event::TierMigration {
            from: Tier::List,
            to: Tier::Disk,
            n: 200,
        },
        Event::BufferEvict { writeback: true },
        Event::BoundTightened {
            worker: 0,
            bound: f64::INFINITY,
        },
        Event::WorkerFinished {
            worker: 1,
            results: 999,
        },
        Event::FaultInjected {
            write: false,
            transient: true,
        },
        Event::RetrySucceeded { retries: 3 },
        Event::PlanChosen {
            path: PlanPath::Bulk,
            forced: false,
            est_incremental: 1.0e6,
            est_bulk: 0.125,
        },
        Event::Replanned {
            from: PlanPath::Incremental,
            to: PlanPath::Bulk,
            at_pop: 8192,
            at_pair: 120,
            est_incremental_remaining: 9.5e5,
            est_bulk_remaining: 325_000.5,
        },
        Event::SessionOpened {
            session: 3,
            path: PlanPath::Adaptive,
        },
        Event::SessionBatch {
            session: 3,
            results: 64,
            total: 192,
        },
        Event::SessionClosed {
            session: 3,
            results: 192,
            cancelled: true,
        },
    ];
    let buf = SharedBuf::default();
    let writer = NdjsonWriter::new(Box::new(buf.clone()));
    for event in &events {
        writer.emit(event);
    }
    writer.flush();
    assert_eq!(writer.lines_written(), 13);
    assert_eq!(writer.write_errors(), 0);
    let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    assert_eq!(text, GOLDEN_LOG);
}
