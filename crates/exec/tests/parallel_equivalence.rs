//! The parallel executor must be observationally identical to the serial
//! engine: same result multiset, in a valid distance order, for joins and
//! semi-joins, with and without a `[Dmin, Dmax]` restriction, across thread
//! counts 1/2/4/8.

use proptest::prelude::*;
use sdj_core::{
    DistanceJoin, DmaxStrategy, JoinConfig, QueueBackend, QueueLayout, ResultOrder, SemiConfig,
    SemiFilter,
};
use sdj_exec::{ParallelConfig, ParallelDistanceJoin};
use sdj_geom::Point;
use sdj_rtree::{ObjectId, RTree, RTreeConfig};

fn tree(points: &[Point<2>], fanout: usize) -> RTree<2> {
    let mut t = RTree::new(RTreeConfig::small(fanout));
    for (i, p) in points.iter().enumerate() {
        t.insert(ObjectId(i as u64), p.to_rect()).unwrap();
    }
    t
}

/// Exact comparison key: distances come out of identical code paths on the
/// same pairs, so bit-for-bit equality is the right notion.
fn key(r: &sdj_core::ResultPair) -> (u64, u64, u64) {
    (r.distance.to_bits(), r.oid1.0, r.oid2.0)
}

fn assert_order_valid(results: &[sdj_core::ResultPair], ascending: bool) {
    for w in results.windows(2) {
        if ascending {
            assert!(w[0].distance <= w[1].distance, "stream must be ascending");
        } else {
            assert!(w[0].distance >= w[1].distance, "stream must be descending");
        }
    }
}

/// Join mode: the parallel stream must be the serial result multiset in a
/// valid order.
fn check_join_equivalence(
    a: &[Point<2>],
    b: &[Point<2>],
    fanout: usize,
    config: JoinConfig,
    parallel: ParallelConfig,
) {
    let t1 = tree(a, fanout);
    let t2 = tree(b, fanout);
    let serial: Vec<_> = DistanceJoin::new(&t1, &t2, config).collect();
    let run = ParallelDistanceJoin::new(&t1, &t2, config, parallel).collect();
    assert_eq!(run.error, None);
    assert_order_valid(&run.value, matches!(config.order, ResultOrder::Ascending));
    let mut got: Vec<_> = run.value.iter().map(key).collect();
    let mut want: Vec<_> = serial.iter().map(key).collect();
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(got, want, "threads={}", parallel.threads);
}

/// Semi-join mode: per first object the nearest-partner distance is unique,
/// so the map `o1 -> distance` must match exactly (the witnessing `o2` may
/// differ only under exact distance ties).
fn check_semi_equivalence(
    a: &[Point<2>],
    b: &[Point<2>],
    fanout: usize,
    config: JoinConfig,
    semi: SemiConfig,
    parallel: ParallelConfig,
) {
    let t1 = tree(a, fanout);
    let t2 = tree(b, fanout);
    let serial: Vec<_> = DistanceJoin::semi(&t1, &t2, config, semi).collect();
    let run = ParallelDistanceJoin::semi(&t1, &t2, config, semi, parallel).collect();
    assert_eq!(run.error, None);
    assert_order_valid(&run.value, matches!(config.order, ResultOrder::Ascending));
    let to_map = |rs: &[sdj_core::ResultPair]| {
        let mut m: Vec<(u64, u64)> = rs
            .iter()
            .map(|r| (r.oid1.0, r.distance.to_bits()))
            .collect();
        m.sort_unstable();
        m
    };
    assert_eq!(
        to_map(&run.value),
        to_map(&serial),
        "threads={}",
        parallel.threads
    );
    // Each first object answered at most once.
    let mut seen = std::collections::HashSet::new();
    for r in &run.value {
        assert!(seen.insert(r.oid1.0), "object {} answered twice", r.oid1.0);
    }
}

fn arb_points(max: usize) -> impl Strategy<Value = Vec<Point<2>>> {
    prop::collection::vec((0.0..10.0f64, 0.0..10.0f64), 1..max)
        .prop_map(|v| v.into_iter().map(|(x, y)| Point::xy(x, y)).collect())
}

#[derive(Clone, Debug)]
struct Case {
    a: Vec<Point<2>>,
    b: Vec<Point<2>>,
    fanout: usize,
    threads: usize,
    frontier_factor: usize,
    channel_capacity: usize,
    range: Option<(f64, f64)>,
    layout: QueueLayout,
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        arb_points(50),
        arb_points(70),
        3usize..7,
        prop::sample::select(vec![1usize, 2, 4, 8]),
        // Small frontiers force real sharding even on small inputs; a tiny
        // channel exercises worker back-pressure in the merge.
        1usize..6,
        1usize..5,
        prop::option::of((0.0..4.0f64, 0.0..10.0f64)),
        prop::sample::select(vec![QueueLayout::Pairing, QueueLayout::FlatDary]),
    )
        .prop_map(
            |(a, b, fanout, threads, frontier_factor, channel_capacity, range, layout)| Case {
                a,
                b,
                fanout,
                threads,
                frontier_factor,
                channel_capacity,
                range: range.map(|(lo, w)| (lo, lo + w)),
                layout,
            },
        )
}

fn case_config(case: &Case) -> (JoinConfig, ParallelConfig) {
    let mut config = JoinConfig::default().with_layout(case.layout);
    if let Some((lo, hi)) = case.range {
        config = config.with_range(lo, hi);
    }
    let parallel = ParallelConfig {
        threads: case.threads,
        frontier_factor: case.frontier_factor,
        channel_capacity: case.channel_capacity,
    };
    (config, parallel)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn join_matches_serial(case in arb_case()) {
        let (config, parallel) = case_config(&case);
        check_join_equivalence(&case.a, &case.b, case.fanout, config, parallel);
    }

    #[test]
    fn semi_join_matches_serial(case in arb_case()) {
        let (config, parallel) = case_config(&case);
        check_semi_equivalence(
            &case.a,
            &case.b,
            case.fanout,
            config,
            SemiConfig::default(),
            parallel,
        );
    }

    #[test]
    fn semi_join_global_dmax_matches_serial(case in arb_case()) {
        let (config, parallel) = case_config(&case);
        check_semi_equivalence(
            &case.a,
            &case.b,
            case.fanout,
            config,
            SemiConfig { filter: SemiFilter::Inside2, dmax: DmaxStrategy::GlobalAll },
            parallel,
        );
    }
}

// ----------------------------------------------------------- deterministic

fn uniform(n: usize, seed: u64) -> Vec<Point<2>> {
    sdj_datagen::uniform_points(n, &sdj_datagen::unit_box(), seed)
}

#[test]
fn every_thread_count_matches_on_fixed_data() {
    let a = uniform(300, 11);
    let b = uniform(400, 12);
    for threads in [1, 2, 4, 8] {
        let parallel = ParallelConfig {
            threads,
            frontier_factor: 8,
            channel_capacity: 16,
        };
        check_join_equivalence(&a, &b, 8, JoinConfig::default(), parallel);
        check_semi_equivalence(
            &a,
            &b,
            8,
            JoinConfig::default(),
            SemiConfig::default(),
            parallel,
        );
    }
}

#[test]
fn range_restriction_matches_on_fixed_data() {
    let a = uniform(250, 21);
    let b = uniform(250, 22);
    let config = JoinConfig::default().with_range(0.02, 0.3);
    for threads in [2, 4] {
        check_join_equivalence(&a, &b, 8, config, ParallelConfig::with_threads(threads));
    }
}

#[test]
fn descending_join_matches_on_fixed_data() {
    let a = uniform(120, 31);
    let b = uniform(150, 32);
    let config = JoinConfig {
        order: ResultOrder::Descending,
        ..JoinConfig::default()
    };
    check_join_equivalence(&a, &b, 6, config, ParallelConfig::with_threads(4));
}

/// Uniform random points make exact distance ties measure-zero, so a
/// `max_pairs` run must match the serial prefix exactly, element by element.
#[test]
fn max_pairs_matches_serial_prefix() {
    let a = uniform(300, 41);
    let b = uniform(300, 42);
    let t1 = tree(&a, 8);
    let t2 = tree(&b, 8);
    for k in [1u64, 10, 100, 1000] {
        let config = JoinConfig::default().with_max_pairs(k);
        let serial: Vec<_> = DistanceJoin::new(&t1, &t2, config).collect();
        let run =
            ParallelDistanceJoin::new(&t1, &t2, config, ParallelConfig::with_threads(4)).collect();
        assert_eq!(run.error, None);
        let got: Vec<_> = run.value.iter().map(key).collect();
        let want: Vec<_> = serial.iter().map(key).collect();
        assert_eq!(got, want, "K={k}");
    }
}

/// Dropping the stream early cancels the workers instead of deadlocking on
/// their bounded channels.
#[test]
fn early_stop_cancels_workers() {
    let a = uniform(400, 51);
    let b = uniform(400, 52);
    let t1 = tree(&a, 8);
    let t2 = tree(&b, 8);
    let parallel = ParallelConfig {
        threads: 4,
        frontier_factor: 4,
        channel_capacity: 2,
    };
    let run = ParallelDistanceJoin::new(&t1, &t2, JoinConfig::default(), parallel)
        .run(|stream| stream.take(25).collect::<Vec<_>>());
    assert_eq!(run.error, None);
    assert_eq!(run.value.len(), 25);
    let serial: Vec<_> = DistanceJoin::new(&t1, &t2, JoinConfig::default())
        .take(25)
        .collect();
    // Uniform data: no ties, so even the prefix is bitwise identical.
    assert_eq!(
        run.value.iter().map(key).collect::<Vec<_>>(),
        serial.iter().map(key).collect::<Vec<_>>()
    );
}

/// A frontier that exhausts during partitioning (tiny inputs) must still
/// produce the complete result with no workers.
#[test]
fn tiny_inputs_exhaust_in_the_frontier() {
    let a = uniform(3, 61);
    let b = uniform(2, 62);
    let t1 = tree(&a, 4);
    let t2 = tree(&b, 4);
    let parallel = ParallelConfig {
        threads: 8,
        frontier_factor: 1000,
        channel_capacity: 4,
    };
    let run = ParallelDistanceJoin::new(&t1, &t2, JoinConfig::default(), parallel).collect();
    assert_eq!(run.error, None);
    assert_eq!(run.workers_spawned, 0, "frontier finished the whole join");
    assert_eq!(run.value.len(), 6);
    let serial: Vec<_> = DistanceJoin::new(&t1, &t2, JoinConfig::default()).collect();
    assert_eq!(
        run.value.iter().map(key).collect::<Vec<_>>(),
        serial.iter().map(key).collect::<Vec<_>>()
    );
}

fn sharded_tree(points: &[Point<2>], fanout: usize, shards: usize) -> RTree<2> {
    let mut t = RTree::new(RTreeConfig {
        buffer_shards: shards,
        ..RTreeConfig::small(fanout)
    });
    for (i, p) in points.iter().enumerate() {
        t.insert(ObjectId(i as u64), p.to_rect()).unwrap();
    }
    t
}

/// Buffer-pool sharding is a pure concurrency knob: every shard count must
/// produce the bit-identical join and semi-join stream at every thread
/// count. (Uniform data has no exact distance ties, so ordered bitwise
/// comparison is the right check.)
#[test]
fn shard_counts_are_stream_invisible() {
    let a = uniform(300, 81);
    let b = uniform(350, 82);
    let base1 = tree(&a, 8);
    let base2 = tree(&b, 8);
    let want_join: Vec<_> = DistanceJoin::new(&base1, &base2, JoinConfig::default())
        .map(|r| key(&r))
        .collect();
    let want_semi: Vec<_> =
        DistanceJoin::semi(&base1, &base2, JoinConfig::default(), SemiConfig::default())
            .map(|r| key(&r))
            .collect();
    for shards in [1usize, 2, 4] {
        let t1 = sharded_tree(&a, 8, shards);
        let t2 = sharded_tree(&b, 8, shards);
        let serial: Vec<_> = DistanceJoin::new(&t1, &t2, JoinConfig::default())
            .map(|r| key(&r))
            .collect();
        assert_eq!(serial, want_join, "serial join drifted at shards={shards}");
        for threads in [1usize, 4] {
            let parallel = ParallelConfig {
                threads,
                frontier_factor: 8,
                channel_capacity: 16,
            };
            let run =
                ParallelDistanceJoin::new(&t1, &t2, JoinConfig::default(), parallel).collect();
            assert_eq!(run.error, None);
            assert_eq!(
                run.value.iter().map(key).collect::<Vec<_>>(),
                want_join,
                "join stream drifted at shards={shards} threads={threads}"
            );
            let run = ParallelDistanceJoin::semi(
                &t1,
                &t2,
                JoinConfig::default(),
                SemiConfig::default(),
                parallel,
            )
            .collect();
            assert_eq!(run.error, None);
            assert_eq!(
                run.value.iter().map(key).collect::<Vec<_>>(),
                want_semi,
                "semi stream drifted at shards={shards} threads={threads}"
            );
        }
    }
}

/// Queue-driven prefetch must never change the result stream. With an
/// eviction-free buffer its I/O accounting obeys an exact conservation law:
/// every demand miss it removes reappears as a prefetch-satisfied hit
/// (`misses_on + prefetch_hits == misses_off`), so the paper's node-I/O
/// measure stays reconstructable with prefetch enabled.
#[test]
fn prefetch_is_stream_invisible_and_conserves_io() {
    let a = uniform(300, 91);
    let b = uniform(350, 92);
    let roomy_tree = |points: &[Point<2>], shards: usize| {
        let mut t = tree(points, 8);
        // Fresh cold pool, sized so the join never evicts: the conservation
        // law below is exact only without eviction interference.
        t.rebuild_buffer(4096, shards).unwrap();
        t
    };
    let run_with = |depth: usize, shards: usize| {
        let t1 = roomy_tree(&a, shards);
        let t2 = roomy_tree(&b, shards);
        let config = JoinConfig::default().with_prefetch(depth);
        let mut join = DistanceJoin::new(&t1, &t2, config);
        let stream: Vec<_> = join.by_ref().map(|r| key(&r)).collect();
        let stats = join.stats();
        drop(join);
        let pool = |t: &RTree<2>| t.io_stats();
        let (s1, s2) = (pool(&t1), pool(&t2));
        assert_eq!(
            s1.evictions + s2.evictions,
            0,
            "buffer sized to avoid evictions"
        );
        (
            stream,
            stats,
            s1.misses + s2.misses,
            s1.prefetch_reads + s2.prefetch_reads,
            s1.prefetch_hits + s2.prefetch_hits,
        )
    };
    for shards in [1usize, 4] {
        let (off_stream, off_stats, off_misses, off_reads, off_hits) = run_with(0, shards);
        let (on_stream, on_stats, on_misses, on_reads, on_hits) = run_with(8, shards);
        assert_eq!(on_stream, off_stream, "prefetch changed the stream");
        assert_eq!(off_reads, 0, "depth 0 must issue no prefetch reads");
        assert_eq!(off_hits, 0);
        assert_eq!(off_stats.prefetch_hints, 0);
        assert!(
            on_stats.prefetch_hints > 0,
            "depth 8 should have issued hints"
        );
        assert!(on_reads > 0, "hints should have prefetched real pages");
        assert!(on_hits > 0, "some prefetched pages should satisfy demand");
        assert_eq!(
            on_misses + on_hits,
            off_misses,
            "I/O conservation broke at shards={shards}"
        );
        assert_eq!(on_stats.pairs_reported, off_stats.pairs_reported);
    }
}

/// The queue backend is a pure representation change: every engine
/// (serial, parallel at several thread counts) on each of the three queue
/// cells — memory flat, memory pairing, and the hybrid queue with spilling
/// — produces the bit-identical result stream of a serial join on the
/// memory pairing heap, the paper's layout.
#[test]
fn flat_layout_is_stream_invisible_across_engines_and_backends() {
    let a = uniform(300, 101);
    let b = uniform(350, 102);
    let t1 = tree(&a, 8);
    let t2 = tree(&b, 8);
    let memory = |layout| JoinConfig::default().with_layout(layout);
    let reference = memory(QueueLayout::Pairing);
    let want: Vec<_> = DistanceJoin::new(&t1, &t2, reference)
        .map(|r| key(&r))
        .collect();
    let semi_want: Vec<_> = DistanceJoin::semi(&t1, &t2, reference, SemiConfig::default())
        .map(|r| key(&r))
        .collect();
    let cells = [
        memory(QueueLayout::FlatDary),
        reference,
        JoinConfig {
            // A small D_T increment forces real list-tier and spill traffic.
            queue: QueueBackend::Hybrid(sdj_pqueue::HybridConfig {
                dt: 0.05,
                page_size: 256,
                buffer_frames: 2,
                ..sdj_pqueue::HybridConfig::default()
            }),
            ..JoinConfig::default()
        },
    ];
    for config in cells {
        let what = format!("{:?}/{:?}", config.queue, config.layout);
        let serial: Vec<_> = DistanceJoin::new(&t1, &t2, config)
            .map(|r| key(&r))
            .collect();
        assert_eq!(serial, want, "{what}: serial stream drifted");
        for threads in [1usize, 4] {
            let run = ParallelDistanceJoin::new(
                &t1,
                &t2,
                config,
                ParallelConfig {
                    threads,
                    frontier_factor: 8,
                    channel_capacity: 16,
                },
            )
            .collect();
            assert_eq!(run.error, None);
            assert_eq!(
                run.value.iter().map(key).collect::<Vec<_>>(),
                want,
                "{what}: parallel stream drifted at threads={threads}"
            );
            assert!(
                run.stats.queue_bytes_peak > 0,
                "{what}: every backend reports queue bytes"
            );
        }
        let semi: Vec<_> = DistanceJoin::semi(&t1, &t2, config, SemiConfig::default())
            .map(|r| key(&r))
            .collect();
        assert_eq!(semi, semi_want, "{what}: semi-join drifted");
    }
}

/// Merged statistics keep enqueue/dequeue symmetry: the partitioner counts
/// shard pairs once and workers do not recount them.
#[test]
fn merged_stats_keep_queue_symmetry() {
    let a = uniform(300, 71);
    let b = uniform(300, 72);
    let t1 = tree(&a, 8);
    let t2 = tree(&b, 8);
    let run = ParallelDistanceJoin::new(
        &t1,
        &t2,
        JoinConfig::default(),
        ParallelConfig {
            threads: 4,
            frontier_factor: 16,
            channel_capacity: 64,
        },
    )
    .collect();
    assert_eq!(run.error, None);
    assert_eq!(run.stats.pairs_reported, run.value.len() as u64);
    assert!(
        run.stats.pairs_dequeued <= run.stats.pairs_enqueued,
        "dequeues ({}) cannot exceed enqueues ({})",
        run.stats.pairs_dequeued,
        run.stats.pairs_enqueued
    );
}
