//! Settings that change how the engine stores or fetches its data, never
//! what it returns: buffer-pool shards, queue-driven prefetch and the queue
//! backend each leave the join and semi-join streams bit-identical.
//! Uniform data has no exact distance ties, so ordered bitwise comparison is
//! the right check.

use sdj_core::{DistanceJoin, JoinConfig, QueueBackend, QueueLayout, SemiConfig};
use sdj_geom::Point;
use sdj_rtree::{ObjectId, RTree, RTreeConfig};

fn tree(points: &[Point<2>], fanout: usize, shards: usize) -> RTree<2> {
    let mut t = RTree::new(RTreeConfig {
        buffer_shards: shards,
        ..RTreeConfig::small(fanout)
    });
    for (i, p) in points.iter().enumerate() {
        t.insert(ObjectId(i as u64), p.to_rect()).unwrap();
    }
    t
}

fn uniform(n: usize, seed: u64) -> Vec<Point<2>> {
    sdj_datagen::uniform_points(n, &sdj_datagen::unit_box(), seed)
}

/// Exact comparison key: distances come out of identical code paths on the
/// same pairs, so bit-for-bit equality is the right notion.
fn key(r: &sdj_core::ResultPair) -> (u64, u64, u64) {
    (r.distance.to_bits(), r.oid1.0, r.oid2.0)
}

fn join_stream(t1: &RTree<2>, t2: &RTree<2>, config: JoinConfig) -> Vec<(u64, u64, u64)> {
    DistanceJoin::new(t1, t2, config).map(|r| key(&r)).collect()
}

fn semi_stream(t1: &RTree<2>, t2: &RTree<2>, config: JoinConfig) -> Vec<(u64, u64, u64)> {
    DistanceJoin::semi(t1, t2, config, SemiConfig::default())
        .map(|r| key(&r))
        .collect()
}

/// Buffer-pool sharding is a pure concurrency knob: every shard count
/// produces the bit-identical join and semi-join stream.
#[test]
fn shard_counts_are_stream_invisible() {
    let a = uniform(300, 81);
    let b = uniform(350, 82);
    let (base1, base2) = (tree(&a, 8, 1), tree(&b, 8, 1));
    let want_join = join_stream(&base1, &base2, JoinConfig::default());
    let want_semi = semi_stream(&base1, &base2, JoinConfig::default());
    for shards in [2usize, 4] {
        let (t1, t2) = (tree(&a, 8, shards), tree(&b, 8, shards));
        assert_eq!(
            join_stream(&t1, &t2, JoinConfig::default()),
            want_join,
            "join stream drifted at shards={shards}"
        );
        assert_eq!(
            semi_stream(&t1, &t2, JoinConfig::default()),
            want_semi,
            "semi stream drifted at shards={shards}"
        );
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
        let mut t = tree(points, 8, 1);
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
        let pool = |t: &RTree<2>| t.pool_stats();
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

/// The queue backend is a pure representation change: each of the three
/// queue cells — memory flat, memory pairing, and the hybrid queue with
/// spilling — produces the bit-identical join and semi-join stream of the
/// memory pairing heap, the paper's layout, and reports its queue bytes.
#[test]
fn queue_cells_are_stream_invisible() {
    let a = uniform(300, 101);
    let b = uniform(350, 102);
    let (t1, t2) = (tree(&a, 8, 1), tree(&b, 8, 1));
    let memory = |layout| JoinConfig::default().with_layout(layout);
    let reference = memory(QueueLayout::Pairing);
    let want = join_stream(&t1, &t2, reference);
    let semi_want = semi_stream(&t1, &t2, reference);
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
        let mut join = DistanceJoin::new(&t1, &t2, config);
        let stream: Vec<_> = join.by_ref().map(|r| key(&r)).collect();
        assert_eq!(stream, want, "{what}: join stream drifted");
        assert!(
            join.stats().queue_bytes_peak > 0,
            "{what}: every backend reports queue bytes"
        );
        assert_eq!(
            semi_stream(&t1, &t2, config),
            semi_want,
            "{what}: semi-join drifted"
        );
    }
}
