//! The adaptive handoff's correctness contract against the pure
//! incremental engine:
//!
//! * **Order**: `prefix ++ seeded-bulk` reports a distance sequence
//!   bit-identical to the pure incremental stream, with a handoff forced at
//!   *any* checkpoint — before the first pop, mid-run, mid-spill on the
//!   hybrid queue's disk tiers, after the last result, or never (forced
//!   beyond exhaustion). Equal-distance tie order may differ, the same
//!   contract the forced-bulk and parallel paths have.
//! * **Fail-clean (chaos)**: under fuzzed fault schedules — including
//!   faults landing inside the handoff's frontier drain and harvest — the
//!   run either completes identically or emits a correct prefix and stops
//!   with a typed error (the PR 5 contract).

use std::sync::Arc;

use proptest::prelude::*;
use sdj_core::bulk::BulkConfig;
use sdj_core::{
    AdaptiveConfig, AdaptiveDistanceJoin, DistanceJoin, ExpansionPath, JoinConfig, JoinCursor,
    QueueBackend,
};
use sdj_geom::{KeySpace, Metric, Rect};
use sdj_pqueue::HybridConfig;
use sdj_rtree::{ObjectId, RTree, RTreeConfig};
use sdj_storage::{FaultConfig, FaultInjector};

fn tree(rects: &[Rect<2>], fanout: usize) -> RTree<2> {
    let mut t = RTree::new(RTreeConfig::small(fanout));
    for (i, r) in rects.iter().enumerate() {
        t.insert(ObjectId(i as u64), *r).unwrap();
    }
    t
}

/// Rectangles in a 10×10 box: mostly points, some extended boxes.
fn arb_rects(max: usize) -> impl Strategy<Value = Vec<Rect<2>>> {
    prop::collection::vec(
        (
            0.0..10.0f64,
            0.0..10.0f64,
            prop_oneof![Just(0.0), 0.0..2.0f64],
            prop_oneof![Just(0.0), 0.0..2.0f64],
        ),
        1..max,
    )
    .prop_map(|v| {
        v.into_iter()
            .map(|(x, y, w, h)| Rect::new([x, y], [x + w, y + h]))
            .collect()
    })
}

/// An aggressively-spilling hybrid queue (tiny `D_T`, small pages, two
/// frames) so forced handoffs land while pairs sit on every tier.
fn hybrid_backend(dt: f64) -> QueueBackend {
    QueueBackend::Hybrid(HybridConfig {
        dt,
        page_size: 256,
        buffer_frames: 2,
        keys: KeySpace::squared(Metric::Euclidean),
    })
}

#[derive(Clone, Debug)]
struct Case {
    a: Vec<Rect<2>>,
    b: Vec<Rect<2>>,
    fanout: usize,
    metric: Metric,
    range: Option<(f64, f64)>,
    max_pairs: Option<u64>,
    exclude_equal_ids: bool,
    lanes: bool,
    hybrid_dt: Option<f64>,
    /// Pop count the handoff is forced at: 0 = before the first pop; large
    /// values exercise "after the last result" and "never fires".
    force_at: u64,
    pop_stride: u64,
}

fn arb_case() -> impl Strategy<Value = Case> {
    let metric = prop::sample::select(vec![
        Metric::Euclidean,
        Metric::Manhattan,
        Metric::Chessboard,
    ]);
    (
        arb_rects(30),
        arb_rects(35),
        3usize..7,
        metric,
        prop::option::of((0.0..4.0f64, 0.0..10.0f64)),
        prop::option::of(1u64..50),
        any::<bool>(),
        any::<bool>(),
        prop::option::of(0.05..0.5f64),
        (
            prop_oneof![Just(0u64), 1u64..300, 2_000u64..1_000_000],
            1u64..64,
        ),
    )
        .prop_map(
            |(
                a,
                b,
                fanout,
                metric,
                range,
                max_pairs,
                exclude_equal_ids,
                lanes,
                hybrid_dt,
                (force_at, pop_stride),
            )| Case {
                a,
                b,
                fanout,
                metric,
                range: range.map(|(lo, w)| (lo, lo + w)),
                max_pairs,
                exclude_equal_ids,
                lanes,
                hybrid_dt,
                force_at,
                pop_stride,
            },
        )
}

fn config_of(case: &Case) -> JoinConfig {
    let mut config = JoinConfig {
        metric: case.metric,
        exclude_equal_ids: case.exclude_equal_ids,
        queue: case.hybrid_dt.map_or(QueueBackend::Memory, hybrid_backend),
        ..JoinConfig::default()
    };
    if let Some((lo, hi)) = case.range {
        config = config.with_range(lo, hi);
    }
    if let Some(k) = case.max_pairs {
        config.max_pairs = Some(k);
    }
    if case.lanes {
        config = config.with_expansion(ExpansionPath::Lanes);
    }
    config
}

fn adaptive_config_of(case: &Case) -> AdaptiveConfig {
    AdaptiveConfig {
        pop_stride: case.pop_stride,
        force_handoff_at: Some(case.force_at),
        ..AdaptiveConfig::default()
    }
}

/// `(distance bits, oid1, oid2)` triples.
type Stream = Vec<(u64, u64, u64)>;

fn canon(results: &[(u64, u64, u64)]) -> Stream {
    let mut v = results.to_vec();
    v.sort_unstable();
    v
}

fn triples(results: &[sdj_core::ResultPair]) -> Stream {
    results
        .iter()
        .map(|r| (r.distance.to_bits(), r.oid1.0, r.oid2.0))
        .collect()
}

fn incremental_stream(case: &Case) -> Stream {
    let t1 = tree(&case.a, case.fanout);
    let t2 = tree(&case.b, case.fanout);
    let mut join = DistanceJoin::new(&t1, &t2, config_of(case));
    let out = join
        .by_ref()
        .map(|r| (r.distance.to_bits(), r.oid1.0, r.oid2.0))
        .collect();
    assert!(join.take_error().is_none());
    out
}

/// Serial adaptive run with the case's forced handoff.
fn adaptive_stream(case: &Case) -> (Stream, bool) {
    let t1 = tree(&case.a, case.fanout);
    let t2 = tree(&case.b, case.fanout);
    let join = AdaptiveDistanceJoin::with_configs(
        &t1,
        &t2,
        config_of(case),
        BulkConfig::default(),
        adaptive_config_of(case),
    );
    let run = join.run();
    assert!(
        run.error.is_none(),
        "fault-free run errored: {:?}",
        run.error
    );
    (triples(&run.results), run.replanned.is_some())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The merged stream's distance sequence is bit-identical to the pure
    /// incremental stream, for a handoff forced anywhere.
    #[test]
    fn ordered_adaptive_reports_identical_distances(case in arb_case()) {
        let reference = incremental_stream(&case);
        let (got, _) = adaptive_stream(&case);
        prop_assert_eq!(got.len(), reference.len());
        let ref_dists: Vec<u64> = reference.iter().map(|r| r.0).collect();
        let got_dists: Vec<u64> = got.iter().map(|r| r.0).collect();
        prop_assert_eq!(got_dists, ref_dists);
        prop_assert_eq!(canon(&got), canon(&reference));
    }

    /// The pull-paced cursor produces the same stream as the one-shot
    /// `run()`, bit-for-bit and in the same order, regardless of how the
    /// pulls chop it up — the invariant that lets a session hold an
    /// adaptive join paused between batches.
    #[test]
    fn cursor_stream_matches_run(case in arb_case(), batch in 1usize..7) {
        let (reference, replanned) = adaptive_stream(&case);

        let t1 = tree(&case.a, case.fanout);
        let t2 = tree(&case.b, case.fanout);
        let join = AdaptiveDistanceJoin::with_configs(
            &t1,
            &t2,
            config_of(&case),
            BulkConfig::default(),
            adaptive_config_of(&case),
        );
        let mut cursor = join.cursor();
        let mut out = Vec::new();
        loop {
            let before = out.len();
            let done = cursor.advance(batch, &mut out).expect("fault-free cursor");
            if done {
                break;
            }
            prop_assert!(out.len() > before, "pull made no progress");
        }
        prop_assert!(cursor.is_done());
        prop_assert_eq!(triples(&out), reference);
        prop_assert_eq!(cursor.replanned().is_some(), replanned);
        // A drained cursor holds no queue or buffered-result memory.
        prop_assert_eq!(cursor.held_bytes(), 0);
    }
}

// Chaos: a fault schedule over the trees and the hybrid queue's pager,
// with the handoff forced mid-run so schedules land inside the frontier
// drain and harvest too. Fail-clean means: no error → bit-identical to the
// fault-free adaptive stream; error → a correct prefix of it.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn adaptive_is_fail_clean_under_fuzzed_schedules(
        seed in any::<u64>(),
        read_p in 0.0..0.02f64,
        write_p in 0.0..0.02f64,
        flip_p in 0.0..0.01f64,
        torn_p in 0.0..0.01f64,
        retries in 0u32..3,
        dt in prop::option::of(0.05..0.5f64),
        force_at in prop_oneof![Just(0u64), 1u64..200],
        stride in 1u64..32,
    ) {
        let pts_a = sdj_datagen::tiger::water_like(60, 5);
        let pts_b = sdj_datagen::tiger::roads_like(80, 5);
        let case = Case {
            a: pts_a.iter().map(|p| p.to_rect()).collect(),
            b: pts_b.iter().map(|p| p.to_rect()).collect(),
            fanout: 5,
            metric: Metric::Euclidean,
            range: None,
            max_pairs: None,
            exclude_equal_ids: false,
            lanes: false,
            hybrid_dt: dt,
            force_at,
            pop_stride: stride,
        };
        let (golden, _) = adaptive_stream(&case);

        // Faulted run: trees rebuilt from scratch (bit flips permanently
        // damage simulated pages), injector installed only after the build.
        let t1 = tree(&case.a, case.fanout);
        let t2 = tree(&case.b, case.fanout);
        let fault = FaultConfig {
            seed,
            read_transient: read_p,
            write_transient: write_p,
            bit_flip: flip_p,
            torn_write: torn_p,
            retries,
            ..FaultConfig::default()
        };
        let inj = Arc::new(FaultInjector::new(fault));
        t1.set_fault_injector(Some(Arc::clone(&inj)));
        t2.set_fault_injector(Some(Arc::clone(&inj)));
        let mut join = AdaptiveDistanceJoin::with_configs(
            &t1,
            &t2,
            config_of(&case),
            BulkConfig::default(),
            adaptive_config_of(&case),
        );
        join.set_queue_fault_injector(Some(Arc::clone(&inj)));
        let run = join.run();
        let got = triples(&run.results);
        match &run.error {
            None => prop_assert_eq!(got, golden),
            Some(e) => {
                prop_assert!(
                    got.len() <= golden.len(),
                    "faulted run emitted more results than exist ({} > {}), error {}",
                    got.len(), golden.len(), e
                );
                prop_assert_eq!(
                    &got[..],
                    &golden[..got.len()],
                    "faulted run diverged from the golden stream before its error ({})", e
                );
            }
        }
    }
}

/// A handoff forced before the first pop degenerates to a pure (seeded)
/// bulk run over the root frontier; the stream must still match.
#[test]
fn handoff_before_first_pop_matches_incremental() {
    let rects: Vec<Rect<2>> = (0..300)
        .map(|i| {
            let p = [(i % 20) as f64 * 0.5, (i / 20) as f64 * 0.6];
            Rect::new(p, p)
        })
        .collect();
    let case = Case {
        a: rects.clone(),
        b: rects,
        fanout: 6,
        metric: Metric::Euclidean,
        range: Some((0.0, 1.1)),
        max_pairs: None,
        exclude_equal_ids: true,
        lanes: false,
        hybrid_dt: None,
        force_at: 0,
        pop_stride: 4096,
    };
    let reference = incremental_stream(&case);
    let (got, replanned) = adaptive_stream(&case);
    assert!(replanned, "forced handoff at pop 0 must fire");
    let ref_dists: Vec<u64> = reference.iter().map(|r| r.0).collect();
    let got_dists: Vec<u64> = got.iter().map(|r| r.0).collect();
    assert_eq!(got_dists, ref_dists);
    assert_eq!(canon(&got), canon(&reference));
}

/// A forced pop count beyond exhaustion never fires: the run is the pure
/// incremental stream, tie order included.
#[test]
fn handoff_beyond_exhaustion_is_pure_incremental() {
    let rects: Vec<Rect<2>> = (0..150)
        .map(|i| {
            let p = [(i % 15) as f64, (i / 15) as f64];
            Rect::new(p, p)
        })
        .collect();
    let case = Case {
        a: rects.clone(),
        b: rects,
        fanout: 5,
        metric: Metric::Manhattan,
        range: Some((0.0, 2.0)),
        max_pairs: Some(40),
        exclude_equal_ids: false,
        lanes: false,
        hybrid_dt: None,
        force_at: u64::MAX,
        pop_stride: 64,
    };
    let reference = incremental_stream(&case);
    let (got, replanned) = adaptive_stream(&case);
    assert!(!replanned, "handoff must not fire past exhaustion");
    assert_eq!(got, reference, "no-handoff adaptive must be bit-identical");
}

/// `STOP AFTER k` across the handoff: the seeded remainder owes exactly
/// `k - prefix` results and the merged stream truncates there.
#[test]
fn stop_after_truncates_across_the_handoff() {
    let rects: Vec<Rect<2>> = (0..400)
        .map(|i| {
            let p = [(i % 20) as f64 * 0.37, (i / 20) as f64 * 0.53];
            Rect::new(p, p)
        })
        .collect();
    for force_at in [0, 25, 90, 400] {
        let case = Case {
            a: rects.clone(),
            b: rects.clone(),
            fanout: 6,
            metric: Metric::Euclidean,
            range: None,
            max_pairs: Some(64),
            exclude_equal_ids: true,
            lanes: false,
            hybrid_dt: None,
            force_at,
            pop_stride: 16,
        };
        let reference = incremental_stream(&case);
        assert_eq!(reference.len(), 64);
        let (got, _) = adaptive_stream(&case);
        assert_eq!(got.len(), 64, "force_at={force_at}");
        let ref_dists: Vec<u64> = reference.iter().map(|r| r.0).collect();
        let got_dists: Vec<u64> = got.iter().map(|r| r.0).collect();
        assert_eq!(got_dists, ref_dists, "force_at={force_at}");
    }
}

/// The replan ledger: one switched checkpoint at most, signals recorded in
/// checkpoint order, and the switch's pop coordinate honours the force.
#[test]
fn signals_record_the_single_switch() {
    let rects: Vec<Rect<2>> = (0..250)
        .map(|i| {
            let p = [(i % 25) as f64 * 0.41, (i / 25) as f64 * 0.77];
            Rect::new(p, p)
        })
        .collect();
    let case = Case {
        a: rects.clone(),
        b: rects,
        fanout: 5,
        metric: Metric::Euclidean,
        range: Some((0.0, 1.5)),
        max_pairs: None,
        exclude_equal_ids: true,
        lanes: false,
        hybrid_dt: None,
        force_at: 40,
        pop_stride: 8,
    };
    let t1 = tree(&case.a, case.fanout);
    let t2 = tree(&case.b, case.fanout);
    let join = AdaptiveDistanceJoin::with_configs(
        &t1,
        &t2,
        config_of(&case),
        BulkConfig::default(),
        AdaptiveConfig {
            // Infinite hysteresis silences the cost model, so the switch
            // coordinate is exactly the forced one.
            hysteresis: f64::INFINITY,
            ..adaptive_config_of(&case)
        },
    );
    let run = join.run();
    assert!(run.error.is_none());
    let info = run.replanned.expect("forced switch must fire");
    assert_eq!(info.at_pop, 40);
    assert!(info.forced);
    assert_eq!(run.signals.iter().filter(|s| s.switched).count(), 1);
    let last = run.signals.last().unwrap();
    assert!(last.switched, "the switch ends the checkpoint ledger");
    assert_eq!(last.pops, 40);
    for w in run.signals.windows(2) {
        assert!(w[0].checkpoint < w[1].checkpoint);
        assert!(w[0].pops <= w[1].pops);
    }
    assert!(run.bulk_stats.is_some());
}
