//! Chaos suite: fuzzed fault schedules over join and semi-join runs.
//!
//! The fail-clean invariant (DESIGN.md §11): under ANY fault schedule a run
//! either completes with a result stream bit-identical to the fault-free
//! run, or emits a correct prefix of that stream and then stops with a typed
//! [`StorageError`] — never a panic, never a wrong, duplicated, or missing
//! pair before the error point.
//!
//! The serial engine is deterministic for a fixed configuration, so the
//! faulted run must track the golden run result-for-result until the first
//! unrecovered fault. Each schedule rebuilds its trees from scratch:
//! bit-flip faults permanently damage pages in the simulated disk, so a
//! damaged tree must not leak into the next case.

use std::sync::Arc;

use proptest::prelude::*;
use sdj_core::{DistanceJoin, JoinConfig, QueueBackend, SemiConfig};
use sdj_datagen::tiger;
use sdj_geom::Point;
use sdj_pqueue::{HybridConfig, KeyScale};
use sdj_rtree::{ObjectId, RTree, RTreeConfig};
use sdj_storage::{FaultConfig, FaultInjector, StorageError};

fn build_tree(points: &[Point<2>], fanout: usize) -> RTree<2> {
    let mut tree = RTree::new(RTreeConfig::small(fanout));
    for (i, p) in points.iter().enumerate() {
        tree.insert(ObjectId(i as u64), p.to_rect()).unwrap();
    }
    tree
}

fn sample_sets() -> (Vec<Point<2>>, Vec<Point<2>>) {
    (tiger::water_like(60, 5), tiger::roads_like(80, 5))
}

/// A result stream as comparable bits: (oid1, oid2, distance bits).
type Stream = Vec<(u64, u64, u64)>;

/// The hybrid spill tier is sized to spill aggressively (tiny `D_T`, small
/// pages, two frames) so fault schedules actually reach the disk paths.
fn hybrid_backend(dt: f64) -> QueueBackend {
    QueueBackend::Hybrid(HybridConfig {
        dt,
        page_size: 256,
        buffer_frames: 2,
        key_scale: KeyScale::Squared,
    })
}

/// Runs a join (or semi-join) to completion under an optional fault
/// schedule, returning the emitted stream and the terminal error, if any.
fn run(
    config: JoinConfig,
    semi: Option<SemiConfig>,
    fault: Option<&FaultConfig>,
) -> (Stream, Option<StorageError>, u64) {
    let (a, b) = sample_sets();
    let t1 = build_tree(&a, 5);
    let t2 = build_tree(&b, 5);
    // One injector shared by both trees and the queue's spill pager: the
    // run is single-threaded, so the combined operation sequence — and with
    // it the schedule — is deterministic; every pool retries as often as
    // the schedule allows. Installed only after the build so construction
    // is never faulted.
    let mut retries_recorded = 0;
    let injector = fault.map(|cfg| {
        let inj = Arc::new(FaultInjector::new(cfg.clone()));
        t1.set_fault_injector(Some(Arc::clone(&inj)));
        t2.set_fault_injector(Some(Arc::clone(&inj)));
        inj
    });
    let mut join = match semi {
        Some(s) => DistanceJoin::semi(&t1, &t2, config, s),
        None => DistanceJoin::new(&t1, &t2, config),
    };
    if let Some(inj) = &injector {
        join.set_queue_fault_injector(Some(Arc::clone(inj)));
    }
    let stream: Stream = (&mut join)
        .map(|r| (r.oid1.0, r.oid2.0, r.distance.to_bits()))
        .collect();
    let error = join.take_error();
    if injector.is_some() {
        retries_recorded =
            t1.pool_stats().retries + t2.pool_stats().retries + join.queue_pool_stats().retries;
    }
    (stream, error, retries_recorded)
}

/// Prefix-or-identical: the chaos invariant, shared by every case below.
fn assert_fail_clean(golden: &Stream, got: &Stream, error: &Option<StorageError>) {
    match error {
        None => assert_eq!(
            got, golden,
            "fault-free completion must be bit-identical to the golden run"
        ),
        Some(e) => {
            assert!(
                got.len() <= golden.len(),
                "faulted run emitted more results than exist ({} > {}), error {e}",
                got.len(),
                golden.len()
            );
            assert_eq!(
                got,
                &golden[..got.len()],
                "faulted run diverged from the golden stream before its error ({e})"
            );
        }
    }
}

fn fuzzed_fault_config(
    seed: u64,
    read_transient: f64,
    write_transient: f64,
    bit_flip: f64,
    torn_write: f64,
    disk_full_after: Option<u64>,
) -> FaultConfig {
    FaultConfig {
        seed,
        read_transient,
        write_transient,
        bit_flip,
        torn_write,
        disk_full_after,
        ..FaultConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Joins under fuzzed mixed fault schedules, across queue backends.
    #[test]
    fn join_is_fail_clean_under_fuzzed_schedules(
        seed in any::<u64>(),
        read_p in 0.0..0.02f64,
        write_p in 0.0..0.02f64,
        flip_p in 0.0..0.01f64,
        torn_p in 0.0..0.01f64,
        disk_full in prop::option::of(0u64..12),
        retries in 0u32..3,
        dt in prop::option::of(0.05..0.5f64),
    ) {
        let config = JoinConfig {
            queue: dt.map_or(QueueBackend::Memory, hybrid_backend),
            ..JoinConfig::default()
        };
        let (golden, no_err, _) = run(config, None, None);
        prop_assert!(no_err.is_none(), "golden run must be fault-free");
        let fault = FaultConfig {
            retries,
            ..fuzzed_fault_config(seed, read_p, write_p, flip_p, torn_p, disk_full)
        };
        let (got, error, _) = run(config, None, Some(&fault));
        assert_fail_clean(&golden, &got, &error);
    }

    /// Semi-joins under the same fuzzed schedules.
    #[test]
    fn semi_join_is_fail_clean_under_fuzzed_schedules(
        seed in any::<u64>(),
        read_p in 0.0..0.02f64,
        write_p in 0.0..0.02f64,
        flip_p in 0.0..0.01f64,
        torn_p in 0.0..0.01f64,
        retries in 0u32..3,
        dt in prop::option::of(0.05..0.5f64),
    ) {
        let config = JoinConfig {
            queue: dt.map_or(QueueBackend::Memory, hybrid_backend),
            ..JoinConfig::default()
        };
        let semi = SemiConfig::default();
        let (golden, no_err, _) = run(config, Some(semi), None);
        prop_assert!(no_err.is_none(), "golden run must be fault-free");
        let fault = FaultConfig {
            retries,
            ..fuzzed_fault_config(seed, read_p, write_p, flip_p, torn_p, None)
        };
        let (got, error, _) = run(config, Some(semi), Some(&fault));
        assert_fail_clean(&golden, &got, &error);
    }

    /// With retries enabled, a transient-only schedule must complete — and
    /// complete identically: transient faults are recoverable by definition.
    #[test]
    fn transient_only_with_retries_completes_identically(
        seed in any::<u64>(),
        p in 0.005..0.05f64,
        dt in prop::option::of(0.05..0.5f64),
    ) {
        let config = JoinConfig {
            queue: dt.map_or(QueueBackend::Memory, hybrid_backend),
            ..JoinConfig::default()
        };
        let (golden, _, _) = run(config, None, None);
        // 16 retries: (1-p)^16 failure odds per op are negligible at p ≤ 5%.
        let fault = FaultConfig {
            retries: 16,
            ..FaultConfig::transient_only(seed, p)
        };
        let (got, error, retries) = run(config, None, Some(&fault));
        prop_assert!(error.is_none(), "transient-only schedule failed: {error:?}");
        prop_assert_eq!(got, golden);
        // The schedule is probabilistic, so a lucky seed may inject nothing;
        // retries must be recorded whenever something was injected.
        let _ = retries;
    }
}

/// Deterministic spot checks for each fault class, hybrid backend.

#[test]
fn nth_read_fault_without_retries_is_a_typed_error() {
    let config = JoinConfig {
        queue: hybrid_backend(0.1),
        ..JoinConfig::default()
    };
    let (golden, _, _) = run(config, None, None);
    let fault = FaultConfig {
        seed: 3,
        fail_read_nth: Some(1),
        ..FaultConfig::default()
    };
    let (got, error, _) = run(config, None, Some(&fault));
    assert_fail_clean(&golden, &got, &error);
    assert!(
        matches!(error, Some(StorageError::Io { transient: true })),
        "expected the injected transient Io to surface, got {error:?}"
    );
}

#[test]
fn bit_flip_surfaces_as_checksum_corruption() {
    let config = JoinConfig {
        queue: hybrid_backend(0.1),
        ..JoinConfig::default()
    };
    let (golden, _, _) = run(config, None, None);
    let fault = FaultConfig {
        seed: 11,
        bit_flip: 1.0,
        retries: 4,
        ..FaultConfig::default()
    };
    let (got, error, _) = run(config, None, Some(&fault));
    assert_fail_clean(&golden, &got, &error);
    assert!(
        matches!(error, Some(StorageError::Corrupt(_))),
        "a flipped stored bit must be caught by the page checksum, got {error:?}"
    );
}

#[test]
fn disk_full_during_spill_surfaces_as_typed_error() {
    // D_T small enough that the spill tier must allocate pages.
    let config = JoinConfig {
        queue: hybrid_backend(0.02),
        ..JoinConfig::default()
    };
    let (golden, _, _) = run(config, None, None);
    let fault = FaultConfig {
        seed: 5,
        disk_full_after: Some(0),
        retries: 4,
        ..FaultConfig::default()
    };
    let (got, error, _) = run(config, None, Some(&fault));
    assert_fail_clean(&golden, &got, &error);
    assert!(
        matches!(error, Some(StorageError::DiskFull)),
        "exhausted allocation budget must surface as DiskFull, got {error:?}"
    );
}

#[test]
fn torn_write_is_never_retried_and_poisons_the_page() {
    let config = JoinConfig {
        queue: hybrid_backend(0.05),
        ..JoinConfig::default()
    };
    let (golden, _, _) = run(config, None, None);
    let fault = FaultConfig {
        seed: 17,
        torn_write: 1.0,
        retries: 8,
        ..FaultConfig::default()
    };
    let (got, error, _) = run(config, None, Some(&fault));
    assert_fail_clean(&golden, &got, &error);
    assert!(
        matches!(
            error,
            Some(StorageError::Io { transient: false } | StorageError::Corrupt(_))
        ),
        "a torn write must fail hard (or be caught by checksum on re-read), got {error:?}"
    );
}

#[test]
fn transient_faults_record_retries_in_pool_stats() {
    let config = JoinConfig {
        queue: hybrid_backend(0.05),
        ..JoinConfig::default()
    };
    let (golden, _, _) = run(config, None, None);
    // High enough rate that injections are certain over hundreds of ops.
    let fault = FaultConfig {
        retries: 16,
        ..FaultConfig::transient_only(23, 0.05)
    };
    let (got, error, retries) = run(config, None, Some(&fault));
    assert!(
        error.is_none(),
        "retries must absorb transient faults: {error:?}"
    );
    assert_eq!(got, golden);
    assert!(
        retries > 0,
        "recovered transient faults must count as retries"
    );
}

#[test]
fn ordered_intersection_join_survives_tree_faults() {
    use sdj_core::OrderedIntersectionJoin;
    use sdj_geom::Metric;

    // Inflate the points into overlapping rectangles so the intersection
    // join has real work to do.
    let build_rect_tree = |points: &[Point<2>]| {
        let mut tree = RTree::new(RTreeConfig::small(5));
        for (i, p) in points.iter().enumerate() {
            let r = sdj_geom::Rect::new(
                [p.coords()[0] - 0.05, p.coords()[1] - 0.05],
                [p.coords()[0] + 0.05, p.coords()[1] + 0.05],
            );
            tree.insert(ObjectId(i as u64), r).unwrap();
        }
        tree
    };
    let (a, b) = sample_sets();
    let t1 = build_rect_tree(&a);
    let t2 = build_rect_tree(&b);
    let focus = Point::xy(0.5, 0.5);
    let golden: Vec<_> = OrderedIntersectionJoin::new(&t1, &t2, focus, Metric::Euclidean)
        .map(|p| (p.oid1.0, p.oid2.0, p.distance_from_focus.to_bits()))
        .collect();
    assert!(!golden.is_empty(), "inflated rectangles must intersect");

    let t1 = build_rect_tree(&a);
    let t2 = build_rect_tree(&b);
    let inj = Arc::new(FaultInjector::new(FaultConfig {
        seed: 29,
        read_transient: 0.05,
        ..FaultConfig::default()
    }));
    t1.set_fault_injector(Some(Arc::clone(&inj)));
    t2.set_fault_injector(Some(inj));
    let mut join = OrderedIntersectionJoin::new(&t1, &t2, focus, Metric::Euclidean);
    let got: Vec<_> = (&mut join)
        .map(|p| (p.oid1.0, p.oid2.0, p.distance_from_focus.to_bits()))
        .collect();
    match join.take_error() {
        None => assert_eq!(got, golden),
        Some(_) => assert_eq!(got, golden[..got.len()]),
    }
}
