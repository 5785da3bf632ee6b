//! Parallel chaos: fault schedules on the workers' hybrid spill queues must
//! end the merged stream with a typed error after a correct prefix — the
//! first failing worker propagates through [`JoinStream`] instead of
//! poisoning the merge — or the run completes with the full fault-free
//! result multiset.
//!
//! Prefix correctness for a parallel run means: every emitted result is in
//! the fault-free multiset, none is emitted twice, and the emitted distance
//! sequence is a prefix of the fault-free distance sequence (ties aside, the
//! watermark merge emits globally in order, so nothing past the error point
//! can have been skipped before it).

use std::collections::HashMap;

use proptest::prelude::*;
use sdj_core::{DistanceJoin, JoinConfig, QueueBackend, SemiConfig};
use sdj_exec::{ParallelConfig, ParallelDistanceJoin};
use sdj_geom::{KeySpace, Metric, Point};
use sdj_pqueue::HybridConfig;
use sdj_rtree::{ObjectId, RTree, RTreeConfig};
use sdj_storage::FaultConfig;

fn tree(points: &[Point<2>], fanout: usize) -> RTree<2> {
    let mut t = RTree::new(RTreeConfig::small(fanout));
    for (i, p) in points.iter().enumerate() {
        t.insert(ObjectId(i as u64), p.to_rect()).unwrap();
    }
    t
}

fn sample_sets() -> (Vec<Point<2>>, Vec<Point<2>>) {
    (
        sdj_datagen::tiger::water_like(70, 7),
        sdj_datagen::tiger::roads_like(90, 7),
    )
}

fn spilly_config() -> JoinConfig {
    JoinConfig {
        queue: QueueBackend::Hybrid(HybridConfig {
            dt: 0.05,
            page_size: 256,
            buffer_frames: 2,
            keys: KeySpace::squared(Metric::Euclidean),
        }),
        ..JoinConfig::default()
    }
}

/// Checks the parallel fail-clean contract against the serial golden run.
fn assert_parallel_fail_clean(
    golden: &[sdj_core::ResultPair],
    run: &sdj_exec::RunOutput<Vec<sdj_core::ResultPair>>,
) {
    // Count each (pair, distance-bits) of the golden multiset.
    let mut budget: HashMap<(u64, u64, u64), i64> = HashMap::new();
    for r in golden {
        *budget
            .entry((r.oid1.0, r.oid2.0, r.distance.to_bits()))
            .or_default() += 1;
    }
    for r in &run.value {
        let k = (r.oid1.0, r.oid2.0, r.distance.to_bits());
        let slot = budget
            .get_mut(&k)
            .unwrap_or_else(|| panic!("emitted pair {k:?} is not in the fault-free result set"));
        *slot -= 1;
        assert!(*slot >= 0, "pair {k:?} emitted more often than it exists");
    }
    // Ordered prefix of the golden distance sequence.
    for (got, want) in run.value.iter().zip(golden) {
        assert_eq!(
            got.distance.to_bits(),
            want.distance.to_bits(),
            "merged stream diverged from the golden distance order"
        );
    }
    match &run.error {
        None => assert_eq!(
            run.value.len(),
            golden.len(),
            "error-free run must emit the complete result set"
        ),
        Some(_) => assert!(run.value.len() <= golden.len()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fuzzed fault schedules on every engine's spill queue, 1–4 workers.
    #[test]
    fn parallel_join_is_fail_clean_under_queue_faults(
        seed in any::<u64>(),
        read_p in 0.0..0.05f64,
        write_p in 0.0..0.05f64,
        disk_full in prop::option::of(0u64..16),
        retries in 0u32..3,
        threads in 1usize..4,
    ) {
        let (a, b) = sample_sets();
        let t1 = tree(&a, 5);
        let t2 = tree(&b, 5);
        let config = spilly_config();
        let golden: Vec<_> = DistanceJoin::new(&t1, &t2, config).collect();

        let fault = FaultConfig {
            seed,
            read_transient: read_p,
            write_transient: write_p,
            disk_full_after: disk_full,
            retries,
            ..FaultConfig::default()
        };
        let run = ParallelDistanceJoin::new(
            &t1,
            &t2,
            config,
            ParallelConfig::with_threads(threads),
        )
        .with_queue_fault_config(fault)
        .collect();
        assert_parallel_fail_clean(&golden, &run);
    }

    /// Transient-only schedules with retries complete with the full result
    /// set even in parallel.
    #[test]
    fn parallel_transient_only_with_retries_completes(
        seed in any::<u64>(),
        p in 0.005..0.03f64,
        threads in 1usize..4,
    ) {
        let (a, b) = sample_sets();
        let t1 = tree(&a, 5);
        let t2 = tree(&b, 5);
        let config = spilly_config();
        let golden: Vec<_> = DistanceJoin::new(&t1, &t2, config).collect();

        let run = ParallelDistanceJoin::new(
            &t1,
            &t2,
            config,
            ParallelConfig::with_threads(threads),
        )
        .with_queue_fault_config(FaultConfig {
            retries: 16,
            ..FaultConfig::transient_only(seed, p)
        })
        .collect();
        prop_assert!(run.error.is_none(), "retries must absorb transient faults: {:?}", run.error);
        assert_parallel_fail_clean(&golden, &run);
    }
}

/// A guaranteed worker failure: the stream must surface the error through
/// `JoinStream::error` after a correct prefix, and `RunOutput::error` must
/// carry the same typed error.
#[test]
fn worker_error_propagates_through_the_stream() {
    let (a, b) = sample_sets();
    let t1 = tree(&a, 5);
    let t2 = tree(&b, 5);
    let config = spilly_config();
    let golden: Vec<_> = DistanceJoin::new(&t1, &t2, config).collect();

    let fault = FaultConfig {
        seed: 7,
        disk_full_after: Some(0),
        ..FaultConfig::default()
    };
    let mut stream_error = None;
    let run = ParallelDistanceJoin::new(&t1, &t2, config, ParallelConfig::with_threads(2))
        .with_queue_fault_config(fault)
        .run(|stream| {
            let out: Vec<_> = stream.collect();
            stream_error = stream.error().cloned();
            out
        });
    assert_parallel_fail_clean(&golden, &run);
    assert!(
        run.error.is_some(),
        "a zero-page allocation budget must fail some spill"
    );
    if run.value.len() < golden.len() {
        assert!(
            stream_error.is_some(),
            "a truncated stream must expose the error to the consumer"
        );
    }
}

/// Semi-join parallel chaos: the per-object nearest map of an error-free
/// faulted run must equal the serial one.
#[test]
fn parallel_semi_join_transient_retries_match_serial() {
    let (a, b) = sample_sets();
    let t1 = tree(&a, 5);
    let t2 = tree(&b, 5);
    let config = spilly_config();
    let semi = SemiConfig::default();
    let serial: HashMap<u64, u64> = DistanceJoin::semi(&t1, &t2, config, semi)
        .map(|r| (r.oid1.0, r.distance.to_bits()))
        .collect();

    let run = ParallelDistanceJoin::semi(&t1, &t2, config, semi, ParallelConfig::with_threads(3))
        .with_queue_fault_config(FaultConfig {
            retries: 16,
            ..FaultConfig::transient_only(41, 0.02)
        })
        .collect();
    assert!(run.error.is_none(), "retries must absorb transient faults");
    let got: HashMap<u64, u64> = run
        .value
        .iter()
        .map(|r| (r.oid1.0, r.distance.to_bits()))
        .collect();
    assert_eq!(got.len(), run.value.len(), "no first object answered twice");
    assert_eq!(got, serial);
}
