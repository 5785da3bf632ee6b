//! Cross-layout equivalence of the queue tiers.
//!
//! The flat 4-ary layout must be invisible in behaviour: over fuzzed
//! push/pop schedules that drive elements through every hybrid tier shape
//! (heap-only, heavy list traffic, spill-and-reload), a [`Layout::FlatDary`]
//! queue pops exactly the `(key, value)` sequence of a [`Layout::Pairing`]
//! queue — including FIFO order among equal keys — while its tier-occupancy
//! gauges always sum to the queue's length.

use proptest::prelude::*;
use sdj_geom::OrdF64;
use sdj_obs::Registry;
use sdj_pqueue::{HybridConfig, HybridQueue, KeyScale, Layout, PriorityQueue, TierGauges};

fn queue(dt: f64, page_size: usize, layout: Layout) -> HybridQueue<OrdF64, u64> {
    HybridQueue::new(HybridConfig {
        dt,
        page_size,
        buffer_frames: 2,
        key_scale: KeyScale::Identity,
        layout,
    })
}

proptest! {
    /// Identical op schedules, identical pop streams; the flat queue's tier
    /// gauges account for every element after every operation. `dt` sweeps
    /// the tier shapes: large `dt` keeps everything in the heap tier, small
    /// `dt` pushes most keys through the list and disk tiers.
    #[test]
    fn layouts_pop_identically_and_gauges_account_for_every_element(
        ops in prop::collection::vec((any::<bool>(), 0u32..80), 1..250),
        dt in 0.05..40.0f64,
        page_size in prop::sample::select(vec![128usize, 256, 1024]),
    ) {
        let registry = Registry::new();
        let gauges = TierGauges::register(&registry);
        let mut pairing = queue(dt, page_size, Layout::Pairing);
        let mut flat = queue(dt, page_size, Layout::FlatDary);
        flat.attach_obs(
            std::sync::Arc::new(sdj_obs::NoopSink),
            Some(gauges.clone()),
        );

        // Monotone discipline like the join: never push below the last
        // popped key, so reloaded buckets stay ahead of the frontier.
        let mut floor = 0.0f64;
        let mut seq = 0u64;
        for (push, k) in ops {
            if push {
                let key = floor + f64::from(k) * 0.37;
                pairing.push(OrdF64::new(key), seq).unwrap();
                flat.push(OrdF64::new(key), seq).unwrap();
                seq += 1;
            } else {
                let a = pairing.pop().unwrap();
                let b = flat.pop().unwrap();
                prop_assert_eq!(&a, &b, "pop streams diverged");
                if let Some((key, _)) = a {
                    floor = key.get();
                }
            }
            let gauge_sum = gauges.heap.get() + gauges.list.get() + gauges.disk.get();
            prop_assert_eq!(
                usize::try_from(gauge_sum).unwrap(),
                PriorityQueue::len(&flat),
                "tier gauges must sum to the queue length"
            );
        }
        // Drain: the remaining streams must match element for element.
        loop {
            let a = pairing.pop().unwrap();
            let b = flat.pop().unwrap();
            prop_assert_eq!(&a, &b, "drain streams diverged");
            if a.is_none() {
                break;
            }
        }
        prop_assert_eq!(pairing.stats(), flat.stats(), "tier traffic diverged");
    }
}

/// A deterministic spill-and-reload cycle: keys far above `D2` go to disk,
/// then the frontier advances past them and pulls the buckets back. Both
/// layouts must reload into identical pop order and free every spill page
/// once drained.
#[test]
fn spill_reload_cycle_matches_across_layouts() {
    let mut pairing = queue(1.0, 128, Layout::Pairing);
    let mut flat = queue(1.0, 128, Layout::FlatDary);
    for i in 0..400u32 {
        // Interleave near keys (heap tier) and far keys (disk buckets).
        let key = if i % 2 == 0 {
            f64::from(i) * 0.01
        } else {
            50.0 + f64::from(i) * 0.1
        };
        pairing.push(OrdF64::new(key), u64::from(i)).unwrap();
        flat.push(OrdF64::new(key), u64::from(i)).unwrap();
    }
    assert!(
        pairing.stats().spilled > 0,
        "schedule must exercise the disk tier"
    );
    let mut n = 0;
    loop {
        let a = pairing.pop().unwrap();
        let b = flat.pop().unwrap();
        assert_eq!(a, b, "reloaded streams diverged at element {n}");
        if a.is_none() {
            break;
        }
        n += 1;
    }
    assert_eq!(n, 400);
    assert_eq!(pairing.stats(), flat.stats());
    assert_eq!(flat.in_memory_len() + flat.on_disk_len(), 0);
    let disk = flat.disk_stats();
    assert_eq!(disk.allocations, disk.frees, "every spill page freed");
}
