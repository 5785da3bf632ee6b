//! Observability invariants of the hybrid queue.
//!
//! Two properties, exercised over random interleavings of pushes and pops:
//!
//! 1. The tier-occupancy gauges (`pq.tier.heap` / `.list` / `.disk`) sum to
//!    the queue's total length after every operation — spills, bucket
//!    reloads and window promotions never lose or double-count an element.
//! 2. The NDJSON event stream is lossless: replaying the parsed lines
//!    through a fresh [`RingRecorder`] reconstructs exactly the per-variant
//!    counters the live recorder accumulated, and the tier element-sums
//!    agree with the queue's own [`HybridStats`].

use std::io::{self, Write};
use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use sdj_geom::OrdF64;
use sdj_obs::{Event, EventSink, NdjsonWriter, Registry, RingRecorder, TeeSink};
use sdj_pqueue::{HybridConfig, HybridQueue, TierGauges};

/// A `Write` target that can be read back after the writer is dropped.
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

proptest! {
    #[test]
    fn tier_gauges_sum_to_len_and_ndjson_replay_matches(
        ops in prop::collection::vec((any::<bool>(), 0.0..50.0f64), 1..200),
        dt in 0.25..8.0f64,
    ) {
        let ring = Arc::new(RingRecorder::new(4096));
        let shared = SharedBuf::default();
        let ndjson = NdjsonWriter::new(Box::new(shared.clone()));
        let sink: Arc<dyn EventSink> =
            Arc::new(TeeSink::new(Arc::clone(&ring), ndjson));
        let registry = Registry::new();
        let gauges = TierGauges::register(&registry);

        let mut q: HybridQueue<OrdF64, u64> = HybridQueue::new(HybridConfig {
            dt,
            page_size: 256,
            buffer_frames: 2,
            ..HybridConfig::default()
        });
        q.attach_obs(Arc::clone(&sink), Some(gauges.clone()));

        // Monotone discipline like the join: never push below the last
        // popped key.
        let mut floor = 0.0f64;
        for (i, (is_pop, d)) in ops.iter().enumerate() {
            if *is_pop && !q.is_empty() {
                let (k, _) = q.pop().unwrap().unwrap();
                floor = floor.max(k.get());
            } else {
                q.push(OrdF64::new(floor + d), i as u64).unwrap();
            }
            let sum = gauges.heap.get() + gauges.list.get() + gauges.disk.get();
            prop_assert_eq!(sum as usize, q.len(), "gauges must sum to len");
        }
        while q.pop().unwrap().is_some() {}
        prop_assert_eq!(
            gauges.heap.get() + gauges.list.get() + gauges.disk.get(),
            0,
            "drained queue must zero all tier gauges"
        );

        // Tier element-sums agree with the queue's own counters.
        sink.flush();
        let stats = q.stats();
        let counts = ring.counts();
        prop_assert_eq!(counts.elems_to_disk, stats.spilled);
        prop_assert_eq!(counts.elems_from_disk, stats.reloaded);

        // Replaying the NDJSON log reconstructs identical counters.
        let bytes = shared.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        let replay = RingRecorder::new(4096);
        let mut lines = 0u64;
        for line in text.lines() {
            let event = Event::parse_ndjson(line);
            prop_assert!(event.is_some(), "unparseable NDJSON line: {line}");
            replay.emit(&event.unwrap());
            lines += 1;
        }
        prop_assert_eq!(lines, counts.total());
        prop_assert_eq!(replay.counts(), counts);
    }
}
