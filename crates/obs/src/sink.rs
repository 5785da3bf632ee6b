//! Event sinks: where typed [`Event`]s go.
//!
//! A sink is shared by every component of a run (`Arc<dyn EventSink>`), so
//! implementations must be `Send + Sync` and cheap under concurrent emit.
//! The provided sinks are intentionally simple: a no-op used to measure
//! instrumentation overhead, a bounded in-memory ring for post-mortem
//! inspection, an NDJSON line writer for durable logs, and a tee. The log
//! is output only: nothing in the workspace parses it back, and in-process
//! checks read a [`RingRecorder`]'s events and [`EventCounts`] instead. No
//! sink panics, not even after a panicking writer poisoned its lock.

use std::collections::VecDeque;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::event::{Event, Tier};
use crate::lock;

/// Destination for instrumentation events.
pub trait EventSink: Send + Sync {
    /// Accepts one event. Must not panic; should be cheap. A sink that
    /// takes a lock recovers it from poisoning, so one panicking writer
    /// does not turn every later emit into a panic inside whichever engine
    /// emits next.
    fn emit(&self, event: &Event);

    /// Flushes any buffered output. Default: nothing to flush.
    fn flush(&self) {}
}

/// Discards every event. The baseline for the <2% overhead budget.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopSink;

impl EventSink for NoopSink {
    fn emit(&self, _event: &Event) {}
}

/// Per-variant event tallies of one stream, including tier-migration
/// element sums keyed by direction, so a test can check a component's event
/// stream against that component's own counters (the hybrid queue's spills
/// and reloads, the buffer pool's writebacks).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// `ResultReported` events seen.
    pub result_reported: u64,
    /// `QueueSampled` events seen.
    pub queue_sampled: u64,
    /// `TierMigration` events seen.
    pub tier_migration: u64,
    /// `BufferEvict` events seen.
    pub buffer_evict: u64,
    /// `BoundTightened` events seen.
    pub bound_tightened: u64,
    /// `WorkerFinished` events seen.
    pub worker_finished: u64,
    /// `FaultInjected` events seen.
    pub fault_injected: u64,
    /// `RetrySucceeded` events seen.
    pub retry_succeeded: u64,
    /// `PlanChosen` events seen.
    pub plan_chosen: u64,
    /// `Replanned` events seen.
    pub replanned: u64,
    /// `SessionOpened` / `SessionBatch` / `SessionClosed` events seen.
    pub session: u64,
    /// Elements that migrated into the disk tier (spills).
    pub elems_to_disk: u64,
    /// Elements that migrated out of the disk tier (bucket reloads).
    pub elems_from_disk: u64,
    /// Elements promoted into the heap tier.
    pub elems_to_heap: u64,
    /// Buffer evictions that required a writeback.
    pub writebacks: u64,
}

impl EventCounts {
    fn record(&mut self, event: &Event) {
        match *event {
            Event::ResultReported { .. } => self.result_reported += 1,
            Event::QueueSampled { .. } => self.queue_sampled += 1,
            Event::TierMigration { from, to, n } => {
                self.tier_migration += 1;
                if to == Tier::Disk {
                    self.elems_to_disk += u64::from(n);
                }
                if from == Tier::Disk {
                    self.elems_from_disk += u64::from(n);
                }
                if to == Tier::Heap {
                    self.elems_to_heap += u64::from(n);
                }
            }
            Event::BufferEvict { writeback } => {
                self.buffer_evict += 1;
                if writeback {
                    self.writebacks += 1;
                }
            }
            Event::BoundTightened { .. } => self.bound_tightened += 1,
            Event::WorkerFinished { .. } => self.worker_finished += 1,
            Event::FaultInjected { .. } => self.fault_injected += 1,
            Event::RetrySucceeded { .. } => self.retry_succeeded += 1,
            Event::PlanChosen { .. } => self.plan_chosen += 1,
            Event::Replanned { .. } => self.replanned += 1,
            Event::SessionOpened { .. }
            | Event::SessionBatch { .. }
            | Event::SessionClosed { .. } => self.session += 1,
        }
    }

    /// Total events recorded.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.result_reported
            + self.queue_sampled
            + self.tier_migration
            + self.buffer_evict
            + self.bound_tightened
            + self.worker_finished
            + self.fault_injected
            + self.retry_succeeded
            + self.plan_chosen
            + self.replanned
            + self.session
    }
}

struct RingInner {
    buf: VecDeque<Event>,
    counts: EventCounts,
    dropped: u64,
}

/// Bounded in-memory recorder: keeps the last `capacity` events verbatim
/// and exact per-variant counts for the whole stream.
pub struct RingRecorder {
    capacity: usize,
    inner: Mutex<RingInner>,
}

impl RingRecorder {
    /// A recorder holding at most `capacity` events (clamped to ≥ 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            inner: Mutex::new(RingInner {
                buf: VecDeque::with_capacity(capacity),
                counts: EventCounts::default(),
                dropped: 0,
            }),
        }
    }

    /// Snapshot of the retained tail of the event stream, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        let inner = lock(&self.inner);
        inner.buf.iter().copied().collect()
    }

    /// Exact per-variant counts over the *entire* stream (not just the
    /// retained tail).
    #[must_use]
    pub fn counts(&self) -> EventCounts {
        lock(&self.inner).counts
    }

    /// Events evicted from the ring because the stream outgrew `capacity`.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        lock(&self.inner).dropped
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl EventSink for RingRecorder {
    fn emit(&self, event: &Event) {
        let mut inner = lock(&self.inner);
        inner.counts.record(event);
        if inner.buf.len() == self.capacity {
            inner.buf.pop_front();
            inner.dropped += 1;
        }
        inner.buf.push_back(*event);
    }
}

/// Writes one NDJSON line per event to any `Write` destination.
///
/// Lines are rendered outside the lock into a reused-per-call buffer and
/// written whole, so concurrent emitters never interleave within a line.
pub struct NdjsonWriter {
    out: Mutex<BufWriter<Box<dyn Write + Send>>>,
    lines: AtomicU64,
    errors: AtomicU64,
}

impl NdjsonWriter {
    /// Wraps an arbitrary writer (file, `Vec<u8>` via `Cursor`, pipe ...).
    #[must_use]
    pub fn new(w: Box<dyn Write + Send>) -> Self {
        Self {
            out: Mutex::new(BufWriter::new(w)),
            lines: AtomicU64::new(0),
            errors: AtomicU64::new(0),
        }
    }

    /// Creates (truncating) `path` and writes events to it.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let f = std::fs::File::create(path)?;
        Ok(Self::new(Box::new(f)))
    }

    /// Lines successfully written so far.
    #[must_use]
    pub fn lines_written(&self) -> u64 {
        self.lines.load(Ordering::Relaxed)
    }

    /// Write errors swallowed so far (emit must not panic).
    #[must_use]
    pub fn write_errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }
}

impl EventSink for NdjsonWriter {
    fn emit(&self, event: &Event) {
        let mut line = String::with_capacity(96);
        event.write_ndjson(&mut line);
        line.push('\n');
        let mut out = lock(&self.out);
        if out.write_all(line.as_bytes()).is_ok() {
            self.lines.fetch_add(1, Ordering::Relaxed);
        } else {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn flush(&self) {
        if lock(&self.out).flush().is_err() {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl Drop for NdjsonWriter {
    fn drop(&mut self) {
        let _ = lock(&self.out).flush();
    }
}

/// Duplicates every event to two sinks (e.g. a ring for inspection plus an
/// NDJSON log for durability).
pub struct TeeSink<A: EventSink, B: EventSink> {
    a: A,
    b: B,
}

impl<A: EventSink, B: EventSink> TeeSink<A, B> {
    /// Tees events to `a` then `b`.
    #[must_use]
    pub fn new(a: A, b: B) -> Self {
        Self { a, b }
    }

    /// The first sink.
    pub fn first(&self) -> &A {
        &self.a
    }

    /// The second sink.
    pub fn second(&self) -> &B {
        &self.b
    }
}

impl<A: EventSink, B: EventSink> EventSink for TeeSink<A, B> {
    fn emit(&self, event: &Event) {
        self.a.emit(event);
        self.b.emit(event);
    }

    fn flush(&self) {
        self.a.flush();
        self.b.flush();
    }
}

// Arcs of sinks are sinks, so `Arc<RingRecorder>` can both be handed to a
// join (as `Arc<dyn EventSink>`) and kept for inspection afterwards.
impl<S: EventSink + ?Sized> EventSink for std::sync::Arc<S> {
    fn emit(&self, event: &Event) {
        (**self).emit(event);
    }

    fn flush(&self) {
        (**self).flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    fn reported(rank: u64) -> Event {
        Event::ResultReported {
            rank,
            dist: rank as f64,
        }
    }

    /// An in-memory `Write` target readable while a writer owns a clone.
    /// Its next `flush` panics once `panic_on_flush` is set.
    #[derive(Clone, Default)]
    struct Shared {
        bytes: Arc<Mutex<Vec<u8>>>,
        panic_on_flush: Arc<AtomicBool>,
    }

    impl Shared {
        fn text(&self) -> String {
            String::from_utf8(self.bytes.lock().unwrap().clone()).unwrap()
        }
    }

    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.bytes.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            if self.panic_on_flush.swap(false, Ordering::Relaxed) {
                panic!("writer failed");
            }
            Ok(())
        }
    }

    #[test]
    fn ring_keeps_tail_and_exact_counts() {
        let ring = RingRecorder::new(3);
        for i in 0..5 {
            ring.emit(&reported(i));
        }
        ring.emit(&Event::BufferEvict { writeback: true });
        let events = ring.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[2], Event::BufferEvict { writeback: true });
        let counts = ring.counts();
        assert_eq!(counts.result_reported, 5);
        assert_eq!(counts.buffer_evict, 1);
        assert_eq!(counts.writebacks, 1);
        assert_eq!(counts.total(), 6);
        assert_eq!(ring.dropped(), 3);
    }

    #[test]
    fn counts_track_tier_element_sums() {
        let ring = RingRecorder::new(8);
        ring.emit(&Event::TierMigration {
            from: Tier::List,
            to: Tier::Disk,
            n: 4,
        });
        ring.emit(&Event::TierMigration {
            from: Tier::Disk,
            to: Tier::List,
            n: 10,
        });
        ring.emit(&Event::TierMigration {
            from: Tier::List,
            to: Tier::Heap,
            n: 6,
        });
        let c = ring.counts();
        assert_eq!(c.tier_migration, 3);
        assert_eq!(c.elems_to_disk, 4);
        assert_eq!(c.elems_from_disk, 10);
        assert_eq!(c.elems_to_heap, 6);
    }

    #[test]
    fn ndjson_writer_emits_parseable_lines() {
        let shared = Shared::default();
        let w = NdjsonWriter::new(Box::new(shared.clone()));
        let sent = [reported(1), Event::BufferEvict { writeback: false }];
        for e in &sent {
            w.emit(e);
        }
        w.flush();
        assert_eq!(w.lines_written(), 2);
        assert_eq!(w.write_errors(), 0);

        let mut expected = String::new();
        for e in &sent {
            e.write_ndjson(&mut expected);
            expected.push('\n');
        }
        assert_eq!(shared.text(), expected);
    }

    #[test]
    fn a_panicking_writer_does_not_poison_later_emits() {
        let shared = Shared::default();
        let w = NdjsonWriter::new(Box::new(shared.clone()));
        w.emit(&reported(1));
        shared.panic_on_flush.store(true, Ordering::Relaxed);
        // The writer panics while the sink holds its lock, poisoning it.
        assert!(catch_unwind(AssertUnwindSafe(|| w.flush())).is_err());

        w.emit(&reported(2));
        w.flush();
        assert_eq!(w.lines_written(), 2);
        let mut expected = String::new();
        for rank in [1, 2] {
            reported(rank).write_ndjson(&mut expected);
            expected.push('\n');
        }
        assert_eq!(shared.text(), expected);
    }

    #[test]
    fn tee_duplicates_and_arc_is_a_sink() {
        let a = Arc::new(RingRecorder::new(4));
        let b = Arc::new(RingRecorder::new(4));
        let tee = TeeSink::new(Arc::clone(&a), Arc::clone(&b));
        let dynamic: Arc<dyn EventSink> = Arc::new(tee);
        dynamic.emit(&reported(3));
        assert_eq!(a.counts().result_reported, 1);
        assert_eq!(b.counts().result_reported, 1);
    }
}
