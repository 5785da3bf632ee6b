//! Live instrumentation for the incremental distance join.
//!
//! The paper's entire evaluation (Table 1, Figures 6–10) is built on
//! observing the join's *internal* behaviour — distance calculations, queue
//! size over time, node I/O — but an end-of-run counter struct cannot show
//! how those quantities evolve while a join streams results. This crate
//! provides the three layers that make a run observable as it happens:
//!
//! 1. **Events** ([`Event`], [`EventSink`]): typed, allocation-free event
//!    records emitted from the engine's hot paths. Sinks include a no-op
//!    default ([`NoopSink`]), a bounded in-memory ring ([`RingRecorder`]),
//!    an NDJSON writer ([`NdjsonWriter`]), and a tee ([`TeeSink`]).
//! 2. **Metrics** ([`Registry`]): lock-free named instruments — atomic
//!    [`Counter`]s, [`Gauge`]s and fixed-bucket log-scale [`Histogram`]s —
//!    sampled into point-in-time [`Snapshot`]s.
//! 3. **Reports** ([`RunReport`]): a schema-versioned, machine-readable JSON
//!    document describing one run (counters, queue-size and distance-vs-rank
//!    series, host info), written atomically and renderable as text
//!    sparklines that reproduce the *shape* of the paper's Figures 6–8.
//!
//! The crate writes and never reads: an NDJSON log or a report is output
//! for a person or an outside tool, and nothing here parses either back.
//! What a run's consumers need in process — the report series, per-variant
//! event counts — the [`RunRecorder`] and [`RingRecorder`] sinks collect
//! from the live stream.
//!
//! Like the `rand`/`proptest` shims, the crate is vendored in-tree and has
//! zero registry dependencies; everything is `std`. The design rule
//! throughout is that the *uninstrumented* hot path pays only an
//! `Option`-is-`None` branch: all instruments are created up front, all
//! event payloads are `Copy`, and nothing allocates unless a sink that
//! stores or writes is attached.

pub mod event;
pub mod metrics;
pub mod report;
pub mod sink;
pub mod span;

pub use event::{Event, PlanPath, Tier};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSummary, LocalHistogram, Registry, Snapshot,
};
pub use report::{
    sparkline, write_atomic, CalibrationSection, HostInfo, PhaseRow, ProfileSection, RunRecorder,
    RunReport, SessionSection,
};
pub use sink::{EventCounts, EventSink, NdjsonWriter, NoopSink, RingRecorder, TeeSink};
pub use span::{LeafSpan, Phase, PhaseSnapshot, SpanMode, SpanSet, SpanTimer, PHASE_COUNT};

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Everything an instrumented component needs, bundled for cheap cloning:
/// the event sink, the metrics registry, and the sampling cadences.
///
/// A `None`-shaped context does not exist on purpose — components store
/// `Option<ObsContext>` (or a handle derived from one) and the disabled
/// path is a single branch.
#[derive(Clone)]
pub struct ObsContext {
    /// Destination for typed events. Shared by every component of a run.
    pub sink: Arc<dyn EventSink>,
    /// Named-instrument registry shared by every component of a run.
    pub registry: Arc<Registry>,
    /// Emit a `QueueSampled` event every this many queue pops (and at the
    /// first pop, so the series starts where the run does).
    pub pop_sample_every: u64,
    /// Emit a `ResultReported` event every this many results (1 = all).
    pub result_sample_every: u64,
    /// Phase-span accounting mode (see [`span::SpanMode`]). Sampled by
    /// default — exact per-phase call counts, stride-sampled self-times.
    pub span_mode: SpanMode,
}

impl ObsContext {
    /// A context over the given sink with a fresh registry and default
    /// cadences (queue sampled every 128 pops, every result reported).
    #[must_use]
    pub fn new(sink: Arc<dyn EventSink>) -> Self {
        Self {
            sink,
            registry: Arc::new(Registry::new()),
            pop_sample_every: 128,
            result_sample_every: 1,
            span_mode: SpanMode::default(),
        }
    }

    /// A context whose sink discards everything — used to measure the
    /// instrumentation overhead itself.
    #[must_use]
    pub fn noop() -> Self {
        Self::new(Arc::new(NoopSink))
    }

    /// Sets the queue-sampling cadence (pops per `QueueSampled` event).
    #[must_use]
    pub fn with_pop_sample_every(mut self, every: u64) -> Self {
        self.pop_sample_every = every.max(1);
        self
    }

    /// Sets the result-sampling cadence (results per `ResultReported`).
    #[must_use]
    pub fn with_result_sample_every(mut self, every: u64) -> Self {
        self.result_sample_every = every.max(1);
        self
    }

    /// Sets the phase-span accounting mode.
    #[must_use]
    pub fn with_span_mode(mut self, mode: SpanMode) -> Self {
        self.span_mode = mode;
        self
    }
}

/// Takes `m`'s lock, recovering it if a panicking holder poisoned it. Each
/// lock in this crate guards a buffered writer, a ring, tallies or an
/// instrument list; a panic leaves none of them torn, so the data behind a
/// poisoned lock is still good to use.
pub(crate) fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl std::fmt::Debug for ObsContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsContext")
            .field("pop_sample_every", &self.pop_sample_every)
            .field("result_sample_every", &self.result_sample_every)
            .field("span_mode", &self.span_mode)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_builders_clamp_cadence() {
        let ctx = ObsContext::noop()
            .with_pop_sample_every(0)
            .with_result_sample_every(0);
        assert_eq!(ctx.pop_sample_every, 1);
        assert_eq!(ctx.result_sample_every, 1);
    }
}
