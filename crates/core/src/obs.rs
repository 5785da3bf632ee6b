//! Per-engine observability handle.
//!
//! A [`JoinObs`] is built once from an [`ObsContext`] and moved into a
//! [`DistanceJoin`](crate::DistanceJoin) via
//! [`with_obs`](crate::DistanceJoin::with_obs). It owns clones of every
//! instrument the join touches (created up front, so the hot path never
//! locks the registry) plus the shared event sink and the sampling
//! cadences. The uninstrumented engine stores `None` and pays a single
//! branch per hook site.

use std::sync::Arc;

use sdj_obs::{
    Counter, Event, EventSink, Gauge, Histogram, ObsContext, PairKind, Phase, Side, SpanTimer,
};

/// Instrumentation state carried by one join engine (serial run, frontier
/// partitioner, or parallel worker).
pub struct JoinObs {
    sink: Arc<dyn EventSink>,
    pop_sample_every: u64,
    result_sample_every: u64,
    detail: bool,
    /// Emit `ResultReported` events (disabled for parallel workers, whose
    /// per-shard ranks would interleave; the executor emits them from the
    /// merged stream instead).
    emit_results: bool,
    worker: u32,
    pops: u64,
    /// Last bound announced via `BoundTightened`; only strict improvements
    /// emit again.
    last_bound: f64,
    queue_depth: Arc<Gauge>,
    pop_distance: Arc<Histogram>,
    result_distance: Arc<Histogram>,
    results: Arc<Counter>,
    expansions: Arc<Counter>,
    semi_bound_updates: Arc<Counter>,
    bound_tightenings: Arc<Counter>,
    /// Phase-span timer ([`sdj_obs::span`]); `None` when the context has
    /// spans off.
    spans: Option<SpanTimer>,
}

impl JoinObs {
    /// Handle for a serial engine (worker id 0).
    #[must_use]
    pub fn new(ctx: &ObsContext) -> Self {
        Self::for_worker(ctx, 0)
    }

    /// Handle for parallel worker `worker` (0 = the partitioner).
    #[must_use]
    pub fn for_worker(ctx: &ObsContext, worker: u32) -> Self {
        let r = &ctx.registry;
        Self {
            sink: Arc::clone(&ctx.sink),
            pop_sample_every: ctx.pop_sample_every,
            result_sample_every: ctx.result_sample_every,
            detail: ctx.detail,
            emit_results: true,
            worker,
            pops: 0,
            last_bound: f64::INFINITY,
            queue_depth: r.gauge("join.queue_depth"),
            pop_distance: r.histogram("join.pop_distance"),
            result_distance: r.histogram("join.result_distance"),
            results: r.counter("join.results"),
            expansions: r.counter("join.expansions"),
            semi_bound_updates: r.counter("join.semi_bound_updates"),
            bound_tightenings: r.counter("join.bound_tightenings"),
            spans: SpanTimer::from_context(ctx),
        }
    }

    /// Opens a phase span (no-op when spans are off). Must be matched by
    /// [`JoinObs::span_exit`] with the same phase.
    #[inline]
    pub(crate) fn span_enter(&mut self, phase: Phase) {
        if let Some(t) = &mut self.spans {
            t.enter(phase);
        }
    }

    /// Closes the innermost phase span (no-op when spans are off).
    #[inline]
    pub(crate) fn span_exit(&mut self, phase: Phase) {
        if let Some(t) = &mut self.spans {
            t.exit(phase);
        }
    }

    /// Suppresses per-engine `ResultReported` events (counters still
    /// accumulate). Used by the parallel executor, which reports ranks from
    /// the merged stream.
    #[must_use]
    pub fn suppress_result_events(mut self) -> Self {
        self.emit_results = false;
        self
    }

    /// The worker id this handle reports under.
    #[must_use]
    pub fn worker(&self) -> u32 {
        self.worker
    }

    /// Emits a `WorkerFinished` event; called by the executor when a
    /// worker's result stream ends.
    pub fn finish(&self, results: u64) {
        self.sink.emit(&Event::WorkerFinished {
            worker: self.worker,
            results,
        });
    }

    pub(crate) fn on_pop(&mut self, kind: PairKind, dist: f64, queue_len: usize, results: u64) {
        self.pops += 1;
        self.pop_distance.record(dist);
        self.queue_depth.set(queue_len as i64);
        if self.detail {
            self.sink.emit(&Event::PairPopped { kind, dist });
        }
        // The first pop is always sampled: a bounded run can reach its peak
        // queue size within one stride, and a series that starts there has
        // lost its growth phase.
        if self.pops == 1 || self.pops.is_multiple_of(self.pop_sample_every) {
            self.sink.emit(&Event::QueueSampled {
                pops: self.pops,
                len: queue_len as u64,
                results,
            });
        }
    }

    pub(crate) fn on_expand(&mut self, side: Side, children: u32) {
        self.expansions.inc();
        if self.detail {
            self.sink.emit(&Event::NodeExpanded { side, children });
        }
    }

    pub(crate) fn on_result(&mut self, rank: u64, dist: f64) {
        self.results.inc();
        self.result_distance.record(dist);
        if self.emit_results && rank.is_multiple_of(self.result_sample_every) {
            self.sink.emit(&Event::ResultReported { rank, dist });
        }
    }

    pub(crate) fn on_semi_bound(&mut self) {
        self.semi_bound_updates.inc();
    }

    /// Notes the engine's current proven maximum distance; emits
    /// `BoundTightened` only on strict improvement.
    pub(crate) fn on_bound(&mut self, bound: f64) {
        if bound < self.last_bound {
            self.last_bound = bound;
            self.bound_tightenings.inc();
            self.sink.emit(&Event::BoundTightened {
                worker: self.worker,
                bound,
            });
        }
    }
}

impl std::fmt::Debug for JoinObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JoinObs")
            .field("worker", &self.worker)
            .field("pops", &self.pops)
            .field("detail", &self.detail)
            .finish_non_exhaustive()
    }
}
