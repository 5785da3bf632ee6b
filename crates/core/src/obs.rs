//! Per-engine observability handle.
//!
//! A [`JoinObs`] is built once from an [`ObsContext`] and moved into a
//! [`DistanceJoin`](crate::DistanceJoin) via
//! [`with_obs`](crate::DistanceJoin::with_obs). It counts in plain fields
//! and adds the deltas to instruments it looked up once, at the pop-sampling
//! stride (the first pop, then every `pop_sample_every` pops), when the
//! stream ends and on drop. So the hot path writes no shared atomic, a
//! publish takes no registry lock, and a live registry lags by at most one
//! stride. The uninstrumented engine stores `None` and pays a single branch
//! per hook site.

use std::mem::take;
use std::sync::Arc;

use sdj_obs::{
    Counter, Event, EventSink, Gauge, Histogram, LocalHistogram, ObsContext, Phase, SpanTimer,
};

/// The registry instruments only [`JoinObs::publish`] touches.
struct Published {
    results: Arc<Counter>,
    expansions: Arc<Counter>,
    semi_bound_updates: Arc<Counter>,
    bound_tightenings: Arc<Counter>,
    discarded: Arc<Counter>,
    pop_distance: Arc<Histogram>,
    result_distance: Arc<Histogram>,
    queue_depth: Arc<Gauge>,
}

/// Instrumentation state carried by one join engine.
pub(crate) struct JoinObs {
    sink: Arc<dyn EventSink>,
    published: Published,
    pop_sample_every: u64,
    result_sample_every: u64,
    pops: u64,
    /// Last bound announced via `BoundTightened`; only strict improvements
    /// emit again.
    last_bound: f64,
    /// The engine's reported count at the last `on_result`, and at the last
    /// publish: `join.results` grows by their difference.
    rank: u64,
    published_rank: u64,
    /// Counts since the last publish.
    expansions: u64,
    semi_bound_updates: u64,
    bound_tightenings: u64,
    discarded: u64,
    pop_distance: LocalHistogram,
    result_distance: LocalHistogram,
    /// Post-pop queue length, and its peak over the run.
    queue_len: i64,
    queue_peak: i64,
    /// Phase-span timer ([`sdj_obs::span`]); `None` when the context has
    /// spans off.
    spans: Option<SpanTimer>,
}

impl JoinObs {
    pub(crate) fn new(ctx: &ObsContext) -> Self {
        let r = &ctx.registry;
        Self {
            sink: Arc::clone(&ctx.sink),
            published: Published {
                results: r.counter("join.results"),
                expansions: r.counter("join.expansions"),
                semi_bound_updates: r.counter("join.semi_bound_updates"),
                bound_tightenings: r.counter("join.bound_tightenings"),
                discarded: r.counter("join.discarded"),
                pop_distance: r.histogram("join.pop_distance"),
                result_distance: r.histogram("join.result_distance"),
                queue_depth: r.gauge("join.queue_depth"),
            },
            pop_sample_every: ctx.pop_sample_every,
            result_sample_every: ctx.result_sample_every,
            pops: 0,
            last_bound: f64::INFINITY,
            rank: 0,
            published_rank: 0,
            expansions: 0,
            semi_bound_updates: 0,
            bound_tightenings: 0,
            discarded: 0,
            pop_distance: LocalHistogram::default(),
            result_distance: LocalHistogram::default(),
            queue_len: 0,
            queue_peak: 0,
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

    /// Adds the counts gathered since the last publish to the registry.
    pub(crate) fn publish(&mut self) {
        let p = &self.published;
        p.results.add(self.rank - self.published_rank);
        self.published_rank = self.rank;
        p.expansions.add(take(&mut self.expansions));
        p.semi_bound_updates.add(take(&mut self.semi_bound_updates));
        p.bound_tightenings.add(take(&mut self.bound_tightenings));
        p.discarded.add(take(&mut self.discarded));
        p.pop_distance.absorb(&mut self.pop_distance);
        p.result_distance.absorb(&mut self.result_distance);
        p.queue_depth.publish(self.queue_len, self.queue_peak);
    }

    /// Records one pop. Returns whether it fell on the sampling stride, in
    /// which case the counts were published and the caller publishes its
    /// queue gauges too.
    pub(crate) fn on_pop(&mut self, dist: f64, queue_len: usize, results: u64) -> bool {
        self.pops += 1;
        self.pop_distance.record(dist);
        self.queue_len = queue_len as i64;
        self.queue_peak = self.queue_peak.max(self.queue_len);
        // The first pop is always sampled: a bounded run can reach its peak
        // queue size within one stride, and a series that starts there has
        // lost its growth phase.
        let sampled = self.pops == 1 || self.pops.is_multiple_of(self.pop_sample_every);
        if sampled {
            self.sink.emit(&Event::QueueSampled {
                pops: self.pops,
                len: queue_len as u64,
                results,
            });
            self.publish();
        }
        sampled
    }

    pub(crate) fn on_expand(&mut self) {
        self.expansions += 1;
    }

    /// Records the engine's `rank`-th result.
    pub(crate) fn on_result(&mut self, rank: u64, dist: f64) {
        self.rank = rank;
        self.result_distance.record(dist);
        if rank.is_multiple_of(self.result_sample_every) {
            self.sink.emit(&Event::ResultReported { rank, dist });
        }
    }

    /// Records `n` queued pairs dropped by a queue compaction.
    pub(crate) fn on_discard(&mut self, n: u64) {
        self.discarded += n;
    }

    pub(crate) fn on_semi_bound(&mut self) {
        self.semi_bound_updates += 1;
    }

    /// Notes the engine's current proven maximum distance; emits
    /// `BoundTightened` only on strict improvement.
    pub(crate) fn on_bound(&mut self, bound: f64) {
        if bound < self.last_bound {
            self.last_bound = bound;
            self.bound_tightenings += 1;
            // A join is one engine, which the event schema numbers 0.
            self.sink.emit(&Event::BoundTightened { worker: 0, bound });
        }
    }
}

impl Drop for JoinObs {
    fn drop(&mut self) {
        self.publish();
    }
}

impl std::fmt::Debug for JoinObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JoinObs")
            .field("pops", &self.pops)
            .finish_non_exhaustive()
    }
}
