//! Phase-attributed profiling spans: sampled, low-overhead self-time
//! accounting for the join pipeline.
//!
//! The paper's counters say *how much* work a run did (distance calcs, node
//! I/O, queue size); this module says *where the time went*. Every hot
//! region of the pipeline is labelled with a [`Phase`] and reports into a
//! [`SpanSet`] of lock-free per-phase accumulators (exact call count,
//! sampled self-time, max single-span self-time). Three cost tiers keep the
//! instrumented hot path near the "`Option`-is-`None` branch" design rule
//! of the crate:
//!
//! 1. **Unsampled span** (the common case): two array increments and a
//!    depth update — no clock read, no atomics (call counts are batched
//!    locally and flushed every [`CALL_FLUSH_EVERY`] spans and on drop).
//! 2. **Sampled span**: a top-level span is timed every `stride` calls of
//!    its phase; the stride starts at 1 and doubles every
//!    [`SAMPLES_PER_STRIDE`] samples up to [`STRIDE_MAX`], so short runs
//!    are measured exactly while long runs converge to a few clock reads
//!    per thousand spans. When a top-level span is sampled its whole
//!    subtree is timed, so nested phases stay attributable.
//! 3. **Leaf span** ([`LeafSpan`]): rare, expensive cross-component work
//!    (hybrid-queue spill/reload, buffer-pool fault I/O) is timed on every
//!    occurrence. Timed enclosing spans subtract the leaf time that
//!    accrued while they were open, so a sampled `QueuePush` does not
//!    double-bill a spill that happened inside it.
//!
//! **Self-time discipline**: a timed span records its *self* time — wall
//! time minus enclosed child spans (same [`SpanTimer`]) minus leaf-span
//! time that accrued while it was open. Summing per-phase self-times
//! therefore estimates total attributed time without double counting.
//!
//! **Estimator**: each sampled span is weighted by the stride that
//! selected it (a span sampled at stride `s` stands in for the `s` calls
//! since the previous sample), so `est_total_ns = Σ self_ns × stride` — a
//! Horvitz–Thompson estimate. This matters because span costs are not
//! i.i.d.: early calls (always sampled at stride 1, e.g. cold caches, a
//! stream's first blocking merge) are systematically costlier, and a
//! naive `sampled_ns × calls / sampled_calls` scale-up lets one such
//! outlier be multiplied by the sampling ratio. With per-sample weights
//! an outlier sampled at stride 1 contributes exactly once. Calls after
//! the last taken sample are not represented, so the estimate slightly
//! undercounts (bounded by `stride × per-call cost`).
//!
//! The subtraction of leaf time reads the shared accumulators, so in
//! multi-worker runs a concurrent worker's leaf span can be subtracted
//! from another worker's open span; self-times are clamped at ≥ 1 ns and
//! the error is bounded by total leaf time. Serial runs are exact.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::metrics::{Histogram, Registry};
use crate::ObsContext;

/// Pipeline phases a span can be attributed to.
///
/// Incremental engine: `QueuePop`, `QueuePush`, `Expand`, `Kernel`,
/// `Sweep`, `Emit`. Hybrid queue: `Spill`, `Reload`. Buffer pool: `Io`.
/// Bulk path: `Partition`, `Replicate`, `Sweep`, `Merge`, `Emit` (`Kernel`
/// nests inside `Sweep`). Semi-join pop filters: `Dedup`. Parallel
/// executor: `Merge`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Phase {
    /// Priority-queue pop (incremental engine dequeue).
    QueuePop = 0,
    /// Priority-queue push (staged-batch flush).
    QueuePush = 1,
    /// Hybrid queue migrating list-tier pairs to spill pages.
    Spill = 2,
    /// Hybrid queue reloading a spilled bucket.
    Reload = 3,
    /// Node-pair expansion (child MBR decode + enqueue staging).
    Expand = 4,
    /// Batched distance kernel (`mindist`/`maxdist` over an SoA block).
    Kernel = 5,
    /// Plane-sweep window scan (both-nodes expansion; bulk cell sweep).
    Sweep = 6,
    /// Ordered merge of the bulk sweep workers' runs.
    Merge = 7,
    /// Buffer-pool page I/O (demand fault, retry loop, prefetch read).
    Io = 8,
    /// Result emission (distance sqrt, dedup bookkeeping, delivery).
    Emit = 9,
    /// Bulk path: leaf harvest and grid partitioning.
    Partition = 10,
    /// Bulk path: entry assignment and replication into grid cells.
    Replicate = 11,
    /// Duplicate filtering (semi-join seen-set and pop filters).
    Dedup = 12,
}

/// Number of phases (length of [`Phase::ALL`]).
pub const PHASE_COUNT: usize = 13;

impl Phase {
    /// Every phase, in accumulator order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::QueuePop,
        Phase::QueuePush,
        Phase::Spill,
        Phase::Reload,
        Phase::Expand,
        Phase::Kernel,
        Phase::Sweep,
        Phase::Merge,
        Phase::Io,
        Phase::Emit,
        Phase::Partition,
        Phase::Replicate,
        Phase::Dedup,
    ];

    /// Stable snake_case name (used in reports and instrument names).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::QueuePop => "queue_pop",
            Phase::QueuePush => "queue_push",
            Phase::Spill => "spill",
            Phase::Reload => "reload",
            Phase::Expand => "expand",
            Phase::Kernel => "kernel",
            Phase::Sweep => "sweep",
            Phase::Merge => "merge",
            Phase::Io => "io",
            Phase::Emit => "emit",
            Phase::Partition => "partition",
            Phase::Replicate => "replicate",
            Phase::Dedup => "dedup",
        }
    }

    /// Inverse of [`Phase::name`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.name() == name)
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Lock-free accumulator for one phase.
#[derive(Debug, Default)]
struct PhaseAcc {
    /// Exact number of spans entered (flushed in batches by timers).
    calls: AtomicU64,
    /// Number of spans whose self-time was measured.
    sampled_calls: AtomicU64,
    /// Sum of measured self-times, ns.
    sampled_ns: AtomicU64,
    /// Sum of `self_ns × stride` over samples (Horvitz–Thompson totals).
    weighted_ns: AtomicU64,
    /// Largest single measured self-time, ns.
    max_ns: AtomicU64,
}

/// Frozen per-phase accumulator state (see [`SpanSet::snapshot`]).
#[derive(Clone, Copy, Debug)]
pub struct PhaseSnapshot {
    /// Which phase.
    pub phase: Phase,
    /// Exact spans entered.
    pub calls: u64,
    /// Spans with a measured self-time.
    pub sampled_calls: u64,
    /// Sum of measured self-times, ns.
    pub sampled_ns: u64,
    /// Sum of `self_ns × stride` over samples (the estimated total).
    pub weighted_ns: u64,
    /// Largest single measured self-time, ns.
    pub max_ns: u64,
}

impl PhaseSnapshot {
    /// Estimated total self-time: each sample weighted by the stride that
    /// selected it (never less than the time actually measured). See the
    /// module docs for why this beats a uniform scale-up.
    #[must_use]
    pub fn est_total_ns(&self) -> f64 {
        self.weighted_ns.max(self.sampled_ns) as f64
    }
}

/// The shared per-phase accumulators of one run (held by the
/// [`Registry`]). All updates are relaxed atomics; multiple timers and
/// leaf spans on multiple threads feed one set.
#[derive(Debug, Default)]
pub struct SpanSet {
    phases: [PhaseAcc; PHASE_COUNT],
}

impl SpanSet {
    /// A fresh, empty set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn add_calls(&self, phase: usize, n: u64) {
        self.phases[phase].calls.fetch_add(n, Ordering::Relaxed);
    }

    fn record_sample(&self, phase: Phase, self_ns: u64, weight: u64) {
        let acc = &self.phases[phase as usize];
        acc.sampled_calls.fetch_add(1, Ordering::Relaxed);
        acc.sampled_ns.fetch_add(self_ns, Ordering::Relaxed);
        acc.weighted_ns
            .fetch_add(self_ns.saturating_mul(weight), Ordering::Relaxed);
        acc.max_ns.fetch_max(self_ns, Ordering::Relaxed);
    }

    /// Sum of always-timed leaf phases (`Spill` + `Reload` + `Io`), read
    /// by timed spans to subtract enclosed cross-component work.
    fn leaf_ns(&self) -> u64 {
        self.phases[Phase::Spill as usize]
            .sampled_ns
            .load(Ordering::Relaxed)
            + self.phases[Phase::Reload as usize]
                .sampled_ns
                .load(Ordering::Relaxed)
            + self.phases[Phase::Io as usize]
                .sampled_ns
                .load(Ordering::Relaxed)
    }

    /// True when no span of any phase has been entered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.phases
            .iter()
            .all(|p| p.calls.load(Ordering::Relaxed) == 0)
    }

    /// Frozen state of every phase that was entered at least once, in
    /// [`Phase::ALL`] order.
    #[must_use]
    pub fn snapshot(&self) -> Vec<PhaseSnapshot> {
        Phase::ALL
            .into_iter()
            .filter_map(|phase| {
                let acc = &self.phases[phase as usize];
                let calls = acc.calls.load(Ordering::Relaxed);
                if calls == 0 {
                    return None;
                }
                Some(PhaseSnapshot {
                    phase,
                    calls,
                    sampled_calls: acc.sampled_calls.load(Ordering::Relaxed),
                    sampled_ns: acc.sampled_ns.load(Ordering::Relaxed),
                    weighted_ns: acc.weighted_ns.load(Ordering::Relaxed),
                    max_ns: acc.max_ns.load(Ordering::Relaxed),
                })
            })
            .collect()
    }
}

/// Whether and how spans are measured (see [`ObsContext::span_mode`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SpanMode {
    /// No span accounting at all: timers and leaf spans are not created.
    Off,
    /// Exact call counts; self-times sampled with a doubling stride.
    #[default]
    Sampled,
    /// Every span timed (stride pinned at 1). For tests and short runs —
    /// the per-span clock reads are too expensive for hot workloads.
    Always,
}

/// Spans flushed between batched call-count flushes.
const CALL_FLUSH_EVERY: u32 = 1024;
/// Samples taken at each stride before it doubles.
const SAMPLES_PER_STRIDE: u32 = 8;
/// Largest sampling stride.
const STRIDE_MAX: u32 = 4096;

/// One open, timed span.
#[derive(Debug)]
struct Frame {
    phase: Phase,
    start: Instant,
    /// Inclusive ns of already-closed direct children.
    child_ns: u64,
    /// Shared leaf-phase ns at frame open.
    leaf_base: u64,
    /// Leaf-phase ns already accounted inside closed children.
    child_leaf_ns: u64,
    /// Calls this sample stands in for (the stride that selected the
    /// top-level frame; descendants inherit it).
    weight: u64,
}

/// A per-component (per-worker) span timer: cheap unsampled counting, a
/// small stack of timed frames when a top-level span is sampled.
///
/// Not `Sync` by design — each instrumented component owns one and calls
/// [`SpanTimer::enter`] / [`SpanTimer::exit`] in matched pairs. All timers
/// of a run feed the registry's shared [`SpanSet`].
#[derive(Debug)]
pub struct SpanTimer {
    set: Arc<SpanSet>,
    registry: Arc<Registry>,
    always: bool,
    /// Spans until the next sample, per phase (top-level only).
    countdown: [u32; PHASE_COUNT],
    /// Current sampling stride, per phase.
    stride: [u32; PHASE_COUNT],
    /// Samples taken at the current stride, per phase.
    at_stride: [u32; PHASE_COUNT],
    /// Locally batched call counts (flushed to the set periodically).
    pending_calls: [u32; PHASE_COUNT],
    pending_total: u32,
    /// Open-span depth, timed or not.
    depth: u32,
    /// Timed frames only; empty while inside an unsampled subtree.
    frames: Vec<Frame>,
    /// Lazily created `span.<phase>.ns` histograms (sampled self-times).
    hists: [Option<Arc<Histogram>>; PHASE_COUNT],
}

impl SpanTimer {
    /// A timer over an explicit set/registry pair.
    #[must_use]
    pub fn new(set: Arc<SpanSet>, registry: Arc<Registry>, mode: SpanMode) -> Self {
        Self {
            set,
            registry,
            always: mode == SpanMode::Always,
            countdown: [1; PHASE_COUNT],
            stride: [1; PHASE_COUNT],
            at_stride: [0; PHASE_COUNT],
            pending_calls: [0; PHASE_COUNT],
            pending_total: 0,
            depth: 0,
            frames: Vec::with_capacity(8),
            hists: std::array::from_fn(|_| None),
        }
    }

    /// A timer wired to a context's registry, `None` when the context has
    /// spans off.
    #[must_use]
    pub fn from_context(ctx: &ObsContext) -> Option<Self> {
        if ctx.span_mode == SpanMode::Off {
            return None;
        }
        Some(Self::new(
            Arc::clone(ctx.registry.spans()),
            Arc::clone(&ctx.registry),
            ctx.span_mode,
        ))
    }

    /// Opens a span. Every call must be matched by an [`SpanTimer::exit`]
    /// with the same phase before the enclosing span (if any) exits.
    #[inline]
    pub fn enter(&mut self, phase: Phase) {
        let p = phase as usize;
        self.pending_calls[p] += 1;
        self.pending_total += 1;
        if self.pending_total >= CALL_FLUSH_EVERY {
            self.flush_calls();
        }
        if self.depth > 0 && self.frames.is_empty() {
            // Inside an unsampled top-level span: count only.
            self.depth += 1;
            return;
        }
        let weight = if let Some(top) = self.frames.first() {
            // Descendant of a sampled top-level span: always timed, and it
            // stands in for the same share of calls as its ancestor.
            top.weight
        } else {
            let w = self.decide_sample(p);
            if w == 0 {
                self.depth += 1;
                return;
            }
            w
        };
        self.depth += 1;
        let leaf_base = self.set.leaf_ns();
        self.frames.push(Frame {
            phase,
            start: Instant::now(),
            child_ns: 0,
            leaf_base,
            child_leaf_ns: 0,
            weight,
        });
    }

    /// Closes the innermost span (which must be of `phase`).
    #[inline]
    pub fn exit(&mut self, phase: Phase) {
        debug_assert!(self.depth > 0, "span exit({phase}) with no open span");
        self.depth = self.depth.saturating_sub(1);
        if self.frames.is_empty() {
            return; // unsampled span: nothing to time
        }
        let Some(frame) = self.frames.pop() else {
            return;
        };
        debug_assert_eq!(
            frame.phase, phase,
            "span exit order mismatch: open {}, exiting {}",
            frame.phase, phase
        );
        let inclusive = u64::try_from(frame.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let leaf_total = self.set.leaf_ns().saturating_sub(frame.leaf_base);
        let own_leaf = leaf_total.saturating_sub(frame.child_leaf_ns);
        // Clamp at 1 ns: the clock can quantize a short span to zero, and
        // the conservation tests treat "called but zero time" as a bug.
        let self_ns = inclusive
            .saturating_sub(frame.child_ns)
            .saturating_sub(own_leaf)
            .max(1);
        self.set.record_sample(frame.phase, self_ns, frame.weight);
        self.hist(frame.phase as usize).record(self_ns as f64);
        if let Some(parent) = self.frames.last_mut() {
            parent.child_ns += inclusive;
            parent.child_leaf_ns += leaf_total;
        }
    }

    /// Runs `f` inside a span of `phase`.
    #[inline]
    pub fn scope<R>(&mut self, phase: Phase, f: impl FnOnce() -> R) -> R {
        self.enter(phase);
        let r = f();
        self.exit(phase);
        r
    }

    /// Whether a top-level span of phase index `p` should be timed,
    /// advancing the stride schedule. Returns the sample's weight — the
    /// number of calls it stands in for (the stride that selected it) —
    /// or 0 when the span is not sampled.
    fn decide_sample(&mut self, p: usize) -> u64 {
        if self.always {
            return 1;
        }
        self.countdown[p] -= 1;
        if self.countdown[p] > 0 {
            return 0;
        }
        // The countdown was armed with the stride current at the previous
        // sample, so that stride is the window this sample represents.
        let weight = u64::from(self.stride[p]);
        self.at_stride[p] += 1;
        if self.at_stride[p] >= SAMPLES_PER_STRIDE {
            self.at_stride[p] = 0;
            self.stride[p] = (self.stride[p] * 2).min(STRIDE_MAX);
        }
        self.countdown[p] = self.stride[p];
        weight
    }

    fn hist(&mut self, p: usize) -> &Arc<Histogram> {
        let registry = &self.registry;
        self.hists[p]
            .get_or_insert_with(|| registry.histogram(&format!("span.{}.ns", Phase::ALL[p].name())))
    }

    /// Flushes locally batched call counts into the shared set. Called
    /// automatically every [`CALL_FLUSH_EVERY`] spans and on drop.
    pub fn flush_calls(&mut self) {
        for (p, pending) in self.pending_calls.iter_mut().enumerate() {
            if *pending > 0 {
                self.set.add_calls(p, u64::from(*pending));
                *pending = 0;
            }
        }
        self.pending_total = 0;
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        self.flush_calls();
    }
}

/// An always-timed recorder for one rare, expensive phase (spill, reload,
/// pool fault I/O). Unlike [`SpanTimer`] spans, leaf spans are measured on
/// every occurrence and may be recorded from any thread; timed spans that
/// are open while a leaf records subtract its time (see module docs).
#[derive(Clone, Debug)]
pub struct LeafSpan {
    set: Arc<SpanSet>,
    phase: Phase,
    hist: Arc<Histogram>,
}

impl LeafSpan {
    /// A leaf recorder for `phase` on a context's registry, `None` when
    /// the context has spans off.
    #[must_use]
    pub fn from_context(ctx: &ObsContext, phase: Phase) -> Option<Self> {
        if ctx.span_mode == SpanMode::Off {
            return None;
        }
        Some(Self {
            set: Arc::clone(ctx.registry.spans()),
            hist: ctx.registry.histogram(&format!("span.{}.ns", phase.name())),
            phase,
        })
    }

    /// Records one occurrence of `ns` nanoseconds (clamped to ≥ 1).
    pub fn record_ns(&self, ns: u64) {
        let ns = ns.max(1);
        self.set.add_calls(self.phase as usize, 1);
        self.set.record_sample(self.phase, ns, 1);
        self.hist.record(ns as f64);
    }

    /// Times `f` and records its duration.
    #[inline]
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.record_ns(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer(mode: SpanMode) -> (SpanTimer, Arc<SpanSet>, Arc<Registry>) {
        let registry = Arc::new(Registry::new());
        let set = Arc::clone(registry.spans());
        (
            SpanTimer::new(Arc::clone(&set), Arc::clone(&registry), mode),
            set,
            registry,
        )
    }

    fn snap(set: &SpanSet, phase: Phase) -> PhaseSnapshot {
        set.snapshot()
            .into_iter()
            .find(|s| s.phase == phase)
            .unwrap_or_else(|| panic!("phase {phase} not in snapshot"))
    }

    #[test]
    fn phase_names_round_trip() {
        for p in Phase::ALL {
            assert_eq!(Phase::from_name(p.name()), Some(p));
        }
        assert_eq!(Phase::from_name("nope"), None);
    }

    #[test]
    fn exact_calls_and_positive_time_in_always_mode() {
        let (mut t, set, _r) = timer(SpanMode::Always);
        for _ in 0..10 {
            t.scope(Phase::QueuePop, || std::hint::black_box(1 + 1));
        }
        t.flush_calls();
        let s = snap(&set, Phase::QueuePop);
        assert_eq!(s.calls, 10);
        assert_eq!(s.sampled_calls, 10);
        assert!(s.sampled_ns > 0, "always-mode spans must measure > 0 ns");
        assert!(s.max_ns > 0);
    }

    #[test]
    fn sampled_mode_counts_all_but_times_few() {
        let (mut t, set, _r) = timer(SpanMode::Sampled);
        let n = 100_000u64;
        for _ in 0..n {
            t.enter(Phase::Kernel);
            t.exit(Phase::Kernel);
        }
        t.flush_calls();
        let s = snap(&set, Phase::Kernel);
        assert_eq!(s.calls, n);
        assert!(s.sampled_calls >= 1);
        // 32 samples per stride, strides 1,2,4,...,4096: far fewer than n.
        assert!(
            s.sampled_calls < n / 10,
            "stride doubling should sample sparsely, got {} of {}",
            s.sampled_calls,
            n
        );
        assert!(s.est_total_ns() >= s.sampled_ns as f64);
    }

    #[test]
    fn outlier_first_call_is_not_extrapolated() {
        // The first call of a phase is always sampled (stride 1). If it is
        // a one-off outlier (cold cache, blocking first merge), a uniform
        // calls/sampled_calls scale-up would multiply it by the sampling
        // ratio; the stride-weighted estimator charges it exactly once.
        let (mut t, set, _r) = timer(SpanMode::Sampled);
        t.scope(Phase::Merge, || {
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        for _ in 0..10_000 {
            t.enter(Phase::Merge);
            t.exit(Phase::Merge);
        }
        t.flush_calls();
        let s = snap(&set, Phase::Merge);
        assert_eq!(s.calls, 10_001);
        let est = s.est_total_ns();
        let naive = s.sampled_ns as f64 * (s.calls as f64 / s.sampled_calls as f64);
        assert!(
            est < naive / 2.0,
            "weighted estimate ({est:.0} ns) should be far below the naive \
             scale-up ({naive:.0} ns) when the outlier sat at stride 1"
        );
        // The outlier itself is still fully charged.
        assert!(
            est >= 5_000_000.0,
            "est {est:.0} ns must include the 5 ms outlier"
        );
    }

    #[test]
    fn nested_spans_charge_self_time() {
        let (mut t, set, _r) = timer(SpanMode::Always);
        let start = Instant::now();
        t.enter(Phase::Expand);
        t.scope(Phase::Kernel, || {
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        t.exit(Phase::Expand);
        let wall = start.elapsed().as_nanos() as u64;
        t.flush_calls();
        let expand = snap(&set, Phase::Expand);
        let kernel = snap(&set, Phase::Kernel);
        assert!(
            kernel.sampled_ns >= 4_000_000,
            "sleep goes to the kernel span"
        );
        assert!(
            expand.sampled_ns < kernel.sampled_ns,
            "parent self-time excludes the child ({} vs {})",
            expand.sampled_ns,
            kernel.sampled_ns
        );
        assert!(expand.sampled_ns + kernel.sampled_ns <= wall + 1_000);
    }

    #[test]
    fn timed_spans_subtract_enclosed_leaf_time() {
        let registry = Arc::new(Registry::new());
        let set = Arc::clone(registry.spans());
        let mut t = SpanTimer::new(Arc::clone(&set), Arc::clone(&registry), SpanMode::Always);
        let leaf = LeafSpan {
            set: Arc::clone(&set),
            phase: Phase::Spill,
            hist: registry.histogram("span.spill.ns"),
        };
        t.enter(Phase::QueuePush);
        leaf.time(|| std::thread::sleep(std::time::Duration::from_millis(5)));
        t.exit(Phase::QueuePush);
        t.flush_calls();
        let push = snap(&set, Phase::QueuePush);
        let spill = snap(&set, Phase::Spill);
        assert!(spill.sampled_ns >= 4_000_000);
        assert!(
            push.sampled_ns < spill.sampled_ns / 2,
            "push self-time must exclude the spill ({} vs {})",
            push.sampled_ns,
            spill.sampled_ns
        );
    }

    #[test]
    fn unsampled_subtree_still_counts_children() {
        let (mut t, set, _r) = timer(SpanMode::Sampled);
        // First span of a phase is always sampled; drain the sampled one,
        // then run an unsampled tree and check counts still accrue.
        for _ in 0..2 {
            t.enter(Phase::Expand);
            t.enter(Phase::Kernel);
            t.exit(Phase::Kernel);
            t.exit(Phase::Expand);
        }
        t.flush_calls();
        assert_eq!(snap(&set, Phase::Expand).calls, 2);
        assert_eq!(snap(&set, Phase::Kernel).calls, 2);
    }

    #[test]
    fn call_counts_flush_on_drop() {
        let registry = Arc::new(Registry::new());
        let set = Arc::clone(registry.spans());
        {
            let mut t = SpanTimer::new(Arc::clone(&set), Arc::clone(&registry), SpanMode::Sampled);
            t.enter(Phase::Merge);
            t.exit(Phase::Merge);
        }
        assert_eq!(snap(&set, Phase::Merge).calls, 1);
    }

    #[test]
    fn leaf_span_records_every_call() {
        let registry = Arc::new(Registry::new());
        let set = Arc::clone(registry.spans());
        let leaf = LeafSpan {
            set: Arc::clone(&set),
            phase: Phase::Io,
            hist: registry.histogram("span.io.ns"),
        };
        for _ in 0..5 {
            leaf.record_ns(100);
        }
        let s = snap(&set, Phase::Io);
        assert_eq!(s.calls, 5);
        assert_eq!(s.sampled_calls, 5);
        assert_eq!(s.sampled_ns, 500);
        assert_eq!(s.max_ns, 100);
        assert_eq!(registry.histogram("span.io.ns").count(), 5);
    }

    #[test]
    fn snapshot_skips_untouched_phases() {
        let (mut t, set, _r) = timer(SpanMode::Always);
        t.scope(Phase::Emit, || {});
        t.flush_calls();
        let snaps = set.snapshot();
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].phase, Phase::Emit);
        assert!(!set.is_empty());
    }
}
