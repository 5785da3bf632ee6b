//! Lock-free named instruments: counters, gauges, and fixed-bucket
//! log-scale histograms, collected in a [`Registry`] and sampled into
//! point-in-time [`Snapshot`]s.
//!
//! Instruments are `Arc`-shared atomics. Components look them up (or
//! create them) once, outside the hot path, then update them with plain
//! atomic ops — the registry's internal lock is touched only at
//! registration and snapshot time, never per update. A hot loop that owns
//! its counts keeps them in plain fields (a [`LocalHistogram`] for
//! distributions) and publishes the deltas every so often instead.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::lock;
use crate::span::{PhaseSnapshot, SpanSet};

/// Monotone atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Signed instantaneous value (queue depth, tier occupancy ...) that also
/// tracks its high-water mark.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
    max: AtomicI64,
}

impl Gauge {
    /// A gauge at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the value, updating the high-water mark.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Sets the value and raises the high-water mark to `peak`: how a
    /// component that tracks its own peak between publishes reports both.
    pub fn publish(&self, value: i64, peak: i64) {
        self.value.store(value, Ordering::Relaxed);
        self.max.fetch_max(peak.max(value), Ordering::Relaxed);
    }

    /// Adjusts the value by `delta`, updating the high-water mark.
    pub fn add(&self, delta: i64) {
        let now = self.value.fetch_add(delta, Ordering::Relaxed) + delta;
        self.max.fetch_max(now, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Highest value ever set (0 if never positive).
    #[must_use]
    pub fn max(&self) -> i64 {
        self.max.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets. Bucket `i` covers binary orders of
/// magnitude: values are bucketed by floor(log2(v)) clamped into range, so
/// the whole f64 range fits 64 buckets with no per-record branching loops.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Exponent bias: bucket 32 holds values in `[1, 2)`. Buckets below hold
/// fractions down to `2^-32`; everything smaller (and zero) lands in
/// bucket 0, everything `>= 2^31` in bucket 63.
const BUCKET_BIAS: i32 = 32;

/// Lock-free log-scale histogram over non-negative `f64` samples.
///
/// Each bucket is an atomic count; the sum is kept as f64 bits updated via
/// CAS. Negative and NaN samples are counted separately as invalid rather
/// than silently dropped.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_bits: AtomicU64,
    invalid: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            invalid: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index for a sample: its binary exponent, biased and clamped.
    #[must_use]
    pub fn bucket_of(v: f64) -> usize {
        if v <= 0.0 || !v.is_finite() {
            // Zero and subnormal-ish go low; +inf clamps high below via
            // the exponent extraction only for finite values, so handle
            // inf explicitly.
            if v.is_infinite() && v > 0.0 {
                return HISTOGRAM_BUCKETS - 1;
            }
            return 0;
        }
        // IEEE-754 exponent field: bits 52..63 (biased by 1023).
        let exp = ((v.to_bits() >> 52) & 0x7ff) as i32 - 1023;
        (exp + BUCKET_BIAS).clamp(0, HISTOGRAM_BUCKETS as i32 - 1) as usize
    }

    /// Inclusive-exclusive value range `[lo, hi)` covered by bucket `i`.
    #[must_use]
    pub fn bucket_bounds(i: usize) -> (f64, f64) {
        let lo = if i == 0 {
            0.0
        } else {
            2f64.powi(i as i32 - BUCKET_BIAS)
        };
        let hi = if i >= HISTOGRAM_BUCKETS - 1 {
            f64::INFINITY
        } else {
            2f64.powi(i as i32 + 1 - BUCKET_BIAS)
        };
        (lo, hi)
    }

    /// Records one sample. Negative or NaN samples count as invalid.
    pub fn record(&self, v: f64) {
        if v.is_nan() || v < 0.0 {
            self.invalid.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.add_sum(v);
    }

    /// Adds a [`LocalHistogram`]'s samples and empties it: one atomic
    /// update per touched bucket, however many samples it holds.
    pub fn absorb(&self, local: &mut LocalHistogram) {
        for (bucket, &n) in self.buckets.iter().zip(&local.buckets) {
            if n > 0 {
                bucket.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(local.count, Ordering::Relaxed);
        self.invalid.fetch_add(local.invalid, Ordering::Relaxed);
        self.add_sum(local.sum);
        *local = LocalHistogram::default();
    }

    /// CAS-adds into the f64 sum: one CAS per call, so hot loops record
    /// into a [`LocalHistogram`] and publish it rather than call this per
    /// sample.
    fn add_sum(&self, v: f64) {
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Total valid samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of valid samples.
    #[must_use]
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Rejected (negative / NaN) samples.
    #[must_use]
    pub fn invalid(&self) -> u64 {
        self.invalid.load(Ordering::Relaxed)
    }

    /// Point-in-time summary (count, sum, mean, bucket-resolution
    /// quantiles).
    #[must_use]
    pub fn summary(&self) -> HistogramSummary {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (slot, b) in buckets.iter_mut().zip(self.buckets.iter()) {
            *slot = b.load(Ordering::Relaxed);
        }
        let count: u64 = buckets.iter().sum();
        HistogramSummary {
            count,
            sum: self.sum(),
            invalid: self.invalid(),
            buckets,
        }
    }
}

/// A single-owner [`Histogram`] in plain fields, with the same buckets:
/// recording is a few non-atomic adds. Its owner publishes the accumulated
/// samples with [`Histogram::absorb`].
#[derive(Clone, Debug)]
pub struct LocalHistogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: f64,
    invalid: u64,
}

impl Default for LocalHistogram {
    fn default() -> Self {
        Self {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0.0,
            invalid: 0,
        }
    }
}

impl LocalHistogram {
    /// Records one sample. Negative or NaN samples count as invalid.
    pub fn record(&mut self, v: f64) {
        if v.is_nan() || v < 0.0 {
            self.invalid += 1;
            return;
        }
        self.buckets[Histogram::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
    }
}

/// A frozen copy of a histogram's state.
#[derive(Clone, Debug)]
pub struct HistogramSummary {
    /// Valid samples recorded.
    pub count: u64,
    /// Sum of valid samples.
    pub sum: f64,
    /// Rejected samples.
    pub invalid: u64,
    /// Per-bucket counts (see [`Histogram::bucket_bounds`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl HistogramSummary {
    /// Mean of valid samples (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Quantile estimate at bucket resolution: the upper bound of the
    /// bucket containing the `q`-th sample (q in `[0, 1]`). Within a
    /// bucket the true value may be up to 2× lower.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                let (lo, hi) = Histogram::bucket_bounds(i);
                return if hi.is_finite() { hi } else { lo };
            }
        }
        let (lo, _) = Histogram::bucket_bounds(HISTOGRAM_BUCKETS - 1);
        lo
    }

    /// Median estimate (see [`HistogramSummary::quantile`]).
    #[must_use]
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    #[must_use]
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    #[must_use]
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: Vec<(String, Arc<Counter>)>,
    gauges: Vec<(String, Arc<Gauge>)>,
    histograms: Vec<(String, Arc<Histogram>)>,
}

/// A named-instrument registry. Look-up-or-create is locked; the returned
/// `Arc`s are then updated lock-free. Also owns the run's shared
/// [`SpanSet`] of per-phase profiling accumulators.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
    spans: Arc<SpanSet>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The run's shared per-phase span accumulators.
    #[must_use]
    pub fn spans(&self) -> &Arc<SpanSet> {
        &self.spans
    }

    /// The counter named `name`, created on first use.
    #[must_use]
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = lock(&self.inner);
        if let Some((_, c)) = inner.counters.iter().find(|(n, _)| n == name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::new());
        inner.counters.push((name.to_string(), Arc::clone(&c)));
        c
    }

    /// The gauge named `name`, created on first use.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = lock(&self.inner);
        if let Some((_, g)) = inner.gauges.iter().find(|(n, _)| n == name) {
            return Arc::clone(g);
        }
        let g = Arc::new(Gauge::new());
        inner.gauges.push((name.to_string(), Arc::clone(&g)));
        g
    }

    /// The histogram named `name`, created on first use.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut inner = lock(&self.inner);
        if let Some((_, h)) = inner.histograms.iter().find(|(n, _)| n == name) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::new());
        inner.histograms.push((name.to_string(), Arc::clone(&h)));
        h
    }

    /// Freezes every instrument into a [`Snapshot`], names sorted.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let inner = lock(&self.inner);
        let mut counters: Vec<(String, u64)> = inner
            .counters
            .iter()
            .map(|(n, c)| (n.clone(), c.get()))
            .collect();
        let mut gauges: Vec<(String, i64, i64)> = inner
            .gauges
            .iter()
            .map(|(n, g)| (n.clone(), g.get(), g.max()))
            .collect();
        let mut histograms: Vec<(String, HistogramSummary)> = inner
            .histograms
            .iter()
            .map(|(n, h)| (n.clone(), h.summary()))
            .collect();
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        Snapshot {
            counters,
            gauges,
            histograms,
            spans: self.spans.snapshot(),
        }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = lock(&self.inner);
        f.debug_struct("Registry")
            .field("counters", &inner.counters.len())
            .field("gauges", &inner.gauges.len())
            .field("histograms", &inner.histograms.len())
            .finish()
    }
}

/// A point-in-time copy of every instrument in a registry.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// `(name, value)`, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value, high_water)`, sorted by name.
    pub gauges: Vec<(String, i64, i64)>,
    /// `(name, summary)`, sorted by name.
    pub histograms: Vec<(String, HistogramSummary)>,
    /// Per-phase span accumulators (phases entered at least once), in
    /// [`crate::Phase::ALL`] order.
    pub spans: Vec<PhaseSnapshot>,
}

impl Snapshot {
    /// Counter value by name.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Gauge `(value, high_water)` by name.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<(i64, i64)> {
        self.gauges
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, m)| (*v, *m))
    }

    /// Histogram summary by name.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);

        let g = Gauge::new();
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
        assert_eq!(g.max(), 10);
        g.set(12);
        assert_eq!(g.max(), 12);
    }

    #[test]
    fn histogram_buckets_by_binary_magnitude() {
        assert_eq!(Histogram::bucket_of(1.0), 32);
        assert_eq!(Histogram::bucket_of(1.99), 32);
        assert_eq!(Histogram::bucket_of(2.0), 33);
        assert_eq!(Histogram::bucket_of(0.5), 31);
        assert_eq!(Histogram::bucket_of(0.0), 0);
        assert_eq!(Histogram::bucket_of(f64::INFINITY), HISTOGRAM_BUCKETS - 1);
        assert_eq!(Histogram::bucket_of(1e300), HISTOGRAM_BUCKETS - 1);
        assert_eq!(Histogram::bucket_of(1e-300), 0);
        // Bucket bounds bracket their members.
        for v in [0.3, 1.0, 7.5, 1024.0] {
            let i = Histogram::bucket_of(v);
            let (lo, hi) = Histogram::bucket_bounds(i);
            assert!(lo <= v && v < hi, "{v} not in [{lo}, {hi})");
        }
    }

    #[test]
    fn histogram_summary_and_quantiles() {
        let h = Histogram::new();
        for _ in 0..90 {
            h.record(1.0); // bucket 32, upper bound 2.0
        }
        for _ in 0..10 {
            h.record(100.0); // bucket 38, upper bound 128.0
        }
        h.record(-1.0);
        h.record(f64::NAN);
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert_eq!(s.invalid, 2);
        assert!((s.sum - 1090.0).abs() < 1e-9);
        assert!((s.mean() - 10.9).abs() < 1e-9);
        assert_eq!(s.quantile(0.5), 2.0);
        assert_eq!(s.quantile(0.95), 128.0);
    }

    #[test]
    fn absorbing_a_local_histogram_matches_recording_directly() {
        let samples = [0.0, 0.25, 1.0, 1.5, 100.0, 3e9, -1.0, f64::NAN];
        let direct = Histogram::new();
        let absorbed = Histogram::new();
        let mut local = LocalHistogram::default();
        for v in samples {
            direct.record(v);
            local.record(v);
        }
        absorbed.absorb(&mut local);
        absorbed.absorb(&mut local); // emptied: a second absorb adds nothing
        let (d, a) = (direct.summary(), absorbed.summary());
        assert_eq!(
            (d.count, d.invalid, d.buckets),
            (a.count, a.invalid, a.buckets)
        );
        assert_eq!(d.sum, a.sum);

        let g = Gauge::new();
        g.publish(3, 9);
        assert_eq!((g.get(), g.max()), (3, 9));
        g.publish(5, 4);
        assert_eq!(
            (g.get(), g.max()),
            (5, 9),
            "a lower peak never lowers the mark"
        );
    }

    #[test]
    fn registry_dedupes_by_name_and_snapshots() {
        let r = Registry::new();
        let c1 = r.counter("join.results");
        let c2 = r.counter("join.results");
        c1.inc();
        c2.inc();
        r.gauge("pq.tier.heap").set(5);
        r.histogram("join.pop_distance").record(1.5);

        let snap = r.snapshot();
        assert_eq!(snap.counter("join.results"), Some(2));
        assert_eq!(snap.gauge("pq.tier.heap"), Some((5, 5)));
        assert_eq!(snap.histogram("join.pop_distance").unwrap().count, 1);
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn concurrent_histogram_updates_do_not_lose_samples() {
        let h = Arc::new(Histogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        h.record((t * 1000 + i) as f64 * 0.001);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 4000);
        let total: u64 = h.summary().buckets.iter().sum();
        assert_eq!(total, 4000);
    }
}
