//! The hybrid memory/disk priority queue of §3.2.
//!
//! Elements with key distance below `D1` live in a heap; distances in
//! `[D1, D2)` sit in an unorganised in-memory list; everything at `D2` or
//! beyond spills to disk, organised as "linked lists of pages with the pairs
//! in each list having distances in the range `[k·D_T, (k+1)·D_T)`". When
//! the heap empties, the list is poured into the heap, the window advances
//! by `D_T`, and the next disk bucket is loaded into the list.
//!
//! Both in-memory tiers live inside one [`FlatHeap`]: the heap tier is its
//! sifted region, the list tier its staged run, and the pour is
//! [`FlatHeap::promote_staged`] — a sort plus a move, with zero sift steps,
//! because the pour only ever lands in an empty heap.
//!
//! The window boundaries are maintained as an integer bucket counter
//! (`D1 = w·D_T`, `D2 = (w+1)·D_T`) so repeated advancement cannot drift.

use std::collections::BTreeMap;
use std::sync::Arc;

use sdj_obs::{Event, EventSink, Gauge, LeafSpan, Registry, Tier};
use sdj_storage::codec::{PageReader, PageWriter};
use sdj_storage::{BufferPool, DiskStats, FaultInjector, PageId, Pager, PoolStats, StorageError};

use crate::flat::FlatHeap;
use crate::traits::{Codec, QueueKey};

/// Bytes of a spill-page header: record count (`u16`) + next page (`u32`).
const BUCKET_HEADER: usize = 6;

/// Spill codec v2 marker: the high bit of the page's record-count word.
/// Every page is stamped with it when allocated and the reader refuses a
/// page without it: spill pages never outlive the process that wrote them,
/// so an unmarked header can only be corruption.
const SPILL_V2_MARK: u16 = 0x8000;

/// How queue keys relate to the distance units `D_T` is expressed in.
///
/// The join pushes *keys*, which under the sqrt-free Euclidean key domain
/// are squared distances. `D_T` stays meaningful as a distance: the tier
/// boundaries are mapped *into* key space (`D1 = (w·D_T)²`, `D2 =
/// ((w+1)·D_T)²` under [`KeyScale::Squared`]), so `HybridConfig::default()`'s
/// `dt: 1.0` selects the same physical window no matter which key domain the
/// producer uses. The inverse map (one `sqrt` per key) is only evaluated on
/// the spill path, where a disk write dominates it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum KeyScale {
    /// Keys are distances.
    #[default]
    Identity,
    /// Keys are squared distances (the Euclidean squared-key domain).
    Squared,
}

impl KeyScale {
    /// Maps a distance into key space.
    #[must_use]
    pub fn to_key(self, d: f64) -> f64 {
        match self {
            Self::Identity => d,
            Self::Squared => d * d,
        }
    }

    /// Maps a key back to a distance (used only when bucketing spills).
    #[must_use]
    pub fn from_key(self, k: f64) -> f64 {
        match self {
            Self::Identity => k,
            Self::Squared => k.sqrt(),
        }
    }
}

/// Configuration of a [`HybridQueue`].
#[derive(Clone, Copy, Debug)]
pub struct HybridConfig {
    /// The fixed distance increment `D_T` that sizes the in-memory window
    /// and the disk buckets. The paper chooses it per data set (§3.2).
    /// Always expressed in *distance* units; [`HybridConfig::key_scale`]
    /// translates it into the key domain the producer pushes in.
    pub dt: f64,
    /// Page size of the spill area.
    pub page_size: usize,
    /// Buffer frames for the spill area.
    pub buffer_frames: usize,
    /// The key domain of pushed keys (see [`KeyScale`]).
    pub key_scale: KeyScale,
}

impl Default for HybridConfig {
    fn default() -> Self {
        Self {
            dt: 1.0,
            page_size: 1024,
            buffer_frames: 64,
            key_scale: KeyScale::Identity,
        }
    }
}

impl HybridConfig {
    /// Creates a configuration with the given `D_T` and default paging.
    #[must_use]
    pub fn with_dt(dt: f64) -> Self {
        Self {
            dt,
            ..Self::default()
        }
    }

    /// Returns the configuration with its key scale replaced.
    #[must_use]
    pub fn with_key_scale(mut self, key_scale: KeyScale) -> Self {
        self.key_scale = key_scale;
        self
    }
}

/// Counters describing hybrid-queue tier traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HybridStats {
    /// Elements pushed straight to a disk bucket.
    pub spilled: u64,
    /// Elements read back from disk into the in-memory window.
    pub reloaded: u64,
    /// Window advances (list poured into the heap).
    pub promotions: u64,
}

/// Pre-registered tier-occupancy gauges (`pq.tier.heap` / `pq.tier.list` /
/// `pq.tier.disk`). At every quiescent point the three gauges sum to the
/// queue's total length — the invariant the pqueue observability tests
/// exercise.
#[derive(Clone)]
pub struct TierGauges {
    /// Elements resident in the heap tier (distances below `D1`).
    pub heap: Arc<Gauge>,
    /// Elements in the unorganised in-memory list (`[D1, D2)`).
    pub list: Arc<Gauge>,
    /// Elements spilled to disk buckets (`>= D2`).
    pub disk: Arc<Gauge>,
}

impl TierGauges {
    /// Registers (or re-uses) the three tier gauges in `registry`.
    #[must_use]
    pub fn register(registry: &Registry) -> Self {
        Self::register_prefixed(registry, "")
    }

    /// Registers the tier gauges under `{prefix}pq.tier.*`. A multi-session
    /// server passes `session.<id>.` so each cursor's tier occupancy is
    /// attributed separately in one registry.
    #[must_use]
    pub fn register_prefixed(registry: &Registry, prefix: &str) -> Self {
        Self {
            heap: registry.gauge(&format!("{prefix}pq.tier.heap")),
            list: registry.gauge(&format!("{prefix}pq.tier.list")),
            disk: registry.gauge(&format!("{prefix}pq.tier.disk")),
        }
    }
}

impl std::fmt::Debug for TierGauges {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TierGauges").finish_non_exhaustive()
    }
}

struct HybridObs {
    sink: Arc<dyn EventSink>,
    gauges: Option<TierGauges>,
    /// Always-timed phase accumulators for tier traffic ([`sdj_obs::span`]):
    /// spill and reload run against the pager, so their cost is real I/O
    /// work the engine's sampled spans must be able to subtract.
    spill_span: Option<LeafSpan>,
    reload_span: Option<LeafSpan>,
}

struct Bucket {
    head: PageId,
    /// Records in the head page (full pages behind it hold `records_per_page`).
    head_count: usize,
    total: usize,
}

/// A three-tier memory/disk min-priority queue.
///
/// Storage errors on the simulated spill disk (transient I/O faults,
/// disk-full during spill, corrupt bucket pages) surface as
/// `sdj_storage::Result` errors from [`HybridQueue::push`] /
/// [`HybridQueue::pop`] / [`HybridQueue::peek_key`]. After an error the
/// queue's contents may be incomplete (a mid-spill fault can drop the
/// element being pushed); callers are expected to abort the enclosing run,
/// which is what the join engines do.
pub struct HybridQueue<K, V> {
    /// The heap tier (sifted region) and the list tier (staged run).
    mem: FlatHeap<K, V>,
    buckets: BTreeMap<u64, Bucket>,
    pool: BufferPool,
    /// Resident bytes of the spill buffer pool (frames × page size).
    pool_bytes: usize,
    dt: f64,
    scale: KeyScale,
    /// Window counter: in distance terms the heap covers `[0, w·dt)` and the
    /// list `[w·dt, (w+1)·dt)`; both boundaries are compared in key space.
    window: u64,
    records_per_page: usize,
    len: usize,
    max_len: usize,
    mem_peak: usize,
    stats: HybridStats,
    obs: Option<HybridObs>,
}

impl<K, V> HybridQueue<K, V>
where
    K: QueueKey + Codec,
    V: Codec + Copy,
{
    /// Bytes of one spill record: the key, then the value.
    const RECORD: usize = K::ENCODED_SIZE + V::ENCODED_SIZE;

    /// The smallest `page_size` whose spill pages hold one record.
    pub const MIN_PAGE_SIZE: usize = BUCKET_HEADER + Self::RECORD;

    /// Creates an empty hybrid queue.
    ///
    /// # Panics
    /// Panics if `dt` is not positive, a spill page is smaller than
    /// [`HybridQueue::MIN_PAGE_SIZE`], or `buffer_frames` is zero.
    #[must_use]
    pub fn new(config: HybridConfig) -> Self {
        assert!(config.dt > 0.0, "D_T must be positive");
        assert!(
            config.page_size >= Self::MIN_PAGE_SIZE,
            "page size {} cannot hold a {}-byte record",
            config.page_size,
            Self::RECORD
        );
        let records_per_page = (config.page_size - BUCKET_HEADER) / Self::RECORD;
        let pool = BufferPool::new(Pager::new(config.page_size), config.buffer_frames);
        Self {
            mem: FlatHeap::new(),
            buckets: BTreeMap::new(),
            pool,
            pool_bytes: config.page_size * config.buffer_frames,
            dt: config.dt,
            scale: config.key_scale,
            window: 1,
            records_per_page,
            len: 0,
            max_len: 0,
            mem_peak: 0,
            stats: HybridStats::default(),
            obs: None,
        }
    }

    /// Attaches observability: every tier migration (spill, bucket reload,
    /// window promotion) emits a [`Event::TierMigration`] to `sink`, and —
    /// if `gauges` is given — the per-tier occupancy gauges are kept in sync
    /// after every queue operation.
    pub fn attach_obs(&mut self, sink: Arc<dyn EventSink>, gauges: Option<TierGauges>) {
        self.obs = Some(HybridObs {
            sink,
            gauges,
            spill_span: None,
            reload_span: None,
        });
        self.sync_obs_gauges();
    }

    /// Attaches phase-span accumulators for spill and reload traffic. Only
    /// effective after [`HybridQueue::attach_obs`]; spans are always timed
    /// (tier migrations are page-granular, so the clock reads are noise).
    pub fn attach_spans(&mut self, spill: LeafSpan, reload: LeafSpan) {
        if let Some(obs) = &mut self.obs {
            obs.spill_span = Some(spill);
            obs.reload_span = Some(reload);
        }
    }

    fn sync_obs_gauges(&self) {
        if let Some(HybridObs {
            gauges: Some(g), ..
        }) = &self.obs
        {
            g.heap.set(self.mem.sifted_len() as i64);
            g.list.set(self.mem.staged_len() as i64);
            g.disk.set(self.on_disk_len() as i64);
        }
    }

    fn emit_migration(&self, from: Tier, to: Tier, n: usize) {
        if let Some(obs) = &self.obs {
            let n = u32::try_from(n).unwrap_or(u32::MAX);
            obs.sink.emit(&Event::TierMigration { from, to, n });
        }
    }

    /// Tier-traffic counters.
    #[must_use]
    pub fn stats(&self) -> HybridStats {
        self.stats
    }

    /// Disk counters of the spill area.
    #[must_use]
    pub fn disk_stats(&self) -> DiskStats {
        self.pool.disk_stats()
    }

    /// Buffer-pool counters of the spill area (includes the fault and retry
    /// counts of the bounded retry policy).
    #[must_use]
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Installs (or clears) a deterministic fault injector on the spill
    /// area's simulated disk; its schedule carries the retry budget.
    pub fn set_fault_injector(&self, injector: Option<Arc<FaultInjector>>) {
        self.pool.set_fault_injector(injector);
    }

    /// Number of elements currently resident in memory (heap + list).
    #[must_use]
    pub fn in_memory_len(&self) -> usize {
        self.mem.len()
    }

    /// Approximate resident bytes of the queue: in-memory tiers at their
    /// allocated capacities plus the spill area's buffer frames.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.mem.approx_bytes() + self.pool_bytes
    }

    /// Number of elements currently spilled to disk.
    #[must_use]
    pub fn on_disk_len(&self) -> usize {
        self.buckets.values().map(|b| b.total).sum()
    }

    /// High-water mark of [`HybridQueue::in_memory_len`] — what a
    /// memory-only queue would have had to keep resident is `max_len()`;
    /// the difference is the hybrid scheme's memory saving.
    #[must_use]
    pub fn in_memory_peak(&self) -> usize {
        self.mem_peak
    }

    fn note_memory(&mut self) {
        let m = self.mem.len();
        if m > self.mem_peak {
            self.mem_peak = m;
        }
    }

    /// Lower tier boundary, in key space.
    fn d1(&self) -> f64 {
        self.scale.to_key(self.window as f64 * self.dt)
    }

    /// Upper tier boundary, in key space.
    fn d2(&self) -> f64 {
        self.scale.to_key((self.window + 1) as f64 * self.dt)
    }

    fn bucket_index(&self, key: f64) -> u64 {
        debug_assert!(key >= 0.0);
        // `as` saturates, which handles +inf keys (pairs that can never
        // produce results sort into the last bucket). Under a squared key
        // scale this takes a sqrt, but only spilled elements pay it and the
        // accompanying page write dwarfs it.
        (self.scale.from_key(key) / self.dt) as u64
    }

    fn spill(&mut self, key: K, value: V) -> sdj_storage::Result<()> {
        let timed = self
            .obs
            .as_ref()
            .is_some_and(|o| o.spill_span.is_some())
            .then(std::time::Instant::now);
        let r = self.spill_inner(key, value);
        if let (Some(t0), Some(obs)) = (timed, &self.obs) {
            if let Some(span) = &obs.spill_span {
                span.record_ns(t0.elapsed().as_nanos() as u64);
            }
        }
        r
    }

    fn spill_inner(&mut self, key: K, value: V) -> sdj_storage::Result<()> {
        let k = self.bucket_index(key.distance());
        debug_assert!(k >= self.window, "spill of an in-window distance");
        let records_per_page = self.records_per_page;
        // Take the bucket out to appease the borrow checker around pool use.
        let mut bucket = self.buckets.remove(&k);
        let needs_new_page = match &bucket {
            None => true,
            Some(b) => b.head_count == records_per_page,
        };
        if needs_new_page {
            // Fallible allocation: disk-full on spill surfaces here.
            let page = match self.pool.try_allocate() {
                Ok(p) => p,
                Err(e) => {
                    // The existing bucket pages are untouched; keep them.
                    if let Some(b) = bucket {
                        self.buckets.insert(k, b);
                    }
                    return Err(e);
                }
            };
            let next = bucket.as_ref().map_or(PageId::INVALID, |b| b.head);
            let header = self.pool.update(page, |buf| {
                let mut w = PageWriter::new(buf);
                // Zero records, stamped as spill codec v2.
                w.put_u16(SPILL_V2_MARK)?;
                w.put_u32(next.0)
            });
            if let Err(e) = header.and_then(|r| r) {
                let _ = self.pool.free(page);
                if let Some(b) = bucket {
                    self.buckets.insert(k, b);
                }
                return Err(e);
            }
            bucket = Some(Bucket {
                head: page,
                head_count: 0,
                total: bucket.as_ref().map_or(0, |b| b.total),
            });
        }
        let Some(mut b) = bucket else {
            // Unreachable: the branch above always materialises a bucket.
            return Err(StorageError::Corrupt("spill bucket vanished"));
        };
        let head_count = b.head_count;
        let offset = BUCKET_HEADER + head_count * Self::RECORD;
        let written = self.pool.update(b.head, |buf| {
            let new_count = u16::try_from(head_count + 1)
                .ok()
                .filter(|c| c & SPILL_V2_MARK == 0)
                .ok_or(StorageError::Corrupt("bucket record count overflows"))?;
            buf[0..2].copy_from_slice(&(new_count | SPILL_V2_MARK).to_le_bytes());
            let mut w = PageWriter::new(&mut buf[offset..]);
            key.encode(&mut w)?;
            value.encode(&mut w)
        });
        if let Err(e) = written.and_then(|r| r) {
            // The bucket's existing pages stay tracked; only the element
            // being pushed is lost, and the caller aborts on the error.
            self.buckets.insert(k, b);
            return Err(e);
        }
        b.head_count += 1;
        b.total += 1;
        self.buckets.insert(k, b);
        self.stats.spilled += 1;
        // A spill at insertion time is reported as `List -> Disk`: the
        // element logically belongs past the list window.
        self.emit_migration(Tier::List, Tier::Disk, 1);
        Ok(())
    }

    /// Loads every record of bucket `k` into the in-memory list, freeing its
    /// pages.
    fn reload_bucket(&mut self, k: u64) -> sdj_storage::Result<()> {
        let timed = self
            .obs
            .as_ref()
            .is_some_and(|o| o.reload_span.is_some())
            .then(std::time::Instant::now);
        let r = self.reload_bucket_inner(k);
        if let (Some(t0), Some(obs)) = (timed, &self.obs) {
            if let Some(span) = &obs.reload_span {
                span.record_ns(t0.elapsed().as_nanos() as u64);
            }
        }
        r
    }

    fn reload_bucket_inner(&mut self, k: u64) -> sdj_storage::Result<()> {
        let Some(bucket) = self.buckets.remove(&k) else {
            return Ok(());
        };
        let record = Self::RECORD;
        let records_per_page = self.records_per_page;
        let mut page = bucket.head;
        let mut loaded = 0usize;
        // The chain runs newest page first. Collect per page, then stage
        // oldest first: the list tier then tags the bucket in *arrival*
        // order, independent of how many records fit a page — which is what
        // keeps equal-key pop order FIFO across a spill.
        let mut pages: Vec<Vec<(K, V)>> = Vec::new();
        while !page.is_invalid() {
            let read = self.pool.with_page(page, |buf| -> sdj_storage::Result<_> {
                let mut r = PageReader::new(buf);
                // The mark is the word's high bit, so the subtraction
                // underflows exactly on an unmarked header.
                let count = r
                    .get_u16()?
                    .checked_sub(SPILL_V2_MARK)
                    .ok_or(StorageError::Corrupt("spill page lacks its codec mark"))?
                    as usize;
                let next = PageId(r.get_u32()?);
                if count > records_per_page {
                    return Err(StorageError::Corrupt("bucket record count exceeds page"));
                }
                let mut records = Vec::with_capacity(count);
                for i in 0..count {
                    let mut rr = PageReader::new(&buf[BUCKET_HEADER + i * record..]);
                    let key = K::decode(&mut rr)?;
                    let value = V::decode(&mut rr)?;
                    records.push((key, value));
                }
                Ok((next, records))
            });
            let (next, records) = read.and_then(|r| r)?;
            loaded += records.len();
            pages.push(records);
            self.pool.free(page)?;
            page = next;
        }
        for (key, value) in pages.into_iter().rev().flatten() {
            self.mem.stage(key, value);
        }
        debug_assert_eq!(loaded, bucket.total);
        self.stats.reloaded += loaded as u64;
        if loaded > 0 {
            self.emit_migration(Tier::Disk, Tier::List, loaded);
        }
        Ok(())
    }

    /// Makes the heap's minimum the queue's global minimum, advancing the
    /// window and reloading disk buckets as needed.
    fn ensure_front(&mut self) -> sdj_storage::Result<()> {
        while self.mem.sifted_len() == 0 {
            if self.mem.staged_len() == 0 && self.buckets.is_empty() {
                return Ok(());
            }
            if self.mem.staged_len() == 0 {
                // Jump the window straight to the first non-empty bucket.
                let Some(&k) = self.buckets.keys().next() else {
                    return Ok(());
                };
                self.window = k;
                self.reload_bucket(k)?;
            }
            let drained = self.mem.promote_staged();
            self.stats.promotions += 1;
            if drained > 0 {
                self.emit_migration(Tier::List, Tier::Heap, drained);
            }
            // Advance the window and pull the next bucket into the list.
            // (Saturating: +inf keys land in bucket u64::MAX.)
            self.window = self.window.saturating_add(1);
            self.reload_bucket(self.window)?;
            self.note_memory();
        }
        Ok(())
    }

    /// Inserts an element; a key at or past `D2` is written to its disk
    /// bucket.
    ///
    /// # Errors
    /// A storage error of the spill write (the element is then lost).
    ///
    /// # Panics
    /// Panics on a negative key distance.
    pub fn push(&mut self, key: K, value: V) -> sdj_storage::Result<()> {
        let d = key.distance();
        assert!(d >= 0.0, "distance keys must be non-negative");
        if d < self.d1() {
            self.mem.push(key, value);
        } else if d < self.d2() {
            self.mem.stage(key, value);
        } else {
            self.spill(key, value)?;
        }
        self.len += 1;
        self.max_len = self.max_len.max(self.len);
        self.note_memory();
        self.sync_obs_gauges();
        Ok(())
    }

    /// Removes and returns the minimum element, reloading disk buckets as
    /// the window advances.
    ///
    /// # Errors
    /// A storage error of a bucket reload.
    pub fn pop(&mut self) -> sdj_storage::Result<Option<(K, V)>> {
        self.ensure_front()?;
        let out = self.mem.pop();
        if out.is_some() {
            self.len -= 1;
        }
        self.sync_obs_gauges();
        Ok(out)
    }

    /// The current minimum key, if any; may promote spilled elements into
    /// memory.
    ///
    /// # Errors
    /// A storage error of a bucket reload.
    pub fn peek_key(&mut self) -> sdj_storage::Result<Option<K>> {
        self.ensure_front()?;
        self.sync_obs_gauges();
        Ok(self.mem.peek())
    }

    /// Number of elements queued, in memory and on disk.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no elements are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// High-water mark of [`HybridQueue::len`] over the queue's lifetime —
    /// the "maximum queue size" column of the paper's Table 1.
    #[must_use]
    pub fn max_len(&self) -> usize {
        self.max_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use sdj_geom::OrdF64;

    fn queue(dt: f64) -> HybridQueue<OrdF64, u64> {
        HybridQueue::new(HybridConfig {
            dt,
            page_size: 128,
            buffer_frames: 4,
            key_scale: KeyScale::Identity,
        })
    }

    #[test]
    fn pops_in_global_order_across_tiers() {
        let mut q = queue(1.0);
        // Distances spanning heap (< 1), list ([1, 2)), and disk (>= 2).
        let ds = [5.5, 0.25, 3.75, 1.5, 0.75, 9.0, 2.25, 1.25, 7.5];
        for (i, d) in ds.iter().enumerate() {
            q.push(OrdF64::new(*d), i as u64).unwrap();
        }
        assert!(q.on_disk_len() > 0, "some elements must have spilled");
        let mut got = Vec::new();
        while let Some((k, _)) = q.pop().unwrap() {
            got.push(k.get());
        }
        let mut want = ds.to_vec();
        want.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(got, want);
        assert!(q.stats().spilled > 0);
        assert_eq!(q.stats().spilled, q.stats().reloaded);
        assert_eq!(q.in_memory_len() + q.on_disk_len(), 0);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut q = queue(0.5);
        let mut last = 0.0f64;
        let mut pending = 0usize;
        for _ in 0..2000 {
            if pending > 0 && rng.random_bool(0.4) {
                let (k, _) = q.pop().unwrap().unwrap();
                // Monotone non-decreasing pops as long as pushes never go
                // below the last popped key (which the join guarantees via
                // distance-function consistency).
                assert!(k.get() >= last - 1e-12);
                last = k.get();
                pending -= 1;
            } else {
                // Push keys at or above the current front, like the join.
                let d = last + rng.random_range(0.0..5.0);
                q.push(OrdF64::new(d), 0).unwrap();
                pending += 1;
            }
        }
        while let Some((k, _)) = q.pop().unwrap() {
            assert!(k.get() >= last - 1e-12);
            last = k.get();
        }
    }

    #[test]
    fn sparse_buckets_are_jumped() {
        let mut q = queue(1.0);
        q.push(OrdF64::new(1000.0), 1).unwrap();
        q.push(OrdF64::new(5000.0), 2).unwrap();
        assert_eq!(q.pop().unwrap().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().unwrap().1, 2);
        assert_eq!(q.pop().unwrap(), None);
        // The window should have jumped, not crawled through thousands of
        // promotions.
        assert!(q.stats().promotions < 10);
    }

    #[test]
    fn disk_pages_are_freed_after_reload() {
        let mut q = queue(1.0);
        for i in 0..500 {
            q.push(OrdF64::new(10.0 + (i as f64) * 0.001), i).unwrap();
        }
        assert_eq!(q.on_disk_len(), 500);
        let mut n = 0;
        while q.pop().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 500);
        let disk = q.disk_stats();
        assert_eq!(disk.allocations, disk.frees, "all spill pages freed");
    }

    #[test]
    fn infinite_keys_sort_last() {
        let mut q = queue(1.0);
        q.push(OrdF64::INFINITY, 99).unwrap();
        q.push(OrdF64::new(3.0), 1).unwrap();
        assert_eq!(q.pop().unwrap().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().unwrap().1, 99);
    }

    #[test]
    fn len_and_max_len() {
        let mut q = queue(1.0);
        for i in 0..10 {
            q.push(OrdF64::new(i as f64), i).unwrap();
        }
        assert_eq!(q.len(), 10);
        q.pop().unwrap();
        q.pop().unwrap();
        assert_eq!(q.len(), 8);
        assert_eq!(q.max_len(), 10);
        assert_eq!(q.in_memory_len() + q.on_disk_len(), 8);
    }

    /// Satellite regression: the tier boundaries derived from `D_T` select
    /// the same physical window whether keys arrive as distances or as
    /// squared distances — tier traffic (spills, reloads, promotions) must
    /// be identical between the two key scales.
    #[test]
    fn tier_boundaries_match_between_key_scales() {
        let mk = |scale| {
            HybridQueue::<OrdF64, u64>::new(HybridConfig {
                dt: 1.5,
                page_size: 128,
                buffer_frames: 4,
                key_scale: scale,
            })
        };
        let mut plain = mk(KeyScale::Identity);
        let mut squared = mk(KeyScale::Squared);
        let mut rng = StdRng::seed_from_u64(7);
        let ds: Vec<f64> = (0..400).map(|_| rng.random_range(0.0..30.0)).collect();
        for (i, d) in ds.iter().enumerate() {
            plain.push(OrdF64::new(*d), i as u64).unwrap();
            squared.push(OrdF64::new(d * d), i as u64).unwrap();
        }
        assert_eq!(plain.stats(), squared.stats());
        assert_eq!(plain.on_disk_len(), squared.on_disk_len());
        assert_eq!(plain.in_memory_len(), squared.in_memory_len());
        loop {
            match (plain.pop().unwrap(), squared.pop().unwrap()) {
                (Some((kp, _)), Some((kq, _))) => {
                    // Same element order up to sqrt rounding on the key.
                    assert!((kp.get() - kq.get().sqrt()).abs() <= 1e-12 * kp.get().max(1.0));
                }
                (None, None) => break,
                other => panic!("queues diverged: {other:?}"),
            }
        }
        assert_eq!(plain.stats(), squared.stats());
    }

    #[test]
    fn approx_bytes_counts_pool_frames() {
        assert!(
            queue(1.0).approx_bytes() >= 128 * 4,
            "pool frames accounted"
        );
    }

    /// Every spill page is stamped with the codec mark, so a header without
    /// it is corruption: the reload fails with the typed error, no panic.
    #[test]
    fn unmarked_spill_page_is_corrupt() {
        let mut q = queue(1.0);
        let ds: Vec<f64> = (0..120).map(|i| 5.0 + f64::from(i) * 0.01).collect();
        for (i, d) in ds.iter().enumerate() {
            q.push(OrdF64::new(*d), i as u64).unwrap();
        }
        assert!(q.on_disk_len() > 0);
        // Clear the mark (the high bit of the LE count word) on every
        // bucket page.
        let heads: Vec<PageId> = q.buckets.values().map(|b| b.head).collect();
        for mut page in heads {
            while !page.is_invalid() {
                let next = q
                    .pool
                    .update(page, |buf| {
                        buf[1] &= 0x7F;
                        PageId(u32::from_le_bytes([buf[2], buf[3], buf[4], buf[5]]))
                    })
                    .unwrap();
                page = next;
            }
        }
        let failed = loop {
            match q.pop() {
                Ok(Some(_)) => {}
                Ok(None) => break None,
                Err(e) => break Some(e),
            }
        };
        assert!(
            matches!(failed, Some(StorageError::Corrupt(_))),
            "draining past an unmarked page gave {failed:?}"
        );
    }

    proptest! {
        /// The queue's pop sequence — keys AND values — is bit-identical to
        /// an in-memory [`PairingHeap`](crate::PairingHeap)'s under fuzzed
        /// interleavings of pushes (with heavy key duplication, exercising
        /// FIFO ties) and pops, across tier shapes (dt sweeps the
        /// heap/list/disk split).
        #[test]
        fn pops_like_a_pairing_heap(
            ops in prop::collection::vec((any::<bool>(), 0u32..60), 1..400),
            dt in 0.1..30.0f64,
        ) {
            let mut model = crate::PairingHeap::new();
            let mut q = queue(dt);
            for (i, (is_pop, k)) in ops.into_iter().enumerate() {
                if is_pop {
                    prop_assert_eq!(model.pop(), q.pop().unwrap());
                } else {
                    let d = OrdF64::new(f64::from(k) * 0.37);
                    model.push(d, i as u64);
                    q.push(d, i as u64).unwrap();
                }
                prop_assert_eq!(model.len(), q.len());
            }
            loop {
                let (a, b) = (model.pop(), q.pop().unwrap());
                prop_assert_eq!(&a, &b);
                if a.is_none() {
                    break;
                }
            }
            prop_assert_eq!(q.stats().spilled, q.stats().reloaded);
            prop_assert_eq!(model.max_len(), q.max_len());
        }
    }

    #[test]
    fn peek_promotes_without_losing_elements() {
        let mut q = queue(1.0);
        q.push(OrdF64::new(50.0), 7).unwrap();
        assert_eq!(q.peek_key().unwrap().unwrap().get(), 50.0);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().unwrap().1, 7);
    }

    #[test]
    fn disk_full_on_spill_surfaces_as_error() {
        use sdj_storage::{FaultConfig, FaultInjector};
        let mut q = queue(1.0);
        q.set_fault_injector(Some(Arc::new(FaultInjector::new(FaultConfig {
            seed: 11,
            disk_full_after: Some(2),
            ..FaultConfig::default()
        }))));
        // Each spill page holds several records; keep pushing spilled keys
        // until the allocation budget runs out.
        let mut err = None;
        for i in 0..500 {
            if let Err(e) = q.push(OrdF64::new(10.0 + i as f64), i) {
                err = Some(e);
                break;
            }
        }
        assert_eq!(err, Some(StorageError::DiskFull));
        // In-memory pushes still work after the error.
        q.push(OrdF64::new(0.5), 999).unwrap();
        assert_eq!(q.pop().unwrap().unwrap().1, 999);
    }

    #[test]
    fn transient_spill_faults_retried_to_completion() {
        use sdj_storage::{FaultConfig, FaultInjector};
        let mut q = queue(1.0);
        q.set_fault_injector(Some(Arc::new(FaultInjector::new(FaultConfig {
            retries: 8,
            ..FaultConfig::transient_only(21, 0.2)
        }))));
        let ds: Vec<f64> = (0..300).map(|i| 5.0 + (i as f64) * 0.01).collect();
        for (i, d) in ds.iter().enumerate() {
            q.push(OrdF64::new(*d), i as u64).unwrap();
        }
        let mut got = Vec::new();
        while let Some((k, _)) = q.pop().unwrap() {
            got.push(k.get());
        }
        assert_eq!(got.len(), ds.len());
        assert!(got.windows(2).all(|w| w[0] <= w[1]));
        let ps = q.pool_stats();
        assert!(ps.faults > 0, "expected injected faults: {ps:?}");
        assert!(ps.retries > 0);
    }

    #[test]
    fn corrupt_bucket_page_surfaces_as_error() {
        use sdj_storage::{FaultConfig, FaultInjector};
        let mut q = queue(1.0);
        for i in 0..300 {
            q.push(OrdF64::new(10.0 + (i as f64) * 0.01), i).unwrap();
        }
        assert!(q.on_disk_len() > 0);
        // Flush dirty spill pages to the simulated disk, then corrupt every
        // subsequent physical read.
        q.set_fault_injector(Some(Arc::new(FaultInjector::new(FaultConfig {
            seed: 31,
            bit_flip: 1.0,
            ..FaultConfig::default()
        }))));
        let mut saw_err = None;
        loop {
            match q.pop() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) => {
                    saw_err = Some(e);
                    break;
                }
            }
        }
        assert_eq!(
            saw_err,
            Some(StorageError::Corrupt("page checksum mismatch")),
            "bit-flipped spill pages must be detected by the checksum"
        );
    }

    proptest! {
        /// The hybrid queue pops exactly the multiset it was given, in
        /// non-decreasing key order, for any D_T.
        #[test]
        fn matches_sort(
            ds in prop::collection::vec(0.0..100.0f64, 1..300),
            dt in 0.1..20.0f64,
        ) {
            let mut q: HybridQueue<OrdF64, u64> = HybridQueue::new(HybridConfig {
                dt,
                page_size: 256,
                buffer_frames: 2,
                key_scale: KeyScale::Identity,
            });
            for (i, d) in ds.iter().enumerate() {
                q.push(OrdF64::new(*d), i as u64).unwrap();
            }
            let mut want = ds.clone();
            want.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut got = Vec::with_capacity(ds.len());
            let mut seen = std::collections::HashSet::new();
            while let Some((k, v)) = q.pop().unwrap() {
                got.push(k.get());
                prop_assert!(seen.insert(v), "value {v} delivered twice");
            }
            prop_assert_eq!(got, want);
        }

        /// Under a squared key scale the queue still pops the exact key
        /// multiset in non-decreasing order for any `D_T`.
        #[test]
        fn matches_sort_squared_scale(
            ds in prop::collection::vec(0.0..100.0f64, 1..300),
            dt in 0.1..20.0f64,
        ) {
            let mut q: HybridQueue<OrdF64, u64> = HybridQueue::new(
                HybridConfig::with_dt(dt).with_key_scale(KeyScale::Squared),
            );
            for (i, d) in ds.iter().enumerate() {
                q.push(OrdF64::new(d * d), i as u64).unwrap();
            }
            let mut want: Vec<f64> = ds.iter().map(|d| d * d).collect();
            want.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut got = Vec::with_capacity(ds.len());
            while let Some((k, _)) = q.pop().unwrap() {
                got.push(k.get());
            }
            prop_assert_eq!(got, want);
            prop_assert_eq!(q.stats().spilled, q.stats().reloaded);
        }
    }
}
