//! Sharded concurrent buffer pool with pinned zero-copy page guards.
//!
//! A fixed number of page-sized frames sits in front of the [`Pager`],
//! split across N independent shards (pages hashed by [`PageId`]). Every
//! page access locks only its shard; the pager itself sits behind a second,
//! pool-wide lock that is taken *only* to fault a page in or write a dirty
//! frame back — a hit never touches it, so concurrent readers of different
//! shards never serialise. The experiments report demand buffer misses as
//! "node I/O", matching the paper's setup of a 256K buffer over 1K pages.
//!
//! Reads hand out [`PageGuard`]s: a reference-counted pin on the frame that
//! derefs straight to the page bytes. A guard is acquired under the shard
//! lock but outlives it, so node decoding happens without any lock held and
//! without copying the page out of the frame. Eviction skips pinned frames,
//! and writes to a pinned page copy-on-write, so an outstanding guard is
//! always a consistent snapshot of the page it pinned.
//!
//! Every shard evicts in exact least-recently-used order: an intrusive
//! doubly-linked recency list over frame indices, so hits, evictions and
//! invalidations are all O(1) (plus hashing). With one shard the counters
//! are byte-identical to the historical single-lock pool's, keeping
//! EXPERIMENTS.md miss counts comparable; with N shards each shard is that
//! pool over its own pages and its share of the frames.
//!
//! A device fault is retried only when it is transient, and at most as many
//! times as the installed [`FaultInjector`](crate::FaultInjector)'s
//! [`FaultConfig::retries`](crate::FaultConfig::retries) allows: the budget
//! travels with the schedule that produces the faults.
//!
//! [`BufferPool::prefetch`] accepts batch hints ("these pages are about to
//! be read") and faults absent ones in, counting them as `prefetch_reads` —
//! *not* demand misses — so the node-I/O measure stays honest; a later
//! demand access that lands on a prefetched frame counts as a hit and as a
//! `prefetch_hit`.

use std::collections::HashMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use sdj_obs::{Counter, Event, EventSink, LeafSpan, ObsContext, Phase};

use crate::{PageId, Pager, Result};

/// Cumulative buffer-pool counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Demand accesses served from the pool.
    pub hits: u64,
    /// Demand accesses that had to fault the page in from disk. This is the
    /// experiments' "node I/O" measure; prefetch reads are *not* included.
    pub misses: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
    /// Dirty frames written back to disk (on eviction, flush, or a
    /// write-through when every frame of a shard was pinned).
    pub writebacks: u64,
    /// Pages faulted in by [`BufferPool::prefetch`] hints.
    pub prefetch_reads: u64,
    /// Demand hits served by a frame a prefetch brought in (each prefetched
    /// frame is counted at most once, on its first demand access).
    pub prefetch_hits: u64,
    /// Full-page byte copies performed by the copying [`BufferPool::read`]
    /// API. The [`PageGuard`] path never copies, so this stays zero for
    /// guard-based readers — the benchmarks assert exactly that.
    pub read_copies: u64,
    /// Acquisitions of the pool-wide pager lock. Only faults, write-backs
    /// and administrative calls take it; hits hold nothing but their shard's
    /// lock, so `accesses() - shared_lock_acquisitions` approximates the
    /// global-lock acquisitions a single-mutex pool would have paid.
    pub shared_lock_acquisitions: u64,
    /// Device-level operations that failed under the pool (each failed
    /// attempt counts once, whether or not a retry later succeeded).
    pub faults: u64,
    /// Retry attempts made for transient faults (a fault that succeeds on
    /// its second attempt contributes 1 fault and 1 retry).
    pub retries: u64,
}

impl PoolStats {
    /// Total demand page accesses.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Adds another stats snapshot into this one (used to aggregate shards,
    /// or the two trees of a join).
    pub fn absorb(&mut self, o: &PoolStats) {
        self.hits += o.hits;
        self.misses += o.misses;
        self.evictions += o.evictions;
        self.writebacks += o.writebacks;
        self.prefetch_reads += o.prefetch_reads;
        self.prefetch_hits += o.prefetch_hits;
        self.read_copies += o.read_copies;
        self.shared_lock_acquisitions += o.shared_lock_acquisitions;
        self.faults += o.faults;
        self.retries += o.retries;
    }

    /// The counter deltas accumulated since `baseline` was snapshotted.
    /// All counters are monotonic, so this is how a session attributes the
    /// traffic of one serialized pull window on a shared pool to itself.
    #[must_use]
    pub fn since(&self, baseline: &PoolStats) -> PoolStats {
        PoolStats {
            hits: self.hits - baseline.hits,
            misses: self.misses - baseline.misses,
            evictions: self.evictions - baseline.evictions,
            writebacks: self.writebacks - baseline.writebacks,
            prefetch_reads: self.prefetch_reads - baseline.prefetch_reads,
            prefetch_hits: self.prefetch_hits - baseline.prefetch_hits,
            read_copies: self.read_copies - baseline.read_copies,
            shared_lock_acquisitions: self.shared_lock_acquisitions
                - baseline.shared_lock_acquisitions,
            faults: self.faults - baseline.faults,
            retries: self.retries - baseline.retries,
        }
    }
}

/// Observability handle for a buffer pool: counters pre-registered under a
/// caller-chosen prefix (so several pools — tree nodes, queue spill pages —
/// stay distinguishable in one registry) plus the shared event sink, which
/// receives a [`Event::BufferEvict`] per eviction.
#[derive(Clone)]
pub struct BufferObs {
    sink: Arc<dyn EventSink>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    writebacks: Arc<Counter>,
    prefetch_reads: Arc<Counter>,
    prefetch_hits: Arc<Counter>,
    faults: Arc<Counter>,
    retries: Arc<Counter>,
    /// Always-timed [`Phase::Io`] accumulator: every page fault (demand
    /// miss, update miss, or prefetch) records its pager time here, so the
    /// engine's sampled spans can subtract real I/O from their self-time.
    io_span: Option<LeafSpan>,
}

impl BufferObs {
    /// Builds the handle from a context, registering `{prefix}.hits`,
    /// `{prefix}.misses`, `{prefix}.evictions`, `{prefix}.writebacks`,
    /// `{prefix}.prefetch_reads`, `{prefix}.prefetch_hits`,
    /// `{prefix}.faults` and `{prefix}.retries`.
    #[must_use]
    pub fn new(ctx: &ObsContext, prefix: &str) -> Self {
        Self {
            sink: Arc::clone(&ctx.sink),
            hits: ctx.registry.counter(&format!("{prefix}.hits")),
            misses: ctx.registry.counter(&format!("{prefix}.misses")),
            evictions: ctx.registry.counter(&format!("{prefix}.evictions")),
            writebacks: ctx.registry.counter(&format!("{prefix}.writebacks")),
            prefetch_reads: ctx.registry.counter(&format!("{prefix}.prefetch_reads")),
            prefetch_hits: ctx.registry.counter(&format!("{prefix}.prefetch_hits")),
            faults: ctx.registry.counter(&format!("{prefix}.faults")),
            retries: ctx.registry.counter(&format!("{prefix}.retries")),
            io_span: LeafSpan::from_context(ctx, Phase::Io),
        }
    }
}

impl std::fmt::Debug for BufferObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferObs").finish_non_exhaustive()
    }
}

/// A pinned, zero-copy view of one page.
///
/// Dereferences to the page bytes as they were when the guard was acquired.
/// While any guard on a page is live, the frame cannot be evicted; a write
/// to the page copies-on-write, so the guard keeps observing its consistent
/// snapshot. Guards hold no lock — they may be kept across arbitrary calls
/// (including further pool accesses) without blocking anyone.
pub struct PageGuard {
    data: Arc<Box<[u8]>>,
    /// The frame's pin token; `None` for a transient (uncached) fault, which
    /// has no frame to protect.
    pin: Option<Arc<AtomicU32>>,
}

impl PageGuard {
    /// Whether this guard pins a pool frame (false for a transient read
    /// taken while every frame of the page's shard was pinned).
    #[must_use]
    pub fn is_pinned(&self) -> bool {
        self.pin.is_some()
    }
}

impl Deref for PageGuard {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl Clone for PageGuard {
    fn clone(&self) -> Self {
        if let Some(pin) = &self.pin {
            pin.fetch_add(1, Ordering::Relaxed);
        }
        Self {
            data: Arc::clone(&self.data),
            pin: self.pin.clone(),
        }
    }
}

impl Drop for PageGuard {
    fn drop(&mut self) {
        if let Some(pin) = &self.pin {
            pin.fetch_sub(1, Ordering::Release);
        }
    }
}

impl std::fmt::Debug for PageGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageGuard")
            .field("len", &self.data.len())
            .field("pinned", &self.is_pinned())
            .finish()
    }
}

const NIL: usize = usize::MAX;

struct Frame {
    page: PageId,
    /// The page bytes. Shared with outstanding [`PageGuard`]s; mutation goes
    /// through `Arc::make_mut`, which copies-on-write when guards are live.
    data: Arc<Box<[u8]>>,
    /// Pin count of this frame. Incremented under the shard lock when a
    /// guard is handed out, decremented lock-free on guard drop; eviction
    /// (which runs under the shard lock) skips any frame it reads as pinned.
    pins: Arc<AtomicU32>,
    dirty: bool,
    /// Brought in by a prefetch hint and not yet demanded.
    prefetched: bool,
    /// LRU recency links.
    prev: usize,
    next: usize,
}

impl Frame {
    fn new(page: PageId, data: Box<[u8]>, prefetched: bool) -> Self {
        Self {
            page,
            data: Arc::new(data),
            pins: Arc::new(AtomicU32::new(0)),
            dirty: false,
            prefetched,
            prev: NIL,
            next: NIL,
        }
    }

    fn pin_count(&self) -> u32 {
        self.pins.load(Ordering::Acquire)
    }

    /// Re-fills an evicted (unlinked, unpinned) frame with `page`'s bytes
    /// without allocating: the frame keeps its pin token — no guard of the
    /// old page is counted on it, and new pins are only taken under the
    /// shard lock — and its `Arc`, whose old buffer is handed back for the
    /// next fault to read into. A guard caught between its unpin and the
    /// release of its data reference still shares the buffer; the frame then
    /// gets a fresh `Arc` and nothing is handed back.
    fn refill(&mut self, page: PageId, data: Box<[u8]>, prefetched: bool) -> Option<Box<[u8]>> {
        let old = match Arc::get_mut(&mut self.data) {
            Some(slot) => Some(std::mem::replace(slot, data)),
            None => {
                self.data = Arc::new(data);
                None
            }
        };
        self.page = page;
        self.dirty = false;
        self.prefetched = prefetched;
        self.prev = NIL;
        self.next = NIL;
        old
    }
}

/// Outcome of faulting a page into a shard.
enum Fetched {
    /// The page landed in (or was already in) frame `idx`.
    Resident(usize),
    /// Every frame of the shard was pinned: the page was read into a
    /// transient, uncached buffer instead.
    Transient(Box<[u8]>),
}

struct ShardInner {
    frames: Vec<Frame>,
    map: HashMap<PageId, usize>,
    /// Most recently used frame.
    head: usize,
    /// Least recently used frame.
    tail: usize,
    capacity: usize,
    stats: PoolStats,
    obs: Option<BufferObs>,
    /// The last evicted frame's page buffer, kept for the next fault to
    /// read into so a steady-state miss allocates nothing.
    spare: Option<Box<[u8]>>,
}

struct Shard {
    inner: Mutex<ShardInner>,
}

impl Shard {
    fn lock(&self) -> MutexGuard<'_, ShardInner> {
        // A poisoned lock is recovered: every invariant of `ShardInner`
        // holds between public calls.
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// A sharded page cache in front of a [`Pager`].
///
/// Methods take `&self`: the pool uses interior mutability so that read-only
/// index traversals can fault pages without exclusive access to the tree,
/// and so concurrent sessions and bulk sweep workers can share it. Lock order is
/// always shard → pager; hits take only the shard lock.
pub struct BufferPool {
    shards: Box<[Shard]>,
    pager: Mutex<Pager>,
    page_size: usize,
    capacity: usize,
    /// Copies performed by the copying `read` API (pool-wide; the shard
    /// lock is already released when the copy happens).
    read_copies: AtomicU64,
    /// Pool-wide pager-lock acquisition count.
    shared_locks: AtomicU64,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("capacity", &self.capacity)
            .field("shards", &self.shards.len())
            .field("resident", &self.resident())
            .field("stats", &self.stats())
            .finish()
    }
}

impl BufferPool {
    /// Creates a pool of `capacity` frames over `pager` in one shard (the
    /// historical pool, byte-identical counters included).
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(pager: Pager, capacity: usize) -> Self {
        Self::sharded(pager, capacity, 1)
    }

    /// Creates a pool of `capacity` frames over `pager`, split into
    /// `shards` independently locked shards (clamped to `1..=capacity`).
    /// Pages map to shards by `page_id % shards`, so consecutively
    /// allocated pages round-robin across shards.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn sharded(pager: Pager, capacity: usize, shards: usize) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        let n = shards.clamp(1, capacity);
        let page_size = pager.page_size();
        let shards = (0..n)
            .map(|i| {
                // Distribute frames as evenly as possible; the sum over
                // shards is exactly `capacity`.
                let cap = capacity / n + usize::from(i < capacity % n);
                Shard {
                    inner: Mutex::new(ShardInner {
                        frames: Vec::with_capacity(cap.min(4096)),
                        map: HashMap::new(),
                        head: NIL,
                        tail: NIL,
                        capacity: cap,
                        stats: PoolStats::default(),
                        obs: None,
                        spare: None,
                    }),
                }
            })
            .collect();
        Self {
            shards,
            pager: Mutex::new(pager),
            page_size,
            capacity,
            read_copies: AtomicU64::new(0),
            shared_locks: AtomicU64::new(0),
        }
    }

    /// Installs (or clears) a deterministic fault injector on the underlying
    /// pager. See [`crate::fault::FaultInjector`]; its
    /// [`FaultConfig::retries`](crate::FaultConfig::retries) bounds how often
    /// the pool retries a transient fault.
    pub fn set_fault_injector(&self, injector: Option<Arc<crate::fault::FaultInjector>>) {
        self.lock_pager().set_fault_injector(injector);
    }

    /// Attaches an observability handle: subsequent hits, misses, evictions,
    /// write-backs and prefetches are mirrored into its counters and
    /// evictions emit a [`Event::BufferEvict`]. The counters start from the
    /// attach point — they are deltas, not a copy of [`BufferPool::stats`].
    pub fn attach_obs(&self, obs: BufferObs) {
        for shard in self.shards.iter() {
            shard.lock().obs = Some(obs.clone());
        }
    }

    fn shard_for(&self, id: PageId) -> &Shard {
        &self.shards[(id.0 as usize) % self.shards.len()]
    }

    fn lock_pager(&self) -> MutexGuard<'_, Pager> {
        self.shared_locks.fetch_add(1, Ordering::Relaxed);
        self.pager
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The underlying page size.
    #[must_use]
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of shards the frames are split across.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Allocates a new zero-filled page on the underlying pager.
    pub fn allocate(&self) -> PageId {
        self.lock_pager().allocate()
    }

    /// Allocates a new zero-filled page, surfacing
    /// [`crate::StorageError::DiskFull`] when an installed fault injector's
    /// allocation budget is exhausted. Runtime consumers that can recover
    /// from a full disk (the hybrid queue's spill tier) use this instead of
    /// [`BufferPool::allocate`].
    pub fn try_allocate(&self) -> Result<PageId> {
        self.lock_pager().try_allocate()
    }

    /// Frees a page, dropping any cached copy of it.
    pub fn free(&self, id: PageId) -> Result<()> {
        let mut s = self.shard_for(id).lock();
        if let Some(idx) = s.map.remove(&id) {
            s.discard_frame(idx);
        }
        // Shard stays locked so a racing read cannot re-cache the page
        // between the discard and the pager-level free.
        self.lock_pager().free(id)
    }

    /// Faults `id` into the (locked) shard, evicting if necessary. The
    /// caller has already counted the access; this only performs I/O and
    /// eviction bookkeeping. Returns a transient buffer when every frame is
    /// pinned.
    fn fault(&self, s: &mut ShardInner, id: PageId, prefetched: bool) -> Result<Fetched> {
        let timed = s
            .obs
            .as_ref()
            .is_some_and(|o| o.io_span.is_some())
            .then(std::time::Instant::now);
        let r = self.fault_inner(s, id, prefetched);
        if let (Some(t0), Some(obs)) = (timed, &s.obs) {
            if let Some(span) = &obs.io_span {
                span.record_ns(t0.elapsed().as_nanos() as u64);
            }
        }
        r
    }

    fn fault_inner(&self, s: &mut ShardInner, id: PageId, prefetched: bool) -> Result<Fetched> {
        // `Pager::read` overwrites the whole buffer or fails, so a recycled
        // buffer needs no clearing.
        let mut data = s
            .spare
            .take()
            .unwrap_or_else(|| vec![0u8; self.page_size].into_boxed_slice());
        // One pager-lock acquisition covers the read and any write-back.
        s.stats.shared_lock_acquisitions += 1;
        let mut pager = self.lock_pager();
        if let Err(e) = retrying(&mut s.stats, s.obs.as_ref(), &mut pager, false, |p| {
            p.read(id, &mut data)
        }) {
            s.spare = Some(data);
            return Err(e);
        }
        if s.frames.len() >= s.capacity {
            let Some(victim) = s.pick_victim() else {
                return Ok(Fetched::Transient(data));
            };
            s.evict(victim, &mut pager)?;
            drop(pager);
            s.spare = s.frames[victim].refill(id, data, prefetched);
            s.map.insert(id, victim);
            s.push_front(victim);
            return Ok(Fetched::Resident(victim));
        }
        drop(pager);
        let idx = s.frames.len();
        s.frames.push(Frame::new(id, data, prefetched));
        s.map.insert(id, idx);
        s.push_front(idx);
        Ok(Fetched::Resident(idx))
    }

    /// Reads page `id` through the cache, returning a pinned zero-copy
    /// guard. The shard lock is released before returning, so the guard may
    /// be held for arbitrarily long (the frame just stays ineligible for
    /// eviction).
    pub fn read_guard(&self, id: PageId) -> Result<PageGuard> {
        let mut s = self.shard_for(id).lock();
        if let Some(&idx) = s.map.get(&id) {
            s.on_hit(idx);
            return Ok(s.pin(idx));
        }
        s.on_miss();
        match self.fault(&mut s, id, false)? {
            Fetched::Resident(idx) => Ok(s.pin(idx)),
            Fetched::Transient(data) => Ok(PageGuard {
                data: Arc::new(data),
                pin: None,
            }),
        }
    }

    /// Reads page `id` through the cache, calling `f` with its bytes. No
    /// lock is held while `f` runs and no bytes are copied — `f` borrows
    /// the frame through a pinned guard.
    pub fn with_page<R>(&self, id: PageId, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        let guard = self.read_guard(id)?;
        Ok(f(&guard))
    }

    /// Reads page `id` into `buf` (one full page) through the cache.
    ///
    /// This is the copying API — each call pays a `page_size` memcpy,
    /// counted in [`PoolStats::read_copies`]. Hot paths should prefer
    /// [`BufferPool::read_guard`] / [`BufferPool::with_page`], which don't.
    pub fn read(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        let guard = self.read_guard(id)?;
        self.read_copies.fetch_add(1, Ordering::Relaxed);
        buf.copy_from_slice(&guard);
        Ok(())
    }

    /// Writes page `id` through the cache (write-back: the page is marked
    /// dirty and flushed on eviction or [`BufferPool::flush_all`]). If the
    /// frame is pinned by outstanding guards, the new bytes copy-on-write:
    /// the guards keep their snapshot.
    pub fn write(&self, id: PageId, buf: &[u8]) -> Result<()> {
        self.update(id, |data| data.copy_from_slice(buf))
    }

    /// Modifies page `id` in place through the cache, marking it dirty.
    /// Copy-on-write if the frame is pinned (see [`BufferPool::write`]).
    pub fn update<R>(&self, id: PageId, f: impl FnOnce(&mut [u8]) -> R) -> Result<R> {
        let mut s = self.shard_for(id).lock();
        let idx = if let Some(&idx) = s.map.get(&id) {
            s.on_hit(idx);
            idx
        } else {
            s.on_miss();
            match self.fault(&mut s, id, false)? {
                Fetched::Resident(idx) => idx,
                Fetched::Transient(mut data) => {
                    // Every frame pinned: modify the transient buffer and
                    // write it straight through.
                    let r = f(&mut data);
                    let s = &mut *s;
                    s.stats.shared_lock_acquisitions += 1;
                    let mut pager = self.lock_pager();
                    write_back(&mut s.stats, s.obs.as_ref(), &mut pager, id, &data)?;
                    return Ok(r);
                }
            }
        };
        let frame = &mut s.frames[idx];
        let bytes: &mut Box<[u8]> = Arc::make_mut(&mut frame.data);
        let r = f(bytes);
        frame.dirty = true;
        Ok(r)
    }

    /// Batch prefetch hint: faults absent pages in, counting them as
    /// `prefetch_reads` instead of demand misses. Best-effort — hints for
    /// unknown or freed pages are ignored, resident pages are left alone
    /// (their recency is *not* touched, so hinting never perturbs the
    /// demand hit/miss accounting).
    pub fn prefetch(&self, ids: &[PageId]) {
        for &id in ids {
            let mut s = self.shard_for(id).lock();
            if s.map.contains_key(&id) {
                continue;
            }
            if let Ok(Fetched::Resident(_)) = self.fault(&mut s, id, true) {
                s.stats.prefetch_reads += 1;
                if let Some(obs) = &s.obs {
                    obs.prefetch_reads.inc();
                }
            }
        }
    }

    /// Writes all dirty frames back to the pager.
    pub fn flush_all(&self) -> Result<()> {
        for shard in self.shards.iter() {
            let mut s = shard.lock();
            s.stats.shared_lock_acquisitions += 1;
            let mut pager = self.lock_pager();
            let ShardInner {
                frames, stats, obs, ..
            } = &mut *s;
            for frame in frames.iter_mut().filter(|f| f.dirty) {
                write_back(stats, obs.as_ref(), &mut pager, frame.page, &frame.data)?;
                frame.dirty = false;
            }
        }
        Ok(())
    }

    /// Current pool counters, aggregated over all shards.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        let mut total = PoolStats::default();
        for shard in self.shards.iter() {
            total.absorb(&shard.lock().stats);
        }
        total.read_copies += self.read_copies.load(Ordering::Relaxed);
        total.shared_lock_acquisitions = self.shared_locks.load(Ordering::Relaxed);
        total
    }

    /// Per-shard counters (`read_copies` and `shared_lock_acquisitions` are
    /// pool-wide and reported by [`BufferPool::stats`] only).
    #[must_use]
    pub fn shard_stats(&self) -> Vec<PoolStats> {
        self.shards
            .iter()
            .map(|shard| {
                let mut s = shard.lock().stats;
                s.shared_lock_acquisitions = 0;
                s
            })
            .collect()
    }

    /// Current disk counters of the underlying pager.
    #[must_use]
    pub fn disk_stats(&self) -> crate::DiskStats {
        self.lock_pager().stats()
    }

    /// Resets pool and disk counters.
    pub fn reset_stats(&self) {
        for shard in self.shards.iter() {
            shard.lock().stats = PoolStats::default();
        }
        self.read_copies.store(0, Ordering::Relaxed);
        self.lock_pager().reset_stats();
        self.shared_locks.store(0, Ordering::Relaxed);
    }

    /// Number of frames currently resident.
    #[must_use]
    pub fn resident(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// Number of resident frames currently pinned by outstanding
    /// [`PageGuard`]s. A quiesced pool reads zero; the session service
    /// asserts exactly that after a cursor is cancelled to prove the
    /// dropped engine released every pin.
    #[must_use]
    pub fn pinned_frames(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let inner = s.lock();
                inner
                    .map
                    .values()
                    .filter(|&&idx| inner.frames[idx].pin_count() > 0)
                    .count()
            })
            .sum()
    }

    /// Consumes the pool, flushing dirty pages, and returns the pager.
    pub fn into_pager(self) -> Result<Pager> {
        self.flush_all()?;
        Ok(self
            .pager
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner))
    }

    /// Flushes dirty pages and writes the full disk image to `out`.
    pub fn save_to(
        &self,
        out: &mut impl std::io::Write,
    ) -> std::result::Result<(), crate::PersistError> {
        self.flush_all()?;
        self.lock_pager().save_to(out)
    }
}

/// Runs one device operation under the installed fault schedule's retry
/// budget ([`FaultConfig::retries`](crate::FaultConfig::retries), 0 without
/// an injector). Every failed attempt is counted as a fault; a transient one
/// is retried until the budget is spent, a non-transient one never. A
/// success after retries counts them. A free function over the shard's
/// counters, so a caller may pass a frame's bytes while they are borrowed.
fn retrying(
    stats: &mut PoolStats,
    obs: Option<&BufferObs>,
    pager: &mut Pager,
    write: bool,
    mut op: impl FnMut(&mut Pager) -> Result<()>,
) -> Result<()> {
    let budget = pager.retry_budget();
    let mut failed = 0u32;
    loop {
        match op(pager) {
            Ok(()) => break,
            Err(e) => {
                stats.faults += 1;
                if let Some(obs) = obs {
                    obs.faults.inc();
                    obs.sink.emit(&Event::FaultInjected {
                        write,
                        transient: e.is_transient(),
                    });
                }
                if !e.is_transient() || failed >= budget {
                    return Err(e);
                }
                failed += 1;
            }
        }
    }
    if failed > 0 {
        stats.retries += u64::from(failed);
        if let Some(obs) = obs {
            obs.retries.add(u64::from(failed));
            obs.sink.emit(&Event::RetrySucceeded { retries: failed });
        }
    }
    Ok(())
}

/// Writes `data` to page `id` with [`retrying`] and counts the write-back.
fn write_back(
    stats: &mut PoolStats,
    obs: Option<&BufferObs>,
    pager: &mut Pager,
    id: PageId,
    data: &[u8],
) -> Result<()> {
    retrying(stats, obs, pager, true, |p| p.write(id, data))?;
    stats.writebacks += 1;
    if let Some(obs) = obs {
        obs.writebacks.inc();
    }
    Ok(())
}

impl ShardInner {
    fn on_hit(&mut self, idx: usize) {
        self.stats.hits += 1;
        if let Some(obs) = &self.obs {
            obs.hits.inc();
        }
        if self.frames[idx].prefetched {
            self.frames[idx].prefetched = false;
            self.stats.prefetch_hits += 1;
            if let Some(obs) = &self.obs {
                obs.prefetch_hits.inc();
            }
        }
        if self.head != idx {
            self.unlink(idx);
            self.push_front(idx);
        }
    }

    fn on_miss(&mut self) {
        self.stats.misses += 1;
        if let Some(obs) = &self.obs {
            obs.misses.inc();
        }
    }

    /// Hands out a pinned guard on frame `idx` (called under the shard
    /// lock, so the increment is ordered before any eviction check).
    fn pin(&self, idx: usize) -> PageGuard {
        let frame = &self.frames[idx];
        frame.pins.fetch_add(1, Ordering::Relaxed);
        PageGuard {
            data: Arc::clone(&frame.data),
            pin: Some(Arc::clone(&frame.pins)),
        }
    }

    /// Selects an eviction victim: the least recently used unpinned frame,
    /// walking from the tail towards the head. Without outstanding guards
    /// this is always the tail, the historical pool's choice. `None` when
    /// every frame is pinned.
    fn pick_victim(&self) -> Option<usize> {
        let mut idx = self.tail;
        while idx != NIL {
            if self.frames[idx].pin_count() == 0 {
                return Some(idx);
            }
            idx = self.frames[idx].prev;
        }
        None
    }

    /// Writes frame `victim` back if dirty, then removes it from the
    /// shard's bookkeeping. A failed write-back leaves the frame resident
    /// and dirty. The caller immediately re-fills the frame slot.
    fn evict(&mut self, victim: usize, pager: &mut Pager) -> Result<()> {
        let frame = &self.frames[victim];
        let (old, writeback) = (frame.page, frame.dirty);
        if writeback {
            write_back(&mut self.stats, self.obs.as_ref(), pager, old, &frame.data)?;
        }
        self.unlink(victim);
        self.map.remove(&old);
        self.stats.evictions += 1;
        if let Some(obs) = &self.obs {
            obs.evictions.inc();
            obs.sink.emit(&Event::BufferEvict { writeback });
        }
        Ok(())
    }

    fn push_front(&mut self, idx: usize) {
        self.frames[idx].prev = NIL;
        self.frames[idx].next = self.head;
        if self.head != NIL {
            self.frames[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.frames[idx].prev, self.frames[idx].next);
        if prev != NIL {
            self.frames[prev].next = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NIL {
            self.frames[next].prev = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
        self.frames[idx].prev = NIL;
        self.frames[idx].next = NIL;
    }

    /// Marks a frame as reusable after its page has been freed: it is made
    /// clean, tagged with the invalid page id, and parked at the recency
    /// tail so it becomes the next eviction victim with no write-back.
    fn discard_frame(&mut self, idx: usize) {
        self.frames[idx].dirty = false;
        self.frames[idx].page = PageId::INVALID;
        self.frames[idx].prefetched = false;
        self.unlink(idx);
        self.push_back(idx);
    }

    fn push_back(&mut self, idx: usize) {
        self.frames[idx].next = NIL;
        self.frames[idx].prev = self.tail;
        if self.tail != NIL {
            self.frames[self.tail].next = idx;
        }
        self.tail = idx;
        if self.head == NIL {
            self.head = idx;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(frames: usize) -> (BufferPool, Vec<PageId>) {
        pool_with(frames, 1)
    }

    fn pool_with(frames: usize, shards: usize) -> (BufferPool, Vec<PageId>) {
        let mut pager = Pager::new(8);
        let ids: Vec<PageId> = (0..10).map(|_| pager.allocate()).collect();
        for (i, id) in ids.iter().enumerate() {
            pager.write(*id, &[i as u8; 8]).unwrap();
        }
        pager.reset_stats();
        (BufferPool::sharded(pager, frames, shards), ids)
    }

    #[test]
    fn hit_after_miss() {
        let (pool, ids) = pool(4);
        let mut buf = [0u8; 8];
        pool.read(ids[0], &mut buf).unwrap();
        assert_eq!(buf, [0u8; 8]);
        pool.read(ids[0], &mut buf).unwrap();
        let s = pool.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 1);
    }

    #[test]
    fn lru_eviction_order() {
        let (pool, ids) = pool(2);
        let mut buf = [0u8; 8];
        pool.read(ids[0], &mut buf).unwrap(); // miss
        pool.read(ids[1], &mut buf).unwrap(); // miss
        pool.read(ids[0], &mut buf).unwrap(); // hit; 1 is now LRU
        pool.read(ids[2], &mut buf).unwrap(); // miss, evicts 1
        pool.read(ids[0], &mut buf).unwrap(); // still resident -> hit
        pool.read(ids[1], &mut buf).unwrap(); // evicted -> miss
        let s = pool.stats();
        assert_eq!(s.misses, 4);
        assert_eq!(s.hits, 2);
        assert_eq!(s.evictions, 2);
    }

    #[test]
    fn writeback_on_eviction() {
        let (pool, ids) = pool(1);
        pool.write(ids[0], &[0xAB; 8]).unwrap();
        let mut buf = [0u8; 8];
        pool.read(ids[1], &mut buf).unwrap(); // evicts dirty page 0
        assert_eq!(pool.stats().writebacks, 1);
        pool.read(ids[0], &mut buf).unwrap(); // re-read from disk
        assert_eq!(buf, [0xAB; 8]);
    }

    #[test]
    fn flush_all_persists() {
        let (pool, ids) = pool(4);
        pool.write(ids[3], &[7; 8]).unwrap();
        pool.flush_all().unwrap();
        let mut pager = pool.into_pager().unwrap();
        let mut buf = [0u8; 8];
        pager.read(ids[3], &mut buf).unwrap();
        assert_eq!(buf, [7; 8]);
    }

    #[test]
    fn update_in_place() {
        let (pool, ids) = pool(4);
        pool.update(ids[2], |data| data[0] = 99).unwrap();
        let mut buf = [0u8; 8];
        pool.read(ids[2], &mut buf).unwrap();
        assert_eq!(buf[0], 99);
        assert_eq!(buf[1], 2);
    }

    #[test]
    fn free_drops_cached_copy() {
        let (pool, ids) = pool(4);
        let mut buf = [0u8; 8];
        pool.read(ids[0], &mut buf).unwrap();
        pool.free(ids[0]).unwrap();
        assert!(pool.read(ids[0], &mut buf).is_err());
        // Allocate a fresh page reusing the freed slot; must read as zeroes,
        // not the stale cached frame.
        let id = pool.allocate();
        assert_eq!(id, ids[0]);
        pool.read(id, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 8]);
    }

    #[test]
    fn capacity_one_thrashes() {
        let (pool, ids) = pool(1);
        let mut buf = [0u8; 8];
        for round in 0..3 {
            for id in &ids[..3] {
                pool.read(*id, &mut buf).unwrap();
            }
            let _ = round;
        }
        let s = pool.stats();
        assert_eq!(s.hits, 0, "no reuse distance fits in one frame");
        assert_eq!(s.misses, 9);
    }

    #[test]
    fn working_set_fits_after_warmup() {
        let (pool, ids) = pool(8);
        let mut buf = [0u8; 8];
        for _ in 0..5 {
            for id in &ids[..6] {
                pool.read(*id, &mut buf).unwrap();
            }
        }
        let s = pool.stats();
        assert_eq!(s.misses, 6, "only cold misses");
        assert_eq!(s.hits, 24);
        assert_eq!(s.evictions, 0);
    }

    #[test]
    fn obs_mirrors_stats_and_emits_evictions() {
        use sdj_obs::{ObsContext, RingRecorder};
        let ring = Arc::new(RingRecorder::new(16));
        let ctx = ObsContext::new(ring.clone() as Arc<dyn EventSink>);
        let (pool, ids) = pool(2);
        pool.attach_obs(BufferObs::new(&ctx, "buf"));
        let mut buf = [0u8; 8];
        pool.read(ids[0], &mut buf).unwrap(); // miss
        pool.read(ids[0], &mut buf).unwrap(); // hit
        pool.write(ids[1], &[1; 8]).unwrap(); // miss, dirties ids[1]
        pool.read(ids[2], &mut buf).unwrap(); // miss, evicts clean ids[0]
        pool.read(ids[0], &mut buf).unwrap(); // miss, evicts dirty ids[1]
        let s = pool.stats();
        let snap = ctx.registry.snapshot();
        assert_eq!(snap.counter("buf.hits"), Some(s.hits));
        assert_eq!(snap.counter("buf.misses"), Some(s.misses));
        assert_eq!(snap.counter("buf.evictions"), Some(s.evictions));
        assert_eq!(snap.counter("buf.writebacks"), Some(s.writebacks));
        assert_eq!(s.writebacks, 1);
        let counts = ring.counts();
        assert_eq!(counts.buffer_evict, 2);
        assert_eq!(counts.writebacks, 1);
    }

    #[test]
    fn many_pages_sequential_scan() {
        // A scan over more pages than frames misses every time (LRU worst
        // case), which is the access pattern the hybrid queue's disk tier
        // must tolerate.
        let (pool, ids) = pool(4);
        let mut buf = [0u8; 8];
        for _ in 0..3 {
            for id in &ids {
                pool.read(*id, &mut buf).unwrap();
            }
        }
        assert_eq!(pool.stats().hits, 0);
        assert_eq!(pool.stats().misses, 30);
    }

    // ------------------------------------------------------ fault retries

    #[test]
    fn transient_faults_retried_and_counted() {
        use crate::fault::{FaultConfig, FaultInjector};
        use sdj_obs::{ObsContext, RingRecorder};
        let ring = Arc::new(RingRecorder::new(256));
        let ctx = ObsContext::new(ring.clone() as Arc<dyn EventSink>);
        let (pool, ids) = pool(2);
        pool.attach_obs(BufferObs::new(&ctx, "buf"));
        pool.set_fault_injector(Some(Arc::new(FaultInjector::new(FaultConfig {
            retries: 8,
            ..FaultConfig::transient_only(99, 0.5)
        }))));
        // A scan over more pages than frames: every access is a demand miss
        // plus possible writeback, so plenty of device ops get faulted.
        let mut buf = [0u8; 8];
        for _ in 0..4 {
            for id in &ids {
                pool.read(*id, &mut buf).unwrap();
            }
        }
        let s = pool.stats();
        assert!(s.faults > 0, "expected injected faults, got {s:?}");
        assert_eq!(
            s.retries, s.faults,
            "every transient fault retried exactly once per failure"
        );
        let snap = ctx.registry.snapshot();
        assert_eq!(snap.counter("buf.faults"), Some(s.faults));
        assert_eq!(snap.counter("buf.retries"), Some(s.retries));
        let counts = ring.counts();
        assert_eq!(counts.fault_injected, s.faults);
        assert!(counts.retry_succeeded > 0);
    }

    /// Each of the pool's four device-op sites (a plain fault-in, the
    /// write-back of an evicted dirty frame, `flush_all`, and the
    /// write-through of an update into a fully pinned shard) spends the
    /// schedule's retry budget: one retry absorbs one transient fault, and
    /// no budget surfaces it.
    #[test]
    fn every_retry_site_spends_the_schedules_budget() {
        use crate::fault::{FaultConfig, FaultInjector};
        type Site = fn(&BufferPool, &[PageId]) -> Result<()>;
        // (site, frames, the op, whether the faulted op is a read)
        let sites: [(&str, usize, Site, bool); 4] = [
            ("fault-in", 2, |p, ids| p.read(ids[1], &mut [0; 8]), true),
            (
                "dirty eviction",
                1,
                |p, ids| p.read(ids[1], &mut [0; 8]),
                false,
            ),
            ("flush_all", 4, |p, _| p.flush_all(), false),
            (
                "update into a fully pinned shard",
                1,
                |p, ids| {
                    let _guard = p.read_guard(ids[0])?;
                    p.update(ids[1], |d| d[0] = 0xEE)
                },
                false,
            ),
        ];
        let mut buf = [0u8; 8];
        for (name, frames, site, read) in sites {
            for retries in [0, 1] {
                let (pool, ids) = pool(frames);
                // Dirty page 0 before the schedule starts counting.
                pool.write(ids[0], &[0xAB; 8]).unwrap();
                pool.reset_stats();
                pool.set_fault_injector(Some(Arc::new(FaultInjector::new(FaultConfig {
                    fail_read_nth: read.then_some(1),
                    fail_write_nth: (!read).then_some(1),
                    retries,
                    ..FaultConfig::default()
                }))));
                let got = site(&pool, &ids);
                let s = pool.stats();
                let want = if retries == 0 {
                    Err(crate::StorageError::Io { transient: true })
                } else {
                    Ok(())
                };
                assert_eq!(got, want, "{name} at retries {retries}");
                assert_eq!((s.faults, s.retries), (1, u64::from(retries)), "{name}");
                // Nothing was lost: the dirty page still reads back.
                pool.set_fault_injector(None);
                pool.read(ids[0], &mut buf).unwrap();
                assert_eq!(buf, [0xAB; 8], "{name} at retries {retries}");
            }
        }
    }

    // ------------------------------------------------------ guards, shards

    #[test]
    fn warm_guard_reads_share_the_frame_and_copy_nothing() {
        let (pool, ids) = pool(4);
        let g1 = pool.read_guard(ids[0]).unwrap(); // miss
        let g2 = pool.read_guard(ids[0]).unwrap(); // hit
                                                   // Same frame bytes, not copies of them.
        assert_eq!(g1.as_ptr(), g2.as_ptr());
        assert_eq!(&*g1, &[0u8; 8]);
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.read_copies, 0, "guard path must not copy page bytes");
        // The copying API is the one that pays (and counts) the memcpy.
        let mut buf = [0u8; 8];
        pool.read(ids[0], &mut buf).unwrap();
        assert_eq!(pool.stats().read_copies, 1);
    }

    #[test]
    fn pinned_page_survives_eviction_pressure() {
        let (pool, ids) = pool(2);
        let guard = pool.read_guard(ids[0]).unwrap();
        let mut buf = [0u8; 8];
        for id in &ids[1..6] {
            pool.read(*id, &mut buf).unwrap();
        }
        // Five pages churned through the other frame; the pinned page never
        // left the pool.
        pool.read(ids[0], &mut buf).unwrap();
        let s = pool.stats();
        assert_eq!(s.misses, 6, "pinned page faulted only once");
        assert_eq!(&*guard, &[0u8; 8]);
    }

    #[test]
    fn all_frames_pinned_falls_back_to_transient_reads() {
        let (pool, ids) = pool(1);
        let guard = pool.read_guard(ids[0]).unwrap();
        assert!(guard.is_pinned());
        let transient = pool.read_guard(ids[1]).unwrap();
        assert!(!transient.is_pinned());
        assert_eq!(&*transient, &[1u8; 8]);
        assert_eq!(&*guard, &[0u8; 8]);
        assert_eq!(pool.resident(), 1, "transient reads are not cached");
        assert_eq!(pool.stats().misses, 2);
        // Updates against a fully pinned shard write through.
        pool.update(ids[2], |d| d[0] = 0xEE).unwrap();
        drop(guard);
        let mut buf = [0u8; 8];
        pool.read(ids[2], &mut buf).unwrap();
        assert_eq!(buf[0], 0xEE);
    }

    #[test]
    fn writes_to_pinned_pages_keep_the_guard_snapshot() {
        let (pool, ids) = pool(4);
        let guard = pool.read_guard(ids[0]).unwrap();
        pool.write(ids[0], &[0x55; 8]).unwrap();
        // The guard still sees its acquisition-time snapshot...
        assert_eq!(&*guard, &[0u8; 8]);
        // ...while new readers see the write.
        let fresh = pool.read_guard(ids[0]).unwrap();
        assert_eq!(&*fresh, &[0x55; 8]);
    }

    #[test]
    fn sharded_pool_aggregates_shard_stats() {
        let (pool, ids) = pool_with(8, 4);
        assert_eq!(pool.shard_count(), 4);
        let mut buf = [0u8; 8];
        for id in &ids {
            pool.read(*id, &mut buf).unwrap();
        }
        for id in &ids {
            pool.read(*id, &mut buf).unwrap();
        }
        let total = pool.stats();
        assert_eq!(total.misses + total.hits, 20);
        assert!(total.misses >= 10, "all ten pages are cold at least once");
        let per_shard = pool.shard_stats();
        assert_eq!(per_shard.len(), 4);
        assert_eq!(per_shard.iter().map(|s| s.accesses()).sum::<u64>(), 20);
        // Sequentially allocated pages round-robin across shards.
        assert!(per_shard.iter().all(|s| s.accesses() > 0));
    }

    #[test]
    fn prefetch_converts_demand_misses_into_hits() {
        let (pool, ids) = pool(4);
        pool.prefetch(&[ids[0], ids[1]]);
        let s = pool.stats();
        assert_eq!(s.prefetch_reads, 2);
        assert_eq!(
            (s.hits, s.misses),
            (0, 0),
            "prefetch is not a demand access"
        );
        let mut buf = [0u8; 8];
        pool.read(ids[0], &mut buf).unwrap();
        pool.read(ids[1], &mut buf).unwrap();
        pool.read(ids[0], &mut buf).unwrap();
        let s = pool.stats();
        assert_eq!(s.misses, 0);
        assert_eq!(s.hits, 3);
        assert_eq!(
            s.prefetch_hits, 2,
            "first demand access per prefetched page"
        );
        // Hints for resident or bogus pages are ignored.
        pool.prefetch(&[ids[0], PageId(9999)]);
        assert_eq!(pool.stats().prefetch_reads, 2);
    }

    #[test]
    fn hits_take_no_shared_lock() {
        let (pool, ids) = pool_with(8, 2);
        let mut buf = [0u8; 8];
        for id in &ids[..4] {
            pool.read(*id, &mut buf).unwrap();
        }
        let faults = pool.stats().shared_lock_acquisitions;
        for _ in 0..10 {
            for id in &ids[..4] {
                pool.read(*id, &mut buf).unwrap();
            }
        }
        let s = pool.stats();
        assert_eq!(s.hits, 40);
        assert_eq!(
            s.shared_lock_acquisitions, faults,
            "warm reads must never touch the pool-wide pager lock"
        );
    }
}
