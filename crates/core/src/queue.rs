//! The join's priority queue: one facade over three backends, tracking the
//! paper's "maximum queue size" measure plus the queue's resident bytes.
//!
//! The [`crate::config::QueueBackend`] axis picks the paper's structure
//! (in-memory heap vs the §3.2 hybrid memory/disk scheme). The memory
//! backend's heap is picked by [`QueueLayout`]: under
//! [`QueueLayout::FlatDary`], the default, pairs are stored as 8-byte
//! [`PackedPair`] handles into a shared [`ItemArena`], carried inline in the
//! entries of a flat 4-ary implicit heap ([`sdj_pqueue::FlatHeap`]);
//! [`QueueLayout::Pairing`] keeps the paper's pairing heap over fat pairs.
//! The hybrid backend stores the same handles: its in-memory tiers are a
//! flat heap, and its spill pages carry one record format — key, handle and
//! slot. All three backends realise the same `(key, arrival)` total order,
//! so result streams are bit-identical across them.
//!
//! Every entry also carries a `u32` *slot*: the §2.2.4 estimator's bucket
//! that its pair's count went to when it was offered to `M`
//! (`crate::estimate::Estimator::offer`), or `NO_SLOT`. The queue never
//! reads it; it stores it next to the payload, spills and reloads it with
//! the entry, and hands it back at the pop, so the estimator takes the
//! popped pair's count out of the right bucket without a lookup. Under the
//! flat layout that makes the inline value 12 bytes.
//!
//! The flat backends keep the last popped pair's arena references until the
//! next [`JoinQueue::push_batch`] (or pop): the expansion that follows a pop
//! pushes children that repeat its unexpanded item, which then takes a
//! reference-count bump on its live slot instead of being freed at the pop
//! and interned again by the push.

use std::sync::Arc;

use sdj_obs::Gauge;
use sdj_pqueue::{Codec, FlatHeap, HybridQueue, PairingHeap};
use sdj_storage::codec::{PageReader, PageWriter};
use sdj_storage::DiskStats;

use crate::config::{QueueBackend, QueueLayout};
use crate::estimate::NO_SLOT;
use crate::pair::{ItemId, Pair, PairKey};
use crate::slab::{ItemArena, PackedPair};

/// The hybrid backend's queue: spill records are a 9-byte key, an 8-byte
/// pair handle and a 4-byte estimator slot.
type SpillQueue = HybridQueue<PairKey, Slotted<PackedPair>>;

/// The smallest hybrid `page_size` that holds one spill record.
pub(crate) const MIN_SPILL_PAGE: usize = SpillQueue::MIN_PAGE_SIZE;

/// A queued payload with its pair's estimator slot (see the module docs).
#[derive(Clone, Copy, Debug)]
struct Slotted<V> {
    value: V,
    slot: u32,
}

impl<V: Codec> Codec for Slotted<V> {
    const ENCODED_SIZE: usize = V::ENCODED_SIZE + 4;

    fn encode(&self, w: &mut PageWriter<'_>) -> sdj_storage::Result<()> {
        self.value.encode(w)?;
        w.put_u32(self.slot)
    }

    fn decode(r: &mut PageReader<'_>) -> sdj_storage::Result<Self> {
        Ok(Self {
            value: V::decode(r)?,
            slot: r.get_u32()?,
        })
    }
}

/// A queued entry as [`JoinQueue::discard`]'s predicate sees it.
pub(crate) struct Queued<'q, const D: usize> {
    slot: u32,
    pair: QueuedPair<'q, D>,
}

/// Where a [`Queued`] entry's pair lives.
enum QueuedPair<'q, const D: usize> {
    Fat(&'q Pair<D>),
    Packed(&'q ItemArena<D>, PackedPair),
}

impl<const D: usize> Queued<'_, D> {
    /// The entry's estimator slot.
    pub(crate) fn slot(&self) -> u32 {
        self.slot
    }

    /// The entry's pair, resolved from the arena under the flat layout.
    pub(crate) fn pair(&self) -> Pair<D> {
        match self.pair {
            QueuedPair::Fat(pair) => *pair,
            QueuedPair::Packed(arena, packed) => arena.resolve_pair(packed),
        }
    }

    /// The first item's identity. The flat layout decodes it from the
    /// arena's key column ([`ItemArena::identity`]) without reading the
    /// fat item.
    pub(crate) fn item1_id(&self) -> ItemId {
        match self.pair {
            QueuedPair::Fat(pair) => pair.item1.identity(),
            QueuedPair::Packed(arena, packed) => arena.identity(packed.i1),
        }
    }
}

/// The backing structure: the memory backend in either layout, or the
/// hybrid backend.
enum Backend<const D: usize> {
    /// In-memory pairing heap over fat pairs.
    Pairing(PairingHeap<PairKey, Slotted<Pair<D>>>),
    /// In-memory flat 4-ary heap over compact pair handles, with the fat
    /// items interned once each in the arena.
    Flat {
        heap: FlatHeap<PairKey, Slotted<PackedPair>>,
        arena: ItemArena<D>,
    },
    /// Hybrid three-tier queue over compact pair handles. Spilled handles
    /// keep their items pinned in the arena (references bracket the full
    /// push..pop window), so reloads never re-intern.
    Hybrid {
        queue: Box<SpillQueue>,
        arena: ItemArena<D>,
    },
}

/// Priority queue of pairs; see the module docs for the three backends.
pub struct JoinQueue<const D: usize> {
    backend: Backend<D>,
    /// Flat backends: the arena references of the last popped pair, released
    /// by the next `push_batch` or pop (see the module docs).
    held: Option<PackedPair>,
    /// Flat memory layout: the interned batch, reused across flushes.
    staged: Vec<(PairKey, Slotted<PackedPair>)>,
    /// `pq.bytes` gauge (registered by [`attach_obs`](Self::attach_obs) for
    /// every backend), published from [`queue_bytes`](Self::queue_bytes).
    bytes_gauge: Option<Arc<Gauge>>,
    /// `pq.slab_live` / `pq.slab_recycled` gauges (flat backends only).
    slab_gauges: Option<(Arc<Gauge>, Arc<Gauge>)>,
}

impl<const D: usize> JoinQueue<D> {
    /// Creates the queue selected by `backend`, with keys in `keys`'s
    /// domain. `layout` picks the memory backend's heap; the hybrid backend
    /// always runs the flat layout ([`crate::JoinConfig::validate`] refuses
    /// it any other). The hybrid backend's `D_T` is expressed in distance
    /// units; its tier boundaries are mapped into `keys`'s domain, so the
    /// same config tiers identically under squared and plain keys.
    #[must_use]
    pub fn new(backend: &QueueBackend, layout: QueueLayout, keys: sdj_geom::KeySpace) -> Self {
        let backend = match (backend, layout) {
            (QueueBackend::Memory, QueueLayout::Pairing) => Backend::Pairing(PairingHeap::new()),
            (QueueBackend::Memory, QueueLayout::FlatDary) => Backend::Flat {
                heap: FlatHeap::new(),
                arena: ItemArena::new(),
            },
            (QueueBackend::Hybrid(config), _) => Backend::Hybrid {
                queue: Box::new(HybridQueue::new(config.with_keys(keys))),
                arena: ItemArena::new(),
            },
        };
        Self {
            backend,
            held: None,
            staged: Vec::new(),
            bytes_gauge: None,
            slab_gauges: None,
        }
    }

    /// Inserts a pair that holds no estimator slot. The memory backends
    /// are infallible; the hybrid backends surface disk faults (transient
    /// I/O, disk-full, corruption).
    pub fn push(&mut self, key: PairKey, pair: Pair<D>) -> sdj_storage::Result<()> {
        self.push_slotted(key, pair, NO_SLOT)
    }

    /// Inserts a pair with its estimator slot, handed back by
    /// [`pop_slotted`](Self::pop_slotted).
    pub(crate) fn push_slotted(
        &mut self,
        key: PairKey,
        pair: Pair<D>,
        slot: u32,
    ) -> sdj_storage::Result<()> {
        match &mut self.backend {
            Backend::Pairing(q) => {
                q.push(key, Slotted { value: pair, slot });
                Ok(())
            }
            Backend::Flat { heap, arena } => {
                let value = arena.intern_pair(&pair)?;
                heap.push(key, Slotted { value, slot });
                Ok(())
            }
            Backend::Hybrid { queue, arena } => {
                let value = arena.intern_pair(&pair)?;
                match queue.push(key, Slotted { value, slot }) {
                    Ok(()) => Ok(()),
                    Err(e) => {
                        // The pair never entered the queue; its references
                        // must not pin the arena.
                        arena.release_pair(value);
                        Err(e)
                    }
                }
            }
        }
    }

    /// Inserts a batch of `(key, pair, slot)` entries, then releases the
    /// held popped pair (see the module docs). The memory backends grow
    /// their storage at most once for the whole batch; the hybrid backend
    /// pushes per element (tiering decisions are per-element anyway) and stop
    /// at the first storage error, dropping the rest of the batch — callers
    /// abort the join on `Err`, so the partial state is never observed as
    /// output.
    pub fn push_batch<I>(&mut self, batch: I) -> sdj_storage::Result<()>
    where
        I: IntoIterator<Item = (PairKey, Pair<D>, u32)>,
    {
        let pushed = match &mut self.backend {
            Backend::Pairing(q) => {
                q.push_batch(
                    batch
                        .into_iter()
                        .map(|(key, value, slot)| (key, Slotted { value, slot })),
                );
                Ok(())
            }
            Backend::Flat { heap, arena } => {
                // Intern the whole batch before handing it to the heap so a
                // mid-batch slot exhaustion releases every staged reference
                // and leaves the queue unchanged.
                let staged = &mut self.staged;
                let interned = batch.into_iter().try_for_each(|(key, pair, slot)| {
                    let value = arena.intern_pair(&pair)?;
                    staged.push((key, Slotted { value, slot }));
                    Ok(())
                });
                if interned.is_ok() {
                    heap.push_batch(staged.drain(..));
                } else {
                    for (_, entry) in staged.drain(..) {
                        arena.release_pair(entry.value);
                    }
                }
                interned
            }
            Backend::Hybrid { .. } => batch
                .into_iter()
                .try_for_each(|(key, pair, slot)| self.push_slotted(key, pair, slot)),
        };
        self.release_held();
        pushed
    }

    /// Drops the held popped pair's arena references, if any.
    fn release_held(&mut self) {
        if let Some(packed) = self.held.take() {
            if let Backend::Flat { arena, .. } | Backend::Hybrid { arena, .. } = &mut self.backend {
                arena.release_pair(packed);
            }
        }
    }

    /// Drains every queued `(key, pair, slot)` entry in arbitrary order,
    /// visiting each exactly once, and leaves the queue empty. The flat
    /// memory backend walks its entry arrays directly, resolving interned
    /// slab payloads in place — no per-pop sifting and no fat-pair staging
    /// — which is what the adaptive handoff wants: the whole frontier,
    /// order discarded. The pairing backend pop-drains (its entries are
    /// pointer-linked), and the hybrid backend pop-drains too because
    /// spilled tiers must be reloaded through the ordered path anyway;
    /// those pops surface storage errors.
    pub fn drain_unordered(
        &mut self,
        mut visit: impl FnMut(PairKey, Pair<D>, u32),
    ) -> sdj_storage::Result<()> {
        self.release_held();
        if matches!(self.backend, Backend::Hybrid { .. }) {
            while let Some((key, pair, slot)) = self.pop_slotted()? {
                visit(key, pair, slot);
            }
            return Ok(());
        }
        match &mut self.backend {
            Backend::Pairing(q) => {
                while let Some((key, entry)) = q.pop() {
                    visit(key, entry.value, entry.slot);
                }
            }
            Backend::Flat { heap, arena } => {
                heap.drain_unordered(|key, entry| {
                    let pair = arena.resolve_pair(entry.value);
                    arena.release_pair(entry.value);
                    visit(key, pair, entry.slot);
                });
            }
            Backend::Hybrid { .. } => unreachable!(),
        }
        Ok(())
    }

    /// Drops every queued entry `keep` refuses and returns how many went.
    /// `keep` sees each entry's key and a [`Queued`] view that reads the
    /// first item's identity or the whole pair only when asked, so a
    /// key-only test touches no arena slot. The
    /// flat layout releases the dropped pairs' arena references. The
    /// survivors pop in the order they would have anyway (see
    /// [`FlatHeap::retain`]). The hybrid backend keeps everything and
    /// returns 0: it bounds resident memory by spilling instead.
    pub(crate) fn discard(
        &mut self,
        mut keep: impl FnMut(&PairKey, &Queued<'_, D>) -> bool,
    ) -> usize {
        match &mut self.backend {
            Backend::Pairing(q) => q.retain(
                |key, entry| {
                    let queued = Queued {
                        slot: entry.slot,
                        pair: QueuedPair::Fat(&entry.value),
                    };
                    keep(key, &queued)
                },
                |_| {},
            ),
            // `retain` asks `keep` exactly once per entry, so the release
            // happens there: `keep` already holds the arena to resolve from.
            Backend::Flat { heap, arena } => heap.retain(
                |key, entry| {
                    let queued = Queued {
                        slot: entry.slot,
                        pair: QueuedPair::Packed(arena, entry.value),
                    };
                    let kept = keep(key, &queued);
                    if !kept {
                        arena.release_pair(entry.value);
                    }
                    kept
                },
                |_| {},
            ),
            Backend::Hybrid { .. } => 0,
        }
    }

    /// Removes the minimum pair, dropping its estimator slot.
    pub fn pop(&mut self) -> sdj_storage::Result<Option<(PairKey, Pair<D>)>> {
        Ok(self.pop_slotted()?.map(|(key, pair, _)| (key, pair)))
    }

    /// Removes the minimum pair with the slot it was pushed with. Under the
    /// flat backends the pair's arena references are held until the next
    /// `push_batch` or pop.
    pub(crate) fn pop_slotted(&mut self) -> sdj_storage::Result<Option<(PairKey, Pair<D>, u32)>> {
        self.release_held();
        let (popped, arena) = match &mut self.backend {
            Backend::Pairing(q) => {
                return Ok(q.pop().map(|(key, entry)| (key, entry.value, entry.slot)))
            }
            Backend::Flat { heap, arena } => (heap.pop(), arena),
            Backend::Hybrid { queue, arena } => (queue.pop()?, arena),
        };
        Ok(popped.map(|(key, entry)| {
            self.held = Some(entry.value);
            (key, arena.resolve_pair(entry.value), entry.slot)
        }))
    }

    /// The minimum key (may promote spilled elements in the hybrid case).
    pub fn peek_key(&mut self) -> sdj_storage::Result<Option<PairKey>> {
        match &mut self.backend {
            Backend::Pairing(q) => Ok(q.peek().copied()),
            Backend::Flat { heap, .. } => Ok(heap.peek()),
            Backend::Hybrid { queue, .. } => queue.peek_key(),
        }
    }

    /// Current length.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.backend {
            Backend::Pairing(q) => q.len(),
            Backend::Flat { heap, .. } => heap.len(),
            Backend::Hybrid { queue, .. } => queue.len(),
        }
    }

    /// True if empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime high-water mark of the length.
    #[must_use]
    pub fn max_len(&self) -> usize {
        match &self.backend {
            Backend::Pairing(q) => q.max_len(),
            Backend::Flat { heap, .. } => heap.max_len(),
            Backend::Hybrid { queue, .. } => queue.max_len(),
        }
    }

    /// Approximate resident bytes of the queue: heap/entry storage at
    /// capacity, plus (flat backends) the item arena and (hybrid backend)
    /// the spill buffer pool.
    #[must_use]
    pub fn queue_bytes(&self) -> usize {
        match &self.backend {
            Backend::Pairing(q) => q.approx_bytes(),
            Backend::Flat { heap, arena } => heap.approx_bytes() + arena.approx_bytes(),
            Backend::Hybrid { queue, arena } => queue.approx_bytes() + arena.approx_bytes(),
        }
    }

    /// Item-arena occupancy for the flat backends: `(live distinct items,
    /// lifetime high-water, recycled allocations)`. `None` under the
    /// pairing layout, which has no arena.
    #[must_use]
    pub fn slab_stats(&self) -> Option<(usize, usize, u64)> {
        match &self.backend {
            Backend::Pairing(_) => None,
            Backend::Flat { arena, .. } | Backend::Hybrid { arena, .. } => {
                Some((arena.live(), arena.high_water(), arena.recycled()))
            }
        }
    }

    /// Visits up to `limit` entries near the head of the queue (see
    /// [`PairingHeap::peek_top`]): the minimum first, then subtree minima in
    /// breadth-first order. Memory backends only — the hybrid backend's head
    /// tier is reorganised on access, so peeking it is not side-effect-free;
    /// it simply gets no prefetch hints. The flat layout materialises each
    /// visited pair from the arena.
    pub fn peek_top(&self, limit: usize, mut visit: impl FnMut(&PairKey, &Pair<D>)) {
        match &self.backend {
            Backend::Pairing(q) => q.peek_top(limit, |key, entry| visit(key, &entry.value)),
            Backend::Flat { heap, arena } => {
                heap.peek_top(limit, |key, entry| {
                    visit(&key, &arena.resolve_pair(entry.value));
                });
            }
            Backend::Hybrid { .. } => {}
        }
    }

    /// Disk traffic of the hybrid backend (zeros for the memory backends).
    #[must_use]
    pub fn disk_stats(&self) -> DiskStats {
        match &self.backend {
            Backend::Pairing(_) | Backend::Flat { .. } => DiskStats::default(),
            Backend::Hybrid { queue, .. } => queue.disk_stats(),
        }
    }

    /// Tiering information for the hybrid backend: `(tier stats, in-memory
    /// element peak)`. `None` for the memory backends.
    #[must_use]
    pub fn hybrid_info(&self) -> Option<(sdj_pqueue::HybridStats, usize)> {
        match &self.backend {
            Backend::Pairing(_) | Backend::Flat { .. } => None,
            Backend::Hybrid { queue, .. } => Some((queue.stats(), queue.in_memory_peak())),
        }
    }

    /// Attaches a fault injector to the hybrid backend's simulated disk.
    /// No-op for the memory backends, which never touch storage.
    pub fn set_fault_injector(
        &mut self,
        injector: Option<std::sync::Arc<sdj_storage::FaultInjector>>,
    ) {
        match &mut self.backend {
            Backend::Pairing(_) | Backend::Flat { .. } => {}
            Backend::Hybrid { queue, .. } => queue.set_fault_injector(injector),
        }
    }

    /// Buffer-pool fault/retry counters of the hybrid backend (zeros for
    /// the memory backends).
    #[must_use]
    pub fn pool_stats(&self) -> sdj_storage::PoolStats {
        match &self.backend {
            Backend::Pairing(_) | Backend::Flat { .. } => sdj_storage::PoolStats::default(),
            Backend::Hybrid { queue, .. } => queue.pool_stats(),
        }
    }

    /// Attaches observability: the `pq.bytes` gauge is registered for every
    /// backend (and `pq.slab_live`/`pq.slab_recycled` for the flat backends),
    /// for the join to publish through
    /// [`publish_gauges`](Self::publish_gauges); the hybrid backend
    /// additionally emits tier migrations to the context's sink and registers
    /// the `pq.tier.*` occupancy gauges.
    pub fn attach_obs(&mut self, ctx: &sdj_obs::ObsContext) {
        self.attach_obs_prefixed(ctx, "");
    }

    /// [`attach_obs`](Self::attach_obs) with every gauge name prefixed —
    /// `{prefix}pq.bytes`, `{prefix}pq.slab_*`, `{prefix}pq.tier.*` — so a
    /// multi-session server can attribute each cursor's queue occupancy
    /// separately (`session.<id>.` prefixes) in one shared registry.
    pub fn attach_obs_prefixed(&mut self, ctx: &sdj_obs::ObsContext, prefix: &str) {
        self.bytes_gauge = Some(ctx.registry.gauge(&format!("{prefix}pq.bytes")));
        if self.slab_stats().is_some() {
            self.slab_gauges = Some((
                ctx.registry.gauge(&format!("{prefix}pq.slab_live")),
                ctx.registry.gauge(&format!("{prefix}pq.slab_recycled")),
            ));
        }
        if let Backend::Hybrid { queue, .. } = &mut self.backend {
            let gauges = sdj_pqueue::TierGauges::register_prefixed(&ctx.registry, prefix);
            queue.attach_obs(Arc::clone(&ctx.sink), Some(gauges));
            if let (Some(spill), Some(reload)) = (
                sdj_obs::LeafSpan::from_context(ctx, sdj_obs::Phase::Spill),
                sdj_obs::LeafSpan::from_context(ctx, sdj_obs::Phase::Reload),
            ) {
                queue.attach_spans(spill, reload);
            }
        }
    }

    /// Publishes `bytes` and its high-water mark `bytes_peak` (samples the
    /// join takes of [`queue_bytes`](Self::queue_bytes)) and the arena's
    /// occupancy to the gauges registered by
    /// [`attach_obs`](Self::attach_obs); no-op when uninstrumented. The join
    /// calls this at its publish points, not per insertion.
    pub(crate) fn publish_gauges(&self, bytes: usize, bytes_peak: usize) {
        let gauge = |v: usize| i64::try_from(v).unwrap_or(i64::MAX);
        if let Some(g) = &self.bytes_gauge {
            g.publish(gauge(bytes), gauge(bytes_peak));
        }
        if let (Some((live, recycled)), Some((l, high_water, r))) =
            (&self.slab_gauges, self.slab_stats())
        {
            live.publish(gauge(l), gauge(high_water));
            recycled.set(i64::try_from(r).unwrap_or(i64::MAX));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pair::{Item, TiePolicy};
    use proptest::prelude::*;
    use sdj_geom::Rect;
    use sdj_pqueue::HybridConfig;
    use sdj_rtree::ObjectId;

    fn pair(oid: u64) -> Pair<2> {
        let item = Item::Obr {
            oid: ObjectId(oid),
            mbr: Rect::new([0.0, 0.0], [0.0, 0.0]),
        };
        Pair::new(item, item)
    }

    fn keyspace() -> sdj_geom::KeySpace {
        sdj_geom::KeySpace::plain(sdj_geom::Metric::Euclidean)
    }

    #[test]
    fn both_backends_agree() {
        let mut mem = JoinQueue::<2>::new(&QueueBackend::Memory, QueueLayout::Pairing, keyspace());
        let mut hyb = JoinQueue::<2>::new(
            &QueueBackend::Hybrid(HybridConfig::with_dt(1.0)),
            QueueLayout::FlatDary,
            keyspace(),
        );
        for (i, d) in [3.0, 0.5, 7.25, 1.5, 4.0].iter().enumerate() {
            let p = pair(i as u64);
            let k = PairKey::new(*d, &p, TiePolicy::DepthFirst);
            mem.push(k, p).unwrap();
            hyb.push(k, p).unwrap();
        }
        assert_eq!(mem.len(), hyb.len());
        loop {
            let a = mem.pop().unwrap();
            let b = hyb.pop().unwrap();
            assert_eq!(a.map(|(k, _)| k), b.map(|(k, _)| k));
            if a.is_none() {
                break;
            }
        }
        assert_eq!(mem.max_len(), 5);
        assert_eq!(hyb.max_len(), 5);
    }

    #[test]
    fn layouts_pop_identical_pairs() {
        let mut fat = JoinQueue::<2>::new(&QueueBackend::Memory, QueueLayout::Pairing, keyspace());
        let mut flat =
            JoinQueue::<2>::new(&QueueBackend::Memory, QueueLayout::FlatDary, keyspace());
        // Repeated distances exercise the FIFO tie rule; repeated oids
        // exercise arena sharing.
        for (i, d) in [3.0, 0.5, 3.0, 1.5, 0.5, 3.0].iter().enumerate() {
            let p = pair((i % 3) as u64);
            let k = PairKey::new(*d, &p, TiePolicy::DepthFirst);
            fat.push(k, p).unwrap();
            flat.push(k, p).unwrap();
        }
        assert!(flat.slab_stats().is_some());
        assert!(fat.slab_stats().is_none());
        loop {
            let a = fat.pop().unwrap();
            let b = flat.pop().unwrap();
            assert_eq!(a, b, "pop streams must be identical across layouts");
            if a.is_none() {
                break;
            }
        }
        let (live, high, _) = flat.slab_stats().unwrap();
        assert_eq!(live, 0, "all arena references released");
        assert!(high <= 6, "at most one slot per distinct queued item side");
    }

    #[test]
    fn hybrid_pops_like_the_pairing_heap_across_spill() {
        let mut fat = JoinQueue::<2>::new(&QueueBackend::Memory, QueueLayout::Pairing, keyspace());
        let mut hybrid = JoinQueue::<2>::new(
            &QueueBackend::Hybrid(HybridConfig::with_dt(0.5)),
            QueueLayout::FlatDary,
            keyspace(),
        );
        for i in 0..200u64 {
            let p = pair(i % 7);
            let d = f64::from(u32::try_from(i).unwrap()) * 0.17;
            let k = PairKey::new(d, &p, TiePolicy::DepthFirst);
            fat.push(k, p).unwrap();
            hybrid.push(k, p).unwrap();
        }
        assert!(hybrid.hybrid_info().unwrap().0.spilled > 0);
        let mut popped = 0;
        loop {
            let a = fat.pop().unwrap();
            let b = hybrid.pop().unwrap();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
            popped += 1;
        }
        assert_eq!(popped, 200);
        let (live, _, _) = hybrid.slab_stats().unwrap();
        assert_eq!(live, 0);
    }

    #[test]
    fn flat_layout_reports_fewer_bytes() {
        let mut fat = JoinQueue::<2>::new(&QueueBackend::Memory, QueueLayout::Pairing, keyspace());
        let mut flat =
            JoinQueue::<2>::new(&QueueBackend::Memory, QueueLayout::FlatDary, keyspace());
        // One shared obr on each side — the expansion-shaped workload the
        // arena is built for.
        for i in 0..10_000u64 {
            let p = Pair::new(
                Item::Obr {
                    oid: ObjectId(i % 97),
                    mbr: Rect::new([0.0, 0.0], [0.0, 0.0]),
                },
                Item::Obr {
                    oid: ObjectId(i % 89),
                    mbr: Rect::new([0.0, 0.0], [0.0, 0.0]),
                },
            );
            let k = PairKey::new(
                f64::from(u32::try_from(i).unwrap()),
                &p,
                TiePolicy::DepthFirst,
            );
            fat.push(k, p).unwrap();
            flat.push(k, p).unwrap();
        }
        let (fat_bytes, flat_bytes) = (fat.queue_bytes(), flat.queue_bytes());
        assert!(
            flat_bytes * 2 <= fat_bytes,
            "flat layout should at least halve queue bytes: flat={flat_bytes} fat={fat_bytes}"
        );
    }

    /// Item `i` of one side's small pool: nodes, obrs and exact objects,
    /// with small and huge ids, so generated batches repeat items and span
    /// every arena kind and both of its slot indexes.
    fn pool_item(i: u8) -> Item<2> {
        let x = f64::from(i);
        let mbr = Rect::new([x, 0.0], [x + 1.0, 1.0]);
        let id = u64::from(i) + if i.is_multiple_of(2) { 0 } else { 1 << 40 };
        match i % 3 {
            0 => Item::Node {
                page: id,
                level: i % 2,
                mbr,
            },
            1 => Item::Obr {
                oid: ObjectId(id),
                mbr,
            },
            _ => Item::Object {
                oid: ObjectId(id),
                mbr,
            },
        }
    }

    /// A drained queue as a sorted multiset (drain order is unspecified).
    fn drained(q: &mut JoinQueue<2>) -> Vec<String> {
        let mut out = Vec::new();
        q.drain_unordered(|k, p, slot| out.push(format!("{k:?} {p:?} {slot}")))
            .unwrap();
        out.sort();
        out
    }

    /// Every backend hands each entry's slot back exactly as it was pushed
    /// — one at a time or in a batch, through pops, an unordered drain and,
    /// on the hybrid backend, a spill to disk and a reload.
    #[test]
    fn slots_round_trip_on_every_backend() {
        let backends = [
            (QueueBackend::Memory, QueueLayout::Pairing),
            (QueueBackend::Memory, QueueLayout::FlatDary),
            (
                QueueBackend::Hybrid(HybridConfig::with_dt(0.5)),
                QueueLayout::FlatDary,
            ),
        ];
        let n = 300u32;
        let slot_of = |oid: u64| match oid % 5 {
            0 => NO_SLOT,
            r => u32::MAX - 1 - u32::try_from(oid * 13 + r).unwrap(),
        };
        for (backend, layout) in backends {
            let mut q = JoinQueue::<2>::new(&backend, layout, keyspace());
            let entry = |i: u32| {
                let p = pair(u64::from(i));
                let d = f64::from(i * 37 % n) * 0.01;
                (
                    PairKey::new(d, &p, TiePolicy::DepthFirst),
                    p,
                    slot_of(u64::from(i)),
                )
            };
            for i in 0..n / 2 {
                let (key, p, slot) = entry(i);
                q.push_slotted(key, p, slot).unwrap();
            }
            q.push_batch((n / 2..n).map(entry)).unwrap();
            let check = |p: &Pair<2>, slot: u32| {
                let oid = p.item1.object_id().unwrap().0;
                assert_eq!(slot, slot_of(oid), "{backend:?}/{layout:?}: oid {oid}");
            };
            let mut last = None;
            for _ in 0..n / 2 {
                let (key, p, slot) = q.pop_slotted().unwrap().unwrap();
                assert!(last <= Some(key), "{backend:?}/{layout:?}: pop order");
                last = Some(key);
                check(&p, slot);
            }
            let mut rest = 0;
            q.drain_unordered(|_, p, slot| {
                check(&p, slot);
                rest += 1;
            })
            .unwrap();
            assert_eq!(rest, n / 2);
            if let Some((tiers, _)) = q.hybrid_info() {
                assert!(
                    tiers.spilled > 0 && tiers.reloaded > 0,
                    "{layout:?}: {tiers:?}"
                );
            }
        }
    }

    proptest! {
        /// Join-shaped op sequences — pop then flush a batch that repeats
        /// the popped pair's items and repeats items within itself, peeks,
        /// unordered drains, discards by key, slot and pair — give identical
        /// `(key, pair, slot)` streams under both layouts, also across a
        /// forced 24-bit tag wrap. The flat arena holds nothing once the
        /// queue is empty, and never more slots than distinct items pushed.
        #[test]
        fn flat_layout_matches_pairing_and_releases_its_arena(
            steps in prop::collection::vec(
                (0u8..11, prop::collection::vec((0u32..6, 0u8..3, 0u8..9, 0u8..9, any::<u32>()), 0..10)),
                1..80,
            ),
            wrap in prop::option::of(0u32..40),
        ) {
            let mut fat =
                JoinQueue::<2>::new(&QueueBackend::Memory, QueueLayout::Pairing, keyspace());
            let mut flat =
                JoinQueue::<2>::new(&QueueBackend::Memory, QueueLayout::FlatDary, keyspace());
            if let (Some(n), Backend::Flat { heap, .. }) = (wrap, &mut flat.backend) {
                heap.skip_to_sequence_wrap(n);
            }
            let mut distinct = std::collections::HashSet::new();
            for (op, batch) in steps {
                match op {
                    0 => prop_assert_eq!(fat.peek_key().unwrap(), flat.peek_key().unwrap()),
                    1 => prop_assert_eq!(drained(&mut fat), drained(&mut flat)),
                    2 => {
                        // Keys are whole numbers 0..6: every bound in
                        // -1..6 splits the queue differently.
                        let bound = batch.first().map_or(-1.0, |e| f64::from(e.0));
                        // Entries above it go unless their slot's parity
                        // says otherwise: the predicate reads slot, first
                        // item and pair.
                        let parity = batch.first().map_or(0, |e| e.4 % 2);
                        let discard = |q: &mut JoinQueue<2>| {
                            let mut gone = Vec::new();
                            let n = q.discard(|key, queued| {
                                let kept = key.dist.get() <= bound || queued.slot() % 2 == parity;
                                if !kept {
                                    let (pair, id) = (queued.pair(), queued.item1_id());
                                    assert_eq!(id, pair.item1.identity());
                                    gone.push(format!("{pair:?} {}", queued.slot()));
                                }
                                kept
                            });
                            gone.sort();
                            (n, gone)
                        };
                        let (n, gone) = discard(&mut fat);
                        prop_assert_eq!(n, gone.len());
                        prop_assert_eq!((n, gone), discard(&mut flat));
                    }
                    _ => {
                        // One join step: pop, then flush the expansion.
                        let popped = fat.pop_slotted().unwrap();
                        prop_assert_eq!(popped, flat.pop_slotted().unwrap());
                        let popped = popped.map(|(_, p, _)| p);
                        let batch: Vec<(PairKey, Pair<2>, u32)> = batch
                            .into_iter()
                            .map(|(d, repeat, i, j, slot)| {
                                let pair = match (popped, repeat) {
                                    (Some(p), 0) => Pair::new(p.item1, pool_item(j)),
                                    (Some(p), 1) => Pair::new(pool_item(i), p.item2),
                                    _ => Pair::new(pool_item(i), pool_item(j)),
                                };
                                let key = PairKey::new(f64::from(d), &pair, TiePolicy::DepthFirst);
                                (key, pair, slot)
                            })
                            .collect();
                        for (_, p, _) in &batch {
                            distinct.insert((false, format!("{:?}", p.item1)));
                            distinct.insert((true, format!("{:?}", p.item2)));
                        }
                        fat.push_batch(batch.clone()).unwrap();
                        flat.push_batch(batch).unwrap();
                    }
                }
                prop_assert_eq!(fat.len(), flat.len());
                let (live, high, _) = flat.slab_stats().unwrap();
                if flat.is_empty() {
                    prop_assert_eq!(live, 0, "an empty queue pins arena slots");
                }
                prop_assert!(high <= distinct.len(), "{} slots for {} items", high, distinct.len());
            }
            loop {
                let a = fat.pop_slotted().unwrap();
                prop_assert_eq!(a, flat.pop_slotted().unwrap());
                if a.is_none() {
                    break;
                }
            }
            prop_assert_eq!(flat.slab_stats().unwrap().0, 0);
        }
    }
}
