//! Pair-payload slab: an interning arena for queue items and the compact
//! pair handle the flat queue layout stores in place of fat [`Pair`]s.
//!
//! Under [`crate::config::QueueLayout::FlatDary`] the priority queue's
//! per-element payload is a [`PackedPair`] — two `u32` arena slots — while
//! the fat [`Item`]s live once each in an [`ItemArena`], shared by every
//! queued pair that references them. A node or object bounding rectangle
//! typically participates in many queued pairs at once (every child produced
//! by one expansion pairs with the *same* other item), so interning
//! collapses the dominant share of queue memory. Slots are
//! reference-counted and recycled through a free list: arena occupancy
//! tracks the set of *distinct* items currently queued, not the number of
//! queued pairs.
//!
//! The same sharing makes most interning calls repeats: every child pair of
//! one expansion names the unexpanded item again, and a plane sweep names
//! each child once per partner. Finding an item's slot is therefore the
//! arena's hot path, and it hashes nothing: node pages and object ids count
//! up from zero, so the slot of each live item sits in a flat table indexed
//! by its id, one per side and kind. A repeat costs one load and a
//! reference-count bump; only ids too large for a table fall back to a hash
//! map (see [`ItemArena::intern`]).
//!
//! The two join sides never unify — `R1`'s node 7 and `R2`'s node 7 are
//! different items — and neither do an object's exact ([`Item::Object`])
//! and bounding-rectangle ([`Item::Obr`]) forms, which share a paper
//! identity (§2.3 fn. 5) but differ in finality.

use sdj_pqueue::Codec;
use sdj_storage::codec::{PageReader, PageWriter};
use sdj_storage::StorageError;

use crate::idhash::IdHashMap;
use crate::pair::{Item, ItemId, Pair};

/// Interning key, packed into one `u64`: relation side (bit 63), item kind
/// (bits 61–62), node/object id (low 61 bits). Two items with equal keys
/// are identical (a node id determines its level and region; an object id
/// determines its rectangle), which `intern` verifies in debug builds.
/// Packing keeps the per-slot key column at 8 bytes — the arena is resident
/// queue memory, accounted per byte.
///
/// Kinds: 0 = node, 1 = obr, 2 = object. Obr and Object must not unify:
/// they share an id but differ in finality ([`Pair::is_final`]).
fn arena_key<const D: usize>(side: bool, item: &Item<D>) -> u64 {
    let (kind, id) = match item {
        Item::Node { page, .. } => (0u64, *page),
        Item::Obr { oid, .. } => (1, oid.0),
        Item::Object { oid, .. } => (2, oid.0),
    };
    debug_assert!(id < 1 << 61, "arena item id overflows the packed key");
    (u64::from(side) << 63) | (kind << 61) | id
}

/// Ids below this are indexed by a flat table (at most 4 MiB per side and
/// kind); larger ones by a hash map.
const DENSE_IDS: u64 = 1 << 20;

/// Marks an id with no live slot; never a valid slot (slots stay below the
/// `u32::MAX` representation cap).
const NO_SLOT: u32 = u32::MAX;

/// Key → slot lookup of an [`ItemArena`]'s live items.
#[derive(Debug, Default)]
struct SlotIndex {
    /// Slot by id for ids below [`DENSE_IDS`], one table per `key >> 61`
    /// (side and kind), grown to the largest id seen; [`NO_SLOT`] where no
    /// item is live.
    dense: [Vec<u32>; 8],
    /// Every other key.
    sparse: IdHashMap<u64, u32>,
}

impl SlotIndex {
    /// The table and id of a densely indexed key.
    #[inline]
    fn dense_cell(key: u64) -> Option<(usize, usize)> {
        let id = key & ((1 << 61) - 1);
        (id < DENSE_IDS).then_some(((key >> 61) as usize, id as usize))
    }

    #[inline]
    fn get(&self, key: u64) -> Option<u32> {
        match Self::dense_cell(key) {
            Some((t, id)) => self.dense[t].get(id).copied().filter(|&s| s != NO_SLOT),
            None => self.sparse.get(&key).copied(),
        }
    }

    #[inline]
    fn insert(&mut self, key: u64, slot: u32) {
        match Self::dense_cell(key) {
            Some((t, id)) => {
                let table = &mut self.dense[t];
                if table.len() <= id {
                    let len = (id + 1).max(2 * table.len()).min(DENSE_IDS as usize);
                    table.resize(len, NO_SLOT);
                }
                table[id] = slot;
            }
            None => {
                self.sparse.insert(key, slot);
            }
        }
    }

    #[inline]
    fn remove(&mut self, key: u64) {
        match Self::dense_cell(key) {
            Some((t, id)) => self.dense[t][id] = NO_SLOT,
            None => {
                self.sparse.remove(&key);
            }
        }
    }

    fn approx_bytes(&self) -> usize {
        self.dense.iter().map(Vec::capacity).sum::<usize>() * std::mem::size_of::<u32>()
            // Hashbrown stores (K, V) buckets plus one control byte each.
            + self.sparse.capacity() * (std::mem::size_of::<(u64, u32)>() + 1)
    }
}

/// Compact pair payload stored by the flat queue layout: two [`ItemArena`]
/// slots. Eight bytes in memory and on spill pages, versus the fat
/// [`Pair`]'s two inline items; the queue adds the pair's 4-byte estimator
/// slot next to it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PackedPair {
    /// Arena slot of the first-relation item.
    pub i1: u32,
    /// Arena slot of the second-relation item.
    pub i2: u32,
}

impl Codec for PackedPair {
    const ENCODED_SIZE: usize = 8;

    fn encode(&self, w: &mut PageWriter<'_>) -> sdj_storage::Result<()> {
        w.put_u32(self.i1)?;
        w.put_u32(self.i2)
    }

    fn decode(r: &mut PageReader<'_>) -> sdj_storage::Result<Self> {
        Ok(Self {
            i1: r.get_u32()?,
            i2: r.get_u32()?,
        })
    }
}

/// Reference-counted interning arena of queue items, indexed by `u32`
/// slots. Spilled [`PackedPair`]s keep their referenced items pinned here
/// (the reference is taken at push and dropped at pop, bracketing any disk
/// residency in between), so resolution never touches storage.
#[derive(Debug)]
pub struct ItemArena<const D: usize> {
    /// Slot payloads; freed slots keep their stale item (items are `Copy`)
    /// until reuse.
    items: Vec<Item<D>>,
    /// Interning key of each slot, for index removal on release.
    keys: Vec<u64>,
    /// Reference count of each slot; 0 marks a free-listed slot.
    refs: Vec<u32>,
    /// Freed slots awaiting reuse.
    free: Vec<u32>,
    /// Key → slot lookup for live slots.
    index: SlotIndex,
    /// Live (referenced) slots.
    live: usize,
    /// Lifetime high-water mark of `live`.
    high_water: usize,
    /// Allocations served from the free list.
    recycled: u64,
    /// Hard cap on distinct slots. Exceeding it is a typed
    /// [`StorageError::ResourceExhausted`], never a panic: the slot index
    /// must fit `u32` (the `PackedPair` wire format), and a session
    /// operator may lower the cap to bound a runaway query.
    slot_limit: u32,
}

impl<const D: usize> Default for ItemArena<D> {
    fn default() -> Self {
        Self {
            items: Vec::new(),
            keys: Vec::new(),
            refs: Vec::new(),
            free: Vec::new(),
            index: SlotIndex::default(),
            live: 0,
            high_water: 0,
            recycled: 0,
            slot_limit: u32::MAX,
        }
    }
}

impl<const D: usize> ItemArena<D> {
    /// An empty arena.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty arena capped at `limit` distinct slots. The representation
    /// cap (`u32::MAX`) always applies; a lower limit turns the arena into
    /// a per-query admission guard that fails clean instead of growing
    /// without bound.
    #[must_use]
    pub fn with_slot_limit(limit: u32) -> Self {
        Self {
            slot_limit: limit,
            ..Self::default()
        }
    }

    /// Distinct items currently referenced.
    #[must_use]
    pub fn live(&self) -> usize {
        self.live
    }

    /// Lifetime high-water mark of [`live`](Self::live).
    #[must_use]
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Allocations served from the free list instead of growing the arena.
    #[must_use]
    pub fn recycled(&self) -> u64 {
        self.recycled
    }

    /// Approximate resident bytes: slot columns and the slot index, all at
    /// capacity.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.items.capacity() * std::mem::size_of::<Item<D>>()
            + self.keys.capacity() * std::mem::size_of::<u64>()
            + self.refs.capacity() * std::mem::size_of::<u32>()
            + self.free.capacity() * std::mem::size_of::<u32>()
            + self.index.approx_bytes()
    }

    /// Reserves one more slot in `v` with 25% amortized growth instead of
    /// `Vec`'s doubling — same bargain as the flat heap's entry arrays
    /// (see `sdj_pqueue::FlatHeap`): a few extra reallocation copies for a
    /// ≤ 1.25× capacity overshoot on resident queue memory.
    #[inline]
    fn reserve_one<T>(v: &mut Vec<T>) {
        if v.len() == v.capacity() {
            v.reserve_exact((v.capacity() / 4).max(32));
        }
    }

    /// Interns one item, returning its slot and taking one reference: a
    /// live item gets a reference-count bump on its slot, a new one the next
    /// free slot.
    ///
    /// # Errors
    ///
    /// [`StorageError::ResourceExhausted`] when growing past the slot limit
    /// (the `u32` representation cap, or a lower per-session one) — the
    /// query that overflowed is killed cleanly, not the process.
    pub fn intern(&mut self, side: bool, item: &Item<D>) -> sdj_storage::Result<u32> {
        let key = arena_key(side, item);
        if let Some(slot) = self.index.get(key) {
            debug_assert_eq!(
                &self.items[slot as usize], item,
                "two distinct items interned under one arena key"
            );
            self.refs[slot as usize] = self.refs[slot as usize].saturating_add(1);
            return Ok(slot);
        }
        let slot = match self.free.pop() {
            Some(slot) => {
                self.recycled += 1;
                self.items[slot as usize] = *item;
                self.keys[slot as usize] = key;
                self.refs[slot as usize] = 1;
                slot
            }
            None => {
                let slot = u32::try_from(self.items.len())
                    .ok()
                    .filter(|&s| s < self.slot_limit)
                    .ok_or(StorageError::ResourceExhausted("pair-slab arena slots"))?;
                Self::reserve_one(&mut self.items);
                Self::reserve_one(&mut self.keys);
                Self::reserve_one(&mut self.refs);
                self.items.push(*item);
                self.keys.push(key);
                self.refs.push(1);
                slot
            }
        };
        self.index.insert(key, slot);
        self.live += 1;
        self.high_water = self.high_water.max(self.live);
        Ok(slot)
    }

    /// Interns both sides of a pair, returning the compact payload.
    ///
    /// # Errors
    ///
    /// Propagates [`intern`](Self::intern) slot exhaustion; a first-side
    /// reference already taken is released so a failed pair leaks nothing.
    pub fn intern_pair(&mut self, pair: &Pair<D>) -> sdj_storage::Result<PackedPair> {
        let i1 = self.intern(false, &pair.item1)?;
        let i2 = match self.intern(true, &pair.item2) {
            Ok(i2) => i2,
            Err(e) => {
                self.release(i1);
                return Err(e);
            }
        };
        Ok(PackedPair { i1, i2 })
    }

    /// [`Item::identity`] of the item in `slot` (which must hold a live
    /// reference), decoded from its 8-byte interning key: a pass over many
    /// queued pairs that needs only identities reads the key column, not
    /// the fat items.
    #[must_use]
    pub fn identity(&self, slot: u32) -> ItemId {
        debug_assert!(self.refs[slot as usize] > 0, "reading a freed arena slot");
        let key = self.keys[slot as usize];
        let id = key & ((1 << 61) - 1);
        // Kind 0 is a node; obrs and objects share the object's identity.
        if (key >> 61) & 3 == 0 {
            ItemId::Node(id)
        } else {
            ItemId::Object(id)
        }
    }

    /// The fat item in `slot` (which must hold a live reference).
    #[must_use]
    pub fn resolve(&self, slot: u32) -> Item<D> {
        debug_assert!(self.refs[slot as usize] > 0, "resolving a freed arena slot");
        self.items[slot as usize]
    }

    /// Reconstructs the fat pair behind a compact payload.
    #[must_use]
    pub fn resolve_pair(&self, pair: PackedPair) -> Pair<D> {
        Pair::new(self.resolve(pair.i1), self.resolve(pair.i2))
    }

    /// Drops one reference to `slot`, free-listing it at zero.
    pub fn release(&mut self, slot: u32) {
        let i = slot as usize;
        debug_assert!(self.refs[i] > 0, "releasing a freed arena slot");
        self.refs[i] -= 1;
        if self.refs[i] == 0 {
            self.index.remove(self.keys[i]);
            Self::reserve_one(&mut self.free);
            self.free.push(slot);
            self.live -= 1;
        }
    }

    /// Drops the references a [`intern_pair`](Self::intern_pair) call took.
    pub fn release_pair(&mut self, pair: PackedPair) {
        self.release(pair.i1);
        self.release(pair.i2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdj_geom::Rect;
    use sdj_rtree::ObjectId;

    fn node(page: u64) -> Item<2> {
        Item::Node {
            page,
            level: 1,
            mbr: Rect::new([0.0, 0.0], [1.0, 1.0]),
        }
    }

    fn obr(oid: u64) -> Item<2> {
        Item::Obr {
            oid: ObjectId(oid),
            mbr: Rect::new([0.5, 0.5], [0.5, 0.5]),
        }
    }

    #[test]
    fn interning_shares_slots_and_counts_refs() {
        let mut arena = ItemArena::<2>::new();
        let a = arena.intern(false, &node(1)).unwrap();
        let b = arena.intern(false, &node(1)).unwrap();
        assert_eq!(a, b, "same side + item interns to one slot");
        assert_eq!(arena.live(), 1);
        arena.release(a);
        assert_eq!(arena.live(), 1, "one reference remains");
        arena.release(b);
        assert_eq!(arena.live(), 0);
    }

    #[test]
    fn sides_and_kinds_do_not_unify() {
        let mut arena = ItemArena::<2>::new();
        let left = arena.intern(false, &node(1)).unwrap();
        let right = arena.intern(true, &node(1)).unwrap();
        assert_ne!(left, right, "R1 and R2 items are distinct");
        let o = Item::Object {
            oid: ObjectId(9),
            mbr: Rect::new([0.5, 0.5], [0.5, 0.5]),
        };
        let as_obr = arena.intern(false, &obr(9)).unwrap();
        let as_object = arena.intern(false, &o).unwrap();
        assert_ne!(as_obr, as_object, "obr and exact object are distinct");
        assert_eq!(arena.live(), 4);
        // Identities decode from the packed keys, sparse ids included.
        let far = arena.intern(true, &obr(DENSE_IDS + 3)).unwrap();
        for (slot, item) in [
            (left, node(1)),
            (right, node(1)),
            (as_obr, obr(9)),
            (as_object, o),
            (far, obr(DENSE_IDS + 3)),
        ] {
            assert_eq!(arena.identity(slot), item.identity());
        }
    }

    #[test]
    fn released_slots_are_recycled() {
        let mut arena = ItemArena::<2>::new();
        for round in 0..10u64 {
            let pp = arena
                .intern_pair(&Pair::new(node(round), obr(round + 100)))
                .unwrap();
            assert_eq!(
                arena.resolve_pair(pp),
                Pair::new(node(round), obr(round + 100))
            );
            arena.release_pair(pp);
        }
        assert_eq!(arena.live(), 0);
        assert_eq!(arena.high_water(), 2, "only one pair live at a time");
        assert_eq!(arena.recycled(), 18, "rounds after the first reuse slots");
    }

    #[test]
    fn ids_past_the_dense_tables_intern_through_the_map() {
        let mut arena = ItemArena::<2>::new();
        let big = DENSE_IDS + 5;
        let a = arena.intern(true, &obr(big)).unwrap();
        assert_eq!(arena.intern(true, &obr(big)).unwrap(), a, "shared");
        let small = arena.intern(true, &obr(5)).unwrap();
        assert_ne!(a, small, "id 5 and id 2^20 + 5 are different items");
        arena.release(a);
        arena.release(a);
        assert_eq!(arena.live(), 1);
        let b = arena.intern(true, &node(big)).unwrap();
        assert_eq!(b, a, "the freed slot is recycled");
        assert_eq!(arena.resolve(b), node(big));
        assert!(
            arena.approx_bytes() < 64 * 1024,
            "a large id does not size a dense table"
        );
    }

    #[test]
    fn packed_pair_codec_roundtrip() {
        use sdj_storage::codec::{PageReader, PageWriter};
        let pp = PackedPair {
            i1: 7,
            i2: u32::MAX,
        };
        let mut buf = vec![0u8; PackedPair::ENCODED_SIZE];
        pp.encode(&mut PageWriter::new(&mut buf)).unwrap();
        assert_eq!(PackedPair::decode(&mut PageReader::new(&buf)).unwrap(), pp);
    }

    #[test]
    fn slot_limit_is_a_typed_error_and_recycling_still_works() {
        let mut arena = ItemArena::<2>::with_slot_limit(2);
        let pp = arena.intern_pair(&Pair::new(node(1), obr(2))).unwrap();
        // A third distinct slot exceeds the cap and fails clean, releasing
        // the first-side reference the failed pair had already taken.
        let err = arena
            .intern_pair(&Pair::new(node(3), obr(4)))
            .expect_err("cap exceeded");
        assert_eq!(
            err,
            StorageError::ResourceExhausted("pair-slab arena slots")
        );
        assert_eq!(arena.live(), 2, "failed intern_pair leaks no references");
        // Releasing frees capacity: the free list serves new items under the
        // same cap.
        arena.release_pair(pp);
        let again = arena.intern_pair(&Pair::new(node(3), obr(4))).unwrap();
        assert_eq!(arena.resolve_pair(again), Pair::new(node(3), obr(4)));
    }

    #[test]
    fn approx_bytes_reflects_capacity() {
        let mut arena = ItemArena::<2>::new();
        assert_eq!(arena.approx_bytes(), 0);
        for i in 0..100 {
            arena.intern(false, &node(i)).unwrap();
        }
        assert!(arena.approx_bytes() >= 100 * std::mem::size_of::<Item<2>>());
    }
}
