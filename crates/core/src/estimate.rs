//! Maximum-distance estimation from a bound on the result count (§2.2.4).
//!
//! When the query promises to consume at most `K` pairs (`STOP AFTER`), the
//! algorithm can *derive* a shrinking maximum distance: it maintains a set
//! `M` of pairs that are on the priority queue, each contributing a lower
//! bound on how many result pairs it can generate (from the minimum fan-out
//! and the level of its nodes) and an upper bound `d_max` on the distance of
//! those results. Whenever the counts in `M` cover `K`, every queued or
//! future pair whose MINDIST exceeds the largest retained `d_max` is dead
//! weight and can be rejected.
//!
//! # How `M` is stored
//!
//! The paper organises `M` as "a max-priority-queue on `d_max` plus a hash
//! table". Here the hash table's job — finding a dequeued pair's member —
//! is done by the priority queue of the join itself: [`Estimator::offer`]
//! returns the slot its pair's member took, the join queues that slot next
//! to the pair, and the pop hands it back to [`Estimator::on_dequeue`].
//!
//! * the **slab** holds one `MEntry` per member of `M` — both item
//!   identities, its count and its current heap position. Freed slots go on
//!   a free list and are reused; a slot stays below `u32::MAX`, so it fits
//!   the queue entry and never equals [`NO_SLOT`].
//! * the **max-heap** is a binary heap of cells, one per member, ordered by
//!   `(d_max, seq)`, where `seq` numbers the offers. Among equal `d_max`,
//!   the later offer sits higher and is evicted first. A cell carries its
//!   ordering key inline, so sifting never reads the slab. Every move
//!   writes the cell's new position back into its slot. Removing a member
//!   (a dequeued pair, an expanded semi-join node) therefore starts from a
//!   known position and costs one O(log |M|) sift. No stale cells are ever
//!   left in the heap.
//!
//! A distance join keeps no table at all: its traversal never queues one
//! pair twice, so an offer is a slab push plus a heap sift and an eviction a
//! root removal. A slot the join hands back may be stale — its member was
//! evicted, and the slot may since hold another pair — so a dequeue removes
//! the member only if the slot is live and holds the popped pair's own two
//! items. A semi-join keeps one member per first item (§2.3), so it keeps a
//! first-item → slot table, under the crate's multiply-rotate id hasher
//! (`crate::idhash`), for the replace-if-smaller offer and for barring an
//! expanded node. A semi-join offer that improves on its first item's
//! member rewrites that slot in place and sifts its cell down, since its
//! `d_max` only shrinks.
//!
//! Every decision is the one a sorted map on `(d_max, seq)` keyed by pair
//! would make: the eviction order, the `u128` count total, the semi-join's
//! replace-if-smaller rule, the `item2` match on dequeue and the bar on
//! processed nodes. So [`Estimator::current_dmax`] follows the same
//! trajectory bit for bit, and with it every pruning decision, result
//! stream and counter of the join. The tests drive this implementation and
//! such a sorted-map reference model with the same random call sequences
//! and compare them after every call. The one departure is a member that
//! would need a slot past the `u32` ceiling: it is refused, which leaves
//! the bound looser but still sound.
//!
//! Counts are deliberately *lower* bounds: over-estimating them could shrink
//! the maximum distance below the true `K`-th result distance and force a
//! restart (§2.2.4); with lower bounds no restart is ever needed.
//!
//! The estimator is agnostic to the join's key domain: `d_max` values are
//! whatever monotone keys the engine feeds it (squared distances under the
//! default Euclidean configuration), and [`Estimator::current_dmax`] answers
//! in the same domain.

use sdj_geom::OrdF64;

use crate::idhash::{IdHashMap, IdHashSet};
use crate::pair::ItemId;

/// The slot of a pair that holds no member of `M`: returned by an offer
/// that did not enter `M`, and carried by pairs that were never offered.
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// Heap position of a free slab slot.
const VACANT: usize = usize::MAX;

/// One member of `M`, in its slab slot.
struct MEntry {
    item1: ItemId,
    /// Second item: with `item1`, the pair a dequeued slot must match.
    item2: ItemId,
    count: u64,
    /// Index of this member's cell in the heap; [`VACANT`] while the slot
    /// is free.
    pos: usize,
}

/// A heap cell: a member's ordering key and its slab slot.
#[derive(Clone, Copy)]
struct Cell {
    dmax: f64,
    seq: u64,
    slot: u32,
}

impl Cell {
    /// Max-heap order on `(d_max, seq)`. `seq` is unique, so the order is
    /// total and the heap's top is always one well-defined member.
    #[inline]
    fn above(&self, other: &Cell) -> bool {
        self.dmax > other.dmax || (self.dmax == other.dmax && self.seq > other.seq)
    }
}

/// Estimator mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum EstimatorMode {
    /// Distance join: `M` keyed by the whole pair, counts multiply.
    Join,
    /// Distance semi-join: `M` keyed by the first item, counts come from the
    /// first subtree alone.
    Semi,
}

/// The §2.2.4 / §2.3 maximum-distance estimator.
pub(crate) struct Estimator {
    mode: EstimatorMode,
    k_remaining: u64,
    dmax: f64,
    /// Members of `M`; slots listed in `free` are vacant.
    slab: Vec<MEntry>,
    free: Vec<u32>,
    /// Max-heap of the members, by `(d_max, seq)`.
    heap: Vec<Cell>,
    /// Semi-join: first item → slab slot of its member. Never allocated in
    /// join mode.
    first: IdHashMap<ItemId, u32>,
    total: u128,
    seq: u64,
    /// Times the global bound strictly decreased.
    #[cfg(test)]
    tightenings: u64,
    /// Semi-join: first-item nodes that have been expanded; pairs led by
    /// them may no longer enter `M` (their descendants would double-count).
    processed: IdHashSet<ItemId>,
    /// Slots at or above this are never handed out (`NO_SLOT` unless a test
    /// lowers it).
    slot_limit: u32,
    /// Join mode, debug builds: the pairs of the live members, checking the
    /// caller's promise that no pair is offered twice while it is queued.
    #[cfg(debug_assertions)]
    join_members: std::collections::HashSet<(ItemId, ItemId)>,
}

impl Estimator {
    /// Creates an estimator for `k` result pairs, starting from the query's
    /// explicit maximum distance (or `+inf`).
    #[must_use]
    pub fn new(mode: EstimatorMode, k: u64, initial_dmax: f64) -> Self {
        Self {
            mode,
            k_remaining: k,
            dmax: initial_dmax,
            slab: Vec::new(),
            free: Vec::new(),
            heap: Vec::new(),
            first: IdHashMap::default(),
            total: 0,
            seq: 0,
            #[cfg(test)]
            tightenings: 0,
            processed: IdHashSet::default(),
            slot_limit: NO_SLOT,
            #[cfg(debug_assertions)]
            join_members: std::collections::HashSet::new(),
        }
    }

    /// An estimator that hands out slots below `limit` only, standing in
    /// for the `u32` ceiling.
    #[cfg(test)]
    fn with_slot_limit(mode: EstimatorMode, k: u64, initial_dmax: f64, limit: u32) -> Self {
        Self {
            slot_limit: limit,
            ..Self::new(mode, k, initial_dmax)
        }
    }

    /// The current estimated maximum distance.
    #[must_use]
    pub fn current_dmax(&self) -> f64 {
        self.dmax
    }

    /// Remaining result budget.
    #[cfg(test)]
    fn k_remaining(&self) -> u64 {
        self.k_remaining
    }

    /// Number of pairs currently in `M`.
    #[cfg(test)]
    fn m_len(&self) -> usize {
        self.heap.len()
    }

    /// Times [`Estimator::current_dmax`] has strictly decreased so far.
    #[cfg(test)]
    fn tightenings(&self) -> u64 {
        self.tightenings
    }

    /// Approximate resident bytes of `M`: slab, free list, heap and the
    /// semi-join's tables, all at capacity.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.slab.capacity() * size_of::<MEntry>()
            + self.free.capacity() * size_of::<u32>()
            + self.heap.capacity() * size_of::<Cell>()
            // Hashbrown stores (K, V) buckets plus one control byte each.
            + self.first.capacity() * (size_of::<(ItemId, u32)>() + 1)
            + self.processed.capacity() * (size_of::<ItemId>() + 1)
    }

    /// Offers a pair that is being inserted into the priority queue and
    /// returns the slot of the member it became, or [`NO_SLOT`] if it did
    /// not enter `M`. The caller queues the slot with the pair and passes it
    /// back to [`on_dequeue`](Self::on_dequeue). `dmax_pair` must
    /// upper-bound the distance of the `count` result pairs the pair is
    /// guaranteed to generate; the caller has already checked eligibility
    /// (`dist >= Dmin`, `dmax_pair <= current_dmax`), and offers a pair at
    /// most once while it is queued.
    pub fn offer(&mut self, item1: ItemId, item2: ItemId, dmax_pair: f64, count: u64) -> u32 {
        if count == 0 || self.k_remaining == 0 {
            return NO_SLOT;
        }
        let dmax = OrdF64::new(dmax_pair).get();
        let slot = match self.mode {
            EstimatorMode::Join => match self.insert(item1, item2, dmax, count) {
                Some(slot) => slot,
                None => return NO_SLOT,
            },
            EstimatorMode::Semi => {
                if self.processed.contains(&item1) {
                    return NO_SLOT;
                }
                if let Some(&slot) = self.first.get(&item1) {
                    // Keep whichever pair led by item1 has the smaller d_max
                    // (§2.3). The member is replaced in place: a smaller
                    // d_max can only move its cell down.
                    let entry = &mut self.slab[slot as usize];
                    let pos = entry.pos;
                    if self.heap[pos].dmax <= dmax {
                        return NO_SLOT;
                    }
                    self.total -= u128::from(entry.count);
                    entry.count = count;
                    entry.item2 = item2;
                    self.heap[pos] = Cell {
                        dmax,
                        seq: self.seq,
                        slot,
                    };
                    self.sift_down(pos);
                    slot
                } else {
                    let Some(slot) = self.insert(item1, item2, dmax, count) else {
                        return NO_SLOT;
                    };
                    self.first.insert(item1, slot);
                    slot
                }
            }
        };
        self.seq += 1;
        self.total += u128::from(count);
        self.tighten();
        slot
    }

    /// Puts a new member in a free slot and its cell on the heap, leaving
    /// the total to the caller. `None` when every slot below the limit is
    /// taken: the member is refused.
    fn insert(&mut self, item1: ItemId, item2: ItemId, dmax: f64, count: u64) -> Option<u32> {
        let entry = MEntry {
            item1,
            item2,
            count,
            pos: self.heap.len(),
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = entry;
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len())
                    .ok()
                    .filter(|&s| s < self.slot_limit)?;
                self.slab.push(entry);
                slot
            }
        };
        #[cfg(debug_assertions)]
        if self.mode == EstimatorMode::Join {
            assert!(
                self.join_members.insert((item1, item2)),
                "pair ({item1:?}, {item2:?}) offered twice while queued"
            );
        }
        self.heap.push(Cell {
            dmax,
            seq: self.seq,
            slot,
        });
        self.sift_up(self.heap.len() - 1);
        Some(slot)
    }

    /// Notes that the pair `(item1, item2)` has been removed from the
    /// priority queue; `slot` is what its offer returned ([`NO_SLOT`] if it
    /// was never offered).
    pub fn on_dequeue(&mut self, slot: u32, item1: ItemId, item2: ItemId) {
        // The member may have been evicted since the offer, and its slot
        // reused by another pair (in semi-join mode, even another pair led
        // by item1): only the popped pair's own live member goes.
        let Some(entry) = self.slab.get(slot as usize) else {
            return;
        };
        if entry.pos != VACANT && entry.item1 == item1 && entry.item2 == item2 {
            self.remove_slot(slot);
        }
    }

    /// Semi-join: notes that a first-side node is about to be expanded.
    /// Its `M` entry (if any) is dropped and it is barred from re-entry so
    /// its descendants' counts cannot double with its own.
    pub fn on_expand_item1(&mut self, item1: ItemId) {
        if self.mode != EstimatorMode::Semi {
            return;
        }
        self.processed.insert(item1);
        if let Some(&slot) = self.first.get(&item1) {
            self.remove_slot(slot);
        }
    }

    /// Notes a reported result pair; the shrinking budget may allow further
    /// tightening.
    pub fn on_report(&mut self) {
        self.k_remaining = self.k_remaining.saturating_sub(1);
        self.tighten();
    }

    /// Drops the largest-`d_max` entries while the rest still cover the
    /// budget, then lowers the global bound to the largest retained `d_max`.
    fn tighten(&mut self) {
        if self.k_remaining == 0 {
            return;
        }
        let k = u128::from(self.k_remaining);
        while let Some(top) = self.heap.first() {
            let slot = top.slot;
            if self.total - u128::from(self.slab[slot as usize].count) < k {
                break;
            }
            self.remove_slot(slot);
        }
        if self.total >= k {
            if let Some(top) = self.heap.first() {
                if top.dmax < self.dmax {
                    self.dmax = top.dmax;
                    #[cfg(test)]
                    {
                        self.tightenings += 1;
                    }
                }
            }
        }
    }

    /// Removes the member in `slot` from the heap, the count total and the
    /// semi-join's first-item table, and frees the slot.
    fn remove_slot(&mut self, slot: u32) {
        let entry = &mut self.slab[slot as usize];
        let pos = std::mem::replace(&mut entry.pos, VACANT);
        self.total -= u128::from(entry.count);
        if self.mode == EstimatorMode::Semi {
            self.first.remove(&entry.item1);
        }
        #[cfg(debug_assertions)]
        self.join_members.remove(&(entry.item1, entry.item2));
        self.free.push(slot);
        // The heap's last cell fills the hole, then moves whichever way the
        // order requires.
        let Some(last) = self.heap.pop() else {
            return;
        };
        if pos < self.heap.len() {
            self.heap[pos] = last;
            if pos > 0 && last.above(&self.heap[(pos - 1) / 2]) {
                self.sift_up(pos);
            } else {
                self.sift_down(pos);
            }
        }
    }

    /// Moves the cell at `pos` up to its place, recording every moved
    /// cell's new position in its slot.
    fn sift_up(&mut self, mut pos: usize) {
        let cell = self.heap[pos];
        while pos > 0 {
            let parent = (pos - 1) / 2;
            let up = self.heap[parent];
            if !cell.above(&up) {
                break;
            }
            self.heap[pos] = up;
            self.slab[up.slot as usize].pos = pos;
            pos = parent;
        }
        self.heap[pos] = cell;
        self.slab[cell.slot as usize].pos = pos;
    }

    /// Moves the cell at `pos` down to its place, recording every moved
    /// cell's new position in its slot.
    fn sift_down(&mut self, mut pos: usize) {
        let cell = self.heap[pos];
        let len = self.heap.len();
        loop {
            let mut child = 2 * pos + 1;
            if child >= len {
                break;
            }
            if child + 1 < len && self.heap[child + 1].above(&self.heap[child]) {
                child += 1;
            }
            let down = self.heap[child];
            if !down.above(&cell) {
                break;
            }
            self.heap[pos] = down;
            self.slab[down.slot as usize].pos = pos;
            pos = child;
        }
        self.heap[pos] = cell;
        self.slab[cell.slot as usize].pos = pos;
    }

    /// Checks the slab/heap bookkeeping: every cell's slot points back at
    /// it, the heap is ordered, free slots are marked vacant, the total is
    /// the sum of member counts, and the first-item table maps exactly the
    /// semi-join's members — in join mode it is never even allocated.
    #[cfg(test)]
    fn check_invariants(&self) -> Result<(), String> {
        if self.heap.len() + self.free.len() != self.slab.len() {
            return Err("slab slots neither live nor free".into());
        }
        match self.mode {
            EstimatorMode::Join if self.first.capacity() != 0 => {
                return Err("join mode allocated a first-item table".into());
            }
            EstimatorMode::Semi if self.first.len() != self.heap.len() => {
                return Err(format!(
                    "first-item table holds {} keys, heap {} cells",
                    self.first.len(),
                    self.heap.len()
                ));
            }
            _ => {}
        }
        let mut total = 0u128;
        for (pos, cell) in self.heap.iter().enumerate() {
            let entry = &self.slab[cell.slot as usize];
            if entry.pos != pos {
                return Err(format!("cell {pos} records position {}", entry.pos));
            }
            if self.mode == EstimatorMode::Semi && self.first.get(&entry.item1) != Some(&cell.slot)
            {
                return Err(format!("cell {pos}: first item does not map to its slot"));
            }
            if pos > 0 && cell.above(&self.heap[(pos - 1) / 2]) {
                return Err(format!("cell {pos} sits above its parent"));
            }
            total += u128::from(entry.count);
        }
        if let Some(&slot) = self
            .free
            .iter()
            .find(|&&slot| self.slab[slot as usize].pos != VACANT)
        {
            return Err(format!("free slot {slot} is not marked vacant"));
        }
        if total != self.total {
            return Err(format!("total {} but members sum to {total}", self.total));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(i: u64) -> ItemId {
        ItemId::Object(i)
    }

    fn node(i: u64) -> ItemId {
        ItemId::Node(i)
    }

    #[test]
    fn bound_appears_once_counts_cover_k() {
        let mut e = Estimator::new(EstimatorMode::Join, 10, f64::INFINITY);
        e.offer(node(1), node(2), 5.0, 6);
        assert_eq!(e.current_dmax(), f64::INFINITY, "6 < 10: no bound yet");
        e.offer(node(3), node(4), 8.0, 6);
        assert_eq!(e.current_dmax(), 8.0, "12 >= 10: bounded by largest dmax");
    }

    #[test]
    fn larger_dmax_entries_are_dropped_when_redundant() {
        let mut e = Estimator::new(EstimatorMode::Join, 10, f64::INFINITY);
        e.offer(node(1), node(2), 3.0, 10);
        assert_eq!(e.current_dmax(), 3.0);
        // A worse pair adds nothing and must not loosen the bound.
        e.offer(node(3), node(4), 9.0, 50);
        assert_eq!(e.current_dmax(), 3.0);
        assert_eq!(e.m_len(), 1, "redundant entry dropped");
    }

    #[test]
    fn bound_never_increases() {
        let mut e = Estimator::new(EstimatorMode::Join, 5, f64::INFINITY);
        let slot = e.offer(node(1), node(2), 2.0, 5);
        assert_eq!(e.current_dmax(), 2.0);
        e.on_dequeue(slot, node(1), node(2));
        assert_eq!(e.m_len(), 0);
        // M is empty again, but the proven bound stays.
        assert_eq!(e.current_dmax(), 2.0);
    }

    #[test]
    fn report_shrinks_budget_and_tightens() {
        let mut e = Estimator::new(EstimatorMode::Join, 2, f64::INFINITY);
        let slot = e.offer(obj(1), obj(2), 1.0, 1);
        e.offer(obj(3), obj(4), 4.0, 1);
        assert_eq!(e.current_dmax(), 4.0);
        e.on_dequeue(slot, obj(1), obj(2));
        e.on_report();
        // Budget is 1 and the remaining entry covers it at dmax 4.
        assert_eq!(e.k_remaining(), 1);
        assert_eq!(e.current_dmax(), 4.0);
        e.offer(obj(5), obj(6), 2.0, 1);
        assert_eq!(e.current_dmax(), 2.0, "tighter entry takes over");
    }

    #[test]
    fn semi_mode_keeps_one_entry_per_first_item() {
        let mut e = Estimator::new(EstimatorMode::Semi, 100, f64::INFINITY);
        let first = e.offer(obj(1), node(10), 5.0, 1);
        let better = e.offer(obj(1), node(11), 3.0, 1);
        assert_eq!(e.m_len(), 1, "same first item replaces");
        assert_eq!(better, first, "in place, in the same slot");
        assert_eq!(e.offer(obj(1), node(12), 9.0, 1), NO_SLOT, "worse dmax");
        assert_eq!(e.m_len(), 1, "worse dmax ignored");
        // The replaced pair's slot now holds another second item.
        e.on_dequeue(first, obj(1), node(10));
        assert_eq!(e.m_len(), 1);
        e.on_dequeue(NO_SLOT, obj(1), node(12));
        assert_eq!(e.m_len(), 1);
        e.on_dequeue(better, obj(1), node(11));
        assert_eq!(e.m_len(), 0);
    }

    #[test]
    fn semi_mode_bars_processed_nodes() {
        let mut e = Estimator::new(EstimatorMode::Semi, 100, f64::INFINITY);
        e.offer(node(1), node(10), 5.0, 4);
        e.on_expand_item1(node(1));
        assert_eq!(e.m_len(), 0, "expanded node leaves M");
        assert_eq!(e.offer(node(1), node(11), 2.0, 4), NO_SLOT);
        assert_eq!(e.m_len(), 0, "and may not re-enter");
        // Other nodes unaffected.
        e.offer(node(2), node(11), 2.0, 4);
        assert_eq!(e.m_len(), 1);
    }

    #[test]
    fn explicit_max_distance_is_the_ceiling() {
        let mut e = Estimator::new(EstimatorMode::Join, 1, 10.0);
        assert_eq!(e.current_dmax(), 10.0);
        e.offer(node(1), node(2), 20.0, 5);
        // Caller normally pre-filters dmax > ceiling; even if offered, the
        // bound must not grow past the ceiling.
        assert!(e.current_dmax() <= 20.0);
        let mut e2 = Estimator::new(EstimatorMode::Join, 1, 10.0);
        e2.offer(node(1), node(2), 4.0, 5);
        assert_eq!(e2.current_dmax(), 4.0);
    }

    #[test]
    fn zero_count_offers_are_ignored() {
        let mut e = Estimator::new(EstimatorMode::Join, 1, f64::INFINITY);
        assert_eq!(e.offer(node(1), node(2), 1.0, 0), NO_SLOT);
        assert_eq!(e.m_len(), 0);
        assert_eq!(e.current_dmax(), f64::INFINITY);
    }

    #[test]
    fn equal_dmax_evicts_the_latest_offer_first() {
        let mut e = Estimator::new(EstimatorMode::Join, 2, f64::INFINITY);
        let s1 = e.offer(obj(1), obj(1), 5.0, 1);
        e.offer(obj(2), obj(2), 5.0, 1);
        let s3 = e.offer(obj(3), obj(3), 5.0, 1);
        // Three members cover K = 2; the newest of the tied three goes.
        assert_eq!(e.m_len(), 2);
        e.on_dequeue(s3, obj(3), obj(3));
        assert_eq!(e.m_len(), 2, "already evicted");
        e.on_dequeue(s1, obj(1), obj(1));
        assert_eq!(e.m_len(), 1);
        assert!(e.check_invariants().is_ok());
    }

    /// A pair popped after its member was evicted hands back a slot that
    /// another pair's member has taken since; that member stays.
    #[test]
    fn a_stale_slot_reused_by_another_pair_removes_nothing() {
        let mut e = Estimator::new(EstimatorMode::Join, 1, f64::INFINITY);
        let a = e.offer(obj(1), obj(1), 5.0, 1);
        let b = e.offer(obj(2), obj(2), 3.0, 1);
        // B covers K = 1 alone, so A is evicted and its slot freed; C then
        // takes A's slot and evicts B.
        let c = e.offer(obj(3), obj(3), 2.0, 1);
        assert_eq!(c, a, "the freed slot is reused");
        assert_eq!(e.m_len(), 1);
        e.on_dequeue(a, obj(1), obj(1));
        assert_eq!(e.m_len(), 1, "A's stale slot must not remove C");
        e.on_dequeue(b, obj(2), obj(2));
        assert_eq!(e.m_len(), 1, "B's slot is vacant");
        assert!(e.check_invariants().is_ok());
        e.on_dequeue(c, obj(3), obj(3));
        assert_eq!(e.m_len(), 0);
        assert_eq!(e.current_dmax(), 2.0);
        assert!(e.check_invariants().is_ok());
    }

    /// A member that would need a slot past the ceiling is refused: it
    /// counts for nothing, so the bound stays looser than the reference's
    /// but sound, and a freed slot serves the next offer.
    #[test]
    fn members_past_the_slot_ceiling_are_refused() {
        for mode in [EstimatorMode::Join, EstimatorMode::Semi] {
            let mut e = Estimator::with_slot_limit(mode, 3, f64::INFINITY, 2);
            let a = e.offer(obj(1), obj(1), 4.0, 1);
            e.offer(obj(2), obj(2), 5.0, 1);
            assert_eq!(e.offer(obj(3), obj(3), 1.0, 1), NO_SLOT, "{mode:?}");
            assert_eq!(e.m_len(), 2);
            assert_eq!(e.current_dmax(), f64::INFINITY, "{mode:?}: 2 < K = 3");
            e.on_dequeue(a, obj(1), obj(1));
            assert_eq!(e.offer(obj(4), obj(4), 2.0, 1), a, "{mode:?}");
            assert_eq!(e.offer(obj(5), obj(5), 3.0, 1), NO_SLOT, "{mode:?}");
            assert!(e.check_invariants().is_ok());
        }
    }

    #[test]
    fn join_mode_allocates_no_table() {
        let mut e = Estimator::new(EstimatorMode::Join, 3, f64::INFINITY);
        let slots: Vec<u32> = (0..50)
            .map(|i| e.offer(node(i), obj(i), i as f64, 1))
            .collect();
        e.on_expand_item1(node(1));
        for (i, slot) in slots.into_iter().enumerate() {
            e.on_dequeue(slot, node(i as u64), obj(i as u64));
        }
        assert!(e.check_invariants().is_ok());
        assert_eq!(e.first.capacity() + e.processed.capacity(), 0);
        assert!(e.approx_bytes() > 0);
    }

    /// The sorted-map estimator this module replaced, kept verbatim as the
    /// reference model: a `HashMap` for the members plus a `BTreeMap` on
    /// `(d_max, seq)` as the priority queue.
    mod reference {
        use std::collections::{BTreeMap, HashMap, HashSet};

        use sdj_geom::OrdF64;

        use super::super::EstimatorMode;
        use crate::pair::ItemId;

        /// Set-`M` key: the full pair identity for distance joins; only the first
        /// item for semi-joins, where "the first item in each pair is unique"
        /// (§2.3).
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        enum MKey {
            Join(ItemId, ItemId),
            Semi(ItemId),
        }

        struct MEntry {
            count: u64,
            dmax: OrdF64,
            seq: u64,
            /// Second item, kept so a dequeued pair can be matched exactly.
            item2: ItemId,
        }

        pub(super) struct Estimator {
            mode: EstimatorMode,
            k_remaining: u64,
            dmax: f64,
            entries: HashMap<MKey, MEntry>,
            by_dmax: BTreeMap<(OrdF64, u64), MKey>,
            total: u128,
            seq: u64,
            tightenings: u64,
            processed: HashSet<ItemId>,
        }

        impl Estimator {
            pub(super) fn new(mode: EstimatorMode, k: u64, initial_dmax: f64) -> Self {
                Self {
                    mode,
                    k_remaining: k,
                    dmax: initial_dmax,
                    entries: HashMap::new(),
                    by_dmax: BTreeMap::new(),
                    total: 0,
                    seq: 0,
                    tightenings: 0,
                    processed: HashSet::new(),
                }
            }

            pub(super) fn current_dmax(&self) -> f64 {
                self.dmax
            }

            pub(super) fn k_remaining(&self) -> u64 {
                self.k_remaining
            }

            pub(super) fn m_len(&self) -> usize {
                self.entries.len()
            }

            pub(super) fn tightenings(&self) -> u64 {
                self.tightenings
            }

            fn key_of(&self, item1: ItemId, item2: ItemId) -> MKey {
                match self.mode {
                    EstimatorMode::Join => MKey::Join(item1, item2),
                    EstimatorMode::Semi => MKey::Semi(item1),
                }
            }

            pub(super) fn offer(
                &mut self,
                item1: ItemId,
                item2: ItemId,
                dmax_pair: f64,
                count: u64,
            ) {
                if count == 0 || self.k_remaining == 0 {
                    return;
                }
                if self.mode == EstimatorMode::Semi && self.processed.contains(&item1) {
                    return;
                }
                let key = self.key_of(item1, item2);
                let dmax = OrdF64::new(dmax_pair);
                if let Some(existing) = self.entries.get(&key) {
                    // Semi-join: keep whichever pair led by item1 has the smaller
                    // d_max (§2.3). Join mode can only collide if the same pair is
                    // enqueued twice, which the traversal never does.
                    if existing.dmax <= dmax {
                        return;
                    }
                    self.remove_key(key);
                }
                let seq = self.seq;
                self.seq += 1;
                self.entries.insert(
                    key,
                    MEntry {
                        count,
                        dmax,
                        seq,
                        item2,
                    },
                );
                self.by_dmax.insert((dmax, seq), key);
                self.total += u128::from(count);
                self.tighten();
            }

            pub(super) fn on_dequeue(&mut self, item1: ItemId, item2: ItemId) {
                let key = self.key_of(item1, item2);
                if let Some(entry) = self.entries.get(&key) {
                    // Semi-join keys ignore item2, so make sure this is the same
                    // pair before dropping it.
                    if entry.item2 == item2 {
                        self.remove_key(key);
                    }
                }
            }

            pub(super) fn on_expand_item1(&mut self, item1: ItemId) {
                if self.mode != EstimatorMode::Semi {
                    return;
                }
                self.processed.insert(item1);
                let key = MKey::Semi(item1);
                if self.entries.contains_key(&key) {
                    self.remove_key(key);
                }
            }

            pub(super) fn on_report(&mut self) {
                self.k_remaining = self.k_remaining.saturating_sub(1);
                self.tighten();
            }

            fn remove_key(&mut self, key: MKey) {
                // Callers check presence; an absent key is simply a no-op rather
                // than a panic path.
                if let Some(entry) = self.entries.remove(&key) {
                    self.by_dmax.remove(&(entry.dmax, entry.seq));
                    self.total -= u128::from(entry.count);
                }
            }

            fn tighten(&mut self) {
                if self.k_remaining == 0 {
                    return;
                }
                let k = u128::from(self.k_remaining);
                while let Some((&(_, _), &key)) = self.by_dmax.last_key_value() {
                    let count = u128::from(self.entries[&key].count);
                    if self.total - count >= k {
                        self.remove_key(key);
                    } else {
                        break;
                    }
                }
                if self.total >= k {
                    if let Some((&(dmax, _), _)) = self.by_dmax.last_key_value() {
                        if dmax.get() < self.dmax {
                            self.dmax = dmax.get();
                            self.tightenings += 1;
                        }
                    }
                }
            }
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        #[derive(Clone, Debug)]
        enum Op {
            Offer {
                i1: u64,
                i2: u64,
                dmax: f64,
                count: u64,
            },
            Dequeue {
                i1: u64,
                i2: u64,
            },
            Expand {
                i1: u64,
            },
            Report,
        }

        fn arb_op() -> impl Strategy<Value = Op> {
            prop_oneof![
                4 => (0u64..20, 0u64..20, 0.0..100.0f64, 1u64..8).prop_map(
                    |(i1, i2, dmax, count)| Op::Offer { i1, i2, dmax, count }
                ),
                2 => (0u64..20, 0u64..20).prop_map(|(i1, i2)| Op::Dequeue { i1, i2 }),
                1 => (0u64..20).prop_map(|i1| Op::Expand { i1 }),
                1 => Just(Op::Report),
            ]
        }

        proptest! {
            /// Under any operation sequence, the estimated maximum distance
            /// is monotone non-increasing and never drops below the largest
            /// d_max of a set that is *necessary* to cover K — i.e. the
            /// estimator only ever uses sound bounds it was given.
            #[test]
            fn dmax_is_monotone_and_sound(
                ops in prop::collection::vec(arb_op(), 1..120),
                k in 1u64..30,
                mode in prop::sample::select(vec![EstimatorMode::Join, EstimatorMode::Semi]),
            ) {
                let mut e = Estimator::new(mode, k, f64::INFINITY);
                // Queued pairs and their slots: the caller contract queues a
                // pair at most once at a time.
                let mut queued = std::collections::HashMap::new();
                let mut last = f64::INFINITY;
                for op in ops {
                    match op {
                        Op::Offer { i1, i2, dmax, count } => {
                            // Mirror the caller contract: only offer bounds
                            // at or below the current estimate.
                            if dmax <= e.current_dmax() && !queued.contains_key(&(i1, i2)) {
                                queued.insert((i1, i2), e.offer(node(i1), node(i2), dmax, count));
                            }
                        }
                        Op::Dequeue { i1, i2 } => {
                            if let Some(slot) = queued.remove(&(i1, i2)) {
                                e.on_dequeue(slot, node(i1), node(i2));
                            }
                        }
                        Op::Expand { i1 } => e.on_expand_item1(node(i1)),
                        Op::Report => e.on_report(),
                    }
                    prop_assert!(
                        e.current_dmax() <= last + 1e-12,
                        "estimate must never loosen: {} -> {}",
                        last,
                        e.current_dmax()
                    );
                    last = e.current_dmax();
                }
            }
        }
    }

    /// Reference-model equivalence: the slab/heap estimator, driven through
    /// its slot handshake, and the sorted-map estimator it replaced, driven
    /// by pair identity, agree bit for bit after every call.
    mod equivalence {
        use super::reference;
        use super::*;
        use proptest::prelude::*;

        /// One estimator call under the join's contract: a pair is queued
        /// at most once at a time, offered (or not) as it is queued, and
        /// dequeued with the slot its offer returned — [`NO_SLOT`] if it was
        /// never offered. Items are drawn from a small id space of nodes and
        /// objects so pairs and first items collide; `back` picks a queued
        /// pair (counted from the newest). With small `K` members are
        /// evicted and their slots handed to later offers, so dequeues hit
        /// live members, vacant slots, slots another pair has taken since
        /// and — in semi-join mode — slots whose member has moved on to
        /// another second item.
        #[derive(Clone, Debug)]
        enum Call {
            Offer {
                i1: ItemId,
                i2: ItemId,
                dmax: f64,
                count: u64,
            },
            QueueUnoffered {
                i1: ItemId,
                i2: ItemId,
            },
            Dequeue {
                back: usize,
            },
            Expand {
                i1: ItemId,
            },
            ExpandQueued {
                back: usize,
            },
            Report,
        }

        fn arb_item() -> impl Strategy<Value = ItemId> {
            (0u64..3, 0u64..8).prop_map(|(kind, id)| {
                if kind == 0 {
                    ItemId::Object(id)
                } else {
                    ItemId::Node(id)
                }
            })
        }

        /// Mostly a handful of exact values, so equal `d_max` decides
        /// evictions; signed zero and infinity included.
        fn arb_dmax() -> impl Strategy<Value = f64> {
            prop_oneof![
                3 => prop::sample::select(vec![0.0, -0.0, 1.0, 2.0, 3.0, 4.0, 8.0, f64::INFINITY]),
                1 => 0.0..10.0f64,
            ]
        }

        /// Small counts, plus `u64`-scale ones whose sums need the `u128`
        /// total.
        fn arb_count() -> impl Strategy<Value = u64> {
            prop_oneof![
                6 => 1u64..6,
                1 => prop::sample::select(vec![u64::MAX, u64::MAX / 3, 1 << 32, (1 << 32) + 1]),
                1 => 1u64..=u64::MAX,
            ]
        }

        fn arb_k() -> impl Strategy<Value = u64> {
            prop_oneof![
                4 => 1u64..24,
                1 => prop::sample::select(vec![u64::MAX, u64::MAX - 1, 1 << 33]),
                1 => 1u64..=u64::MAX,
            ]
        }

        fn arb_call() -> impl Strategy<Value = Call> {
            prop_oneof![
                8 => (arb_item(), arb_item(), arb_dmax(), arb_count()).prop_map(
                    |(i1, i2, dmax, count)| Call::Offer { i1, i2, dmax, count }
                ),
                1 => (arb_item(), arb_item())
                    .prop_map(|(i1, i2)| Call::QueueUnoffered { i1, i2 }),
                5 => (0usize..12).prop_map(|back| Call::Dequeue { back }),
                1 => arb_item().prop_map(|i1| Call::Expand { i1 }),
                1 => (0usize..12).prop_map(|back| Call::ExpandQueued { back }),
                2 => Just(Call::Report),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// After every call: identical `current_dmax` bits, `m_len`,
            /// `k_remaining` and `tightenings`, and consistent slab/heap/
            /// table bookkeeping. Apart from the slot handshake the calls
            /// ignore the join's caller contract on purpose (offers above
            /// the current bound, reports past K), so both models see every
            /// path.
            #[test]
            fn matches_the_sorted_map_reference(
                calls in prop::collection::vec(arb_call(), 1..200),
                k in arb_k(),
                initial in prop::sample::select(vec![f64::INFINITY, 4.0, 0.0]),
                mode in prop::sample::select(vec![EstimatorMode::Join, EstimatorMode::Semi]),
            ) {
                let mut fast = Estimator::new(mode, k, initial);
                let mut model = reference::Estimator::new(mode, k, initial);
                let mut queued: Vec<(ItemId, ItemId, u32)> = Vec::new();
                let pick = |queued: &[(ItemId, ItemId, u32)], back: usize| {
                    queued.len().checked_sub(1 + back % queued.len().max(1))
                };
                for (step, call) in calls.iter().enumerate() {
                    match *call {
                        Call::Offer { i1, i2, dmax, count } => {
                            if !queued.iter().any(|&(a, b, _)| (a, b) == (i1, i2)) {
                                queued.push((i1, i2, fast.offer(i1, i2, dmax, count)));
                                model.offer(i1, i2, dmax, count);
                            }
                        }
                        Call::QueueUnoffered { i1, i2 } => {
                            if !queued.iter().any(|&(a, b, _)| (a, b) == (i1, i2)) {
                                queued.push((i1, i2, NO_SLOT));
                            }
                        }
                        Call::Dequeue { back } => {
                            if let Some(i) = pick(&queued, back) {
                                let (i1, i2, slot) = queued.remove(i);
                                fast.on_dequeue(slot, i1, i2);
                                model.on_dequeue(i1, i2);
                            }
                        }
                        Call::Expand { i1 } => {
                            fast.on_expand_item1(i1);
                            model.on_expand_item1(i1);
                        }
                        Call::ExpandQueued { back } => {
                            if let Some(i) = pick(&queued, back) {
                                let i1 = queued[i].0;
                                fast.on_expand_item1(i1);
                                model.on_expand_item1(i1);
                            }
                        }
                        Call::Report => {
                            fast.on_report();
                            model.on_report();
                        }
                    }
                    prop_assert_eq!(
                        fast.current_dmax().to_bits(),
                        model.current_dmax().to_bits(),
                        "d_max after call {} ({:?})", step, call
                    );
                    prop_assert_eq!(fast.m_len(), model.m_len(), "|M| after call {}", step);
                    prop_assert_eq!(fast.k_remaining(), model.k_remaining());
                    prop_assert_eq!(fast.tightenings(), model.tightenings());
                    let checked = fast.check_invariants();
                    prop_assert!(checked.is_ok(), "after call {}: {:?}", step, checked);
                }
            }
        }
    }
}
