//! Maximum-distance estimation from a bound on the result count (§2.2.4).
//!
//! When the query promises to consume at most `K` pairs (`STOP AFTER`), the
//! algorithm can *derive* a shrinking maximum distance: it maintains a set
//! `M` of pairs that are on the priority queue, each contributing a lower
//! bound on how many result pairs it can generate (from the minimum fan-out
//! and the level of its nodes) and an upper bound `d_max` on the distance of
//! those results. Whenever the counts of the members with `d_max ≤ d` cover
//! the `K` results still owed, no result lies beyond `d`, and every queued
//! or future pair whose MINDIST exceeds `d` is dead weight.
//!
//! # How `M` is counted
//!
//! The paper organises `M` as "a max-priority-queue on `d_max` plus a hash
//! table", so that it can evict the largest member and report the exact
//! largest `d_max` still needed. The join only needs a *sound* bound, so
//! here `M` is a histogram: the member counts summed per bucket of the
//! `d_max` key's bit prefix ([`BUCKET_SHIFT`]). A non-negative `f64` orders
//! like its bits, so the buckets order like the keys, and each spans at
//! most 2^-5 ≈ 3.1 % of its keys.
//!
//! * [`Estimator::offer`] adds the pair's count to its `d_max` bucket and
//!   returns that bucket as the pair's *slot*. The join queues the slot
//!   with the pair, and the pop hands it back to [`Estimator::on_dequeue`]
//!   with the same count, recomputed from the pair, which subtracts it.
//!   There is no member storage, no sift and no identity check.
//! * the **cut** is the lowest bucket whose prefix has covered the results
//!   owed after some call, and `below` is the count in the buckets under
//!   it. The cut only moves down, one bucket at a time, while the buckets
//!   below it still cover the results owed.
//!   [`Estimator::current_dmax`] is the lower of the query's explicit
//!   maximum and the cut bucket's top key.
//!
//! **Sound.** The members counted below the cut are queued pairs that
//! guarantee those results, so the bound holds when the cut moves, and it
//! holds from then on: a proven bound on the `K`-th result stays proven. A
//! member that leaves the queue without a dequeue (compacted, or dropped at
//! its pop) has a key above [`Estimator::current_dmax`], so its bucket lies
//! above the cut, where its count is never read again. Counts saturate at
//! both ends of `u64`; a bucket then holds *less* than its members
//! guarantee, never more, which can only loosen the bound.
//!
//! **One bucket.** Without eviction the bound is the running minimum of the
//! exact crossing — the smallest `d_max` whose members cover the results
//! owed. The cut is that crossing's bucket, so the bound is never below it
//! and lies at most one bucket above it. The paper's evicting `M` can only
//! be looser than the exact crossing, as it forgets members. Pairs the
//! looser bound keeps all lie past the `K`-th result. The tests drive this
//! estimator and an exact no-eviction model with the same calls.
//!
//! A semi-join keeps one member per first item (§2.3): a first-item table
//! of `(d_max, count, item2)`, under the crate's multiply-rotate id hasher
//! (`crate::idhash`). An offer that improves on its first item's member
//! moves the count between buckets; a dequeue subtracts only the popped
//! pair's own member, matched on `item2`; and an expanded node's member
//! leaves and the node is barred from re-entry.
//!
//! Counts are deliberately *lower* bounds: over-estimating them could shrink
//! the maximum distance below the true `K`-th result distance and force a
//! restart (§2.2.4); with lower bounds no restart is ever needed.
//!
//! The estimator is agnostic to the join's key domain: `d_max` values are
//! whatever monotone keys the engine feeds it (squared distances under the
//! default Euclidean configuration), and [`Estimator::current_dmax`] answers
//! in the same domain.

use std::collections::hash_map::Entry;

use crate::idhash::{IdHashMap, IdHashSet};
use crate::pair::ItemId;

/// The slot of a pair that holds no member of `M`: returned by an offer
/// that did not enter `M`, and carried by pairs that were never offered.
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// Key bits below a bucket's index. A non-negative key's index keeps its
/// 11 exponent bits and 5 mantissa bits: 2^16 buckets of 8 bytes.
const BUCKET_SHIFT: u32 = 47;

/// Number of buckets; a slot at or above it is ignored.
const BUCKETS: usize = 1 << (63 - BUCKET_SHIFT);

/// The bucket of a key: its bit prefix. Zero and negative keys share
/// bucket 0; a NaN takes the last bucket, whose top reads as +∞.
fn bucket(key: f64) -> usize {
    if key > 0.0 {
        (key.to_bits() >> BUCKET_SHIFT) as usize
    } else if key.is_nan() {
        BUCKETS - 1
    } else {
        0
    }
}

/// The largest key in bucket `b`; +∞ for the buckets of +∞ and NaN.
fn top_key(b: usize) -> f64 {
    let top = f64::from_bits(((b as u64 + 1) << BUCKET_SHIFT) - 1);
    if top.is_nan() {
        f64::INFINITY
    } else {
        top
    }
}

/// A semi-join member: the one pair led by its first item that `M` keeps.
struct Member {
    dmax: f64,
    count: u64,
    item2: ItemId,
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
    /// The current bound: the query's maximum, lowered to the cut's top.
    dmax: f64,
    /// Member counts per `d_max` bucket.
    counts: Vec<u64>,
    /// The crossing bucket; [`BUCKETS`] until the members first cover the
    /// results owed.
    cut: usize,
    /// Sum of the counts in the buckets below `cut`.
    below: u128,
    /// The highest bucket offered to, where the cut's first walk starts.
    top: usize,
    /// Semi-join: first item → its member. Never allocated in join mode.
    first: IdHashMap<ItemId, Member>,
    /// Semi-join: first-item nodes that have been expanded; pairs led by
    /// them may no longer enter `M` (their descendants would double-count).
    processed: IdHashSet<ItemId>,
    /// Whether a count ever saturated.
    #[cfg(test)]
    clamped: bool,
    /// Join mode, debug builds: the pairs offered and not yet dequeued,
    /// checking the caller's promise that no pair is offered twice.
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
            counts: vec![0; BUCKETS],
            cut: BUCKETS,
            below: 0,
            top: 0,
            first: IdHashMap::default(),
            processed: IdHashSet::default(),
            #[cfg(test)]
            clamped: false,
            #[cfg(debug_assertions)]
            join_members: std::collections::HashSet::new(),
        }
    }

    /// The current estimated maximum distance.
    #[must_use]
    pub fn current_dmax(&self) -> f64 {
        self.dmax
    }

    /// Approximate resident bytes of `M`: the histogram and the semi-join's
    /// tables, at capacity.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.counts.capacity() * size_of::<u64>()
            // Hashbrown stores (K, V) buckets plus one control byte each.
            + self.first.capacity() * (size_of::<(ItemId, Member)>() + 1)
            + self.processed.capacity() * (size_of::<ItemId>() + 1)
    }

    /// Offers a pair that is being inserted into the priority queue and
    /// returns its slot, or [`NO_SLOT`] if it did not enter `M`. The caller
    /// queues the slot with the pair and passes it back to
    /// [`on_dequeue`](Self::on_dequeue). `dmax_pair` must upper-bound the
    /// distance of the `count` result pairs the pair is guaranteed to
    /// generate; the caller has already checked eligibility (`dist >= Dmin`,
    /// `dmax_pair <= current_dmax`), and offers a pair at most once.
    pub fn offer(&mut self, item1: ItemId, item2: ItemId, dmax_pair: f64, count: u64) -> u32 {
        if count == 0 || self.k_remaining == 0 {
            return NO_SLOT;
        }
        match self.mode {
            EstimatorMode::Join => {
                #[cfg(debug_assertions)]
                assert!(
                    self.join_members.insert((item1, item2)),
                    "pair ({item1:?}, {item2:?}) offered twice while queued"
                );
            }
            EstimatorMode::Semi => {
                if self.processed.contains(&item1) {
                    return NO_SLOT;
                }
                let member = Member {
                    dmax: dmax_pair,
                    count,
                    item2,
                };
                // Keep whichever pair led by item1 has the smaller d_max
                // (§2.3); the count moves to the new pair's bucket.
                match self.first.entry(item1) {
                    Entry::Occupied(mut held) => {
                        if held.get().dmax <= dmax_pair {
                            return NO_SLOT;
                        }
                        let old = std::mem::replace(held.get_mut(), member);
                        self.sub(bucket(old.dmax), old.count);
                    }
                    Entry::Vacant(free) => {
                        free.insert(member);
                    }
                }
            }
        }
        let b = bucket(dmax_pair);
        self.add(b, count);
        self.tighten();
        b as u32
    }

    /// Notes that the pair `(item1, item2)` has been removed from the
    /// priority queue. `slot` is what its offer returned ([`NO_SLOT`] if it
    /// was never offered) and, in join mode, `count` what it offered; a
    /// semi-join reads both from its first-item table instead.
    pub fn on_dequeue(&mut self, slot: u32, item1: ItemId, item2: ItemId, count: u64) {
        match self.mode {
            EstimatorMode::Join => {
                #[cfg(debug_assertions)]
                if slot != NO_SLOT {
                    self.join_members.remove(&(item1, item2));
                }
                self.sub(slot as usize, count);
            }
            // The pair's member may have been replaced since its offer by a
            // pair with the same first item: only its own member goes.
            EstimatorMode::Semi => {
                if self.holds(item1, item2) {
                    self.remove_first(item1);
                }
            }
        }
    }

    /// Semi-join: whether the pair `(item1, item2)` holds its first item's
    /// member of `M`. Always false in join mode, which keeps no members.
    #[must_use]
    pub fn holds(&self, item1: ItemId, item2: ItemId) -> bool {
        self.first.get(&item1).is_some_and(|m| m.item2 == item2)
    }

    /// Whether a pair queued with `slot` has no count at or below the cut,
    /// so it may leave the queue without a dequeue.
    #[must_use]
    pub fn lies_above_cut(&self, slot: u32) -> bool {
        slot == NO_SLOT || slot as usize > self.cut
    }

    /// Semi-join: notes that a first-side node is about to be expanded.
    /// Its `M` entry (if any) is dropped and it is barred from re-entry so
    /// its descendants' counts cannot double with its own.
    pub fn on_expand_item1(&mut self, item1: ItemId) {
        if self.mode != EstimatorMode::Semi {
            return;
        }
        self.processed.insert(item1);
        self.remove_first(item1);
    }

    /// Notes a reported result pair; the shrinking budget may allow further
    /// tightening.
    pub fn on_report(&mut self) {
        self.k_remaining = self.k_remaining.saturating_sub(1);
        self.tighten();
    }

    /// Removes `item1`'s semi-join member, if any, and its count.
    fn remove_first(&mut self, item1: ItemId) {
        if let Some(old) = self.first.remove(&item1) {
            self.sub(bucket(old.dmax), old.count);
        }
    }

    /// Adds `count` to bucket `b`, saturating; a bucket past the table is
    /// ignored.
    fn add(&mut self, b: usize, count: u64) {
        let Some(held) = self.counts.get_mut(b) else {
            return;
        };
        let added = count.min(u64::MAX - *held);
        #[cfg(test)]
        {
            self.clamped |= added < count;
        }
        *held += added;
        if b < self.cut {
            self.below += u128::from(added);
        }
        self.top = self.top.max(b);
    }

    /// Subtracts `count` from bucket `b`, stopping at zero; a slot past the
    /// table, such as [`NO_SLOT`], is ignored.
    fn sub(&mut self, b: usize, count: u64) {
        let Some(held) = self.counts.get_mut(b) else {
            return;
        };
        let taken = count.min(*held);
        #[cfg(test)]
        {
            self.clamped |= taken < count;
        }
        *held -= taken;
        if b < self.cut {
            self.below -= u128::from(taken);
        }
    }

    /// Moves the cut down while the buckets below it cover the results
    /// owed, then lowers the bound to the cut's top key.
    fn tighten(&mut self) {
        let owed = u128::from(self.k_remaining);
        if owed == 0 || self.below < owed {
            return;
        }
        if self.cut == BUCKETS {
            // Every count lies at or below `top`.
            self.cut = self.top + 1;
        }
        while self.below >= owed {
            self.cut -= 1;
            self.below -= u128::from(self.counts[self.cut]);
        }
        self.dmax = self.dmax.min(top_key(self.cut));
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

    /// The top key of the bucket holding `key`: the bound a crossing at
    /// `key` yields.
    fn top_of(key: f64) -> f64 {
        top_key(bucket(key))
    }

    #[test]
    fn bound_appears_once_counts_cover_k() {
        let mut e = Estimator::new(EstimatorMode::Join, 10, f64::INFINITY);
        e.offer(node(1), node(2), 5.0, 6);
        assert_eq!(e.current_dmax(), f64::INFINITY, "6 < 10: no bound yet");
        e.offer(node(3), node(4), 8.0, 6);
        assert_eq!(
            e.current_dmax(),
            top_of(8.0),
            "12 >= 10: the crossing's top"
        );
        assert!(e.current_dmax() >= 8.0 && e.current_dmax() < 8.0 * 1.032);
    }

    #[test]
    fn bound_never_increases() {
        let mut e = Estimator::new(EstimatorMode::Join, 5, f64::INFINITY);
        let slot = e.offer(node(1), node(2), 2.0, 5);
        assert_eq!(e.current_dmax(), top_of(2.0));
        e.on_dequeue(slot, node(1), node(2), 5);
        // M is empty again, but the proven bound stays.
        assert_eq!(e.current_dmax(), top_of(2.0));
        e.offer(node(3), node(4), 1.0, 4);
        assert_eq!(e.current_dmax(), top_of(2.0), "4 < 5 cannot move the cut");
    }

    #[test]
    fn report_shrinks_budget_and_tightens() {
        let mut e = Estimator::new(EstimatorMode::Join, 2, f64::INFINITY);
        let slot = e.offer(obj(1), obj(2), 1.0, 1);
        e.offer(obj(3), obj(4), 4.0, 1);
        assert_eq!(e.current_dmax(), top_of(4.0));
        e.on_dequeue(slot, obj(1), obj(2), 1);
        e.on_report();
        // Budget is 1 and the remaining entry covers it at dmax 4.
        assert_eq!(e.k_remaining, 1);
        assert_eq!(e.current_dmax(), top_of(4.0));
        e.offer(obj(5), obj(6), 2.0, 1);
        assert_eq!(e.current_dmax(), top_of(2.0), "tighter entry takes over");
    }

    #[test]
    fn explicit_max_distance_is_the_ceiling() {
        let mut e = Estimator::new(EstimatorMode::Join, 1, 10.0);
        assert_eq!(e.current_dmax(), 10.0);
        e.offer(node(1), node(2), 10.0, 5);
        assert_eq!(e.current_dmax(), 10.0, "a bucket's top never lifts Dmax");
        e.offer(node(3), node(4), 4.0, 5);
        assert_eq!(e.current_dmax(), top_of(4.0));
    }

    #[test]
    fn zero_count_offers_are_ignored() {
        let mut e = Estimator::new(EstimatorMode::Join, 1, f64::INFINITY);
        assert_eq!(e.offer(node(1), node(2), 1.0, 0), NO_SLOT);
        assert_eq!(e.current_dmax(), f64::INFINITY);
    }

    #[test]
    fn buckets_order_like_keys_and_bound_them_within_a_thirty_second() {
        let keys = [
            0.0,
            5e-324,
            1e-300,
            1e-9,
            0.5,
            1.0,
            1.03,
            2.0,
            1e300,
            f64::MAX,
        ];
        for pair in keys.windows(2) {
            assert!(bucket(pair[0]) <= bucket(pair[1]), "{pair:?}");
        }
        for &key in &keys[2..] {
            assert!(top_of(key) >= key && top_of(key) <= key * (1.0 + 1.0 / 32.0));
        }
        assert_eq!(bucket(-0.0), 0);
        assert!(bucket(f64::MAX) < bucket(f64::INFINITY));
        assert_eq!(top_of(f64::INFINITY), f64::INFINITY);
        assert_eq!(top_of(f64::NAN), f64::INFINITY);
        assert!(bucket(f64::NAN) < BUCKETS);
    }

    #[test]
    fn semi_mode_keeps_one_entry_per_first_item() {
        let mut e = Estimator::new(EstimatorMode::Semi, 2, f64::INFINITY);
        let first = e.offer(obj(1), node(10), 5.0, 1);
        let better = e.offer(obj(1), node(11), 3.0, 1);
        assert_eq!(first, bucket(5.0) as u32);
        assert_eq!(better, bucket(3.0) as u32);
        assert_eq!(e.offer(obj(1), node(12), 9.0, 1), NO_SLOT, "worse dmax");
        assert!(e.holds(obj(1), node(11)) && !e.holds(obj(1), node(10)));
        // The count moved: obj(1) covers one result, not two.
        e.offer(obj(2), node(10), 8.0, 1);
        assert_eq!(e.current_dmax(), top_of(8.0));
        assert_eq!(e.counts[bucket(5.0)], 0);
        assert_eq!(e.counts[bucket(3.0)], 1);
    }

    /// A semi-join pair whose member was replaced by a pair with the same
    /// first item hands back a stale slot: its dequeue removes nothing.
    #[test]
    fn stale_semi_dequeues_remove_nothing() {
        let mut e = Estimator::new(EstimatorMode::Semi, 3, f64::INFINITY);
        let old = e.offer(obj(1), node(10), 5.0, 2);
        let new = e.offer(obj(1), node(11), 4.0, 2);
        e.on_dequeue(old, obj(1), node(10), 2);
        e.on_dequeue(NO_SLOT, obj(1), node(12), 2);
        assert_eq!(e.counts[bucket(4.0)], 2, "the live member stays");
        assert!(e.holds(obj(1), node(11)));
        e.on_dequeue(new, obj(1), node(11), 2);
        assert!(!e.holds(obj(1), node(11)));
        assert!(e.counts.iter().all(|&c| c == 0));
    }

    #[test]
    fn semi_mode_bars_processed_nodes() {
        let mut e = Estimator::new(EstimatorMode::Semi, 100, f64::INFINITY);
        e.offer(node(1), node(10), 5.0, 4);
        e.on_expand_item1(node(1));
        assert!(e.counts.iter().all(|&c| c == 0), "expanded node leaves M");
        assert_eq!(e.offer(node(1), node(11), 2.0, 4), NO_SLOT);
        assert!(e.first.is_empty(), "and may not re-enter");
        // Other nodes unaffected.
        assert_ne!(e.offer(node(2), node(11), 2.0, 4), NO_SLOT);
        assert_eq!(e.first.len(), 1);
    }

    /// A slot no offer returned — a corrupt spill record's, or
    /// [`NO_SLOT`] — is ignored: no bucket changes and nothing panics.
    #[test]
    fn slots_past_the_table_are_ignored() {
        let mut e = Estimator::new(EstimatorMode::Join, 2, f64::INFINITY);
        let slot = e.offer(obj(1), obj(2), 3.0, 1);
        for stray in [BUCKETS as u32, BUCKETS as u32 + 7, NO_SLOT - 1, NO_SLOT] {
            e.on_dequeue(stray, obj(9), obj(9), 1);
        }
        assert_eq!(e.counts[slot as usize], 1);
        e.offer(obj(3), obj(4), 3.0, 1);
        assert_eq!(e.current_dmax(), top_of(3.0));
        assert!(e.lies_above_cut(NO_SLOT) && !e.lies_above_cut(slot));
    }

    /// Counts saturate at both ends of `u64`. A full bucket holds less than
    /// its members guarantee and an emptied one stops at zero, so a bucket
    /// never holds more than its live members guarantee: the bound can
    /// only come out looser.
    #[test]
    fn counts_saturate_without_overflow_or_underflow() {
        let mut e = Estimator::new(EstimatorMode::Join, u64::MAX, f64::INFINITY);
        let a = e.offer(node(1), node(2), 2.0, u64::MAX - 1);
        e.offer(node(3), node(4), 2.0, 5);
        assert_eq!(e.counts[a as usize], u64::MAX, "saturated");
        assert_eq!(
            e.current_dmax(),
            top_of(2.0),
            "u64::MAX covers K = u64::MAX"
        );
        e.on_dequeue(a, node(1), node(2), u64::MAX - 1);
        e.on_dequeue(a, node(3), node(4), 5);
        assert_eq!(e.counts[a as usize], 0, "stopped at zero");
        e.on_dequeue(a, node(5), node(6), 5);
        assert_eq!(e.counts[a as usize], 0);
        assert!(e.clamped);
        // Below the cut, a clamped subtraction keeps `below` the sum.
        let mut e = Estimator::new(EstimatorMode::Join, 2, f64::INFINITY);
        let low = e.offer(obj(1), obj(1), 0.5, 1);
        e.offer(obj(2), obj(2), 1.0, 1);
        assert!((low as usize) < e.cut);
        e.on_dequeue(low, obj(1), obj(1), 5);
        assert_eq!(e.below, 0);
    }

    #[test]
    fn join_mode_allocates_no_table() {
        let mut e = Estimator::new(EstimatorMode::Join, 3, f64::INFINITY);
        let slots: Vec<u32> = (0..50)
            .map(|i| e.offer(node(i), obj(i), i as f64, 1))
            .collect();
        e.on_expand_item1(node(1));
        for (i, slot) in slots.into_iter().enumerate() {
            e.on_dequeue(slot, node(i as u64), obj(i as u64), 1);
        }
        assert_eq!(e.first.capacity() + e.processed.capacity(), 0);
        assert_eq!(e.approx_bytes(), BUCKETS * 8);
    }

    /// The exact no-eviction estimator: the live members themselves, and
    /// as the bound the running minimum of the smallest `d_max` whose
    /// members cover the results owed.
    mod reference {
        use std::collections::HashSet;

        use super::super::EstimatorMode;
        use crate::pair::ItemId;

        pub(super) struct Exact {
            mode: EstimatorMode,
            k_remaining: u64,
            dmax: f64,
            /// `(item1, item2, d_max, count)` of every live member.
            members: Vec<(ItemId, ItemId, f64, u64)>,
            processed: HashSet<ItemId>,
        }

        impl Exact {
            pub(super) fn new(mode: EstimatorMode, k: u64, initial_dmax: f64) -> Self {
                Self {
                    mode,
                    k_remaining: k,
                    dmax: initial_dmax,
                    members: Vec::new(),
                    processed: HashSet::new(),
                }
            }

            pub(super) fn current_dmax(&self) -> f64 {
                self.dmax
            }

            pub(super) fn offer(&mut self, item1: ItemId, item2: ItemId, dmax: f64, count: u64) {
                if count == 0 || self.k_remaining == 0 {
                    return;
                }
                if self.mode == EstimatorMode::Semi {
                    if self.processed.contains(&item1) {
                        return;
                    }
                    if let Some(i) = self.members.iter().position(|m| m.0 == item1) {
                        if self.members[i].2 <= dmax {
                            return;
                        }
                        self.members.swap_remove(i);
                    }
                }
                self.members.push((item1, item2, dmax, count));
                self.tighten();
            }

            /// Removes the live member of the pair, if it has one.
            pub(super) fn remove(&mut self, item1: ItemId, item2: ItemId) {
                if let Some(i) = self
                    .members
                    .iter()
                    .position(|m| (m.0, m.1) == (item1, item2))
                {
                    self.members.swap_remove(i);
                }
            }

            pub(super) fn on_expand_item1(&mut self, item1: ItemId) {
                if self.mode == EstimatorMode::Semi {
                    self.processed.insert(item1);
                    self.members.retain(|m| m.0 != item1);
                }
            }

            pub(super) fn on_report(&mut self) {
                self.k_remaining = self.k_remaining.saturating_sub(1);
                self.tighten();
            }

            fn tighten(&mut self) {
                let owed = u128::from(self.k_remaining);
                if owed == 0 {
                    return;
                }
                let mut sorted: Vec<(f64, u64)> = self.members.iter().map(|m| (m.2, m.3)).collect();
                sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut covered = 0u128;
                for (dmax, count) in sorted {
                    covered += u128::from(count);
                    if covered >= owed {
                        self.dmax = self.dmax.min(dmax);
                        return;
                    }
                }
            }
        }
    }

    /// The bucketed estimator against the exact no-eviction model over the
    /// same live members.
    mod against_exact {
        use super::reference::Exact;
        use super::*;
        use proptest::prelude::*;

        /// One estimator call under the join's contract: a pair is queued
        /// at most once at a time, offered (or not) as it is queued, and
        /// dequeued with the slot and count of its offer — [`NO_SLOT`] if
        /// it was never offered. `Drop` takes a queued join pair off the
        /// queue without a dequeue, as the compaction and the pop's filter
        /// do, which the join only does once its `d_max` is above the
        /// bound. Items are drawn from a small id space of nodes and
        /// objects so pairs and first items collide; `back` picks a queued
        /// pair (counted from the newest).
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
            Drop {
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

        /// Mostly a handful of exact values, so several members share a
        /// bucket, plus keys a bucket apart; signed zero and infinity
        /// included.
        fn arb_dmax() -> impl Strategy<Value = f64> {
            prop_oneof![
                3 => prop::sample::select(vec![
                    0.0, -0.0, 1.0, 1.01, 1.04, 2.0, 3.0, 4.0, 8.0, f64::INFINITY
                ]),
                1 => 0.0..10.0f64,
            ]
        }

        /// Small counts, plus `u64`-scale ones that saturate a bucket.
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
                4 => (0usize..12).prop_map(|back| Call::Dequeue { back }),
                2 => (0usize..12).prop_map(|back| Call::Drop { back }),
                1 => arb_item().prop_map(|i1| Call::Expand { i1 }),
                1 => (0usize..12).prop_map(|back| Call::ExpandQueued { back }),
                2 => Just(Call::Report),
            ]
        }

        /// A queued pair: its items, `d_max`, offered count and slot, and
        /// whether its offer kept the contract (`d_max` at or below the
        /// bound of the time).
        #[derive(Clone, Copy)]
        struct Queued {
            i1: ItemId,
            i2: ItemId,
            dmax: f64,
            count: u64,
            slot: u32,
            kept: bool,
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// After every call the bucketed bound is at or above the exact
            /// one and lies in the same bucket — unless a count saturated,
            /// which may only loosen it. Apart from the slot handshake the
            /// calls ignore the join's caller contract on purpose (offers
            /// above the current bound, reports past K), so both see every
            /// path.
            #[test]
            fn bound_is_the_exact_crossings_bucket(
                calls in prop::collection::vec(arb_call(), 1..200),
                k in arb_k(),
                initial in prop::sample::select(vec![f64::INFINITY, 4.0, 0.0]),
                mode in prop::sample::select(vec![EstimatorMode::Join, EstimatorMode::Semi]),
            ) {
                let mut est = Estimator::new(mode, k, initial);
                let mut exact = Exact::new(mode, k, initial);
                let mut queued: Vec<Queued> = Vec::new();
                // Dropped join pairs: the traversal never queues them again.
                let mut gone = std::collections::HashSet::new();
                let pick = |queued: &[Queued], back: usize| {
                    queued.len().checked_sub(1 + back % queued.len().max(1))
                };
                let mut last = est.current_dmax();
                for (step, call) in calls.iter().enumerate() {
                    match *call {
                        Call::Offer { i1, i2, dmax, count } => {
                            if !queued.iter().any(|q| (q.i1, q.i2) == (i1, i2))
                                && !gone.contains(&(i1, i2))
                            {
                                let kept = dmax <= est.current_dmax();
                                let slot = est.offer(i1, i2, dmax, count);
                                queued.push(Queued { i1, i2, dmax, count, slot, kept });
                                exact.offer(i1, i2, dmax, count);
                            }
                        }
                        Call::QueueUnoffered { i1, i2 } => {
                            if !queued.iter().any(|q| (q.i1, q.i2) == (i1, i2)) {
                                let (dmax, count, slot, kept) = (0.0, 0, NO_SLOT, true);
                                queued.push(Queued { i1, i2, dmax, count, slot, kept });
                            }
                        }
                        Call::Dequeue { back } => {
                            if let Some(i) = pick(&queued, back) {
                                let q = queued.remove(i);
                                est.on_dequeue(q.slot, q.i1, q.i2, q.count);
                                exact.remove(q.i1, q.i2);
                            }
                        }
                        Call::Drop { back } => {
                            if let Some(i) = pick(&queued, back) {
                                let q = queued[i];
                                if mode == EstimatorMode::Join && q.kept && q.dmax > est.current_dmax() {
                                    prop_assert!(est.lies_above_cut(q.slot), "call {}", step);
                                    queued.remove(i);
                                    gone.insert((q.i1, q.i2));
                                    exact.remove(q.i1, q.i2);
                                }
                            }
                        }
                        Call::Expand { i1 } => {
                            est.on_expand_item1(i1);
                            exact.on_expand_item1(i1);
                        }
                        Call::ExpandQueued { back } => {
                            if let Some(i) = pick(&queued, back) {
                                let i1 = queued[i].i1;
                                est.on_expand_item1(i1);
                                exact.on_expand_item1(i1);
                            }
                        }
                        Call::Report => {
                            est.on_report();
                            exact.on_report();
                        }
                    }
                    let (got, want) = (est.current_dmax(), exact.current_dmax());
                    prop_assert!(got >= want, "call {} ({:?}): {} below {}", step, call, got, want);
                    prop_assert!(got <= last, "call {}: the bound rose", step);
                    last = got;
                    if !est.clamped {
                        prop_assert_eq!(
                            bucket(got), bucket(want), "call {} ({:?}): {} vs {}", step, call, got, want
                        );
                    }
                }
                let below: u128 = est.counts[..est.cut].iter().map(|&c| u128::from(c)).sum();
                prop_assert_eq!(below, est.below);
            }
        }
    }
}
