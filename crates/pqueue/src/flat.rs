//! A cache-conscious flat 4-ary implicit heap over compact inline entries.
//!
//! The pairing heap ([`crate::PairingHeap`]) pays a pointer chase per
//! comparison and drags the full `(K, V)` payload through every merge. Here
//! the heap sifts only a compact entry — `(key: u64, tag: u32, value: V)`
//! in SoA layout — with the value stored inline and moved with its entry.
//! Values are meant to be small `Copy` handles (the join stores two arena
//! slots and an estimator slot, 12 bytes), so an entry is 24 bytes and a
//! push or pop touches no memory outside the three columns. The key is
//! *not* stored at all:
//! [`QueueKey`] keys are fully determined by their order image, so pops
//! rebuild them from the entry via [`QueueKey::from_parts`].
//!
//! The arrays grow by 25% instead of the usual doubling — this layout
//! exists to keep resident queue memory low, and trading a few extra
//! reallocation copies (of flat integers) for a ≤ 1.25× capacity overshoot
//! is the right side of that bargain.
//!
//! * `key` is [`QueueKey::order_bits`]: an order-preserving `u64` image of
//!   the distance, so sift comparisons are integer compares.
//! * `tag` packs the key's secondary [`QueueKey::tie_rank`] (high 8 bits)
//!   over a 24-bit arrival sequence (low bits), making the entry order
//!   `(distance, tie, arrival)` — a *total* order, so equal keys pop in
//!   FIFO arrival order, deterministically. When the sequence counter wraps
//!   the live entries are renumbered in place (a `(key, tag)`-sorted array
//!   is itself a valid implicit heap, so renumbering is a sort, not a
//!   rebuild).
//! * `value` is the caller's payload.
//!
//! Children of entry `i` sit at `4i+1 ..= 4i+4` — one 32-byte span of the
//! key array, compared with the same `as_chunks` lane shape as the geometry
//! kernels' `LANE_WIDTH` loops.
//!
//! The heap doubles as the hybrid queue's in-memory *list* tier: staged
//! entries accumulate unsorted ([`FlatHeap::stage`]) and are promoted in one
//! sorted pass ([`FlatHeap::promote_staged`]) when the window advances —
//! promotion into an empty heap is a move, with zero sift steps.

use crate::traits::QueueKey;

/// Heap arity: children of `i` live at `ARITY*i + 1 ..= ARITY*i + ARITY`.
/// 4 × u64 keys span one 32-byte chunk, matching the geometry kernels'
/// `LANE_WIDTH`.
pub const ARITY: usize = 4;

/// Low bits of the entry tag holding the arrival sequence.
const SEQ_BITS: u32 = 24;
/// Mask of the arrival-sequence field.
const SEQ_MASK: u32 = (1 << SEQ_BITS) - 1;

/// A flat 4-ary implicit min-heap of compact entries with inline values.
pub struct FlatHeap<K, V> {
    /// Sifted region, SoA: `keys[i]`/`tags[i]`/`vals[i]` form entry `i`.
    keys: Vec<u64>,
    tags: Vec<u32>,
    vals: Vec<V>,
    /// Staged (unsorted) entries — the hybrid queue's list tier.
    staged: Vec<(u64, u32, V)>,
    /// Keys exist only as compact entries; see [`QueueKey::from_parts`].
    _keys: std::marker::PhantomData<K>,
    /// Next arrival sequence (low [`SEQ_BITS`] bits of the next tag).
    seq: u32,
    len: usize,
    max_len: usize,
}

impl<K: QueueKey, V: Copy> Default for FlatHeap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: QueueKey, V: Copy> FlatHeap<K, V> {
    /// Creates an empty heap.
    #[must_use]
    pub fn new() -> Self {
        Self {
            keys: Vec::new(),
            tags: Vec::new(),
            vals: Vec::new(),
            staged: Vec::new(),
            _keys: std::marker::PhantomData,
            seq: 0,
            len: 0,
            max_len: 0,
        }
    }

    /// Number of elements (sifted + staged).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the heap has no elements at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// High-water mark of [`FlatHeap::len`] over the heap's lifetime.
    #[must_use]
    pub fn max_len(&self) -> usize {
        self.max_len
    }

    /// Number of entries in the sifted (heap-ordered) region.
    #[must_use]
    pub fn sifted_len(&self) -> usize {
        self.keys.len()
    }

    /// Number of staged (not yet heap-ordered) entries.
    #[must_use]
    pub fn staged_len(&self) -> usize {
        self.staged.len()
    }

    /// Approximate resident bytes of the heap: entry columns and staged run
    /// at their allocated capacities.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.keys.capacity() * 8
            + self.tags.capacity() * 4
            + self.vals.capacity() * std::mem::size_of::<V>()
            + self.staged.capacity() * std::mem::size_of::<(u64, u32, V)>()
    }

    /// Reserves one more slot in `v` with 25% amortized growth (see the
    /// module docs) instead of `Vec`'s doubling.
    #[inline]
    fn reserve_one<T>(v: &mut Vec<T>) {
        if v.len() == v.capacity() {
            v.reserve_exact((v.capacity() / 4).max(32));
        }
    }

    /// Appends one compact entry to the sifted columns, growing by 25%.
    #[inline]
    fn push_entry(&mut self, k: u64, t: u32, v: V) {
        Self::reserve_one(&mut self.keys);
        Self::reserve_one(&mut self.tags);
        Self::reserve_one(&mut self.vals);
        self.keys.push(k);
        self.tags.push(t);
        self.vals.push(v);
    }

    /// Ensures space for `additional` more sifted elements without
    /// reallocating.
    pub fn reserve(&mut self, additional: usize) {
        self.keys.reserve(additional);
        self.tags.reserve(additional);
        self.vals.reserve(additional);
    }

    /// Drops all elements, keeping capacity.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.tags.clear();
        self.vals.clear();
        self.staged.clear();
        self.seq = 0;
        self.len = 0;
    }

    /// The minimum key of the *sifted* region, rebuilt from its compact
    /// entry. Staged entries are invisible until promoted.
    #[must_use]
    pub fn peek(&self) -> Option<K> {
        let (&bits, &tag) = (self.keys.first()?, self.tags.first()?);
        Some(Self::rebuild_key(bits, tag))
    }

    /// Visits up to `limit` sifted entries in array (level) order: the
    /// minimum first, then the top of the heap outward. Like
    /// [`crate::PairingHeap::peek_top`], the visited set approximates "the
    /// entries nearest the head" without disturbing the heap; here it is a
    /// plain prefix scan of the entry columns. O(limit).
    pub fn peek_top(&self, limit: usize, mut visit: impl FnMut(K, &V)) {
        for (i, v) in self.vals.iter().take(limit).enumerate() {
            visit(Self::rebuild_key(self.keys[i], self.tags[i]), v);
        }
    }

    /// Rebuilds a key from its compact entry (see [`QueueKey::from_parts`]).
    #[inline]
    fn rebuild_key(bits: u64, tag: u32) -> K {
        let tie = u8::try_from(tag >> SEQ_BITS).unwrap_or(u8::MAX);
        K::from_parts(bits, tie)
    }

    /// Inserts an element into the sifted region. O(log₄ n).
    pub fn push(&mut self, key: K, value: V) {
        let bits = key.order_bits();
        let tag = self.next_tag(key.tie_rank());
        self.push_entry(bits, tag, value);
        self.sift_up(self.keys.len() - 1);
        self.len += 1;
        self.max_len = self.max_len.max(self.len);
    }

    /// Inserts a batch of elements, growing the columns at most once.
    ///
    /// Entries are appended raw and the heap invariant is restored once at
    /// the end: per-entry sift-up for small batches (`O(k·log₄ n)`), or one
    /// Floyd bottom-up heapify pass over the whole sifted region (`O(n)`)
    /// when the batch is a sizeable fraction of it — the flush-batched push
    /// shape where per-push sifting was losing to the pairing heap.
    pub fn push_batch<I>(&mut self, batch: I)
    where
        I: IntoIterator<Item = (K, V)>,
    {
        let batch = batch.into_iter();
        let (lower, _) = batch.size_hint();
        self.reserve(lower);
        let before = self.keys.len();
        for (key, value) in batch {
            let bits = key.order_bits();
            let tag = self.next_tag(key.tie_rank());
            self.push_entry(bits, tag, value);
            self.len += 1;
        }
        self.max_len = self.max_len.max(self.len);
        // `next_tag` may have renumbered mid-batch; renumbering sorts the
        // whole region by `(key, tag)`, which is itself a valid heap, so
        // both restoration paths below stay correct (and cheap) after it.
        let total = self.keys.len();
        let appended = total - before;
        if appended == 0 {
            return;
        }
        if appended >= total / 4 {
            self.heapify();
        } else {
            for i in before..total {
                self.sift_up(i);
            }
        }
    }

    /// Restores the heap invariant over the whole sifted region by sifting
    /// down from the last parent to the root (Floyd's bottom-up
    /// construction). O(n) — each level's sift cost halves going up.
    fn heapify(&mut self) {
        let n = self.keys.len();
        if n < 2 {
            return;
        }
        let last_parent = (n - 2) / ARITY;
        for i in (0..=last_parent).rev() {
            self.sift_down(i);
        }
    }

    /// Keeps only the elements — sifted and staged — for which `keep`
    /// returns true, handing every other value to `on_drop`, and returns how
    /// many were dropped. The three columns and the staged run are filtered
    /// in place, then one Floyd [`heapify`](Self::heapify) pass restores the
    /// heap. Survivors keep their tags, and `(key, tag)` is a total order,
    /// so they pop in exactly the order they would have without the call.
    /// O(n); capacity is kept.
    pub fn retain(
        &mut self,
        mut keep: impl FnMut(&K, &V) -> bool,
        mut on_drop: impl FnMut(V),
    ) -> usize {
        let mut kept = 0;
        for i in 0..self.keys.len() {
            let (k, t, v) = (self.keys[i], self.tags[i], self.vals[i]);
            if keep(&Self::rebuild_key(k, t), &v) {
                self.put(kept, (k, t, v));
                kept += 1;
            } else {
                on_drop(v);
            }
        }
        self.keys.truncate(kept);
        self.tags.truncate(kept);
        self.vals.truncate(kept);
        self.staged.retain(|&(k, t, v)| {
            let keep = keep(&Self::rebuild_key(k, t), &v);
            if !keep {
                on_drop(v);
            }
            keep
        });
        self.heapify();
        let dropped = self.len - kept - self.staged.len();
        self.len -= dropped;
        dropped
    }

    /// Drains every element — sifted and staged — in arbitrary array order,
    /// visiting each rebuilt key and value exactly once, then leaves the
    /// heap empty. O(n) with zero sift work: the adaptive handoff harvests
    /// the whole frontier without needing it sorted, so popping entries one
    /// at a time would waste `n·log₄ n` comparisons re-ordering entries
    /// whose order is about to be discarded.
    pub fn drain_unordered(&mut self, mut visit: impl FnMut(K, V)) {
        for i in 0..self.keys.len() {
            visit(Self::rebuild_key(self.keys[i], self.tags[i]), self.vals[i]);
        }
        for (bits, tag, value) in std::mem::take(&mut self.staged) {
            visit(Self::rebuild_key(bits, tag), value);
        }
        self.clear();
    }

    /// Appends an element to the staged run without sifting — the hybrid
    /// queue's unorganised list tier. Staged entries keep their arrival
    /// tags, so a later [`FlatHeap::promote_staged`] restores exact
    /// `(distance, tie, arrival)` order.
    pub fn stage(&mut self, key: K, value: V) {
        let bits = key.order_bits();
        let tag = self.next_tag(key.tie_rank());
        Self::reserve_one(&mut self.staged);
        self.staged.push((bits, tag, value));
        self.len += 1;
        self.max_len = self.max_len.max(self.len);
    }

    /// Promotes every staged entry into the sifted region, returning how
    /// many moved. The staged run is sorted by `(key, tag)`; into an empty
    /// heap the sorted run *is* a valid implicit heap (every prefix of a
    /// sorted array satisfies the d-ary heap property), so promotion is a
    /// move with zero sift steps — the hybrid window advance always hits
    /// this path because it only pours when the heap tier is empty.
    pub fn promote_staged(&mut self) -> usize {
        let n = self.staged.len();
        if n == 0 {
            return 0;
        }
        self.staged.sort_by_key(|&(k, t, _)| (k, t));
        if self.keys.is_empty() {
            self.reserve(n);
            for (k, t, v) in self.staged.drain(..) {
                self.keys.push(k);
                self.tags.push(t);
                self.vals.push(v);
            }
        } else {
            for (k, t, v) in std::mem::take(&mut self.staged) {
                self.push_entry(k, t, v);
                self.sift_up(self.keys.len() - 1);
            }
        }
        n
    }

    /// Removes and returns the minimum element. O(log₄ n). Promotes the
    /// staged run first if the sifted region is empty.
    pub fn pop(&mut self) -> Option<(K, V)> {
        if self.keys.is_empty() {
            if self.staged.is_empty() {
                return None;
            }
            self.promote_staged();
        }
        let (bits, tag, value) = (self.keys[0], self.tags[0], self.vals[0]);
        let last = self.keys.len() - 1;
        if last > 0 {
            self.keys[0] = self.keys[last];
            self.tags[0] = self.tags[last];
            self.vals[0] = self.vals[last];
        }
        self.keys.truncate(last);
        self.tags.truncate(last);
        self.vals.truncate(last);
        if last > 1 {
            self.sift_down(0);
        }
        self.len -= 1;
        Some((Self::rebuild_key(bits, tag), value))
    }

    /// Allocates the next entry tag: `tie` in the high 8 bits over the
    /// arrival sequence. When the 24-bit sequence wraps, live entries are
    /// renumbered (relative order preserved) and the counter restarts past
    /// them; with ≥ 2^24 *live* entries the sequence saturates instead, and
    /// FIFO order among further equal keys degrades gracefully (the heap
    /// order itself stays valid).
    fn next_tag(&mut self, tie: u8) -> u32 {
        if self.seq > SEQ_MASK {
            self.renumber();
        }
        let tag = (u32::from(tie) << SEQ_BITS) | self.seq.min(SEQ_MASK);
        self.seq = self.seq.saturating_add(1);
        tag
    }

    /// Reassigns arrival sequences 0.. in global `(key, tag)` order across
    /// the sifted and staged regions. Order-preserving: equal-key entries
    /// keep their relative arrival order. The sifted region is rebuilt from
    /// its sorted entries, which is again a valid implicit heap.
    fn renumber(&mut self) {
        let sifted = self.keys.len();
        let mut all: Vec<(u64, u32, V, bool)> = Vec::with_capacity(sifted + self.staged.len());
        for i in 0..sifted {
            all.push((self.keys[i], self.tags[i], self.vals[i], true));
        }
        for &(k, t, v) in &self.staged {
            all.push((k, t, v, false));
        }
        all.sort_by_key(|&(k, t, _, _)| (k, t));
        self.keys.clear();
        self.tags.clear();
        self.vals.clear();
        self.staged.clear();
        for (rank, (k, t, v, in_sifted)) in all.into_iter().enumerate() {
            let seq = u32::try_from(rank).unwrap_or(u32::MAX).min(SEQ_MASK);
            let tag = (t & !SEQ_MASK) | seq;
            if in_sifted {
                self.keys.push(k);
                self.tags.push(tag);
                self.vals.push(v);
            } else {
                self.staged.push((k, tag, v));
            }
        }
        self.seq = u32::try_from(self.len).unwrap_or(u32::MAX);
    }

    /// Entry order: `(key, tag)` — i.e. `(distance bits, tie, arrival)`.
    #[inline]
    fn less(a: (u64, u32), b: (u64, u32)) -> bool {
        a < b
    }

    /// Moves entry `from` into slot `to` (all three columns).
    #[inline]
    fn move_entry(&mut self, from: usize, to: usize) {
        self.keys[to] = self.keys[from];
        self.tags[to] = self.tags[from];
        self.vals[to] = self.vals[from];
    }

    /// Writes `entry` into slot `i`.
    #[inline]
    fn put(&mut self, i: usize, (k, t, v): (u64, u32, V)) {
        self.keys[i] = k;
        self.tags[i] = t;
        self.vals[i] = v;
    }

    #[inline]
    fn sift_up(&mut self, mut i: usize) {
        let entry = (self.keys[i], self.tags[i], self.vals[i]);
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if !Self::less((entry.0, entry.1), (self.keys[parent], self.tags[parent])) {
                break;
            }
            self.move_entry(parent, i);
            i = parent;
        }
        self.put(i, entry);
    }

    #[inline]
    fn sift_down(&mut self, mut i: usize) {
        let n = self.keys.len();
        let entry = (self.keys[i], self.tags[i], self.vals[i]);
        loop {
            let base = ARITY * i + 1;
            if base >= n {
                break;
            }
            // Minimum of the up-to-4 children. The full-fan case reads one
            // 32-byte key lane plus one 16-byte tag lane through fixed-size
            // chunks — the same bounds-check-free lane shape as the geometry
            // kernels (`LANE_WIDTH` == ARITY).
            let mut best = 0usize;
            if base + ARITY <= n {
                let (klane, _) = self.keys[base..base + ARITY].as_chunks::<ARITY>();
                let (tlane, _) = self.tags[base..base + ARITY].as_chunks::<ARITY>();
                let (k4, t4) = (&klane[0], &tlane[0]);
                for j in 1..ARITY {
                    if Self::less((k4[j], t4[j]), (k4[best], t4[best])) {
                        best = j;
                    }
                }
            } else {
                for j in 1..n - base {
                    if Self::less(
                        (self.keys[base + j], self.tags[base + j]),
                        (self.keys[base + best], self.tags[base + best]),
                    ) {
                        best = j;
                    }
                }
            }
            let c = base + best;
            if !Self::less((self.keys[c], self.tags[c]), (entry.0, entry.1)) {
                break;
            }
            self.move_entry(c, i);
            i = c;
        }
        self.put(i, entry);
    }

    /// Moves the arrival sequence forward to `n` tags short of its 24-bit
    /// wrap (never backward, so FIFO order is kept): the push after the
    /// next `n` renumbers the live entries. Lets tests reach the wrap
    /// without 2^24 pushes.
    pub fn skip_to_sequence_wrap(&mut self, n: u32) {
        self.seq = self.seq.max((SEQ_MASK + 1).saturating_sub(n));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PairingHeap;
    use proptest::prelude::*;
    use sdj_geom::OrdF64;

    #[test]
    fn pops_in_order() {
        let mut h: FlatHeap<OrdF64, u64> = FlatHeap::new();
        for k in [5.0, 1.0, 4.0, 1.0, 3.0, 9.0, 2.0] {
            h.push(OrdF64::new(k), (k * 10.0) as u64);
        }
        let mut out = Vec::new();
        while let Some((k, _)) = h.pop() {
            out.push(k.get());
        }
        assert_eq!(out, vec![1.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0]);
        assert!(h.is_empty());
    }

    #[test]
    fn equal_keys_pop_fifo() {
        let mut h: FlatHeap<OrdF64, u64> = FlatHeap::new();
        for v in 0..50u64 {
            h.push(OrdF64::new(1.0), v);
        }
        for v in 0..50u64 {
            assert_eq!(h.pop().map(|(_, v)| v), Some(v));
        }
    }

    #[test]
    fn negative_and_zero_keys_order_correctly() {
        let mut h: FlatHeap<OrdF64, u64> = FlatHeap::new();
        for (i, d) in [-1.5, 0.0, -0.0, 3.0, -7.25, 0.0].iter().enumerate() {
            h.push(OrdF64::new(*d), i as u64);
        }
        let mut out = Vec::new();
        while let Some((k, v)) = h.pop() {
            out.push((k.get(), v));
        }
        // Sorted by key; the three zeros (+0.0, -0.0, +0.0) are equal under
        // OrdF64 and pop in arrival order.
        assert_eq!(
            out,
            vec![
                (-7.25, 4),
                (-1.5, 0),
                (0.0, 1),
                (-0.0, 2),
                (0.0, 5),
                (3.0, 3)
            ]
        );
    }

    #[test]
    fn staged_promotion_restores_order() {
        let mut h: FlatHeap<OrdF64, u64> = FlatHeap::new();
        h.stage(OrdF64::new(3.0), 0);
        h.stage(OrdF64::new(1.0), 1);
        h.stage(OrdF64::new(2.0), 2);
        h.stage(OrdF64::new(1.0), 3);
        assert_eq!(h.staged_len(), 4);
        assert_eq!(h.sifted_len(), 0);
        assert_eq!(h.promote_staged(), 4);
        assert_eq!(h.staged_len(), 0);
        let mut out = Vec::new();
        while let Some((k, v)) = h.pop() {
            out.push((k.get(), v));
        }
        // Equal keys in arrival (stage) order.
        assert_eq!(out, vec![(1.0, 1), (1.0, 3), (2.0, 2), (3.0, 0)]);
    }

    #[test]
    fn promote_into_nonempty_heap_sifts() {
        let mut h: FlatHeap<OrdF64, u64> = FlatHeap::new();
        h.push(OrdF64::new(2.0), 0);
        h.stage(OrdF64::new(1.0), 1);
        h.stage(OrdF64::new(3.0), 2);
        h.promote_staged();
        assert_eq!(h.pop().map(|(_, v)| v), Some(1));
        assert_eq!(h.pop().map(|(_, v)| v), Some(0));
        assert_eq!(h.pop().map(|(_, v)| v), Some(2));
    }

    #[test]
    fn pop_promotes_staged_when_sifted_is_empty() {
        let mut h: FlatHeap<OrdF64, u64> = FlatHeap::new();
        h.stage(OrdF64::new(5.0), 7);
        assert_eq!(h.pop().map(|(_, v)| v), Some(7));
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn renumber_preserves_fifo_across_wrap() {
        let mut h: FlatHeap<OrdF64, u64> = FlatHeap::new();
        for v in 0..10u64 {
            h.push(OrdF64::new(1.0), v);
        }
        h.stage(OrdF64::new(1.0), 10);
        // Force the 24-bit sequence to its limit: the next tag triggers a
        // renumber of the 11 live entries.
        h.skip_to_sequence_wrap(0);
        h.push(OrdF64::new(1.0), 11);
        h.stage(OrdF64::new(1.0), 12);
        h.promote_staged();
        for v in 0..13u64 {
            assert_eq!(h.pop().map(|(_, v)| v), Some(v), "at {v}");
        }
    }

    #[test]
    fn peek_top_visits_head_first_without_disturbing_the_heap() {
        let mut h: FlatHeap<OrdF64, u64> = FlatHeap::new();
        for k in [8u32, 3, 6, 1, 9, 2, 7] {
            h.push(OrdF64::new(f64::from(k)), u64::from(k) * 10);
        }
        let mut seen = Vec::new();
        h.peek_top(4, |k, v| seen.push((k.get(), *v)));
        assert_eq!(seen.len(), 4);
        assert_eq!(seen[0], (1.0, 10), "the minimum is visited first");
        let mut out = Vec::new();
        while let Some((k, _)) = h.pop() {
            out.push(k.get());
        }
        assert_eq!(out, vec![1.0, 2.0, 3.0, 6.0, 7.0, 8.0, 9.0]);
        let empty: FlatHeap<OrdF64, u64> = FlatHeap::new();
        empty.peek_top(5, |_, _| panic!("empty heap has nothing to visit"));
    }

    #[test]
    fn approx_bytes_tracks_capacity() {
        let mut h: FlatHeap<OrdF64, u64> = FlatHeap::new();
        assert_eq!(h.approx_bytes(), 0);
        h.push(OrdF64::new(1.0), 1);
        let one = h.approx_bytes();
        assert!(
            one >= 8 + 4 + 8,
            "key, tag and inline value accounted: {one}"
        );
        for k in 0..100 {
            h.push(OrdF64::new(f64::from(k)), 0);
        }
        assert!(h.approx_bytes() > one);
    }

    #[test]
    fn clear_resets() {
        let mut h: FlatHeap<OrdF64, u64> = FlatHeap::new();
        h.push(OrdF64::new(1.0), 1);
        h.stage(OrdF64::new(2.0), 2);
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.pop(), None);
        h.push(OrdF64::new(2.0), 2);
        assert_eq!(h.pop().map(|(_, v)| v), Some(2));
    }

    #[test]
    fn reserve_prevents_incremental_growth() {
        let mut h: FlatHeap<OrdF64, u64> = FlatHeap::new();
        h.reserve(64);
        let cap = h.keys.capacity();
        assert!(cap >= 64);
        for k in 0..64 {
            h.push(OrdF64::new(f64::from(k)), 0);
        }
        assert_eq!(h.keys.capacity(), cap, "no reallocation during pushes");
    }

    #[test]
    fn push_batch_large_takes_heapify_path() {
        // A batch much larger than the sifted region triggers the Floyd
        // bottom-up heapify; the pop sequence must be unchanged.
        let mut h: FlatHeap<OrdF64, u64> = FlatHeap::new();
        h.push(OrdF64::new(500.0), 999);
        h.push_batch((0..256u64).map(|v| (OrdF64::new(((v * 37) % 101) as f64), v)));
        let mut out = Vec::new();
        while let Some((k, v)) = h.pop() {
            out.push((k.get(), v));
        }
        assert_eq!(out.len(), 257);
        let mut sorted = out.clone();
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
        let dists: Vec<f64> = out.iter().map(|(k, _)| *k).collect();
        let expect: Vec<f64> = sorted.iter().map(|(k, _)| *k).collect();
        assert_eq!(dists, expect);
    }

    #[test]
    fn push_batch_small_keeps_fifo_among_equal_keys() {
        // A small batch into a large region takes the per-entry sift-up
        // path; equal keys must still pop in arrival order.
        let mut h: FlatHeap<OrdF64, u64> = FlatHeap::new();
        for v in 0..64u64 {
            h.push(OrdF64::new(2.0), v);
        }
        h.push_batch([(OrdF64::new(2.0), 64u64), (OrdF64::new(1.0), 65)]);
        assert_eq!(h.pop().map(|(_, v)| v), Some(65));
        for v in 0..65u64 {
            assert_eq!(h.pop().map(|(_, v)| v), Some(v));
        }
    }

    #[test]
    fn drain_unordered_yields_every_element_once() {
        let mut h: FlatHeap<OrdF64, u64> = FlatHeap::new();
        for v in 0..40u64 {
            h.push(OrdF64::new((v % 7) as f64), v);
        }
        for v in 40..50u64 {
            h.stage(OrdF64::new((v % 7) as f64), v);
        }
        let mut got = Vec::new();
        h.drain_unordered(|k, v| got.push((k.get(), v)));
        assert!(h.is_empty());
        assert_eq!(h.pop(), None);
        got.sort_by_key(|e| e.1);
        let expect: Vec<(f64, u64)> = (0..50u64).map(|v| ((v % 7) as f64, v)).collect();
        assert_eq!(got, expect);
        // Reusable afterwards.
        h.push(OrdF64::new(9.0), 1);
        assert_eq!(h.pop().map(|(_, v)| v), Some(1));
    }

    proptest! {
        /// `push_batch` (both restoration paths) agrees with per-element
        /// pushes into a pairing heap on the full pop sequence.
        #[test]
        fn push_batch_matches_individual_pushes(
            batches in prop::collection::vec(
                prop::collection::vec(0u32..20, 0..60),
                1..8,
            ),
        ) {
            let mut flat: FlatHeap<OrdF64, u32> = FlatHeap::new();
            let mut pairing: PairingHeap<OrdF64, u32> = PairingHeap::new();
            let mut next = 0u32;
            for batch in batches {
                let items: Vec<(OrdF64, u32)> = batch
                    .iter()
                    .map(|k| {
                        let v = next;
                        next += 1;
                        (OrdF64::new(f64::from(*k)), v)
                    })
                    .collect();
                for &(k, v) in &items {
                    pairing.push(k, v);
                }
                flat.push_batch(items);
                // Interleave a pop so batches land on non-empty regions.
                prop_assert_eq!(flat.pop(), pairing.pop());
            }
            while let Some(got) = flat.pop() {
                prop_assert_eq!(Some(got), pairing.pop());
            }
            prop_assert_eq!(pairing.pop(), None);
        }
    }

    proptest! {
        /// Heap order agrees with sorting, including duplicate keys.
        #[test]
        fn agrees_with_sort(keys in prop::collection::vec(0u32..1000, 0..300)) {
            let mut h: FlatHeap<OrdF64, usize> = FlatHeap::new();
            for (i, k) in keys.iter().enumerate() {
                h.push(OrdF64::new(f64::from(*k)), i);
            }
            let mut expect = keys.clone();
            expect.sort_unstable();
            let mut got = Vec::new();
            while let Some((k, _)) = h.pop() {
                got.push(k.get() as u32);
            }
            prop_assert_eq!(got, expect);
        }

        /// Random interleavings of push/stage/promote/pop agree with the
        /// seq-stamped pairing heap on the full (key, value) pop sequence —
        /// both realise the total order (key, arrival).
        #[test]
        fn matches_pairing_heap_exactly(
            ops in prop::collection::vec((0u8..4, 0u32..50), 1..400),
        ) {
            let mut flat: FlatHeap<OrdF64, u32> = FlatHeap::new();
            let mut pairing: PairingHeap<OrdF64, u32> = PairingHeap::new();
            for (i, (op, k)) in ops.into_iter().enumerate() {
                let v = i as u32;
                match op {
                    0 | 3 => {
                        flat.push(OrdF64::new(f64::from(k)), v);
                        pairing.push(OrdF64::new(f64::from(k)), v);
                    }
                    1 => {
                        // Stage + immediate promote is equivalent to push
                        // for ordering purposes (arrival tags persist).
                        flat.stage(OrdF64::new(f64::from(k)), v);
                        flat.promote_staged();
                        pairing.push(OrdF64::new(f64::from(k)), v);
                    }
                    _ => {
                        prop_assert_eq!(flat.pop(), pairing.pop());
                    }
                }
                prop_assert_eq!(flat.len(), pairing.len());
            }
            while let Some(got) = flat.pop() {
                prop_assert_eq!(Some(got), pairing.pop());
            }
            prop_assert_eq!(pairing.pop(), None);
        }

        /// `retain` interleaved with push, stage, promote and pop — also
        /// across a forced 24-bit tag wrap — drops the same values as
        /// `PairingHeap::retain` and leaves a heap that pops the same
        /// `(key, value)` sequence. Pops promote the staged run first, so
        /// both heaps hold one `(key, arrival)` order.
        #[test]
        fn retain_matches_pairing_retain(
            ops in prop::collection::vec((0u8..6, 0u32..50), 1..400),
            wrap in prop::option::of(0u32..40),
        ) {
            let mut flat: FlatHeap<OrdF64, u32> = FlatHeap::new();
            let mut pairing: PairingHeap<OrdF64, u32> = PairingHeap::new();
            if let Some(n) = wrap {
                flat.skip_to_sequence_wrap(n);
            }
            for (i, (op, k)) in ops.into_iter().enumerate() {
                let v = i as u32;
                let key = OrdF64::new(f64::from(k));
                match op {
                    0 | 1 => {
                        flat.push(key, v);
                        pairing.push(key, v);
                    }
                    2 => {
                        flat.stage(key, v);
                        pairing.push(key, v);
                    }
                    3 => {
                        flat.promote_staged();
                    }
                    4 => {
                        flat.promote_staged();
                        prop_assert_eq!(flat.pop(), pairing.pop());
                    }
                    _ => {
                        // Alternate a key bound (the join's discard) with
                        // a predicate on the value alone.
                        let keep = |key: &OrdF64, v: &u32| {
                            if k % 2 == 0 { key.get() <= f64::from(k) } else { v % 3 != k % 3 }
                        };
                        let (mut a, mut b) = (Vec::new(), Vec::new());
                        let dropped = flat.retain(keep, |v| a.push(v));
                        prop_assert_eq!(dropped, pairing.retain(keep, |v| b.push(v)));
                        prop_assert_eq!(dropped, a.len());
                        a.sort_unstable();
                        b.sort_unstable();
                        prop_assert_eq!(a, b);
                    }
                }
                prop_assert_eq!(flat.len(), pairing.len());
                prop_assert_eq!(flat.max_len(), pairing.max_len());
            }
            flat.promote_staged();
            while let Some(got) = flat.pop() {
                prop_assert_eq!(Some(got), pairing.pop());
            }
            prop_assert_eq!(pairing.pop(), None);
        }
    }
}
