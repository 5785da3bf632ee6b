//! A pairing heap (Fredman, Sedgewick, Sleator & Tarjan 1986) — the
//! in-memory priority queue the paper uses (§3.2).
//!
//! Nodes live in an arena with a free list, so steady-state push/pop cycles
//! perform no allocation. `push` and `merge` are O(1); `pop` performs the
//! classic two-pass pairing of the root's children, amortised O(log n).

const NIL: usize = usize::MAX;

struct Slot<K, V> {
    data: Option<(K, V)>,
    /// Arrival stamp: merges compare `(key, seq)`, a *total* order, so
    /// equal keys pop in FIFO arrival order — the same order the flat
    /// d-ary layout realises, which is what makes result streams
    /// bit-identical across queue layouts.
    seq: u64,
    child: usize,
    sibling: usize,
}

/// An arena-backed pairing heap ordered by minimum `(key, arrival)`.
pub struct PairingHeap<K, V> {
    slots: Vec<Slot<K, V>>,
    free: Vec<usize>,
    root: usize,
    len: usize,
    max_len: usize,
    seq: u64,
}

impl<K: Ord, V> Default for PairingHeap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord, V> PairingHeap<K, V> {
    /// Creates an empty heap.
    #[must_use]
    pub fn new() -> Self {
        Self {
            slots: Vec::new(),
            free: Vec::new(),
            root: NIL,
            len: 0,
            max_len: 0,
            seq: 0,
        }
    }

    /// Creates an empty heap with pre-allocated capacity.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            slots: Vec::with_capacity(cap),
            ..Self::new()
        }
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the heap has no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reference to the minimum key.
    #[must_use]
    pub fn peek(&self) -> Option<&K> {
        // NIL is usize::MAX, so `get` covers both the empty heap and (as a
        // fail-safe rather than a panic) a vacant root slot.
        self.slots.get(self.root)?.data.as_ref().map(|(k, _)| k)
    }

    /// Reference to the minimum key and its value.
    #[must_use]
    pub fn peek_entry(&self) -> Option<(&K, &V)> {
        self.slots
            .get(self.root)?
            .data
            .as_ref()
            .map(|(k, v)| (k, v))
    }

    /// Visits up to `limit` entries from the top of the heap, breadth-first
    /// from the root: the minimum first, then the roots of its child
    /// subtrees, then theirs. Every entry visited at depth d is a subtree
    /// minimum — smaller than everything below it — so the visited set is a
    /// cheap approximation of "the entries nearest the head" without
    /// disturbing the heap. The join engine uses this to pick node pages
    /// worth prefetching. O(limit).
    pub fn peek_top(&self, limit: usize, mut visit: impl FnMut(&K, &V)) {
        if self.root == NIL || limit == 0 {
            return;
        }
        let mut frontier = vec![self.root];
        let mut at = 0;
        while at < frontier.len() && frontier.len() < limit {
            let mut child = self.slots[frontier[at]].child;
            while child != NIL && frontier.len() < limit {
                frontier.push(child);
                child = self.slots[child].sibling;
            }
            at += 1;
        }
        for idx in frontier {
            if let Some((k, v)) = self.slots[idx].data.as_ref() {
                visit(k, v);
            }
        }
    }

    /// Ensures space for `additional` more elements without reallocating the
    /// arena (beyond slots recycled through the free list).
    pub fn reserve(&mut self, additional: usize) {
        let fresh_needed = additional.saturating_sub(self.free.len());
        let spare = self.slots.capacity() - self.slots.len();
        if fresh_needed > spare {
            self.slots.reserve(fresh_needed - spare);
        }
    }

    /// Inserts a batch of elements, growing the arena at most once. Each
    /// insertion is still the O(1) root merge, so this is `push` in a loop
    /// minus the incremental reallocation — the join engine's expansion loops
    /// use it to enqueue a node's children in one call.
    pub fn push_batch<I>(&mut self, batch: I)
    where
        I: IntoIterator<Item = (K, V)>,
    {
        let batch = batch.into_iter();
        let (lower, _) = batch.size_hint();
        self.reserve(lower);
        for (key, value) in batch {
            self.push(key, value);
        }
    }

    /// Inserts an element. O(1).
    pub fn push(&mut self, key: K, value: V) {
        let seq = self.seq;
        self.seq += 1;
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slots[idx] = Slot {
                    data: Some((key, value)),
                    seq,
                    child: NIL,
                    sibling: NIL,
                };
                idx
            }
            None => {
                self.slots.push(Slot {
                    data: Some((key, value)),
                    seq,
                    child: NIL,
                    sibling: NIL,
                });
                self.slots.len() - 1
            }
        };
        self.root = if self.root == NIL {
            idx
        } else {
            self.merge(self.root, idx)
        };
        self.len += 1;
        self.max_len = self.max_len.max(self.len);
    }

    /// Removes and returns the minimum element. Amortised O(log n).
    pub fn pop(&mut self) -> Option<(K, V)> {
        if self.root == NIL {
            return None;
        }
        let old_root = self.root;
        // A vacant root would mean the arena invariant broke; treat it as an
        // empty heap instead of aborting a long-running join.
        let data = self.slots[old_root].data.take()?;
        self.root = self.merge_children(self.slots[old_root].child);
        self.slots[old_root].child = NIL;
        self.slots[old_root].sibling = NIL;
        self.free.push(old_root);
        self.len -= 1;
        Some(data)
    }

    /// Keeps only the elements for which `keep` returns true, handing every
    /// other value to `on_drop`, and returns how many were dropped. The
    /// survivors are re-pushed in `(key, arrival)` order, which renumbers
    /// their arrival stamps without reordering them, and later pushes still
    /// stamp past every survivor. So they pop in exactly the order they
    /// would have without the call — the order [`crate::FlatHeap::retain`]
    /// keeps too. O(n log n); the arena's capacity is kept.
    pub fn retain(
        &mut self,
        mut keep: impl FnMut(&K, &V) -> bool,
        mut on_drop: impl FnMut(V),
    ) -> usize {
        let before = self.len;
        let mut survivors = Vec::with_capacity(before);
        for slot in &mut self.slots {
            if let Some((key, value)) = slot.data.take() {
                if keep(&key, &value) {
                    survivors.push((key, slot.seq, value));
                } else {
                    on_drop(value);
                }
            }
        }
        survivors.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        let seq = self.seq;
        self.clear();
        for (key, _, value) in survivors {
            self.push(key, value);
        }
        self.seq = seq;
        before - self.len
    }

    /// Drops all elements, keeping the arena capacity.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.root = NIL;
        self.len = 0;
        self.seq = 0;
    }

    /// Largest length observed.
    #[must_use]
    pub fn max_len(&self) -> usize {
        self.max_len
    }

    /// Approximate resident bytes of the heap: the slot arena and free list
    /// at their allocated capacities.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot<K, V>>()
            + self.free.capacity() * std::mem::size_of::<usize>()
    }

    /// `(key, arrival)` order between two slots — a strict total order, so
    /// FIFO among equal keys is structural, not merge-order luck. Vacant
    /// slots sort last so a broken occupancy invariant degrades the
    /// ordering instead of panicking.
    fn le(&self, a: usize, b: usize) -> bool {
        match (self.slots[a].data.as_ref(), self.slots[b].data.as_ref()) {
            (Some(x), Some(y)) => match x.0.cmp(&y.0) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Greater => false,
                std::cmp::Ordering::Equal => self.slots[a].seq <= self.slots[b].seq,
            },
            (Some(_), None) => true,
            (None, _) => false,
        }
    }

    /// Links two heap roots, returning the new root.
    fn merge(&mut self, a: usize, b: usize) -> usize {
        debug_assert!(a != NIL && b != NIL);
        let (parent, child) = if self.le(a, b) { (a, b) } else { (b, a) };
        self.slots[child].sibling = self.slots[parent].child;
        self.slots[parent].child = child;
        parent
    }

    /// Two-pass merge of a sibling list: pair left-to-right, then fold the
    /// pairs right-to-left.
    fn merge_children(&mut self, first: usize) -> usize {
        if first == NIL {
            return NIL;
        }
        // Pass 1: merge adjacent pairs.
        let mut pairs: Vec<usize> = Vec::new();
        let mut cur = first;
        while cur != NIL {
            let next = self.slots[cur].sibling;
            self.slots[cur].sibling = NIL;
            if next == NIL {
                pairs.push(cur);
                break;
            }
            let after = self.slots[next].sibling;
            self.slots[next].sibling = NIL;
            pairs.push(self.merge(cur, next));
            cur = after;
        }
        // Pass 2: fold right-to-left. The loop above pushed at least one
        // pair, so the fold starts from a real root.
        let mut root = NIL;
        while let Some(p) = pairs.pop() {
            root = if root == NIL { p } else { self.merge(root, p) };
        }
        root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sdj_geom::OrdF64;

    #[test]
    fn pops_in_order() {
        let mut h = PairingHeap::new();
        for k in [5, 1, 4, 1, 3, 9, 2] {
            h.push(k, k * 10);
        }
        let mut out = Vec::new();
        while let Some((k, _)) = h.pop() {
            out.push(k);
        }
        assert_eq!(out, vec![1, 1, 2, 3, 4, 5, 9]);
        assert!(h.is_empty());
    }

    #[test]
    fn peek_matches_pop() {
        let mut h = PairingHeap::new();
        h.push(OrdF64::new(2.0), "b");
        h.push(OrdF64::new(1.0), "a");
        assert_eq!(h.peek().unwrap().get(), 1.0);
        assert_eq!(h.peek_entry().unwrap().1, &"a");
        assert_eq!(h.pop().unwrap().1, "a");
        assert_eq!(h.peek().unwrap().get(), 2.0);
    }

    #[test]
    fn interleaved_push_pop() {
        let mut h = PairingHeap::new();
        h.push(3, ());
        h.push(1, ());
        assert_eq!(h.pop().unwrap().0, 1);
        h.push(0, ());
        h.push(5, ());
        assert_eq!(h.pop().unwrap().0, 0);
        assert_eq!(h.pop().unwrap().0, 3);
        assert_eq!(h.pop().unwrap().0, 5);
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn arena_is_reused() {
        let mut h = PairingHeap::new();
        for round in 0..10 {
            for k in 0..100 {
                h.push(k, round);
            }
            for _ in 0..100 {
                h.pop().unwrap();
            }
        }
        assert!(h.slots.len() <= 100, "arena grew to {}", h.slots.len());
    }

    #[test]
    fn equal_keys_pop_fifo() {
        let mut h = PairingHeap::new();
        for v in 0..50u64 {
            h.push(1u32, v);
        }
        h.push(0, 99);
        assert_eq!(h.pop(), Some((0, 99)));
        for v in 0..50u64 {
            assert_eq!(h.pop(), Some((1, v)));
        }
    }

    #[test]
    fn tracks_high_water_mark() {
        let mut h = PairingHeap::new();
        for k in 0..50 {
            h.push(k, ());
        }
        for _ in 0..30 {
            h.pop();
        }
        h.push(0, ());
        assert_eq!(h.max_len(), 50);
        assert_eq!(h.len(), 21);
    }

    #[test]
    fn push_batch_orders_like_push() {
        let mut batched = PairingHeap::new();
        let mut serial = PairingHeap::new();
        batched.push(7, ());
        serial.push(7, ());
        batched.push_batch([4, 9, 1, 4].map(|k| (k, ())));
        for k in [4, 9, 1, 4] {
            serial.push(k, ());
        }
        assert_eq!(batched.len(), 5);
        while let Some((k, ())) = batched.pop() {
            assert_eq!(Some(k), serial.pop().map(|(k, ())| k));
        }
        assert!(serial.is_empty());
    }

    #[test]
    fn reserve_prevents_incremental_growth() {
        let mut h: PairingHeap<u32, ()> = PairingHeap::new();
        h.reserve(64);
        let cap = h.slots.capacity();
        assert!(cap >= 64);
        for k in 0..64 {
            h.push(k, ());
        }
        assert_eq!(h.slots.capacity(), cap, "no reallocation during pushes");
        // Recycled slots count toward a later reservation.
        for _ in 0..64 {
            h.pop();
        }
        h.reserve(64);
        assert_eq!(h.slots.capacity(), cap);
    }

    #[test]
    fn peek_top_visits_head_first_without_disturbing_the_heap() {
        let mut h = PairingHeap::new();
        for k in [8, 3, 6, 1, 9, 2, 7] {
            h.push(k, k * 10);
        }
        let mut seen = Vec::new();
        h.peek_top(4, |k, v| seen.push((*k, *v)));
        assert_eq!(seen.len(), 4);
        assert_eq!(seen[0], (1, 10), "the minimum is visited first");
        // The heap itself is untouched.
        let mut out = Vec::new();
        while let Some((k, _)) = h.pop() {
            out.push(k);
        }
        assert_eq!(out, vec![1, 2, 3, 6, 7, 8, 9]);
        // Degenerate limits are safe.
        let empty: PairingHeap<u32, ()> = PairingHeap::new();
        empty.peek_top(5, |_, _| panic!("empty heap has nothing to visit"));
        let mut one = PairingHeap::new();
        one.push(4, ());
        one.peek_top(0, |_, _| panic!("limit 0 visits nothing"));
    }

    #[test]
    fn clear_resets() {
        let mut h = PairingHeap::new();
        h.push(1, ());
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.pop(), None);
        h.push(2, ());
        assert_eq!(h.pop().unwrap().0, 2);
    }

    proptest! {
        /// Heap order agrees with sorting, including duplicate keys.
        #[test]
        fn agrees_with_sort(keys in prop::collection::vec(0u32..1000, 0..300)) {
            let mut h = PairingHeap::new();
            for (i, k) in keys.iter().enumerate() {
                h.push(*k, i);
            }
            let mut expect = keys.clone();
            expect.sort_unstable();
            let mut got = Vec::new();
            while let Some((k, _)) = h.pop() {
                got.push(k);
            }
            prop_assert_eq!(got, expect);
        }

        /// Random interleavings of push/pop behave like a reference
        /// BinaryHeap.
        #[test]
        fn matches_reference_under_interleaving(ops in prop::collection::vec((any::<bool>(), 0u32..100), 1..400)) {
            use std::cmp::Reverse;
            use std::collections::BinaryHeap;
            let mut h = PairingHeap::new();
            let mut reference = BinaryHeap::new();
            for (is_pop, k) in ops {
                if is_pop {
                    let got = h.pop().map(|(k, ())| k);
                    let want = reference.pop().map(|Reverse(k)| k);
                    prop_assert_eq!(got, want);
                } else {
                    h.push(k, ());
                    reference.push(Reverse(k));
                }
                prop_assert_eq!(h.len(), reference.len());
            }
        }
    }
}
