//! Eviction correctness under pinning, and stats continuity.
//!
//! Three properties of the sharded pool:
//!
//! 1. **Continuity** — with one shard, `PoolStats` is byte-identical to a
//!    straightforward model of the historical single-lock LRU pool on any
//!    read/write trace (EXPERIMENTS.md miss counts stay comparable), and
//!    with N shards every shard is that model over its own sub-trace.
//! 2. **Pin safety** — with capacity C and up to C−1 concurrently held
//!    guards, a pinned page is never evicted (a later demand access is
//!    always a hit) and every guard keeps observing its acquisition-time
//!    snapshot, writes notwithstanding.
//! 3. **No deadlock / no torn reads** — threads hammering guards, updates
//!    and prefetches across shards make progress and only ever observe
//!    fully written pages.

use std::collections::HashMap;

use proptest::prelude::*;
use sdj_storage::{BufferPool, PageId, Pager, PoolStats};

const PAGE: usize = 16;

/// A trace-replay model of the historical pool: exact LRU over whole pages,
/// counting hits, misses, evictions and write-backs exactly as the old
/// single-mutex implementation did.
#[derive(Default)]
struct ModelLru {
    /// Most-recent-first list of `(page, dirty)`.
    frames: Vec<(u32, bool)>,
    capacity: usize,
    stats: PoolStats,
}

impl ModelLru {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            ..Self::default()
        }
    }

    fn access(&mut self, page: u32, write: bool) {
        if let Some(pos) = self.frames.iter().position(|&(p, _)| p == page) {
            self.stats.hits += 1;
            let (_, dirty) = self.frames.remove(pos);
            self.frames.insert(0, (page, dirty || write));
        } else {
            self.stats.misses += 1;
            // The real pool takes the pager lock once per fault (read plus
            // any write-back under the same acquisition).
            self.stats.shared_lock_acquisitions += 1;
            if self.frames.len() >= self.capacity {
                let (_, dirty) = self.frames.pop().expect("capacity > 0");
                if dirty {
                    self.stats.writebacks += 1;
                }
                self.stats.evictions += 1;
            }
            self.frames.insert(0, (page, write));
        }
        if !write {
            // The copying `read` API pays one counted memcpy per call.
            self.stats.read_copies += 1;
        }
    }
}

fn pool_over(pages: u32, capacity: usize, shards: usize) -> (BufferPool, Vec<PageId>) {
    let mut pager = Pager::new(PAGE);
    let ids: Vec<PageId> = (0..pages).map(|_| pager.allocate()).collect();
    for (i, id) in ids.iter().enumerate() {
        pager.write(*id, &[i as u8; PAGE]).unwrap();
    }
    pager.reset_stats();
    (BufferPool::sharded(pager, capacity, shards), ids)
}

/// One operation of a fuzzed access trace.
#[derive(Clone, Copy, Debug)]
enum Op {
    Read(u32),
    Write(u32, u8),
    /// Acquire a guard on a page (skipped when C−1 guards are already live).
    Guard(u32),
    /// Drop the oldest live guard.
    Release,
}

fn arb_trace(pages: u32) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0..pages).prop_map(Op::Read),
            ((0..pages), any::<u8>()).prop_map(|(p, v)| Op::Write(p, v)),
            (0..pages).prop_map(Op::Guard),
            Just(Op::Release),
        ],
        1..120,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Shard count 1 ⇒ byte-identical stats to the historical pool's model
    /// on a guard-free trace. With 2 or 4 shards, each shard's stats equal
    /// the model run over that shard's sub-trace (pages `p % shards`) with
    /// that shard's share of the frames.
    #[test]
    fn single_shard_stats_match_the_serial_model(
        capacity in 1usize..6,
        trace in arb_trace(10),
    ) {
        let mut model = ModelLru::new(capacity);
        let (pool, ids) = pool_over(10, capacity, 1);
        let mut buf = [0u8; PAGE];
        for op in &trace {
            match *op {
                Op::Read(p) | Op::Guard(p) => {
                    pool.read(ids[p as usize], &mut buf).unwrap();
                    model.access(p, false);
                }
                Op::Write(p, v) => {
                    pool.write(ids[p as usize], &[v; PAGE]).unwrap();
                    model.access(p, true);
                }
                Op::Release => {}
            }
        }
        prop_assert_eq!(pool.stats(), model.stats);

        for shards in [2usize, 4] {
            let (pool, ids) = pool_over(10, capacity, shards);
            // The pool clamps its shard count to its frames and gives the
            // first `capacity % n` shards one extra frame.
            let n = pool.shard_count();
            prop_assert_eq!(n, shards.min(capacity));
            let mut models: Vec<ModelLru> = (0..n)
                .map(|i| ModelLru::new(capacity / n + usize::from(i < capacity % n)))
                .collect();
            for op in &trace {
                let (p, write) = match *op {
                    Op::Read(p) | Op::Guard(p) => {
                        pool.read(ids[p as usize], &mut buf).unwrap();
                        (p, false)
                    }
                    Op::Write(p, v) => {
                        pool.write(ids[p as usize], &[v; PAGE]).unwrap();
                        (p, true)
                    }
                    Op::Release => continue,
                };
                models[ids[p as usize].0 as usize % n].access(p, write);
            }
            for (i, (got, model)) in pool.shard_stats().iter().zip(&models).enumerate() {
                // `read_copies` and pager-lock acquisitions are pool-wide
                // counters, which `shard_stats` leaves at zero.
                let want = PoolStats {
                    read_copies: 0,
                    shared_lock_acquisitions: 0,
                    ..model.stats
                };
                prop_assert_eq!(*got, want, "shard {} of {}", i, n);
            }
        }
    }

    /// With up to C−1 live guards, pinned pages are never evicted and every
    /// guard keeps its acquisition-time snapshot, with and without
    /// sharding.
    #[test]
    fn pinned_pages_are_never_evicted(
        capacity in 2usize..6,
        shards in 1usize..3,
        trace in arb_trace(12),
    ) {
        let (pool, ids) = pool_over(12, capacity, shards);
        // Current full-page fill value per page (initial fill = page index).
        let mut contents: HashMap<u32, u8> = (0..12u32).map(|p| (p, p as u8)).collect();
        // Live guards with their page index and acquisition-time snapshot.
        let mut guards: Vec<(sdj_storage::PageGuard, u32, u8)> = Vec::new();
        let mut buf = [0u8; PAGE];
        for op in trace {
            match op {
                Op::Read(p) => {
                    pool.read(ids[p as usize], &mut buf).unwrap();
                    assert_eq!(buf, [contents[&p]; PAGE]);
                }
                Op::Write(p, v) => {
                    pool.write(ids[p as usize], &[v; PAGE]).unwrap();
                    contents.insert(p, v);
                }
                Op::Guard(p) => {
                    if guards.len() < capacity - 1 {
                        let g = pool.read_guard(ids[p as usize]).unwrap();
                        guards.push((g, p, contents[&p]));
                    }
                }
                Op::Release => {
                    if !guards.is_empty() {
                        guards.remove(0);
                    }
                }
            }
            for (g, _, want) in &guards {
                prop_assert_eq!(&**g, &[*want; PAGE][..], "guard must keep its snapshot");
            }
        }
        // Every page a live pinned guard protects is still resident:
        // re-reading it must be a hit (pinned frames are never eviction
        // victims). Transient guards — taken while their whole shard was
        // pinned — cached nothing, so they carry no such promise.
        let before = pool.stats().misses;
        for (g, p, _) in &guards {
            if g.is_pinned() {
                pool.read(ids[*p as usize], &mut buf).unwrap();
                assert_eq!(buf, [contents[p]; PAGE]);
            }
        }
        prop_assert_eq!(
            pool.stats().misses, before,
            "a pinned page was evicted under pressure"
        );
        prop_assert!(pool.resident() <= capacity, "transient reads must not be cached");
    }
}

/// Pin safety, demand-hit property, stated directly: hold guards on C−1
/// distinct pages, churn every other page through the pool, then demand the
/// pinned pages again — zero new misses.
#[test]
fn held_guards_pin_their_pages_through_churn() {
    for shards in [1, 2] {
        let (pool, ids) = pool_over(16, 4, shards);
        let g0 = pool.read_guard(ids[0]).unwrap();
        let g1 = pool.read_guard(ids[1]).unwrap();
        assert!(g0.is_pinned() && g1.is_pinned());
        let mut buf = [0u8; PAGE];
        for _ in 0..3 {
            for id in &ids[2..] {
                pool.read(*id, &mut buf).unwrap();
            }
        }
        let before = pool.stats().misses;
        pool.read(ids[0], &mut buf).unwrap();
        pool.read(ids[1], &mut buf).unwrap();
        assert_eq!(
            pool.stats().misses,
            before,
            "pinned pages were evicted under churn ({shards} shards)"
        );
        assert_eq!(&*g0, &[0u8; PAGE]);
        assert_eq!(&*g1, &[1u8; PAGE]);
    }
}

/// Concurrency stress: threads holding guards, updating pages and issuing
/// prefetch hints across shards must make progress (no deadlock), never
/// observe a torn page, and keep the demand-access accounting exact.
#[test]
fn threaded_pin_evict_stress() {
    for shards in [1usize, 4] {
        let (pool, ids) = pool_over(24, 8, shards);
        const THREADS: u64 = 4;
        const OPS: u64 = 2000;
        let demand_ops: u64 = std::thread::scope(|scope| {
            let mut workers = Vec::new();
            for t in 0..THREADS {
                let pool = &pool;
                let ids = &ids[..];
                workers.push(scope.spawn(move || {
                    let mut held: Vec<sdj_storage::PageGuard> = Vec::new();
                    let mut demand = 0u64;
                    let mut rng = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(t + 1);
                    let mut next = move || {
                        rng ^= rng << 13;
                        rng ^= rng >> 7;
                        rng ^= rng << 17;
                        rng
                    };
                    for _ in 0..OPS {
                        let p = ids[(next() % 24) as usize];
                        match next() % 4 {
                            0 => {
                                let g = pool.read_guard(p).unwrap();
                                demand += 1;
                                let first = g[0];
                                assert!(
                                    g.iter().all(|&b| b == first),
                                    "torn page observed through a guard"
                                );
                                if held.len() >= 3 {
                                    held.remove(0);
                                }
                                held.push(g);
                            }
                            1 => {
                                let v = (next() % 251) as u8;
                                pool.update(p, |data| data.fill(v)).unwrap();
                                demand += 1;
                            }
                            2 => {
                                let q = ids[(next() % 24) as usize];
                                pool.prefetch(&[p, q]);
                            }
                            _ => {
                                let mut buf = [0u8; PAGE];
                                pool.read(p, &mut buf).unwrap();
                                demand += 1;
                                let first = buf[0];
                                assert!(
                                    buf.iter().all(|&b| b == first),
                                    "torn page observed through read()"
                                );
                            }
                        }
                        // Held guards stay uniform snapshots forever.
                        for g in &held {
                            let first = g[0];
                            assert!(g.iter().all(|&b| b == first), "guard snapshot torn");
                        }
                    }
                    demand
                }));
            }
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        let s = pool.stats();
        // Demand accounting is exact under contention: every read/update/
        // guard op is one hit or one miss; prefetch never counts as demand.
        assert_eq!(
            s.accesses(),
            demand_ops,
            "lost or duplicated demand accesses"
        );
        assert!(demand_ops > 0 && demand_ops < THREADS * OPS);
        assert!(pool.resident() <= 8, "pool exceeded its frame budget");
        pool.flush_all().unwrap();
    }
}
