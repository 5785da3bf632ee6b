//! Isolated probes of layer primitives at a workload's operating point.
//!
//! A probe times one public primitive of one layer in a tight loop; the
//! traced run multiplies the result by the count the engine reported to
//! get that layer's `est_busy_ms` — the most a faster layer could save.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sdj_core::{Item, JoinConfig, JoinQueue, Pair, PairKey};
use sdj_geom::{Point, Rect, SoaRects};
use sdj_rtree::{EntryPtr, ObjectId, PageId, RTree};

/// Wall-clock budget of one probe, seconds.
const PROBE_SECONDS: f64 = 0.05;

/// Every node page of `tree`, root first, leaves last.
pub fn all_pages(tree: &RTree<2>) -> Vec<PageId> {
    let mut pages = vec![tree.root_id()];
    let mut next = 0;
    while next < pages.len() {
        let node = tree
            .read_node(pages[next])
            .expect("in-memory pager cannot fail");
        next += 1;
        pages.extend(node.entries.iter().filter_map(|e| match e.ptr {
            EntryPtr::Child(p) => Some(p),
            EntryPtr::Object(_) => None,
        }));
    }
    pages
}

/// Mean ns of `RTree::scan_node` cycling over `pages` until the probe
/// budget is spent.
fn scan_ns(tree: &RTree<2>, pages: &[PageId]) -> f64 {
    let mut scans = 0u64;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < PROBE_SECONDS {
        for &p in pages {
            let level = tree.scan_node(p, |_, e| {
                black_box(e);
            });
            black_box(level.expect("in-memory pager cannot fail"));
        }
        scans += pages.len() as u64;
    }
    start.elapsed().as_nanos() as f64 / scans as f64
}

/// `(hit_ns, miss_ns)`: a node scan on a resident page, and the extra cost
/// of faulting the page in first. Hits cycle over fewer pages than the pool
/// has frames; misses cycle over more, which defeats LRU completely. A pool
/// that holds the whole tree cannot miss, and `miss_ns` reads 0.
pub fn scan_probe(tree: &RTree<2>, pages: &[PageId], frames: usize) -> (f64, f64) {
    let leaves = &pages[pages.len() - pages.len().min(frames + frames / 2 + 1)..];
    let resident = &leaves[..leaves.len().min(frames / 2).max(1)];
    let hit = scan_ns(tree, resident);
    let miss = if leaves.len() > frames {
        (scan_ns(tree, leaves) - hit).max(0.0)
    } else {
        0.0
    };
    (hit, miss)
}

/// `(push_ns, pop_ns)` of the join's queue (backend and layout taken from
/// `config`), grown to `max_len` while pushing `enq_per_deq` pairs per pop
/// with keys at or above the last popped key, as the join does.
pub fn queue_probe(config: &JoinConfig, max_len: usize, enq_per_deq: f64, seed: u64) -> (f64, f64) {
    const POPS: usize = 32;
    if max_len == 0 {
        return (0.0, 0.0);
    }
    let pushes_per_block = ((enq_per_deq * POPS as f64).round() as usize).max(POPS + 1);
    let mut queue = JoinQueue::<2>::new(&config.queue, config.layout, config.key_space());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut block = Vec::with_capacity(pushes_per_block);
    let (mut floor, mut push_ns, mut pop_ns, mut pushes, mut pops) =
        (0.0f64, 0u128, 0u128, 0u64, 0u64);
    let obr = |rng: &mut StdRng| {
        let p = Point::xy(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
        Item::Obr {
            oid: ObjectId(rng.random_range(0..200_000u64)),
            mbr: p.to_rect(),
        }
    };
    while queue.len() < max_len {
        block.clear();
        for _ in 0..pushes_per_block {
            let pair = Pair::new(obr(&mut rng), obr(&mut rng));
            let key = PairKey::new(floor + rng.random_range(0.0..1e-6), &pair, config.tie);
            block.push((key, pair));
        }
        let t = Instant::now();
        for &(key, pair) in &block {
            queue.push(key, pair).expect("memory queue cannot fail");
        }
        push_ns += t.elapsed().as_nanos();
        pushes += block.len() as u64;
        let t = Instant::now();
        for _ in 0..POPS {
            if let Some((key, pair)) = queue.pop().expect("memory queue cannot fail") {
                floor = key.dist.get();
                black_box(pair);
            }
        }
        pop_ns += t.elapsed().as_nanos();
        pops += POPS as u64;
    }
    (push_ns as f64 / pushes as f64, pop_ns as f64 / pops as f64)
}

/// ns per rectangle of `SoaRects::mindist_keys` over 50-entry batches (one
/// node's worth at fan-out 50) in `config`'s key space.
pub fn mindist_probe(config: &JoinConfig, seed: u64) -> f64 {
    const FANOUT: usize = 50;
    let mut rng = StdRng::seed_from_u64(seed);
    let rect = |rng: &mut StdRng| {
        let (x, y) = (rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
        Rect::new([x, y], [x + 0.01, y + 0.01])
    };
    let mut batch = SoaRects::<2>::new();
    for _ in 0..FANOUT {
        batch.push(&rect(&mut rng));
    }
    let queries: Vec<Rect<2>> = (0..64).map(|_| rect(&mut rng)).collect();
    let keys = config.key_space();
    let mut out = Vec::with_capacity(FANOUT);
    let mut rects = 0u64;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < PROBE_SECONDS {
        for q in &queries {
            out.clear();
            batch.mindist_keys(keys, black_box(q), 0..FANOUT, &mut out);
            black_box(&out);
        }
        rects += (queries.len() * FANOUT) as u64;
    }
    start.elapsed().as_nanos() as f64 / rects as f64
}
