//! Priority queues for distance-ordered processing.
//!
//! The heart of the incremental distance join is "a priority queue, where
//! each element contains a pair of items" (§2.2.1). This crate provides the
//! queue implementations the paper evaluates:
//!
//! * [`PairingHeap`] — the in-memory structure the paper chose ("we chose
//!   the pairing heap structure", §3.2), with O(1) insert and amortised
//!   O(log n) delete-min;
//! * [`FlatHeap`] — a cache-conscious flat 4-ary implicit heap sifting
//!   compact entries in SoA layout with small `Copy` values inline;
//! * [`HybridQueue`] — the three-tier memory/disk scheme of §3.2: keys below
//!   `D1` live in a heap, keys in `[D1, D2)` in an unorganised in-memory
//!   list (both inside one [`FlatHeap`]), and keys of `D2` and above spill
//!   to linked page lists on a simulated disk, bucketed by a fixed distance
//!   increment `D_T`.
//!
//! Each queue's operations are inherent methods. The two heaps cannot fail;
//! the hybrid queue's `push`, `pop` and `peek_key` return
//! `sdj_storage::Result`, because its disk tier can. All of them realise
//! the same total order `(key, arrival)` — equal keys pop in FIFO arrival
//! order — so the choice of queue is invisible in result streams.
//!
//! # Key domains
//!
//! Queues order by whatever `f64` key the producer pushes. The distance join
//! pushes *squared* Euclidean distances (a monotone transform, so the pop
//! order is unchanged); the [`HybridQueue`] is the one structure that
//! interprets key magnitudes (its tier boundaries), so [`HybridConfig`]
//! carries the producer's [`sdj_geom::KeySpace`] to translate its
//! distance-valued `D_T` into that key domain.

mod flat;
mod hybrid;
mod pairing;
mod traits;

pub use flat::{FlatHeap, ARITY};
pub use hybrid::{HybridConfig, HybridQueue, HybridStats, TierGauges};
pub use pairing::PairingHeap;
pub use traits::{f64_from_order_bits, f64_order_bits, Codec, QueueKey};
