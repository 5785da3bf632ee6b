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
//!   compact entries in SoA layout with small `Copy` values inline
//!   ([`Layout::FlatDary`], the default layout);
//! * [`HybridQueue`] — the three-tier memory/disk scheme of §3.2: keys below
//!   `D1` live in a heap (either layout), keys in `[D1, D2)` in an
//!   unorganised in-memory list, and keys of `D2` and above spill to linked
//!   page lists on a simulated disk, bucketed by a fixed distance increment
//!   `D_T`.
//!
//! All queues implement the fallible [`PriorityQueue`] trait so the join
//! algorithms can be configured with any backend, and all of them realise
//! the same total order `(key, arrival)` — equal keys pop in FIFO arrival
//! order — so the backend choice is invisible in result streams.
//!
//! # Key domains
//!
//! Queues order by whatever `f64` key the producer pushes. The distance join
//! pushes *squared* Euclidean distances (a monotone transform, so the pop
//! order is unchanged); the [`HybridQueue`] is the one structure that
//! interprets key magnitudes (its tier boundaries), so [`HybridConfig`]
//! carries a [`KeyScale`] translating its distance-valued `D_T` into the
//! producer's key domain.

mod flat;
mod hybrid;
mod pairing;
mod traits;

pub use flat::{FlatHeap, ARITY};
pub use hybrid::{HybridConfig, HybridQueue, HybridStats, KeyScale, Layout, TierGauges};
pub use pairing::PairingHeap;
pub use traits::{f64_from_order_bits, f64_order_bits, Codec, PriorityQueue, QueueKey};
