//! Simulated disk substrate with I/O accounting.
//!
//! The paper's evaluation (§3.1) runs on 1K-byte R*-tree pages with a 256K
//! buffer, and reports *node I/O* as one of its hardware-independent
//! performance measures. This crate reproduces that environment in-process:
//!
//! * [`Pager`] — a "disk" of fixed-size pages with read/write counters,
//! * [`BufferPool`] — a sharded page cache in front of a pager with pinned
//!   zero-copy [`PageGuard`] reads and batch [`BufferPool::prefetch`] hints;
//!   a demand buffer miss is what the experiments count as one node I/O,
//! * [`codec`] — small helpers for encoding tree nodes and spilled
//!   priority-queue entries into pages.
//!
//! The pool uses interior mutability so that read-only tree traversals (the
//! join and nearest-neighbour iterators) can fault pages in without requiring
//! `&mut` access to the index, and per-shard locking so the parallel
//! executor's workers do not serialise on warm reads.

mod buffer;
pub mod codec;
mod error;
pub mod fault;
mod pager;
pub mod persist;

pub use buffer::{BufferObs, BufferPool, PageGuard, PoolStats};
pub use error::StorageError;
pub use fault::{FaultConfig, FaultInjector};
pub use pager::{DiskStats, PageId, Pager};
pub use persist::PersistError;

/// Page size used throughout the paper's experiments (§3.1: "The size of the
/// nodes was 1K").
pub const DEFAULT_PAGE_SIZE: usize = 1024;

/// Buffer size used throughout the paper's experiments (§3.1: "256K of
/// memory used for buffers"), expressed in frames of [`DEFAULT_PAGE_SIZE`].
pub const DEFAULT_BUFFER_FRAMES: usize = 256;

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, StorageError>;
