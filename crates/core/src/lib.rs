//! Incremental distance join algorithms for spatial databases.
//!
//! This crate implements the two operations introduced by Hjaltason & Samet
//! (SIGMOD 1998) and the full design space their evaluation explores:
//!
//! * **Distance join** ([`DistanceJoin::new`]): the Cartesian product of two
//!   spatially indexed relations, streamed in order of the distance between
//!   the joined objects.
//! * **Distance semi-join** ([`DistanceJoin::semi`]): for each object of the
//!   first relation, its nearest partner in the second, streamed in distance
//!   order — a database-primitive clustering / discrete-Voronoi operation.
//!
//! Both are *incremental*: results are produced one at a time from a
//! priority queue of index-item pairs, so a pipelined consumer that stops
//! after `k` results pays only for what it consumed.
//!
//! The knobs of the paper's §2.2–§2.3 are all exposed through
//! [`JoinConfig`] and [`SemiConfig`]:
//!
//! | Paper concept | Here |
//! |---|---|
//! | tie-breaking (§2.2.2) | [`TiePolicy`] |
//! | node/node processing (§2.2.2) | [`TraversalPolicy`] |
//! | distance range (§2.2.3) | [`JoinConfig::with_range`] |
//! | max-distance estimation (§2.2.4) | [`JoinConfig::with_max_pairs`], [`EstimationBound`] |
//! | reverse ordering (§2.2.5) | [`ResultOrder::Descending`] |
//! | hybrid queue (§3.2) | [`QueueBackend::Hybrid`] |
//! | semi-join filtering (§4.2.1) | [`SemiFilter`] |
//! | semi-join d_max pruning (§4.2.1) | [`DmaxStrategy`] |
//!
//! # Example
//!
//! ```
//! use sdj_core::{DistanceJoin, JoinConfig};
//! use sdj_geom::Point;
//! use sdj_rtree::{ObjectId, RTree, RTreeConfig};
//!
//! let mut stores = RTree::new(RTreeConfig::small(8));
//! let mut warehouses = RTree::new(RTreeConfig::small(8));
//! for i in 0..100u64 {
//!     let p = Point::xy((i % 10) as f64, (i / 10) as f64);
//!     stores.insert(ObjectId(i), p.to_rect()).unwrap();
//! }
//! for i in 0..5u64 {
//!     let p = Point::xy(2.0 * i as f64, 5.0);
//!     warehouses.insert(ObjectId(i), p.to_rect()).unwrap();
//! }
//!
//! // The three closest (store, warehouse) pairs.
//! let closest: Vec<_> = DistanceJoin::new(&stores, &warehouses, JoinConfig::default())
//!     .take(3)
//!     .collect();
//! assert_eq!(closest.len(), 3);
//! assert!(closest[0].distance <= closest[1].distance);
//! ```

pub mod adaptive;
pub mod apps;
pub mod bulk;
mod config;
mod cursor;
mod estimate;
mod idhash;
pub mod index;
pub mod intersect;
mod join;
pub mod nn;
mod obs;
mod oracle;
mod pair;
pub mod plan;
mod queue;
mod semi;
mod slab;
mod stats;
mod view;

pub use adaptive::{
    AdaptiveConfig, AdaptiveCursor, AdaptiveDistanceJoin, AdaptiveRun, ReplanInfo, ReplanSignals,
};
pub use bulk::{BulkConfig, BulkDistanceJoin, BulkStats};
pub use config::{
    ConfigError, EstimationBound, ExpansionPath, JoinConfig, KeyDomain, QueueBackend, QueueLayout,
    ResultOrder, TiePolicy, TraversalPolicy,
};
pub use cursor::{open_cursor, BulkCursor, JoinCursor};
pub use index::{IndexEntry, IndexNode, NodeId, SpatialIndex};
pub use intersect::{IntersectionPair, OrderedIntersectionJoin};
pub use join::{DistanceJoin, DistanceSemiJoin, EmissionWatermark, ResultPair};
pub use nn::{nearest_neighbors, IndexNearestNeighbors, IndexNeighbor};
pub use oracle::{DistanceOracle, MbrOracle, SliceOracle};
pub use pair::{Item, ItemId, Pair, PairKey};
pub use plan::{plan, plan_for_trees, Plan, PlanChoice, PlanInputs};
pub use queue::JoinQueue;
pub use semi::{DmaxStrategy, SeenSet, SemiConfig, SemiFilter};
pub use slab::{ItemArena, PackedPair};
pub use stats::JoinStats;
