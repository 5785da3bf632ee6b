//! Incremental distance join algorithms for spatial databases.
//!
//! A Rust reproduction of Hjaltason & Samet (SIGMOD 1998): the incremental
//! **distance join** and **distance semi-join**, together with every
//! substrate the paper's evaluation depends on. This facade crate simply
//! re-exports the workspace members under stable names:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`geom`] | `sdj-geom` | points, rectangles, metrics, MINDIST/MAXDIST/MINMAXDIST |
//! | [`storage`] | `sdj-storage` | simulated paged disk + LRU buffer pool |
//! | [`rtree`] | `sdj-rtree` | R\*-tree with incremental nearest neighbour |
//! | [`pqueue`] | `sdj-pqueue` | pairing heap + hybrid memory/disk queue |
//! | [`quadtree`] | `sdj-quadtree` | PR quadtree (non-minimal regions) |
//! | [`join`] | `sdj-core` | **the paper's algorithms** |
//! | [`exec`] | `sdj-exec` | `run_planned`, the cost-based entry point over every path |
//! | [`baselines`] | `sdj-baselines` | nested loop, NN semi-join, within-join |
//! | [`datagen`] | `sdj-datagen` | seeded TIGER-like workload generators |
//! | [`query`] | `sdj-query` | relations, predicates, `STOP AFTER` queries |
//! | [`obs`] | `sdj-obs` | events, metrics registry, run reports (DESIGN.md §7) |
//! | [`service`] | `sdj-service` | concurrent cursor sessions over a shared pool (DESIGN.md §16) |
//!
//! See the README for a tour and `DESIGN.md` for the paper-to-module map.
//!
//! ```
//! use incremental_distance_join::geom::Point;
//! use incremental_distance_join::join::{DistanceJoin, JoinConfig};
//! use incremental_distance_join::rtree::{ObjectId, RTree, RTreeConfig};
//!
//! let mut a = RTree::new(RTreeConfig::default());
//! let mut b = RTree::new(RTreeConfig::default());
//! for i in 0..50u64 {
//!     a.insert(ObjectId(i), Point::xy(i as f64, 0.0).to_rect()).unwrap();
//!     b.insert(ObjectId(i), Point::xy(i as f64, 3.0).to_rect()).unwrap();
//! }
//! let closest = DistanceJoin::new(&a, &b, JoinConfig::default()).next().unwrap();
//! assert_eq!(closest.distance, 3.0);
//! ```

pub use sdj_baselines as baselines;
pub use sdj_core as join;
pub use sdj_datagen as datagen;
pub use sdj_exec as exec;
pub use sdj_geom as geom;
pub use sdj_obs as obs;
pub use sdj_pqueue as pqueue;
pub use sdj_quadtree as quadtree;
pub use sdj_query as query;
pub use sdj_rtree as rtree;
pub use sdj_service as service;
pub use sdj_storage as storage;
