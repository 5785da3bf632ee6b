//! A small pipelined query layer over the incremental distance join.
//!
//! Figure 1 of the paper defines the distance join and distance semi-join in
//! SQL terms — distance ranges in the `WHERE` clause, `ORDER BY` distance,
//! and the `STOP AFTER` extension. This crate provides just enough of a
//! query engine to execute those statements end to end:
//!
//! * [`Relation`] — a named table with a 2-d spatial attribute, typed
//!   columns and an R*-tree index,
//! * [`Predicate`] — attribute comparisons usable as additional selection
//!   conditions,
//! * [`DistanceQuery`] — the query builder; [`DistanceQuery::execute`]
//!   returns a pipelined iterator so a consumer fetching `n` rows pays only
//!   for `n` rows,
//! * a toy optimizer implementing the two plans §5 discusses for queries
//!   like "find the city nearest to any river with population > 5 million":
//!   filter-after-join (pipelined, good for low-selectivity predicates) and
//!   filter-before-join (materialise + re-index, good for highly selective
//!   predicates).

mod plan;
mod predicate;
mod relation;

pub use plan::{DistanceQuery, FilterPlacement, QueryOutput, QueryRow};
pub use predicate::{CmpOp, Predicate, Value};
pub use relation::Relation;
