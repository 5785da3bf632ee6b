//! Query building, planning and pipelined execution.
//!
//! §5 of the paper discusses two plans for "find the city nearest to any
//! river, such that the city has a population of more than 5 million":
//!
//! 1. **filter after join** — run the incremental distance join on the
//!    original indexes and drop result pairs failing the predicate; best
//!    when the predicate keeps most rows, and fully pipelined;
//! 2. **filter before join** — materialise the qualifying rows, build a new
//!    spatial index, and join those; pays an upfront indexing cost that is
//!    worth it when the predicate is highly selective.
//!
//! [`DistanceQuery::execute`] picks between them with a sampled selectivity
//! estimate (or obeys an explicit [`FilterPlacement`]). A semi-join with a
//! predicate on its right side always filters before the join.

use sdj_core::{DistanceJoin, JoinConfig, SemiConfig};
use sdj_rtree::ObjectId;
use sdj_storage::StorageError;

use crate::predicate::Predicate;
use crate::relation::Relation;

/// One row of a distance-query result.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueryRow {
    /// Row id in the left relation.
    pub left: ObjectId,
    /// Row id in the right relation.
    pub right: ObjectId,
    /// Distance between the rows' spatial attributes.
    pub distance: f64,
}

/// Where the attribute filters run relative to the distance join. (Which
/// *engine* runs the join is `sdj_core::PlanChoice`'s business, not this
/// crate's.)
///
/// A semi-join with a right-side predicate runs [`FilterBeforeJoin`]
/// whatever is asked: the semi-join pairs each left row with its nearest
/// right row, so dropping that pair after the join would drop the left row
/// instead of finding its nearest *qualifying* partner.
///
/// [`FilterBeforeJoin`]: FilterPlacement::FilterBeforeJoin
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FilterPlacement {
    /// Let the optimizer decide from estimated selectivities.
    #[default]
    Auto,
    /// Force filter-after-join (fully pipelined), except for a semi-join
    /// with a right-side predicate.
    FilterAfterJoin,
    /// Force filter-before-join (materialise + re-index).
    FilterBeforeJoin,
}

/// Below this estimated fraction of surviving rows the optimizer prefers
/// materialising the filtered relation before joining.
const SELECTIVITY_THRESHOLD: f64 = 0.25;

/// A distance join / semi-join query in the shape of the paper's Figure 1.
pub struct DistanceQuery<'a> {
    left: &'a Relation,
    right: &'a Relation,
    config: JoinConfig,
    semi: Option<SemiConfig>,
    left_predicate: Option<Predicate>,
    right_predicate: Option<Predicate>,
    stop_after: Option<u64>,
    plan: FilterPlacement,
}

impl<'a> DistanceQuery<'a> {
    /// `SELECT * FROM left, right ORDER BY distance(left.s, right.s)`.
    #[must_use]
    pub fn join(left: &'a Relation, right: &'a Relation) -> Self {
        Self {
            left,
            right,
            config: JoinConfig::default(),
            semi: None,
            left_predicate: None,
            right_predicate: None,
            stop_after: None,
            plan: FilterPlacement::default(),
        }
    }

    /// The distance semi-join form (Figure 1b: `GROUP BY left.s, min(d)`).
    #[must_use]
    pub fn semi_join(left: &'a Relation, right: &'a Relation) -> Self {
        Self {
            semi: Some(SemiConfig::default()),
            ..Self::join(left, right)
        }
    }

    /// `WHERE d >= dmin AND d <= dmax`.
    #[must_use]
    pub fn within(mut self, dmin: f64, dmax: f64) -> Self {
        self.config = self.config.with_range(dmin, dmax);
        self
    }

    /// `STOP AFTER n`.
    #[must_use]
    pub fn stop_after(mut self, n: u64) -> Self {
        self.stop_after = Some(n);
        self
    }

    /// `ORDER BY d DESC`: farthest pairs first (§2.2.5's reverse ordering;
    /// for semi-joins this reports each left row's *farthest* partner).
    #[must_use]
    pub fn descending(mut self) -> Self {
        self.config.order = sdj_core::ResultOrder::Descending;
        if let Some(sc) = &mut self.semi {
            // d_max pruning bounds nearest partners; invalid in reverse.
            sc.dmax = sdj_core::DmaxStrategy::None;
        }
        self
    }

    /// A human-readable description of the plan the optimizer would pick
    /// (`EXPLAIN`-style), without executing anything.
    #[must_use]
    pub fn explain(&self) -> String {
        let plan = self.decide_plan();
        let mut out = String::new();
        out.push_str(&format!(
            "{} {} ⋈ {}",
            if self.semi.is_some() {
                "DistanceSemiJoin"
            } else {
                "DistanceJoin"
            },
            self.left.name(),
            self.right.name(),
        ));
        out.push_str(&format!(
            "\n  order: {:?}, range: [{}, {}]",
            self.config.order, self.config.min_distance, self.config.max_distance
        ));
        if let Some(n) = self.stop_after {
            out.push_str(&format!("\n  stop after: {n}"));
        }
        for (side, rel, pred) in [
            ("left", self.left, &self.left_predicate),
            ("right", self.right, &self.right_predicate),
        ] {
            if let Some(p) = pred {
                out.push_str(&format!(
                    "\n  {side} predicate: {p:?} (selectivity ≈ {:.2})",
                    rel.estimate_selectivity(p, 200)
                ));
            }
        }
        out.push_str(&format!("\n  plan: {plan:?}"));
        if self.semi_filters_right() {
            out.push_str(" (a semi-join filters its right side before the join)");
        }
        out
    }

    /// Additional selection on the left relation's attributes.
    #[must_use]
    pub fn where_left(mut self, predicate: Predicate) -> Self {
        self.left_predicate = Some(predicate);
        self
    }

    /// Additional selection on the right relation's attributes.
    #[must_use]
    pub fn where_right(mut self, predicate: Predicate) -> Self {
        self.right_predicate = Some(predicate);
        self
    }

    /// Overrides the join configuration (metric, traversal, queue, …).
    #[must_use]
    pub fn with_config(mut self, config: JoinConfig) -> Self {
        self.config = config;
        self
    }

    /// Forces a plan instead of the optimizer's choice.
    #[must_use]
    pub fn with_plan(mut self, plan: FilterPlacement) -> Self {
        self.plan = plan;
        self
    }

    /// Whether this is a semi-join with a right-side predicate, which must
    /// filter before the join (see [`FilterPlacement`]).
    fn semi_filters_right(&self) -> bool {
        self.semi.is_some() && self.right_predicate.is_some()
    }

    fn decide_plan(&self) -> FilterPlacement {
        if self.semi_filters_right() {
            return FilterPlacement::FilterBeforeJoin;
        }
        match self.plan {
            FilterPlacement::Auto => {
                let sel = |rel: &Relation, p: &Option<Predicate>| {
                    p.as_ref().map_or(1.0, |p| rel.estimate_selectivity(p, 200))
                };
                let worst = sel(self.left, &self.left_predicate)
                    .min(sel(self.right, &self.right_predicate));
                if worst < SELECTIVITY_THRESHOLD
                    && (self.left_predicate.is_some() || self.right_predicate.is_some())
                {
                    FilterPlacement::FilterBeforeJoin
                } else {
                    FilterPlacement::FilterAfterJoin
                }
            }
            p => p,
        }
    }

    /// Executes the query, returning a pipelined result iterator.
    #[must_use]
    pub fn execute(self) -> QueryOutput<'a> {
        let plan = self.decide_plan();
        // `STOP AFTER` feeds the join's max-pairs estimation only when no
        // attribute predicate filters results after the join (a filtered
        // join may need more than `n` raw pairs).
        let post_filtering = matches!(plan, FilterPlacement::FilterAfterJoin)
            && (self.left_predicate.is_some() || self.right_predicate.is_some());
        let mut config = self.config;
        if let (Some(n), false) = (self.stop_after, post_filtering) {
            config.max_pairs = Some(n);
        }
        match plan {
            FilterPlacement::FilterAfterJoin | FilterPlacement::Auto => QueryOutput {
                inner: Inner::Pipelined {
                    join: Box::new(make_join(self.left, self.right, config, self.semi)),
                    left: self.left,
                    right: self.right,
                    left_predicate: self.left_predicate,
                    right_predicate: self.right_predicate,
                },
                remaining: self.stop_after,
                plan: FilterPlacement::FilterAfterJoin,
            },
            FilterPlacement::FilterBeforeJoin => QueryOutput {
                inner: Inner::Materialized(Box::new(MaterializedState {
                    left: self.left,
                    right: self.right,
                    left_predicate: self.left_predicate,
                    right_predicate: self.right_predicate,
                    config,
                    semi: self.semi,
                    results: None,
                    error: None,
                })),
                remaining: self.stop_after,
                plan: FilterPlacement::FilterBeforeJoin,
            },
        }
    }
}

fn make_join<'a>(
    left: &'a Relation,
    right: &'a Relation,
    config: JoinConfig,
    semi: Option<SemiConfig>,
) -> DistanceJoin<'a, 2> {
    match semi {
        Some(sc) => DistanceJoin::semi(left.tree(), right.tree(), config, sc),
        None => DistanceJoin::new(left.tree(), right.tree(), config),
    }
}

struct MaterializedState<'a> {
    left: &'a Relation,
    right: &'a Relation,
    left_predicate: Option<Predicate>,
    right_predicate: Option<Predicate>,
    config: JoinConfig,
    semi: Option<SemiConfig>,
    /// `None` until the first `next` materialises the plan.
    results: Option<std::vec::IntoIter<QueryRow>>,
    error: Option<StorageError>,
}

impl MaterializedState<'_> {
    /// Filters both sides into new indexes and drains their join (the
    /// upfront cost that makes this plan non-pipelined), returning the rows
    /// in the original relations' ids and the error that ended them early.
    fn materialize(&self) -> (Vec<QueryRow>, Option<StorageError>) {
        let subs = self
            .left
            .filter(self.left_predicate.as_ref())
            .and_then(|l| Ok((l, self.right.filter(self.right_predicate.as_ref())?)));
        let ((left_sub, left_map), (right_sub, right_map)) = match subs {
            Ok(subs) => subs,
            Err(e) => return (Vec::new(), Some(e)),
        };
        let mut join = make_join(&left_sub, &right_sub, self.config, self.semi);
        let rows = (&mut join)
            .map(|pair| QueryRow {
                left: left_map[pair.oid1.0 as usize],
                right: right_map[pair.oid2.0 as usize],
                distance: pair.distance,
            })
            .collect();
        (rows, join.take_error())
    }
}

enum Inner<'a> {
    Pipelined {
        join: Box<DistanceJoin<'a, 2>>,
        left: &'a Relation,
        right: &'a Relation,
        left_predicate: Option<Predicate>,
        right_predicate: Option<Predicate>,
    },
    Materialized(Box<MaterializedState<'a>>),
}

/// Pipelined query results.
pub struct QueryOutput<'a> {
    inner: Inner<'a>,
    remaining: Option<u64>,
    plan: FilterPlacement,
}

impl QueryOutput<'_> {
    /// The plan that was selected.
    #[must_use]
    pub fn plan(&self) -> FilterPlacement {
        self.plan
    }

    /// Takes the storage error that ended the rows early, if any. A faulted
    /// query stops after a correct prefix of its rows; this is what tells
    /// that prefix from a complete result (see
    /// [`DistanceJoin::take_error`]).
    pub fn take_error(&mut self) -> Option<StorageError> {
        match &mut self.inner {
            Inner::Pipelined { join, .. } => join.take_error(),
            Inner::Materialized(state) => state.error.take(),
        }
    }
}

impl Iterator for QueryOutput<'_> {
    type Item = QueryRow;

    fn next(&mut self) -> Option<QueryRow> {
        if let Some(0) = self.remaining {
            return None;
        }
        let row = match &mut self.inner {
            Inner::Pipelined {
                join,
                left,
                right,
                left_predicate,
                right_predicate,
            } => loop {
                let pair = join.next()?;
                if let Some(p) = left_predicate {
                    if !left.matches(pair.oid1, p) {
                        continue;
                    }
                }
                if let Some(p) = right_predicate {
                    if !right.matches(pair.oid2, p) {
                        continue;
                    }
                }
                break QueryRow {
                    left: pair.oid1,
                    right: pair.oid2,
                    distance: pair.distance,
                };
            },
            Inner::Materialized(state) => {
                if state.results.is_none() {
                    let (rows, error) = state.materialize();
                    state.results = Some(rows.into_iter());
                    state.error = error;
                }
                state.results.as_mut()?.next()?
            }
        };
        if let Some(n) = &mut self.remaining {
            *n -= 1;
        }
        Some(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{CmpOp, Value};
    use sdj_geom::Point;
    use sdj_rtree::RTreeConfig;

    fn rivers() -> Relation {
        let mut r = Relation::with_tree_config("rivers", &["name"], RTreeConfig::small(4));
        for (i, name) in ["nile", "amazon", "danube"].iter().enumerate() {
            r.insert(Point::xy(10.0 * i as f64, 0.0), vec![Value::from(*name)])
                .unwrap();
        }
        r
    }

    fn cities() -> Relation {
        let mut r =
            Relation::with_tree_config("cities", &["name", "population"], RTreeConfig::small(4));
        let data: [(&str, i64, f64, f64); 5] = [
            ("tiny", 10_000, 0.0, 1.0),
            ("metropolis", 8_000_000, 10.0, 2.0),
            ("megacity", 12_000_000, 22.0, 0.5),
            ("village", 500, 10.5, 0.1),
            ("capital", 6_000_000, 5.0, 5.0),
        ];
        for (name, pop, x, y) in data {
            r.insert(Point::xy(x, y), vec![Value::from(name), Value::from(pop)])
                .unwrap();
        }
        r
    }

    #[test]
    fn plain_join_streams_by_distance() {
        let c = cities();
        let r = rivers();
        let rows: Vec<QueryRow> = DistanceQuery::join(&c, &r).execute().collect();
        assert_eq!(rows.len(), c.len() * r.len());
        for w in rows.windows(2) {
            assert!(w[0].distance <= w[1].distance);
        }
    }

    #[test]
    fn city_nearest_to_any_river_with_population_filter() {
        let c = cities();
        let r = rivers();
        // "Find the city nearest to any river, such that the city has a
        // population of more than 5 million."
        let row = DistanceQuery::join(&c, &r)
            .where_left(Predicate::cmp("population", CmpOp::Gt, 5_000_000i64))
            .stop_after(1)
            .execute()
            .next()
            .unwrap();
        // metropolis sits 2.0 from the amazon river (10, 0); village is
        // closer but filtered out by the population predicate.
        assert_eq!(c.value(row.left, "name"), Some(Value::from("metropolis")));
        assert!((row.distance - 2.0).abs() < 1e-9);
    }

    #[test]
    fn both_plans_agree() {
        let c = cities();
        let r = rivers();
        let pred = Predicate::cmp("population", CmpOp::Gt, 5_000_000i64);
        let a: Vec<QueryRow> = DistanceQuery::join(&c, &r)
            .where_left(pred.clone())
            .with_plan(FilterPlacement::FilterAfterJoin)
            .execute()
            .collect();
        let b: Vec<QueryRow> = DistanceQuery::join(&c, &r)
            .where_left(pred)
            .with_plan(FilterPlacement::FilterBeforeJoin)
            .execute()
            .collect();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.left, y.left);
            assert_eq!(x.right, y.right);
            assert!((x.distance - y.distance).abs() < 1e-9);
        }
    }

    #[test]
    fn auto_plan_picks_materialisation_for_selective_predicates() {
        let c = cities();
        let r = rivers();
        // Only 1 of 5 cities matches: highly selective.
        let out = DistanceQuery::join(&c, &r)
            .where_left(Predicate::cmp("name", CmpOp::Eq, "capital"))
            .execute();
        assert_eq!(out.plan(), FilterPlacement::FilterBeforeJoin);
        // No predicate: stay pipelined.
        let out = DistanceQuery::join(&c, &r).execute();
        assert_eq!(out.plan(), FilterPlacement::FilterAfterJoin);
    }

    #[test]
    fn semi_join_groups_by_left() {
        let c = cities();
        let r = rivers();
        let rows: Vec<QueryRow> = DistanceQuery::semi_join(&c, &r).execute().collect();
        assert_eq!(rows.len(), c.len(), "one nearest river per city");
        let mut seen = std::collections::HashSet::new();
        for row in &rows {
            assert!(seen.insert(row.left));
        }
    }

    #[test]
    fn stop_after_limits_rows() {
        let c = cities();
        let r = rivers();
        let rows: Vec<QueryRow> = DistanceQuery::join(&c, &r)
            .stop_after(4)
            .execute()
            .collect();
        assert_eq!(rows.len(), 4);
    }

    #[test]
    fn descending_returns_farthest_first() {
        let c = cities();
        let r = rivers();
        let rows: Vec<QueryRow> = DistanceQuery::join(&c, &r).descending().execute().collect();
        assert_eq!(rows.len(), c.len() * r.len());
        for w in rows.windows(2) {
            assert!(w[0].distance >= w[1].distance);
        }
        // Descending semi-join: one farthest river per city.
        let rows: Vec<QueryRow> = DistanceQuery::semi_join(&c, &r)
            .descending()
            .execute()
            .collect();
        assert_eq!(rows.len(), c.len());
    }

    #[test]
    fn explain_describes_the_plan() {
        let c = cities();
        let r = rivers();
        let q = DistanceQuery::join(&c, &r)
            .where_left(Predicate::cmp("name", CmpOp::Eq, "capital"))
            .stop_after(1);
        let plan = q.explain();
        assert!(plan.contains("DistanceJoin cities ⋈ rivers"));
        assert!(plan.contains("stop after: 1"));
        assert!(plan.contains("FilterBeforeJoin"), "{plan}");
    }

    /// A query whose join hits a corrupt page ends early, and says so.
    #[test]
    fn a_faulted_query_surfaces_its_error() {
        use sdj_storage::{FaultConfig, FaultInjector};
        use std::sync::Arc;
        // One frame, so the join must read the points' nodes from disk.
        let config = RTreeConfig {
            buffer_frames: 1,
            ..RTreeConfig::small(4)
        };
        let mut points = Relation::with_tree_config("points", &[], config);
        for i in 0..12 {
            points.insert(Point::xy(f64::from(i), 1.0), vec![]).unwrap();
        }
        let r = rivers();
        let golden: Vec<QueryRow> = DistanceQuery::join(&points, &r).execute().collect();
        assert_eq!(golden.len(), 36);
        points
            .tree()
            .set_fault_injector(Some(Arc::new(FaultInjector::new(FaultConfig {
                bit_flip: 1.0,
                ..FaultConfig::default()
            }))));
        let mut out = DistanceQuery::join(&points, &r).execute();
        let rows: Vec<QueryRow> = out.by_ref().collect();
        assert!(rows.len() < golden.len());
        assert_eq!(rows[..], golden[..rows.len()]);
        assert!(matches!(out.take_error(), Some(StorageError::Corrupt(_))));
        assert_eq!(out.take_error(), None, "the error is taken once");
    }

    #[test]
    fn within_range_filters_distances() {
        let c = cities();
        let r = rivers();
        let rows: Vec<QueryRow> = DistanceQuery::join(&c, &r)
            .within(0.0, 3.0)
            .execute()
            .collect();
        assert!(!rows.is_empty());
        assert!(rows.iter().all(|row| row.distance <= 3.0));
    }
}
