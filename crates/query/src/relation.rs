//! Spatial relations: rows with a 2-d point attribute, typed columns, and an
//! R*-tree index maintained on the spatial attribute.

use std::collections::HashMap;

use sdj_geom::{Point, Rect};
use sdj_rtree::{ObjectId, RTree, RTreeConfig};
use sdj_storage::StorageError;

use crate::predicate::{Predicate, Value};

/// A named relation with one spatial attribute and arbitrary typed columns.
///
/// Row ids are dense (`0..len`) and double as the R-tree object ids.
pub struct Relation {
    name: String,
    columns: Vec<String>,
    column_index: HashMap<String, usize>,
    points: Vec<Point<2>>,
    values: Vec<Vec<Value>>, // row-major; values[row][col]
    tree: RTree<2>,
}

impl Relation {
    /// Creates an empty relation with the given non-spatial column names.
    #[must_use]
    pub fn new(name: &str, columns: &[&str]) -> Self {
        Self::with_tree_config(name, columns, RTreeConfig::default())
    }

    /// Creates an empty relation with a custom index configuration.
    #[must_use]
    pub fn with_tree_config(name: &str, columns: &[&str], config: RTreeConfig) -> Self {
        let columns: Vec<String> = columns.iter().map(|c| (*c).to_owned()).collect();
        let column_index = columns
            .iter()
            .enumerate()
            .map(|(i, c)| (c.clone(), i))
            .collect();
        Self {
            name: name.to_owned(),
            columns,
            column_index,
            points: Vec::new(),
            values: Vec::new(),
            tree: RTree::new(config),
        }
    }

    /// The relation's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if the relation has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Column names.
    #[must_use]
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The spatial index over the relation's points.
    #[must_use]
    pub fn tree(&self) -> &RTree<2> {
        &self.tree
    }

    /// Inserts a row; `values` must match the declared columns.
    ///
    /// # Errors
    /// [`StorageError::InvalidInput`] if the value count does not match the
    /// column count or the point has a NaN or infinite coordinate; the
    /// relation is then unchanged. Any error of the index's simulated disk.
    pub fn insert(
        &mut self,
        point: Point<2>,
        values: Vec<Value>,
    ) -> Result<ObjectId, StorageError> {
        if values.len() != self.columns.len() {
            return Err(StorageError::InvalidInput(
                "row arity does not match the relation's columns",
            ));
        }
        let id = ObjectId(self.points.len() as u64);
        // `from_corners`, not `to_rect`: the latter debug-asserts on a NaN,
        // which the tree refuses with a typed error instead.
        self.tree.insert(id, Rect::from_corners(&point, &point))?;
        self.points.push(point);
        self.values.push(values);
        Ok(id)
    }

    /// The spatial attribute of a row.
    #[must_use]
    pub fn point(&self, id: ObjectId) -> Point<2> {
        self.points[id.0 as usize]
    }

    /// A row's value in the named column.
    #[must_use]
    pub fn value(&self, id: ObjectId, column: &str) -> Option<Value> {
        let col = *self.column_index.get(column)?;
        self.values.get(id.0 as usize).map(|row| row[col].clone())
    }

    /// Evaluates a predicate against a row.
    #[must_use]
    pub fn matches(&self, id: ObjectId, predicate: &Predicate) -> bool {
        predicate.eval(&|col| self.value(id, col))
    }

    /// Fraction of rows satisfying `predicate`, estimated from a sample of
    /// at most `sample` rows (evenly strided). Used by the toy optimizer.
    #[must_use]
    pub fn estimate_selectivity(&self, predicate: &Predicate, sample: usize) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let stride = (self.len() / sample.max(1)).max(1);
        let mut hits = 0usize;
        let mut tested = 0usize;
        let mut i = 0usize;
        while i < self.len() {
            if self.matches(ObjectId(i as u64), predicate) {
                hits += 1;
            }
            tested += 1;
            i += stride;
        }
        hits as f64 / tested as f64
    }

    /// Materialises the sub-relation of rows satisfying `predicate` (all
    /// rows when `None`), re-indexing them — the "filter before join" plan.
    /// The returned relation's row ids map back via the second return value.
    ///
    /// # Errors
    /// Any error of the new index's simulated disk.
    pub fn filter(
        &self,
        predicate: Option<&Predicate>,
    ) -> Result<(Relation, Vec<ObjectId>), StorageError> {
        let mut out = Relation::with_tree_config(
            &format!("{}_filtered", self.name),
            &self.columns.iter().map(String::as_str).collect::<Vec<_>>(),
            *self.tree.config(),
        );
        let mut mapping = Vec::new();
        for i in 0..self.len() {
            let id = ObjectId(i as u64);
            if predicate.is_none_or(|p| self.matches(id, p)) {
                out.insert(self.points[i], self.values[i].clone())?;
                mapping.push(id);
            }
        }
        Ok((out, mapping))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CmpOp;

    fn cities() -> Relation {
        let mut r =
            Relation::with_tree_config("cities", &["name", "population"], RTreeConfig::small(4));
        for (i, (name, pop)) in [
            ("alpha", 100_000i64),
            ("beta", 6_000_000),
            ("gamma", 2_000_000),
            ("delta", 9_000_000),
        ]
        .iter()
        .enumerate()
        {
            r.insert(
                Point::xy(i as f64, i as f64),
                vec![Value::from(*name), Value::from(*pop)],
            )
            .unwrap();
        }
        r
    }

    #[test]
    fn insert_and_lookup() {
        let r = cities();
        assert_eq!(r.len(), 4);
        assert_eq!(r.value(ObjectId(1), "name"), Some(Value::from("beta")));
        assert_eq!(
            r.value(ObjectId(1), "population"),
            Some(Value::from(6_000_000i64))
        );
        assert_eq!(r.value(ObjectId(1), "missing"), None);
        assert_eq!(r.point(ObjectId(2)), Point::xy(2.0, 2.0));
        assert_eq!(r.tree().len(), 4);
    }

    #[test]
    fn filter_materialises_and_maps_back() {
        let r = cities();
        let big = Predicate::cmp("population", CmpOp::Gt, 5_000_000i64);
        let (filtered, mapping) = r.filter(Some(&big)).unwrap();
        let (all, all_map) = r.filter(None).unwrap();
        assert_eq!(all.len(), r.len());
        assert_eq!(all_map.len(), r.len());
        assert_eq!(filtered.len(), 2);
        assert_eq!(mapping, vec![ObjectId(1), ObjectId(3)]);
        assert_eq!(
            filtered.value(ObjectId(0), "name"),
            Some(Value::from("beta"))
        );
        assert_eq!(filtered.tree().len(), 2);
    }

    #[test]
    fn selectivity_estimation() {
        let r = cities();
        let big = Predicate::cmp("population", CmpOp::Gt, 5_000_000i64);
        let sel = r.estimate_selectivity(&big, 100);
        assert!((sel - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bad_rows_are_refused_and_leave_the_relation_unchanged() {
        let mut r = cities();
        assert!(matches!(
            r.insert(Point::xy(0.0, 0.0), vec![Value::from("x")]),
            Err(StorageError::InvalidInput(_))
        ));
        assert!(matches!(
            r.insert(
                Point::xy(f64::NAN, 0.0),
                vec![Value::from("x"), Value::from(1i64)]
            ),
            Err(StorageError::InvalidInput(_))
        ));
        assert_eq!((r.len(), r.tree().len()), (4, 4));
        let id = r
            .insert(
                Point::xy(9.0, 9.0),
                vec![Value::from("x"), Value::from(1i64)],
            )
            .unwrap();
        assert_eq!(id, ObjectId(4));
    }
}
