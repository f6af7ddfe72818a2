//! A snapshot of the base relation's physical design (its indexes), so the
//! optimizer cost model can price index-order streaming aggregation
//! without holding a borrow of the catalog during optimization.

use gbmqo_storage::{IndexKind, Snapshot};

/// Index metadata for the base relation: key column ordinals per index.
#[derive(Debug, Clone, Default)]
pub struct IndexSnapshot {
    indexes: Vec<(Vec<usize>, IndexKind)>,
}

impl IndexSnapshot {
    /// A design with no indexes.
    pub fn none() -> Self {
        Self::default()
    }

    /// Capture the indexes of the base relation `base`.
    pub fn capture(base: &Snapshot) -> Self {
        IndexSnapshot::from_keys(base.indexes.clone())
    }

    /// Build from explicit key-column lists (tests, what-if design tuning).
    pub fn from_keys(keys: Vec<(Vec<usize>, IndexKind)>) -> Self {
        IndexSnapshot { indexes: keys }
    }

    /// True if some index's order serves a grouping on `cols` — `cols`
    /// must be exactly the set of the index's first `cols.len()` keys.
    pub fn serves_grouping(&self, cols: &[usize]) -> bool {
        self.indexes.iter().any(|(keys, _)| {
            cols.len() <= keys.len() && {
                let prefix = &keys[..cols.len()];
                cols.iter().all(|c| prefix.contains(c)) && prefix.iter().all(|c| cols.contains(c))
            }
        })
    }

    /// Number of captured indexes.
    pub fn len(&self) -> usize {
        self.indexes.len()
    }

    /// True if no indexes were captured.
    pub fn is_empty(&self) -> bool {
        self.indexes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbmqo_storage::{Catalog, Column, DataType, Field, Schema, Table};

    #[test]
    fn capture_reflects_catalog() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Int64),
        ])
        .unwrap();
        let t = Table::new(
            schema,
            vec![Column::from_i64(vec![1, 2]), Column::from_i64(vec![3, 4])],
        )
        .unwrap();
        let mut cat = Catalog::new();
        cat.register("r", t).unwrap();
        cat.create_index("r", "ix", IndexKind::NonClustered, vec![1, 0])
            .unwrap();

        let snap = IndexSnapshot::capture(&cat.snapshot("r").unwrap());
        assert_eq!(snap.len(), 1);
        assert!(snap.serves_grouping(&[1]));
        assert!(snap.serves_grouping(&[0, 1]));
        assert!(!snap.serves_grouping(&[0]));

        cat.drop_indexes("r").unwrap();
        let none = IndexSnapshot::capture(&cat.snapshot("r").unwrap());
        assert!(none.is_empty());
        assert!(!none.serves_grouping(&[0]));
    }

    #[test]
    fn from_keys_and_none() {
        let s = IndexSnapshot::from_keys(vec![(vec![2], IndexKind::Clustered)]);
        assert!(s.serves_grouping(&[2]));
        assert!(!IndexSnapshot::none().serves_grouping(&[2]));
    }
}
