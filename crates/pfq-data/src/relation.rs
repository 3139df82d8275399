//! Relations: schema-carrying ordered sets of tuples.

use crate::{Schema, Tuple, Value};
use std::collections::BTreeSet;
use std::fmt;
use std::ops::Bound;

/// A relation instance: a [`Schema`] plus an ordered set of tuples.
///
/// `BTreeSet` (rather than a hash set) keeps iteration order — and
/// therefore every possible-world enumeration built on top — fully
/// deterministic.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Relation {
    schema: Schema,
    tuples: BTreeSet<Tuple>,
}

impl Relation {
    /// An empty relation with the given schema.
    pub fn empty(schema: Schema) -> Relation {
        Relation {
            schema,
            tuples: BTreeSet::new(),
        }
    }

    /// Builds a relation from rows, checking every arity.
    pub fn from_rows(schema: Schema, rows: impl IntoIterator<Item = Tuple>) -> Relation {
        let mut r = Relation::empty(schema);
        for t in rows {
            r.insert(t);
        }
        r
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.tuples.contains(t)
    }

    /// Membership test for a borrowed field slice.
    pub fn contains_values(&self, values: &[Value]) -> bool {
        self.tuples.contains(values)
    }

    /// The tuples whose leading fields equal `prefix`, in sorted order:
    /// a range scan over the ordered set rather than a full pass. An
    /// empty prefix yields every tuple.
    pub fn prefix_scan<'a>(&'a self, prefix: &'a [Value]) -> impl Iterator<Item = &'a Tuple> + 'a {
        self.tuples
            .range::<[Value], _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(move |t| t.values().starts_with(prefix))
    }

    /// Inserts a tuple; returns whether it was new. Panics on arity
    /// mismatch (always an engine bug).
    pub fn insert(&mut self, t: Tuple) -> bool {
        assert_eq!(
            t.arity(),
            self.schema.arity(),
            "tuple {t} has wrong arity for schema {}",
            self.schema
        );
        self.tuples.insert(t)
    }

    /// Removes a tuple; returns whether it was present.
    pub fn remove(&mut self, t: &Tuple) -> bool {
        self.tuples.remove(t)
    }

    /// Removes every tuple, keeping the schema. The tuples are removed
    /// one by one, which keeps the set's root node, so a small relation
    /// emptied and refilled over and over (the sampler's Δ) does not
    /// allocate it again.
    pub fn clear(&mut self) {
        self.tuples.retain(|_| false);
    }

    /// Iterates tuples in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> + '_ {
        self.tuples.iter()
    }

    /// Set union; requires equal schemas.
    pub fn union(&self, other: &Relation) -> Relation {
        assert_eq!(self.schema, other.schema, "union of incompatible schemas");
        Relation {
            schema: self.schema.clone(),
            tuples: self.tuples.union(&other.tuples).cloned().collect(),
        }
    }

    /// Set difference `self − other`; requires equal schemas.
    pub fn difference(&self, other: &Relation) -> Relation {
        assert_eq!(
            self.schema, other.schema,
            "difference of incompatible schemas"
        );
        Relation {
            schema: self.schema.clone(),
            tuples: self.tuples.difference(&other.tuples).cloned().collect(),
        }
    }

    /// Set intersection; requires equal schemas.
    pub fn intersection(&self, other: &Relation) -> Relation {
        assert_eq!(
            self.schema, other.schema,
            "intersection of incompatible schemas"
        );
        Relation {
            schema: self.schema.clone(),
            tuples: self.tuples.intersection(&other.tuples).cloned().collect(),
        }
    }

    /// Whether `self ⊇ other` (tuple-wise; requires equal schemas).
    pub fn is_superset(&self, other: &Relation) -> bool {
        assert_eq!(
            self.schema, other.schema,
            "superset check of incompatible schemas"
        );
        self.tuples.is_superset(&other.tuples)
    }

    /// Returns the same tuples under a different (equal-arity) schema —
    /// the ρ renaming operator's data-level effect.
    pub fn with_schema(&self, schema: Schema) -> Relation {
        self.clone().into_schema(schema)
    }

    /// [`with_schema`](Self::with_schema) by value: relabels the columns
    /// without copying a tuple.
    pub fn into_schema(self, schema: Schema) -> Relation {
        assert_eq!(
            schema.arity(),
            self.schema.arity(),
            "renaming must preserve arity"
        );
        Relation {
            schema,
            tuples: self.tuples,
        }
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {{", self.schema)?;
        for (i, t) in self.tuples.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn rel(rows: &[i64]) -> Relation {
        Relation::from_rows(Schema::new(["x"]), rows.iter().map(|&v| tuple![v]))
    }

    #[test]
    fn prefix_scan_stops_at_the_prefix_boundary() {
        let r = Relation::from_rows(
            Schema::new(["a", "b", "c"]),
            [
                tuple![1, 9, 9],
                tuple![2, 1, 1],
                tuple![2, 1, 7],
                tuple![2, 3, 0],
                tuple![3, 0, 0],
            ],
        );
        let scan = |p: &[Value]| r.prefix_scan(p).cloned().collect::<Vec<_>>();
        assert_eq!(
            scan(&[Value::int(2)]),
            [tuple![2, 1, 1], tuple![2, 1, 7], tuple![2, 3, 0]]
        );
        assert_eq!(
            scan(&[Value::int(2), Value::int(1)]),
            [tuple![2, 1, 1], tuple![2, 1, 7]]
        );
        assert_eq!(scan(&[Value::int(2), Value::int(2)]), Vec::<Tuple>::new());
        assert_eq!(scan(&[Value::int(4)]), Vec::<Tuple>::new());
        assert_eq!(scan(&[]).len(), 5);
        assert!(r.contains_values(&[Value::int(2), Value::int(3), Value::int(0)]));
        assert!(!r.contains_values(&[Value::int(2), Value::int(3)]));
    }

    #[test]
    fn insert_dedups() {
        let mut r = Relation::empty(Schema::new(["x"]));
        assert!(r.insert(tuple![1]));
        assert!(!r.insert(tuple![1]));
        assert_eq!(r.len(), 1);
        assert!(r.contains(&tuple![1]));
        assert!(!r.contains(&tuple![2]));
    }

    #[test]
    #[should_panic(expected = "wrong arity")]
    fn arity_mismatch_panics() {
        let mut r = Relation::empty(Schema::new(["x"]));
        r.insert(tuple![1, 2]);
    }

    #[test]
    fn set_operations() {
        let a = rel(&[1, 2, 3]);
        let b = rel(&[2, 3, 4]);
        assert_eq!(a.union(&b), rel(&[1, 2, 3, 4]));
        assert_eq!(a.difference(&b), rel(&[1]));
        assert_eq!(a.intersection(&b), rel(&[2, 3]));
        assert!(a.union(&b).is_superset(&a));
        assert!(!a.is_superset(&b));
    }

    #[test]
    #[should_panic(expected = "incompatible schemas")]
    fn union_schema_mismatch_panics() {
        let a = rel(&[1]);
        let b = Relation::empty(Schema::new(["y"]));
        let _ = a.union(&b);
    }

    #[test]
    fn iteration_is_sorted() {
        let r = rel(&[3, 1, 2]);
        let got: Vec<i64> = r.iter().map(|t| t.get(0).as_int().unwrap()).collect();
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn rename_preserves_tuples() {
        let r = rel(&[1, 2]);
        let renamed = r.with_schema(Schema::new(["y"]));
        assert_eq!(renamed.schema(), &Schema::new(["y"]));
        assert_eq!(renamed.len(), 2);
        assert!(renamed.contains(&tuple![1]));
    }

    #[test]
    fn relations_are_ordered() {
        // Required for databases to serve as Markov-chain states.
        assert!(rel(&[1]) < rel(&[2]));
        assert!(rel(&[1]) < rel(&[1, 2]));
    }
}
