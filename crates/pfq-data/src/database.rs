//! Databases: named collections of relations, usable as Markov-chain states.

use crate::{Relation, Schema, Tuple, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A relational database instance.
///
/// `Database` is `Ord + Hash`, so the non-inflationary evaluator can use
/// instances directly as the states of its Markov chain, and the
/// inflationary evaluator as nodes of its computation tree.
///
/// ```
/// use pfq_data::{tuple, Database, Relation, Schema};
/// let db = Database::new().with(
///     "E",
///     Relation::from_rows(Schema::new(["i", "j"]), [tuple![1, 2], tuple![2, 3]]),
/// );
/// assert_eq!(db.get("E").unwrap().len(), 2);
/// assert!(db.get("E").unwrap().contains(&tuple![1, 2]));
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Database {
    relations: BTreeMap<String, Relation>,
}

impl Database {
    /// An empty database (no relations at all).
    pub fn new() -> Database {
        Database::default()
    }

    /// Adds (or replaces) a relation under `name`.
    pub fn set(&mut self, name: impl Into<String>, rel: Relation) {
        self.relations.insert(name.into(), rel);
    }

    /// Builder-style [`set`](Self::set).
    pub fn with(mut self, name: impl Into<String>, rel: Relation) -> Database {
        self.set(name, rel);
        self
    }

    /// Declares an empty relation with the given schema (for IDB targets).
    pub fn declare(&mut self, name: impl Into<String>, schema: Schema) {
        self.set(name, Relation::empty(schema));
    }

    /// The relation named `name`, if present.
    pub fn get(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name)
    }

    /// The relation named `name`; `Err` with a useful message otherwise.
    pub fn expect(&self, name: &str) -> Result<&Relation, String> {
        self.relations
            .get(name)
            .ok_or_else(|| format!("no relation named {name:?} in database"))
    }

    /// Removes the relation named `name`, returning it if present.
    pub fn remove(&mut self, name: &str) -> Option<Relation> {
        self.relations.remove(name)
    }

    /// Mutable access to the relation named `name`.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Relation> {
        self.relations.get_mut(name)
    }

    /// Whether a relation named `name` exists.
    pub fn contains_relation(&self, name: &str) -> bool {
        self.relations.contains_key(name)
    }

    /// Relation names in sorted order.
    pub fn relation_names(&self) -> impl Iterator<Item = &str> + '_ {
        self.relations.keys().map(String::as_str)
    }

    /// All `(name, relation)` pairs in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Relation)> + '_ {
        self.relations.iter().map(|(n, r)| (n.as_str(), r))
    }

    /// Inserts a tuple into the named relation; `Err` if it is missing.
    pub fn insert_tuple(&mut self, name: &str, t: Tuple) -> Result<bool, String> {
        match self.relations.get_mut(name) {
            Some(r) => Ok(r.insert(t)),
            None => Err(format!("no relation named {name:?} in database")),
        }
    }

    /// Empties every relation, keeping its name and schema.
    pub fn clear_tuples(&mut self) {
        self.relations.values_mut().for_each(Relation::clear);
    }

    /// Total number of tuples across all relations.
    pub fn total_tuples(&self) -> usize {
        self.relations.values().map(Relation::len).sum()
    }

    /// The active domain: every value appearing in any tuple.
    pub fn active_domain(&self) -> BTreeSet<Value> {
        let mut dom = BTreeSet::new();
        for rel in self.relations.values() {
            for t in rel.iter() {
                dom.extend(t.values().iter().cloned());
            }
        }
        dom
    }

    /// Whether every relation of `self` is a superset of the same-named
    /// relation of `other` — the paper's inflationary condition `B ⊇ A`
    /// (Definition 3.4). Both databases must have the same relation names.
    pub fn is_superset(&self, other: &Database) -> bool {
        other.relations.iter().all(|(name, rel)| {
            self.relations
                .get(name)
                .is_some_and(|mine| mine.is_superset(rel))
        })
    }

    /// Per-relation union of two databases over the same schema; used by
    /// inflationary kernels (`new state = old state ∪ step result`).
    pub fn union(&self, other: &Database) -> Database {
        let mut out = self.clone();
        for (name, rel) in &other.relations {
            match out.relations.get_mut(name) {
                Some(mine) => *mine = mine.union(rel),
                None => {
                    out.relations.insert(name.clone(), rel.clone());
                }
            }
        }
        out
    }
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, rel) in &self.relations {
            writeln!(f, "{name}{rel}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn edge_db() -> Database {
        let schema = Schema::new(["i", "j"]);
        let e = Relation::from_rows(schema, [tuple![1, 2], tuple![2, 3]]);
        Database::new().with("E", e)
    }

    #[test]
    fn get_and_set() {
        let db = edge_db();
        assert!(db.contains_relation("E"));
        assert_eq!(db.get("E").unwrap().len(), 2);
        assert!(db.get("X").is_none());
        assert!(db.expect("X").is_err());
        assert_eq!(db.relation_names().collect::<Vec<_>>(), vec!["E"]);
    }

    #[test]
    fn insert_tuple() {
        let mut db = edge_db();
        assert_eq!(db.insert_tuple("E", tuple![3, 4]), Ok(true));
        assert_eq!(db.insert_tuple("E", tuple![3, 4]), Ok(false));
        assert!(db.insert_tuple("Z", tuple![1, 1]).is_err());
        assert_eq!(db.total_tuples(), 3);
    }

    #[test]
    fn active_domain() {
        let db = edge_db();
        let dom = db.active_domain();
        assert_eq!(
            dom.into_iter().collect::<Vec<_>>(),
            vec![Value::int(1), Value::int(2), Value::int(3)]
        );
    }

    #[test]
    fn superset_and_union() {
        let small = edge_db();
        let mut big = small.clone();
        big.insert_tuple("E", tuple![9, 9]).unwrap();
        assert!(big.is_superset(&small));
        assert!(!small.is_superset(&big));
        assert!(small.is_superset(&small));
        assert_eq!(small.union(&big), big);
    }

    #[test]
    fn databases_are_ordered_states() {
        let a = edge_db();
        let mut b = a.clone();
        b.insert_tuple("E", tuple![0, 0]).unwrap();
        assert_ne!(a, b);
        // Ordered ⇒ usable as BTreeMap keys (Markov-chain state index).
        let mut m = BTreeMap::new();
        m.insert(a.clone(), 0);
        m.insert(b.clone(), 1);
        assert_eq!(m.len(), 2);
        assert_eq!(m[&a], 0);
    }

    #[test]
    fn declare_creates_empty() {
        let mut db = Database::new();
        db.declare("C", Schema::new(["n"]));
        assert!(db.get("C").unwrap().is_empty());
        assert_eq!(db.get("C").unwrap().schema(), &Schema::new(["n"]));
    }
}
