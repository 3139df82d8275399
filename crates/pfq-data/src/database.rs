//! Databases: named collections of relations, usable as Markov-chain states.

use crate::{Relation, Schema, Tuple, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// A relational database instance.
///
/// `Database` is `Ord + Hash`, so the non-inflationary evaluator can use
/// instances directly as the states of its Markov chain, and the
/// inflationary evaluator as nodes of its computation tree.
///
/// Each relation sits behind an [`Arc`] under an `Arc<str>` name, so
/// cloning a database copies one map of pointers, and a clone shares
/// every relation with its original. Writes are copy-on-write:
/// [`get_mut`](Self::get_mut) and [`insert_tuple`](Self::insert_tuple)
/// copy a relation only while it is still shared, and
/// [`clear_tuples`](Self::clear_tuples) swaps a shared relation for an
/// empty one. A computation step that adds tuples to one relation thus
/// costs that relation, and its successor shares the rest. Hashing a
/// database reads each relation's cached content hash.
///
/// ```
/// use pfq_data::{tuple, Database, Relation, Schema};
/// let db = Database::new().with(
///     "E",
///     Relation::from_rows(Schema::new(["i", "j"]), [tuple![1, 2], tuple![2, 3]]),
/// );
/// assert_eq!(db.get("E").unwrap().len(), 2);
/// assert!(db.get("E").unwrap().contains(&tuple![1, 2]));
/// let mut grown = db.clone();
/// grown.insert_tuple("E", tuple![3, 4]).unwrap();
/// assert_eq!(db.get("E").unwrap().len(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Database {
    relations: BTreeMap<Arc<str>, Arc<Relation>>,
}

impl Database {
    /// An empty database (no relations at all).
    pub fn new() -> Database {
        Database::default()
    }

    /// Adds (or replaces) a relation under `name`. An `Arc<Relation>` is
    /// stored as given, shared with its other holders.
    pub fn set(&mut self, name: impl Into<Arc<str>>, rel: impl Into<Arc<Relation>>) {
        self.relations.insert(name.into(), rel.into());
    }

    /// Builder-style [`set`](Self::set).
    pub fn with(mut self, name: impl Into<Arc<str>>, rel: impl Into<Arc<Relation>>) -> Database {
        self.set(name, rel);
        self
    }

    /// Declares an empty relation with the given schema (for IDB targets).
    pub fn declare(&mut self, name: impl Into<Arc<str>>, schema: Schema) {
        self.set(name, Relation::empty(schema));
    }

    /// Sets every relation of `other` into `self` under its name,
    /// replacing a relation of that name and sharing `other`'s.
    pub fn overlay(&mut self, other: &Database) {
        for (name, rel) in &other.relations {
            self.relations.insert(name.clone(), rel.clone());
        }
    }

    /// The relation named `name`, if present.
    pub fn get(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name).map(|r| &**r)
    }

    /// The relation named `name`; `Err` with a useful message otherwise.
    pub fn expect(&self, name: &str) -> Result<&Relation, String> {
        self.get(name)
            .ok_or_else(|| format!("no relation named {name:?} in database"))
    }

    /// Removes the relation named `name`, returning it (still shared
    /// with any other holder) if present.
    pub fn remove(&mut self, name: &str) -> Option<Arc<Relation>> {
        self.relations.remove(name)
    }

    /// Mutable access to the relation named `name`. A relation shared
    /// with another database is copied first, so the others never see
    /// the write.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Relation> {
        self.relations.get_mut(name).map(Arc::make_mut)
    }

    /// Whether a relation named `name` exists.
    pub fn contains_relation(&self, name: &str) -> bool {
        self.relations.contains_key(name)
    }

    /// Relation names in sorted order.
    pub fn relation_names(&self) -> impl Iterator<Item = &str> + '_ {
        self.relations.keys().map(|n| &**n)
    }

    /// All `(name, relation)` pairs in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Relation)> + '_ {
        self.relations.iter().map(|(n, r)| (&**n, &**r))
    }

    /// Inserts a tuple into the named relation; `Err` if it is missing.
    /// A shared relation is copied only if `t` is new to it.
    pub fn insert_tuple(&mut self, name: &str, t: Tuple) -> Result<bool, String> {
        match self.relations.get_mut(name) {
            Some(r) if r.contains(&t) => Ok(false),
            Some(r) => Ok(Arc::make_mut(r).insert(t)),
            None => Err(format!("no relation named {name:?} in database")),
        }
    }

    /// Empties every relation, keeping its name and schema. A relation
    /// held only here is emptied in place and keeps its storage; a
    /// shared one is replaced by a new empty relation, not copied.
    pub fn clear_tuples(&mut self) {
        for rel in self.relations.values_mut() {
            if rel.is_empty() {
                continue;
            }
            match Arc::get_mut(rel) {
                Some(own) => own.clear(),
                None => *rel = Arc::new(Relation::empty(rel.schema().clone())),
            }
        }
    }

    /// Makes `self` equal to `source` without giving up what it can
    /// reuse: when both have the same relation names and schemas, each
    /// relation already shared with `source` is kept, one held only here
    /// is overwritten in place (its storage kept), and any other is
    /// replaced by `source`'s, shared. Otherwise `self` becomes a plain
    /// clone of `source`.
    pub fn reset_from(&mut self, source: &Database) {
        let same_shape = self.relations.len() == source.relations.len()
            && self
                .relations
                .iter()
                .zip(&source.relations)
                .all(|((n, r), (m, s))| n == m && r.schema() == s.schema());
        if !same_shape {
            *self = source.clone();
            return;
        }
        for (mine, theirs) in self.relations.values_mut().zip(source.relations.values()) {
            reset_shared(mine, theirs);
        }
    }

    /// Per relation, the tuples `self` has and `earlier` lacks, where
    /// `self` grew from `earlier` by additions only: every relation of
    /// `self` must exist in `earlier` and contain it (as the states of an
    /// inflationary computation do). Relations with no new tuple are left
    /// out, so an empty result means nothing was added. A relation still
    /// shared with `earlier`, or no longer than it, is skipped without a
    /// look at its tuples; that shortcut is why the containment is
    /// required (checked in debug builds).
    pub fn added_since(&self, earlier: &Database) -> Database {
        let mut added = Database::new();
        for (name, rel) in &self.relations {
            let old = earlier
                .relations
                .get(name)
                .unwrap_or_else(|| panic!("no relation named {name:?} in the earlier database"));
            debug_assert!(
                Arc::ptr_eq(rel, old) || rel.is_superset(old),
                "relation {name:?} lost tuples since the earlier database"
            );
            if !Arc::ptr_eq(rel, old) && rel.len() != old.len() {
                added.set(name.clone(), rel.difference(old));
            }
        }
        added
    }

    /// Total number of tuples across all relations.
    pub fn total_tuples(&self) -> usize {
        self.relations.values().map(|r| r.len()).sum()
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
                .is_some_and(|mine| Arc::ptr_eq(mine, rel) || mine.is_superset(rel))
        })
    }

    /// Per-relation union of two databases over the same schema; used by
    /// inflationary kernels (`new state = old state ∪ step result`).
    pub fn union(&self, other: &Database) -> Database {
        let mut out = self.clone();
        for (name, rel) in &other.relations {
            match out.relations.get_mut(name) {
                Some(mine) if !Arc::ptr_eq(mine, rel) => *mine = Arc::new(mine.union(rel)),
                Some(_) => {}
                None => {
                    out.relations.insert(name.clone(), rel.clone());
                }
            }
        }
        out
    }
}

/// Makes `mine` equal to `theirs`: nothing to do if they are one
/// relation, an in-place copy (keeping `mine`'s storage) if `mine` is
/// held nowhere else, else `theirs` shared.
pub fn reset_shared(mine: &mut Arc<Relation>, theirs: &Arc<Relation>) {
    if Arc::ptr_eq(mine, theirs) {
        return;
    }
    match Arc::get_mut(mine) {
        Some(own) => own.clone_from(theirs),
        None => *mine = Arc::clone(theirs),
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
    fn added_since_lists_only_new_tuples() {
        let small = edge_db();
        let mut big = small.clone();
        big.insert_tuple("E", tuple![9, 9]).unwrap();
        let added = big.added_since(&small);
        assert_eq!(
            added.get("E").unwrap().iter().collect::<Vec<_>>(),
            [&tuple![9, 9]]
        );
        assert!(small.added_since(&small).iter().next().is_none());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lost tuples")]
    fn added_since_rejects_a_relation_that_lost_tuples() {
        let earlier = edge_db();
        let mut later = earlier.clone();
        later.get_mut("E").unwrap().remove(&tuple![1, 2]);
        later.insert_tuple("E", tuple![9, 9]).unwrap();
        let _ = later.added_since(&earlier);
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
