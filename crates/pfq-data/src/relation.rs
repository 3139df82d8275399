//! Relations: schema-carrying ordered sets of tuples.

use crate::hash::FxHasher;
use crate::{Schema, Tuple, Value};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

/// A relation instance: a [`Schema`] plus an ordered set of tuples.
///
/// The tuples are stored as a sorted, duplicate-free `Vec`, so iteration
/// order — and therefore every possible-world enumeration built on top —
/// is fully deterministic, membership is a binary search and a prefix
/// scan is a range of the slice. Cloning copies the vector (one
/// reference-count bump per tuple); a [`Database`](crate::Database)
/// shares whole relations behind an `Arc` instead.
///
/// Cost model: appending a tuple larger than every stored one is
/// amortized O(1), but an insert or removal elsewhere shifts the tail,
/// O(n). Bulk builders therefore collect first and sort once
/// ([`from_rows`](Self::from_rows), [`Extend`]).
///
/// Equality and order are those of `(schema, tuples)`, the order of the
/// tuples being lexicographic. `Hash` writes one word, the content hash
/// of schema and tuples: it is computed on first use, cached, and reset
/// by every mutation, so a relation shared by many states (or hashed
/// again by an interner growing its table) is hashed once.
pub struct Relation {
    schema: Schema,
    /// Sorted ascending, no duplicates.
    tuples: Vec<Tuple>,
    /// The content hash, or [`UNHASHED`] until it is first asked for.
    hash: AtomicU64,
}

/// The cached-hash slot's "not computed" mark; a content hash that
/// happens to be 0 is stored as 1.
const UNHASHED: u64 = 0;

impl Relation {
    /// An empty relation with the given schema.
    pub fn empty(schema: Schema) -> Relation {
        Relation::from_sorted(schema, Vec::new())
    }

    /// A relation over tuples already sorted and deduplicated.
    fn from_sorted(schema: Schema, tuples: Vec<Tuple>) -> Relation {
        Relation {
            schema,
            tuples,
            hash: AtomicU64::new(UNHASHED),
        }
    }

    /// Builds a relation from rows, checking every arity. The rows are
    /// collected and sorted once, whatever their order.
    pub fn from_rows(schema: Schema, rows: impl IntoIterator<Item = Tuple>) -> Relation {
        let mut r = Relation::empty(schema);
        r.extend(rows);
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
        self.contains_values(t.values())
    }

    /// Membership test for a borrowed field slice.
    pub fn contains_values(&self, values: &[Value]) -> bool {
        self.position(values).is_ok()
    }

    /// Where `values` is stored (`Ok`) or would be inserted (`Err`).
    fn position(&self, values: &[Value]) -> Result<usize, usize> {
        self.tuples.binary_search_by(|t| t.values().cmp(values))
    }

    /// The tuples whose leading fields equal `prefix`, in sorted order:
    /// a range of the sorted tuples found by binary search rather than a
    /// full pass. An empty prefix yields every tuple.
    pub fn prefix_scan<'a>(&'a self, prefix: &'a [Value]) -> impl Iterator<Item = &'a Tuple> + 'a {
        let from = self.tuples.partition_point(|t| t.values() < prefix);
        self.tuples[from..]
            .iter()
            .take_while(move |t| t.values().starts_with(prefix))
    }

    /// Inserts a tuple; returns whether it was new. Panics on arity
    /// mismatch (always an engine bug). O(1) amortized when `t` sorts
    /// after every stored tuple, O(n) otherwise.
    pub fn insert(&mut self, t: Tuple) -> bool {
        self.check_arity(&t);
        let at = match self.tuples.last() {
            Some(last) if *last < t => self.tuples.len(),
            None => 0,
            Some(_) => match self.position(t.values()) {
                Ok(_) => return false,
                Err(at) => at,
            },
        };
        self.tuples.insert(at, t);
        self.touch();
        true
    }

    fn check_arity(&self, t: &Tuple) {
        assert_eq!(
            t.arity(),
            self.schema.arity(),
            "tuple {t} has wrong arity for schema {}",
            self.schema
        );
    }

    /// Removes a tuple; returns whether it was present.
    pub fn remove(&mut self, t: &Tuple) -> bool {
        match self.position(t.values()) {
            Ok(at) => {
                self.tuples.remove(at);
                self.touch();
                true
            }
            Err(_) => false,
        }
    }

    /// Keeps only the tuples `keep` accepts, in one pass.
    pub fn retain(&mut self, keep: impl FnMut(&Tuple) -> bool) {
        let before = self.tuples.len();
        self.tuples.retain(keep);
        if self.tuples.len() != before {
            self.touch();
        }
    }

    /// Removes every tuple, keeping the schema and the storage, so a
    /// relation emptied and refilled over and over (the sampler's Δ)
    /// does not allocate again.
    pub fn clear(&mut self) {
        self.tuples.clear();
        self.touch();
    }

    /// Drops the cached hash: the content has changed.
    fn touch(&mut self) {
        *self.hash.get_mut() = UNHASHED;
    }

    /// The content hash of schema and tuples, computed once.
    fn content_hash(&self) -> u64 {
        match self.hash.load(AtomicOrdering::Relaxed) {
            UNHASHED => {
                let mut h = FxHasher::default();
                self.schema.hash(&mut h);
                self.tuples.hash(&mut h);
                let hash = h.finish().max(1);
                self.hash.store(hash, AtomicOrdering::Relaxed);
                hash
            }
            hash => hash,
        }
    }

    /// Iterates tuples in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> + '_ {
        self.tuples.iter()
    }

    /// Set union; requires equal schemas.
    pub fn union(&self, other: &Relation) -> Relation {
        assert_eq!(self.schema, other.schema, "union of incompatible schemas");
        let mut tuples = Vec::with_capacity(self.len() + other.len());
        merge(&self.tuples, &other.tuples, |t, _| tuples.push(t.clone()));
        Relation::from_sorted(self.schema.clone(), tuples)
    }

    /// Set difference `self − other`; requires equal schemas.
    pub fn difference(&self, other: &Relation) -> Relation {
        assert_eq!(
            self.schema, other.schema,
            "difference of incompatible schemas"
        );
        self.filtered(other, |side| side == Side::Left)
    }

    /// Set intersection; requires equal schemas.
    pub fn intersection(&self, other: &Relation) -> Relation {
        assert_eq!(
            self.schema, other.schema,
            "intersection of incompatible schemas"
        );
        self.filtered(other, |side| side == Side::Both)
    }

    /// The tuples of `self` whose side in a merge with `other` `keep`
    /// accepts.
    fn filtered(&self, other: &Relation, keep: impl Fn(Side) -> bool) -> Relation {
        let mut tuples = Vec::new();
        merge(&self.tuples, &other.tuples, |t, side| {
            if keep(side) {
                tuples.push(t.clone());
            }
        });
        Relation::from_sorted(self.schema.clone(), tuples)
    }

    /// Whether `self ⊇ other` (tuple-wise; requires equal schemas).
    pub fn is_superset(&self, other: &Relation) -> bool {
        assert_eq!(
            self.schema, other.schema,
            "superset check of incompatible schemas"
        );
        other.len() <= self.len() && other.iter().all(|t| self.contains(t))
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
        Relation::from_sorted(schema, self.tuples)
    }
}

/// Where a tuple met in a [`merge`] lies.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Side {
    Left,
    Right,
    Both,
}

/// Walks two sorted, duplicate-free slices in step, calling `visit` once
/// per distinct tuple, in order, with the side(s) it lies on.
fn merge<'a>(left: &'a [Tuple], right: &'a [Tuple], mut visit: impl FnMut(&'a Tuple, Side)) {
    let (mut i, mut j) = (0, 0);
    while i < left.len() && j < right.len() {
        match left[i].cmp(&right[j]) {
            Ordering::Less => {
                visit(&left[i], Side::Left);
                i += 1;
            }
            Ordering::Greater => {
                visit(&right[j], Side::Right);
                j += 1;
            }
            Ordering::Equal => {
                visit(&left[i], Side::Both);
                i += 1;
                j += 1;
            }
        }
    }
    left[i..].iter().for_each(|t| visit(t, Side::Left));
    right[j..].iter().for_each(|t| visit(t, Side::Right));
}

/// Appends every tuple (checking arities), then restores the order once:
/// the new tuples are sorted, those already present are dropped, and the
/// rest, unless they all sort after the old ones, are merged in by one
/// stable sort, which finds the two sorted runs and merges them in a
/// linear pass.
impl Extend<Tuple> for Relation {
    fn extend<I: IntoIterator<Item = Tuple>>(&mut self, rows: I) {
        let old = self.tuples.len();
        for t in rows {
            self.check_arity(&t);
            self.tuples.push(t);
        }
        if self.tuples.len() == old {
            return;
        }
        self.touch();
        self.tuples[old..].sort_unstable();
        // Keep, in order, each new tuple that neither repeats the one
        // kept before it nor is already stored.
        let mut kept = old;
        for next in old..self.tuples.len() {
            let t = &self.tuples[next];
            let repeat = kept > old && self.tuples[kept - 1] == *t;
            let stored = old > 0
                && self.tuples[old - 1] >= *t
                && self.tuples[..old].binary_search(t).is_ok();
            if !repeat && !stored {
                self.tuples.swap(kept, next);
                kept += 1;
            }
        }
        self.tuples.truncate(kept);
        if old > 0 && kept > old && self.tuples[old - 1] > self.tuples[old] {
            self.tuples.sort();
        }
    }
}

impl Clone for Relation {
    fn clone(&self) -> Relation {
        Relation {
            schema: self.schema.clone(),
            tuples: self.tuples.clone(),
            hash: AtomicU64::new(self.hash.load(AtomicOrdering::Relaxed)),
        }
    }

    /// Copies `source` into `self`, reusing `self`'s tuple storage.
    fn clone_from(&mut self, source: &Relation) {
        self.schema.clone_from(&source.schema);
        self.tuples.clone_from(&source.tuples);
        *self.hash.get_mut() = source.hash.load(AtomicOrdering::Relaxed);
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Relation) -> bool {
        self.schema == other.schema && self.tuples == other.tuples
    }
}

impl Eq for Relation {}

impl PartialOrd for Relation {
    fn partial_cmp(&self, other: &Relation) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Relation {
    fn cmp(&self, other: &Relation) -> Ordering {
        self.schema
            .cmp(&other.schema)
            .then_with(|| self.tuples.cmp(&other.tuples))
    }
}

impl Hash for Relation {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.content_hash());
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
