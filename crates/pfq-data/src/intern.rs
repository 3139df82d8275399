//! Hash-consing for Markov-chain states.
//!
//! The exact evaluators (Prop. 4.4 tree enumeration, Thm. 5.5 chain
//! construction) repeatedly deduplicate whole states: every frontier
//! merge and every `index_of` would be an `O(|db|)` ordered comparison.
//! This module provides the substrate that makes those paths cheap:
//!
//! * [`Interner<T>`] — generic hash-consing: each distinct value is stored
//!   once behind an [`Arc`] and named by a dense [`StateId`]; after
//!   interning, equality and ordering are `u32` operations.
//! * [`database_approx_bytes`] and [`relation_approx_bytes`] — the
//!   deterministic byte estimates the interners' sizers use: the
//!   non-inflationary chain interns only the relations its kernel
//!   writes (plus each start database's unchanging rest, once), the
//!   inflationary tree interns whole computation states.
//!
//! The memo tables built on these ids live with the evaluators
//! (`pfq_core::cache`). Ids are only meaningful relative to the
//! [`Interner`] that produced them.

use crate::{Database, Relation, Value};
use pfq_num::Ratio;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::sync::Arc;

/// A dense identifier for an interned state.
///
/// `StateId`s are assigned consecutively from 0 in interning order, so
/// they double as indices into per-state side tables. They are only
/// comparable within the [`Interner`] that produced them.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct StateId(u32);

impl StateId {
    /// The id as a dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw `u32` payload.
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A generic hash-consing interner: one canonical `Arc<T>` per distinct
/// value, named by a dense [`StateId`].
///
/// ```
/// use pfq_data::intern::Interner;
/// let mut i: Interner<String> = Interner::new();
/// let a = i.intern("x".to_string());
/// let b = i.intern("x".to_string());
/// assert_eq!(a, b);
/// assert_eq!(i.len(), 1);
/// assert_eq!(i.hits(), 1);
/// assert_eq!(i.resolve(a).as_str(), "x");
/// ```
pub struct Interner<T> {
    items: Vec<Arc<T>>,
    index: HashMap<Arc<T>, StateId>,
    hits: u64,
    bytes: usize,
    sizer: fn(&T) -> usize,
}

impl<T: Eq + Hash> Interner<T> {
    /// An empty interner; byte accounting uses `size_of::<T>()` per entry.
    pub fn new() -> Interner<T> {
        Interner::with_sizer(|_| std::mem::size_of::<T>())
    }

    /// An empty interner with a custom per-value size estimate.
    pub fn with_sizer(sizer: fn(&T) -> usize) -> Interner<T> {
        Interner {
            items: Vec::new(),
            index: HashMap::new(),
            hits: 0,
            bytes: 0,
            sizer,
        }
    }

    /// Interns `value`, returning its canonical id. Re-interning an
    /// already-known value is an `O(1)` hash lookup (counted as a hit).
    /// The value is hashed once, found or not.
    pub fn intern(&mut self, value: T) -> StateId {
        let next = self.items.len();
        match self.index.entry(Arc::new(value)) {
            Entry::Occupied(found) => {
                self.hits += 1;
                *found.get()
            }
            Entry::Vacant(slot) => {
                assert!(
                    next < u32::MAX as usize,
                    "interner overflow: more than u32::MAX distinct states"
                );
                let id = StateId(next as u32);
                self.bytes += (self.sizer)(slot.key());
                self.items.push(slot.key().clone());
                slot.insert(id);
                id
            }
        }
    }

    /// The id of `value`, if already interned (not counted as a hit).
    pub fn lookup(&self, value: &T) -> Option<StateId> {
        self.index.get(value).copied()
    }

    /// The canonical value behind `id`.
    ///
    /// # Panics
    /// If `id` did not come from this interner.
    pub fn resolve(&self, id: StateId) -> &Arc<T> {
        &self.items[id.index()]
    }

    /// Number of distinct values interned.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// How many [`intern`](Self::intern) calls found an existing entry.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Estimated logical bytes held by the distinct interned values.
    pub fn approx_bytes(&self) -> usize {
        self.bytes
    }
}

impl<T: Eq + Hash> Default for Interner<T> {
    fn default() -> Self {
        Interner::new()
    }
}

impl<T: fmt::Debug> fmt::Debug for Interner<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Interner")
            .field("len", &self.items.len())
            .field("hits", &self.hits)
            .field("bytes", &self.bytes)
            .finish()
    }
}

/// Estimated logical size of a [`Value`] in bytes (deterministic across
/// platforms: payload content only, no allocator overhead).
pub fn value_approx_bytes(v: &Value) -> usize {
    match v {
        Value::Int(_) => 8,
        Value::Str(s) => s.len(),
        Value::Ratio(r) => ratio_display_len(r),
    }
}

/// `r.to_string().len()` by digit counting: `[-]num` for integers,
/// `[-]num/den` otherwise.
fn ratio_display_len(r: &Ratio) -> usize {
    let sign = usize::from(r.is_negative());
    let den = if r.denom().is_one() {
        0
    } else {
        1 + r.denom().decimal_digits()
    };
    sign + r.numer().magnitude().decimal_digits() + den
}

/// Estimated logical size of a [`Database`] in bytes: relation and column
/// names plus every stored value. Deterministic, so it is safe to print
/// in golden-tested `--stats` output.
pub fn database_approx_bytes(db: &Database) -> usize {
    db.iter()
        .map(|(name, rel)| name.len() + relation_approx_bytes(rel))
        .sum()
}

/// Estimated logical size of a [`Relation`] in bytes: column names plus
/// every stored value.
pub fn relation_approx_bytes(rel: &Relation) -> usize {
    let columns: usize = rel.schema().columns().iter().map(String::len).sum();
    let values: usize = rel
        .iter()
        .map(|t| t.values().iter().map(value_approx_bytes).sum::<usize>())
        .sum();
    columns + values
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{tuple, Relation, Schema};

    fn db(n: i64) -> Database {
        Database::new().with(
            "E",
            Relation::from_rows(Schema::new(["i", "j"]), [tuple![n, n + 1]]),
        )
    }

    fn db_store() -> Interner<Database> {
        Interner::with_sizer(database_approx_bytes)
    }

    #[test]
    fn interning_dedups_and_resolves() {
        let mut store = db_store();
        let a = store.intern(db(1));
        let b = store.intern(db(2));
        let a2 = store.intern(db(1));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(store.len(), 2);
        assert_eq!(store.hits(), 1);
        assert_eq!(**store.resolve(a), db(1));
        assert_eq!(store.lookup(&db(2)), Some(b));
        assert_eq!(store.lookup(&db(3)), None);
    }

    #[test]
    fn ids_are_dense_in_intern_order() {
        let mut store = db_store();
        for n in 0..5 {
            let id = store.intern(db(n));
            assert_eq!(id.index(), n as usize);
            assert_eq!(id.raw(), n as u32);
        }
        assert_eq!(store.intern(db(3)).index(), 3);
    }

    #[test]
    fn byte_accounting_is_deterministic_and_monotone() {
        let mut store = db_store();
        assert_eq!(store.approx_bytes(), 0);
        store.intern(db(1));
        let one = store.approx_bytes();
        assert!(one > 0);
        store.intern(db(1)); // duplicate: no growth
        assert_eq!(store.approx_bytes(), one);
        store.intern(db(2));
        assert_eq!(store.approx_bytes(), 2 * one); // same shape ⇒ same size

        let mut other = db_store();
        other.intern(db(1));
        assert_eq!(other.approx_bytes(), one);
    }

    #[test]
    fn value_bytes_cover_all_variants() {
        assert_eq!(value_approx_bytes(&Value::int(7)), 8);
        assert_eq!(value_approx_bytes(&Value::str("abc")), 3);
        assert_eq!(value_approx_bytes(&Value::frac(1, 3)), 3); // "1/3"
    }

    #[test]
    fn ratio_bytes_match_display_length() {
        let big = Ratio::new(1, 3).pow(90); // 3⁹⁰ spans three limbs
        let mut cases = vec![
            Ratio::zero(),
            Ratio::one(),
            Ratio::new(-1, 2),
            Ratio::new(-7, 1),
            Ratio::new(999, 1000),
            Ratio::new(i64::MAX, 10),
            Ratio::new(i64::MIN + 1, 9),
            big.clone(),
            big.recip().neg_ref(),
            big.add_ref(&Ratio::new(-5, 7)),
        ];
        cases.extend((0..=40).map(|k| Ratio::from_integer(10).pow(k)));
        cases.extend((1..=40).map(|k| Ratio::from_integer(10).pow(k).sub_ref(&Ratio::one())));
        for r in cases {
            assert_eq!(
                value_approx_bytes(&Value::Ratio(r.clone())),
                r.to_string().len(),
                "{r}"
            );
        }
    }

    thread_local! {
        static HASHES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// A value whose `Hash` counts its calls on this thread.
    #[derive(PartialEq, Eq)]
    struct Counted(u32);

    impl Hash for Counted {
        fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
            HASHES.with(|n| n.set(n.get() + 1));
            self.0.hash(state);
        }
    }

    /// Hashes `Counted` values take during `f`.
    fn hashes_during(f: impl FnOnce()) -> usize {
        let before = HASHES.with(|n| n.get());
        f();
        HASHES.with(|n| n.get()) - before
    }

    #[test]
    fn intern_hashes_each_value_once() {
        let mut store: Interner<Counted> = Interner::new();
        assert_eq!(
            hashes_during(|| {
                store.intern(Counted(1));
            }),
            1
        );
        assert_eq!(
            hashes_during(|| {
                store.intern(Counted(1));
            }),
            1
        );
        assert_eq!(
            hashes_during(|| {
                store.intern(Counted(2));
            }),
            1
        );
        assert_eq!((store.len(), store.hits()), (2, 1));
    }

    #[test]
    fn generic_interner_default_sizer() {
        let mut i: Interner<u64> = Interner::new();
        let a = i.intern(9);
        assert_eq!(*i.resolve(a).as_ref(), 9);
        assert_eq!(i.approx_bytes(), 8);
    }
}
