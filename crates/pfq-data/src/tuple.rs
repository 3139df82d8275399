//! Tuples: fixed-arity sequences of [`Value`]s.

use crate::Value;
use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

/// An immutable database tuple.
///
/// The values sit behind an [`Arc`], so cloning a tuple (and so a
/// relation, a database or a whole computation state) bumps a reference
/// count instead of copying the values. Equality, order and hashing are
/// those of the value slice; `Arc`'s equality tries the pointers first,
/// so a tuple compared with a clone of itself costs O(1).
///
/// Building one allocates once when the length is known up front:
/// [`Tuple::from_slice`], and `collect` over a mapped slice or a chain
/// of them. [`Tuple::new`] from a `Vec` copies the values into a fresh
/// block.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tuple {
    values: Arc<[Value]>,
}

// A tuple is one fat pointer, as wide as the `Box<[Value]>` it was.
// `Value` may shrink (an inline `Ratio` makes it 56 bytes) but must not
// grow unnoticed: every tuple, relation, clone, hash and comparison
// pays for its width.
const _: () = assert!(std::mem::size_of::<Tuple>() == 16);
const _: () = assert!(std::mem::size_of::<Value>() <= 56);

impl Tuple {
    /// Builds a tuple from values.
    pub fn new(values: impl Into<Vec<Value>>) -> Tuple {
        Tuple {
            values: Arc::from(values.into()),
        }
    }

    /// Builds a tuple by cloning `values`, in one allocation.
    pub fn from_slice(values: &[Value]) -> Tuple {
        Tuple {
            values: Arc::from(values),
        }
    }

    /// The empty (0-ary) tuple — the “empty valuation” of a bodiless rule.
    pub fn empty() -> Tuple {
        Tuple {
            values: Arc::new([]),
        }
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Field at position `i`, panicking on out-of-range (arity errors are
    /// engine bugs, not data errors).
    pub fn get(&self, i: usize) -> &Value {
        &self.values[i]
    }

    /// All fields.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// New tuple keeping only the fields at `indices`, in that order
    /// (duplicates allowed — projection may repeat a column).
    pub fn project(&self, indices: &[usize]) -> Tuple {
        indices.iter().map(|&i| self.values[i].clone()).collect()
    }

    /// Concatenation `self ++ other` (cartesian-product row assembly).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        self.values
            .iter()
            .chain(other.values.iter())
            .cloned()
            .collect()
    }
}

/// Collects values into a tuple. An iterator of known exact length (a
/// mapped slice, a chain of them) fills the tuple in one allocation;
/// any other is gathered into a `Vec` first.
impl FromIterator<Value> for Tuple {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Tuple {
        Tuple {
            values: iter.into_iter().collect(),
        }
    }
}

/// A tuple compares, orders and hashes exactly as its field slice, so
/// tuple sets can be probed with a borrowed `&[Value]` — no tuple built.
impl Borrow<[Value]> for Tuple {
    fn borrow(&self) -> &[Value] {
        &self.values
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// Builds a [`Tuple`] from a comma-separated list of values convertible
/// via `Into<Value>`: `tuple![1, "a", Value::frac(1,2)]`.
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::Tuple::new(vec![$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = tuple![1, "a"];
        assert_eq!(t.arity(), 2);
        assert_eq!(t.get(0), &Value::int(1));
        assert_eq!(t.get(1), &Value::str("a"));
        assert_eq!(Tuple::empty().arity(), 0);
    }

    #[test]
    fn project() {
        let t = tuple![10, 20, 30];
        assert_eq!(t.project(&[2, 0]), tuple![30, 10]);
        assert_eq!(t.project(&[1, 1]), tuple![20, 20]);
        assert_eq!(t.project(&[]), Tuple::empty());
    }

    #[test]
    fn concat() {
        let a = tuple![1];
        let b = tuple!["x", 2];
        assert_eq!(a.concat(&b), tuple![1, "x", 2]);
        assert_eq!(Tuple::empty().concat(&a), a);
    }

    #[test]
    fn ordering_lexicographic() {
        assert!(tuple![1, 2] < tuple![1, 3]);
        assert!(tuple![1] < tuple![1, 0]);
        assert!(tuple![0, 9] < tuple![1, 0]);
    }

    #[test]
    fn display() {
        assert_eq!(tuple![1, "a"].to_string(), "(1, a)");
        assert_eq!(Tuple::empty().to_string(), "()");
    }

    /// An int, a string or a rational, so tuples mix the value kinds.
    fn value_of((kind, n): (u8, i64)) -> Value {
        match kind {
            0 => Value::int(n),
            1 => Value::str(format!("s{n}")),
            _ => Value::frac(n, 3),
        }
    }

    fn hash_of(t: &Tuple, keys: &std::collections::hash_map::RandomState) -> u64 {
        use std::hash::BuildHasher;
        keys.hash_one(t)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Every builder gives the same tuple from the same values: equal,
        /// ordered as the value slice against another tuple, and hashed
        /// alike.
        #[test]
        fn prop_builders_agree(
            raw in proptest::collection::vec((0u8..3, -3i64..3), 0..6),
            other in proptest::collection::vec((0u8..3, -3i64..3), 0..6),
            split in 0usize..6,
        ) {
            let values: Vec<Value> = raw.into_iter().map(value_of).collect();
            let other = Tuple::new(other.into_iter().map(value_of).collect::<Vec<_>>());
            let split = split.min(values.len());
            let reversed = Tuple::new(values.iter().rev().cloned().collect::<Vec<_>>());
            let built = [
                Tuple::new(values.clone()),
                Tuple::from_slice(&values),
                values.iter().cloned().collect(),
                reversed.project(&(0..values.len()).rev().collect::<Vec<_>>()),
                Tuple::from_slice(&values[..split]).concat(&Tuple::from_slice(&values[split..])),
            ];
            let keys = std::collections::hash_map::RandomState::new();
            let hash = hash_of(&built[0], &keys);
            for t in &built {
                proptest::prop_assert_eq!(t.values(), values.as_slice());
                proptest::prop_assert_eq!(t, &built[0]);
                proptest::prop_assert_eq!(t.cmp(&built[0]), std::cmp::Ordering::Equal);
                proptest::prop_assert_eq!(t.cmp(&other), values.as_slice().cmp(other.values()));
                proptest::prop_assert_eq!(hash_of(t, &keys), hash);
            }
        }
    }
}
