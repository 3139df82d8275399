//! Tuples: fixed-arity sequences of [`Value`]s.

use crate::Value;
use std::borrow::Borrow;
use std::fmt;

/// An immutable database tuple.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tuple {
    values: Box<[Value]>,
}

impl Tuple {
    /// Builds a tuple from values.
    pub fn new(values: impl Into<Vec<Value>>) -> Tuple {
        Tuple {
            values: values.into().into_boxed_slice(),
        }
    }

    /// The empty (0-ary) tuple — the “empty valuation” of a bodiless rule.
    pub fn empty() -> Tuple {
        Tuple {
            values: Box::new([]),
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
        Tuple::new(
            indices
                .iter()
                .map(|&i| self.values[i].clone())
                .collect::<Vec<_>>(),
        )
    }

    /// Concatenation `self ++ other` (cartesian-product row assembly).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let mut v = Vec::with_capacity(self.arity() + other.arity());
        v.extend_from_slice(&self.values);
        v.extend_from_slice(&other.values);
        Tuple::new(v)
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
}
