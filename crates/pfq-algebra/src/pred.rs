//! Selection predicates: boolean combinations of (in)equalities between
//! columns and constants, evaluated per tuple.

use crate::AlgebraError;
use pfq_data::{Schema, Tuple, Value};
use std::fmt;

/// One side of a comparison.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Operand {
    /// A column, referenced by name.
    Col(String),
    /// A constant value.
    Lit(Value),
}

impl Operand {
    /// Column operand.
    pub fn col(name: impl Into<String>) -> Operand {
        Operand::Col(name.into())
    }

    /// Constant operand.
    pub fn lit(v: impl Into<Value>) -> Operand {
        Operand::Lit(v.into())
    }

    fn resolve<'a>(&'a self, schema: &Schema, tuple: &'a Tuple) -> Result<&'a Value, AlgebraError> {
        match self {
            Operand::Lit(v) => Ok(v),
            Operand::Col(name) => {
                let idx = schema
                    .index_of(name)
                    .ok_or_else(|| AlgebraError::MissingColumn {
                        column: name.clone(),
                        schema: schema.to_string(),
                    })?;
                Ok(tuple.get(idx))
            }
        }
    }
}

/// A selection predicate.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Pred {
    /// Always true (σ_true is the identity).
    True,
    /// `left = right`.
    Eq(Operand, Operand),
    /// `left ≠ right`.
    Ne(Operand, Operand),
    /// `left < right` (under the total order on [`Value`]).
    Lt(Operand, Operand),
    /// `left ≤ right`.
    Le(Operand, Operand),
    /// Conjunction.
    And(Box<Pred>, Box<Pred>),
    /// Disjunction.
    Or(Box<Pred>, Box<Pred>),
    /// Negation.
    Not(Box<Pred>),
}

impl Pred {
    /// `column = constant`, the most common selection.
    pub fn col_eq(name: impl Into<String>, v: impl Into<Value>) -> Pred {
        Pred::Eq(Operand::col(name), Operand::lit(v))
    }

    /// `column_a = column_b` (theta-join style equality).
    pub fn cols_eq(a: impl Into<String>, b: impl Into<String>) -> Pred {
        Pred::Eq(Operand::col(a), Operand::col(b))
    }

    /// Conjunction helper.
    pub fn and(self, other: Pred) -> Pred {
        Pred::And(Box::new(self), Box::new(other))
    }

    /// Disjunction helper.
    pub fn or(self, other: Pred) -> Pred {
        Pred::Or(Box::new(self), Box::new(other))
    }

    /// Negation helper (a DSL combinator, deliberately named like
    /// the logical operation rather than implementing `std::ops::Not`).
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Pred {
        Pred::Not(Box::new(self))
    }

    /// Evaluates the predicate on one tuple.
    pub fn eval(&self, schema: &Schema, tuple: &Tuple) -> Result<bool, AlgebraError> {
        Ok(match self {
            Pred::True => true,
            Pred::Eq(a, b) => a.resolve(schema, tuple)? == b.resolve(schema, tuple)?,
            Pred::Ne(a, b) => a.resolve(schema, tuple)? != b.resolve(schema, tuple)?,
            Pred::Lt(a, b) => a.resolve(schema, tuple)? < b.resolve(schema, tuple)?,
            Pred::Le(a, b) => a.resolve(schema, tuple)? <= b.resolve(schema, tuple)?,
            Pred::And(a, b) => a.eval(schema, tuple)? && b.eval(schema, tuple)?,
            Pred::Or(a, b) => a.eval(schema, tuple)? || b.eval(schema, tuple)?,
            Pred::Not(p) => !p.eval(schema, tuple)?,
        })
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Col(c) => write!(f, "{c}"),
            Operand::Lit(v) => write!(f, "{v:?}"),
        }
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pred::True => write!(f, "true"),
            Pred::Eq(a, b) => write!(f, "{a} = {b}"),
            Pred::Ne(a, b) => write!(f, "{a} != {b}"),
            Pred::Lt(a, b) => write!(f, "{a} < {b}"),
            Pred::Le(a, b) => write!(f, "{a} <= {b}"),
            Pred::And(a, b) => write!(f, "({a} and {b})"),
            Pred::Or(a, b) => write!(f, "({a} or {b})"),
            Pred::Not(p) => write!(f, "not {p}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfq_data::tuple;

    fn schema() -> Schema {
        Schema::new(["a", "b"])
    }

    #[test]
    fn comparisons() {
        let s = schema();
        let t = tuple![3, 5];
        assert!(Pred::col_eq("a", 3).eval(&s, &t).unwrap());
        assert!(!Pred::col_eq("a", 4).eval(&s, &t).unwrap());
        assert!(Pred::cols_eq("a", "a").eval(&s, &t).unwrap());
        assert!(!Pred::cols_eq("a", "b").eval(&s, &t).unwrap());
        assert!(Pred::Lt(Operand::col("a"), Operand::col("b"))
            .eval(&s, &t)
            .unwrap());
        assert!(Pred::Le(Operand::col("a"), Operand::lit(3))
            .eval(&s, &t)
            .unwrap());
        assert!(Pred::Ne(Operand::col("a"), Operand::col("b"))
            .eval(&s, &t)
            .unwrap());
    }

    #[test]
    fn boolean_combinators() {
        let s = schema();
        let t = tuple![3, 5];
        let p = Pred::col_eq("a", 3).and(Pred::col_eq("b", 5));
        assert!(p.eval(&s, &t).unwrap());
        let q = Pred::col_eq("a", 9).or(Pred::col_eq("b", 5));
        assert!(q.eval(&s, &t).unwrap());
        assert!(!q.not().eval(&s, &t).unwrap());
        assert!(Pred::True.eval(&s, &t).unwrap());
    }

    #[test]
    fn missing_column_is_error() {
        let s = schema();
        let t = tuple![3, 5];
        let err = Pred::col_eq("z", 0).eval(&s, &t).unwrap_err();
        assert!(matches!(err, AlgebraError::MissingColumn { .. }));
    }

    #[test]
    fn display() {
        let p = Pred::col_eq("a", 3).and(Pred::True.not());
        assert_eq!(p.to_string(), "(a = 3 and not true)");
    }
}
