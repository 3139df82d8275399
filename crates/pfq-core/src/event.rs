//! Query events — the Boolean observation evaluated on database states.
//!
//! The paper assumes events of the form `t ∈ R` (Definition 3.2); we add
//! the obvious low-complexity closure (non-emptiness and boolean
//! combinations), which changes none of the complexity results.

use crate::CoreError;
use pfq_data::{Database, Relation, Schema, Tuple};
use std::fmt;

/// A Boolean event over database states.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Event {
    /// `t ∈ R` — the paper's canonical query event.
    TupleIn {
        /// The observed relation.
        relation: String,
        /// The tuple to look for.
        tuple: Tuple,
    },
    /// `R ≠ ∅`.
    NonEmpty(String),
    /// Conjunction.
    And(Box<Event>, Box<Event>),
    /// Disjunction.
    Or(Box<Event>, Box<Event>),
    /// Negation.
    Not(Box<Event>),
}

impl Event {
    /// The canonical `t ∈ R` event.
    pub fn tuple_in(relation: impl Into<String>, tuple: Tuple) -> Event {
        Event::TupleIn {
            relation: relation.into(),
            tuple,
        }
    }

    /// The `R ≠ ∅` event.
    pub fn non_empty(relation: impl Into<String>) -> Event {
        Event::NonEmpty(relation.into())
    }

    /// Conjunction helper.
    pub fn and(self, other: Event) -> Event {
        Event::And(Box::new(self), Box::new(other))
    }

    /// Disjunction helper.
    pub fn or(self, other: Event) -> Event {
        Event::Or(Box::new(self), Box::new(other))
    }

    /// Negation helper (a DSL combinator, deliberately named like
    /// the logical operation rather than implementing `std::ops::Not`).
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Event {
        Event::Not(Box::new(self))
    }

    /// Whether the event holds in `db`. A missing relation makes
    /// `t ∈ R` and `R ≠ ∅` false (the tuple is certainly not there), and
    /// so does a tuple of the wrong arity. The engine rejects both up
    /// front on every task ([`Event::check`]).
    pub fn holds(&self, db: &Database) -> bool {
        self.holds_in(&|name| db.get(name))
    }

    /// [`holds`](Self::holds) on a state given by its relation lookup.
    pub fn holds_in<'r>(&self, relation: &dyn Fn(&str) -> Option<&'r Relation>) -> bool {
        match self {
            Event::TupleIn {
                relation: name,
                tuple,
            } => relation(name).is_some_and(|r| r.contains(tuple)),
            Event::NonEmpty(name) => relation(name).is_some_and(|r| !r.is_empty()),
            Event::And(a, b) => a.holds_in(relation) && b.holds_in(relation),
            Event::Or(a, b) => a.holds_in(relation) || b.holds_in(relation),
            Event::Not(e) => !e.holds_in(relation),
        }
    }

    /// Checks that `db` can answer the event: every observed relation
    /// exists, and every `t ∈ R` tuple has `R`'s arity.
    pub fn check(&self, db: &Database) -> Result<(), CoreError> {
        self.check_in(&|name| db.get(name).map(|r| r.schema().clone()))
    }

    /// [`check`](Self::check) against the schemas `schema` looks up.
    pub fn check_in(&self, schema: &dyn Fn(&str) -> Option<Schema>) -> Result<(), CoreError> {
        match self {
            Event::TupleIn { relation, tuple } => {
                let s = schema(relation).ok_or_else(|| {
                    CoreError::BadEvent(format!("no relation named {relation:?}"))
                })?;
                if tuple.arity() != s.arity() {
                    return Err(CoreError::BadEvent(format!(
                        "tuple {tuple} has arity {}, but {relation}{s} has arity {}",
                        tuple.arity(),
                        s.arity()
                    )));
                }
                Ok(())
            }
            Event::NonEmpty(relation) => schema(relation)
                .map(|_| ())
                .ok_or_else(|| CoreError::BadEvent(format!("no relation named {relation:?}"))),
            Event::And(a, b) | Event::Or(a, b) => {
                a.check_in(schema)?;
                b.check_in(schema)
            }
            Event::Not(e) => e.check_in(schema),
        }
    }

    /// Relations the event observes.
    pub fn relations(&self) -> Vec<&str> {
        match self {
            Event::TupleIn { relation, .. } | Event::NonEmpty(relation) => vec![relation],
            Event::And(a, b) | Event::Or(a, b) => {
                let mut v = a.relations();
                v.extend(b.relations());
                v
            }
            Event::Not(e) => e.relations(),
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::TupleIn { relation, tuple } => write!(f, "{tuple} in {relation}"),
            Event::NonEmpty(relation) => write!(f, "{relation} != {{}}"),
            Event::And(a, b) => write!(f, "({a} and {b})"),
            Event::Or(a, b) => write!(f, "({a} or {b})"),
            Event::Not(e) => write!(f, "not {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfq_data::{tuple, Relation, Schema};

    fn db() -> Database {
        Database::new()
            .with("C", Relation::from_rows(Schema::new(["n"]), [tuple![1]]))
            .with("D", Relation::empty(Schema::new(["n"])))
    }

    #[test]
    fn check_rejects_unknown_relations_and_wrong_arity() {
        let db = db();
        assert!(Event::tuple_in("C", tuple![1])
            .and(Event::non_empty("D"))
            .check(&db)
            .is_ok());
        let unknown = Event::tuple_in("Colour", tuple![1]).check(&db).unwrap_err();
        assert_eq!(
            unknown.to_string(),
            "bad event: no relation named \"Colour\""
        );
        assert!(Event::non_empty("Missing").not().check(&db).is_err());
        let arity = Event::tuple_in("C", tuple![1, 0]).check(&db).unwrap_err();
        assert_eq!(
            arity.to_string(),
            "bad event: tuple (1, 0) has arity 2, but C(n) has arity 1"
        );
    }

    #[test]
    fn tuple_in() {
        let db = db();
        assert!(Event::tuple_in("C", tuple![1]).holds(&db));
        assert!(!Event::tuple_in("C", tuple![2]).holds(&db));
        assert!(!Event::tuple_in("Missing", tuple![1]).holds(&db));
    }

    #[test]
    fn non_empty() {
        let db = db();
        assert!(Event::non_empty("C").holds(&db));
        assert!(!Event::non_empty("D").holds(&db));
        assert!(!Event::non_empty("Missing").holds(&db));
    }

    #[test]
    fn combinators() {
        let db = db();
        let e = Event::non_empty("C").and(Event::non_empty("D").not());
        assert!(e.holds(&db));
        assert!(!e.clone().not().holds(&db));
        assert!(Event::non_empty("D").or(Event::non_empty("C")).holds(&db));
    }

    #[test]
    fn relations_listed() {
        let e = Event::non_empty("A").and(Event::tuple_in("B", tuple![1]).not());
        assert_eq!(e.relations(), vec!["A", "B"]);
    }

    #[test]
    fn display() {
        assert_eq!(
            Event::tuple_in("Done", tuple!["a"]).to_string(),
            "(a) in Done"
        );
    }
}
