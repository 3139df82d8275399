#![warn(missing_docs)]

//! The relational data model under the probabilistic query languages.
//!
//! Everything in this crate is deterministic and totally ordered:
//! [`Value`]s, [`Tuple`]s, [`Relation`]s, and whole [`Database`]s implement
//! `Ord`, so a database instance can directly serve as a *state of a Markov
//! chain* — exactly the view the paper's non-inflationary semantics takes
//! (“a random walk in-between database instances”). Relations are ordered
//! sets, which also makes every enumeration (possible worlds, computation
//! trees) reproducible.

pub mod database;
pub mod hash;
pub mod intern;
pub mod relation;
pub mod schema;
pub mod tuple;
pub mod value;

pub use database::Database;
pub use intern::StateId;
pub use relation::Relation;
pub use schema::Schema;
pub use tuple::Tuple;
pub use value::Value;
