#![warn(missing_docs)]

//! Relational algebra extended with `repair-key` (paper §2.2, §3.1).
//!
//! This crate implements the query substrate of the PODS 2010 languages:
//!
//! * a named relational algebra ([`Expr`]): selection, projection, natural
//!   join, product, union, difference, renaming, constants;
//! * the probabilistic [`repair-key`](repair_key) operator, which samples
//!   one maximal repair of a key and thereby turns a relation into a
//!   *distribution over relations*;
//! * [`Interpretation`]s (Definition 3.1): one kernel expression per
//!   relation, all fired in parallel against the old state, defining a
//!   probabilistic transition between database instances;
//! * the [`compiled`] evaluator, the one production path: a
//!   [`CompiledKernel`] resolves an interpretation once against its start
//!   database (borrowed leaves, `let` slots, column-map renames, static
//!   subtrees evaluated once, prefix-scan joins) and then enumerates or
//!   samples successor states that hold only the relations the kernel
//!   writes. Compiling is the only code that types an expression, and
//!   [`CompiledKernel::new`] is where Definition 3.1's rule (each
//!   kernel's result schema is its target's) is checked;
//! * one-off entry points in [`eval`]: deterministic evaluation (errors on
//!   `repair-key`), exact enumeration of all possible worlds with their
//!   rational probabilities, and single-world sampling, each compiling its
//!   expression and running the plan once.

pub mod compiled;
pub mod error;
pub mod eval;
pub mod expr;
pub mod interpretation;
pub mod parser;
pub mod pred;
pub mod repair_key;

pub use compiled::CompiledKernel;
pub use error::AlgebraError;
pub use expr::Expr;
pub use interpretation::Interpretation;
pub use pred::{Operand, Pred};
