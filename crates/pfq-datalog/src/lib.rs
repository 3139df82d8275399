#![warn(missing_docs)]

//! (Probabilistic) datalog — the paper's §3.3 language.
//!
//! Probabilistic datalog extends datalog with `repair-key` heads: key
//! columns are *underlined* in the paper and marked with `!` in our
//! concrete syntax, and an optional `@P` names the weight variable:
//!
//! ```text
//! % Example 3.9 — probabilistic reachability.
//! C(v).
//! C2(X!, Y) @P :- C(X), E(X, Y, P).
//! C(Y) :- C2(X, Y).
//! ```
//!
//! A head with no `!` marks and no `@` is fully deterministic (the paper:
//! “a rule in which all head variables are underlined is essentially
//! non-probabilistic”).
//!
//! The crate provides:
//! * [`ast`] + [`parser`] — the language itself;
//! * [`eval`] — rules compiled to slot plans and the one body matcher
//!   every engine uses (the `newVals` of the paper's inflationary
//!   pseudocode);
//! * [`inflationary`] — the paper's inflationary semantics: per-rule
//!   `oldVals`/`newVals` bookkeeping, parallel firing, per-key-group
//!   repair-key; with exact (computation-tree) and sampling engines. It
//!   is also the one deterministic evaluator: on a program without
//!   probabilistic rules (the “datalog without probabilistic rules” row
//!   of Table 1) it reaches a single fixpoint with probability 1;
//! * [`noninflationary`] — translation of a program into a transition
//!   kernel [`pfq_algebra::Interpretation`] (destructive assignment);
//! * [`linear`] — the linear-datalog restriction (≤ 1 IDB atom per body).

pub mod ast;
pub mod error;
pub mod eval;
pub mod inflationary;
pub mod linear;
pub mod noninflationary;
pub mod parser;

pub use ast::{Atom, Head, Program, Rule, Term};
pub use error::DatalogError;
pub use parser::parse_program;
