#![warn(missing_docs)]

//! The `.pfq` file format and runner behind the `pfq` command-line tool.
//!
//! A `.pfq` file bundles a database, a probabilistic datalog program, and
//! one or more queries:
//!
//! ```text
//! % Comments run to end of line.
//! @relation E(i, j, p) {
//!   (v, w, 1/2)
//!   (v, u, 1/2)
//! }
//!
//! @program {
//!   C(v).
//!   C2(X!, Y) @P :- C(X), E(X, Y, P).
//!   C(Y) :- C2(X, Y).
//! }
//!
//! @query inflationary exact event C(w)
//! @query inflationary sample epsilon 0.05 delta 0.05 seed 7 event C(w)
//! @query noninflationary exact event C(w)
//! @query noninflationary time-average steps 20000 seed 7 event C(w)
//! @query noninflationary burn-in 100 epsilon 0.1 delta 0.05 seed 7 event C(w)
//! ```
//!
//! `inflationary` queries run the paper's §3.3 semantics (exact
//! computation-tree traversal or Theorem 4.3 sampling); `noninflationary`
//! queries translate the program into a destructive transition kernel
//! (Definition 3.2) and evaluate with Theorem 5.5 / Theorem 5.6 / plain
//! time averaging. Events are ground atoms, `Rel(v1, …)` or `Rel` for
//! 0-ary flags.
//!
//! Forever-queries that are not naturally datalog (PageRank's damped
//! mixture, Glauber dynamics) can be written as *raw kernels* in the
//! algebra syntax of [`pfq_algebra::parser`]:
//!
//! ```text
//! @kernel C := rename[j -> i](project[j](repair-key[i @ p]((C join E))))
//! @query kernel exact event C(1)
//! @query kernel time-average steps 20000 seed 3 event C(1)
//! @query kernel burn-in 50 epsilon 0.1 delta 0.05 seed 3 event C(1)
//! ```
//!
//! `@program` and `@kernel` may coexist; at least one must be present.
//! See `examples/pagerank.pfq` for a full kernel-only file.

pub mod format;
pub mod runner;

pub use format::{parse_file, PfqFile, Query, Semantics};
pub use runner::{plan, render_results, run, QueryResult, RunOptions};
