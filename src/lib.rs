//! # pfq — Probabilistic Fixpoint and Markov Chain Query Languages
//!
//! Umbrella crate re-exporting the whole workspace: a from-scratch Rust
//! implementation of the query languages and evaluation algorithms of
//! *“On Probabilistic Fixpoint and Markov Chain Query Languages”*
//! (Deutch, Koch, Milo — PODS 2010).
//!
//! The pieces, bottom-up:
//!
//! * [`num`] — exact arbitrary-precision rationals (probabilities).
//! * [`data`] — values, tuples, relations, databases.
//! * [`algebra`] — relational algebra extended with `repair-key`.
//! * [`ctable`] — probabilistic c-tables.
//! * [`markov`] — finite Markov chains: SCCs, stationary distributions,
//!   absorption, mixing times.
//! * [`datalog`] — (probabilistic) datalog: parser, compiled body
//!   matching, the paper's inflationary semantics (also the evaluator
//!   for deterministic programs), translation to kernels.
//! * [`lang`] — the paper's query languages and evaluators: exact and
//!   approximate, inflationary and non-inflationary.
//! * [`workloads`] — generators for the experiments (graphs, Bayesian
//!   networks, the 3-SAT hardness constructions, PageRank, Glauber
//!   coloring MCMC, birth–death queues).
//!
//! See `examples/quickstart.rs` for an end-to-end tour, and the
//! `pfq-cli` crate for the `pfq` command-line runner (`.pfq` files with
//! datalog programs and/or raw algebra kernels).

pub use pfq_algebra as algebra;
pub use pfq_core as lang;
pub use pfq_ctable as ctable;
pub use pfq_data as data;
pub use pfq_datalog as datalog;
pub use pfq_markov as markov;
pub use pfq_num as num;
pub use pfq_workloads as workloads;
