#![warn(missing_docs)]

//! Workload generators for the experiments in `EXPERIMENTS.md`.
//!
//! Every table/figure-reproduction benchmark draws its inputs from here:
//!
//! * [`graphs`] — weighted directed graphs in the paper's
//!   `E(I, J, P)` / `C(I)` layout, with families of controlled mixing
//!   time (complete, cycle, dumbbell), plus the Example 3.3 random-walk
//!   kernel and the Example 3.9 reachability program;
//! * [`pagerank`] — the Example 3.3 PageRank kernel with damping, and a
//!   direct power-iteration reference;
//! * [`bayes`] — Example 3.10: random Bayesian networks with bounded
//!   in-degree, the `S_k`/`T_k` encoding, the datalog program, and a
//!   brute-force joint-distribution reference;
//! * [`sat`] — 3-CNF formulas and the paper's hardness reductions: the
//!   Theorem 4.1 construction (inflationary, pc-table and repair-key
//!   variants) and the Theorem 5.1 construction (non-inflationary);
//! * [`basketball`] — Table 2's repair-key example;
//! * [`coloring`] — MCMC programmed in the query language: Glauber
//!   dynamics over proper graph colorings, with exact uniformity checks;
//! * [`queue`] — a truncated birth–death queue with a closed-form
//!   stationary distribution, validated exactly against the chain, and
//!   a directly built lazy birth–death chain for solver scaling;
//! * [`exact`] — one-call exact probabilities on a fresh cache, the
//!   reference the workloads are checked against.

pub mod basketball;
pub mod bayes;
pub mod coloring;
pub mod exact;
pub mod graphs;
pub mod pagerank;
pub mod queue;
pub mod sat;
