#![warn(missing_docs)]

//! Finite Markov chains with exact rational transition probabilities.
//!
//! The paper's non-inflationary (forever-)queries induce a Markov chain
//! whose states are database instances (§3.1); its evaluation algorithms
//! (Proposition 5.4, Theorem 5.5, Theorem 5.6) are Markov-chain
//! computations. This crate provides those computations over *generic*
//! ordered state types:
//!
//! * [`MarkovChain`] — sparse chains built by exploring a transition
//!   kernel from a set of start states;
//! * [`scc`] — Tarjan SCCs, the condensation DAG, irreducibility, period,
//!   and ergodicity checks;
//! * [`stationary`] — stationary distributions, exactly (sparse GTH
//!   elimination) and numerically (lazy-chain power iteration);
//! * [`gth`] — the sparse, subtraction-free Grassmann–Taksar–Heyman
//!   state-elimination solver behind every exact computation, run modulo
//!   word-sized primes;
//! * [`certify`] — the exact checks that alone decide whether a solved
//!   vector is accepted;
//! * [`absorption`] — exact absorption probabilities into the closed
//!   (leaf) SCCs and the resulting long-run time-average distribution,
//!   i.e. the Theorem 5.5 algorithm;
//! * [`dense`] — the reference oracle: dense rational Gaussian
//!   elimination for the stationary, absorption and long-run
//!   computations, bit-identical to the GTH path and called only by name;
//! * [`mixing`] — total-variation distance and exact mixing times t(ε);
//! * [`conductance`] — exact conductance and Cheeger-style mixing bounds
//!   (the §5.1 pointer to rapid-mixing certificates).

pub mod absorption;
pub mod certify;
pub mod chain;
pub mod conductance;
pub mod dense;
pub mod gth;
pub mod mixing;
pub mod scc;
pub mod stationary;

pub use chain::{ChainError, MarkovChain};
pub use scc::Condensation;
