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
//! * [`stationary`] — stationary distributions, exactly (sparse GTH by
//!   default, dense rational Gaussian elimination as the reference
//!   oracle — select with [`StationaryMethod`]) and numerically
//!   (lazy-chain power iteration);
//! * [`gth`] — the sparse, subtraction-free Grassmann–Taksar–Heyman
//!   state-elimination solver behind the default exact path;
//! * [`absorption`] — exact absorption probabilities into the closed
//!   (leaf) SCCs and the resulting long-run time-average distribution,
//!   i.e. the Theorem 5.5 algorithm;
//! * [`mixing`] — total-variation distance and exact mixing times t(ε);
//! * [`conductance`] — exact conductance and Cheeger-style mixing bounds
//!   (the §5.1 pointer to rapid-mixing certificates).

pub mod absorption;
pub mod chain;
pub mod conductance;
pub mod gth;
pub mod linalg;
pub mod mixing;
pub mod scc;
pub mod stationary;

pub use chain::{ChainError, MarkovChain};
pub use scc::Condensation;
pub use stationary::StationaryMethod;
