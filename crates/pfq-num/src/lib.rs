#![warn(missing_docs)]

//! Exact arbitrary-precision arithmetic for probabilistic query evaluation.
//!
//! The PODS 2010 paper defines probabilistic databases with *positive
//! rational* world weights, and its exact-evaluation algorithms
//! (computation-tree traversal, stationary distributions via Gaussian
//! elimination) multiply and add many such weights. Products like `1/2^n`
//! underflow floats and overflow fixed-width rationals almost immediately,
//! so this crate provides, from scratch:
//!
//! * [`BigUint`] — arbitrary-precision unsigned integers (little-endian
//!   base-2⁶⁴ limbs, inline up to 128 bits and on the heap beyond, Knuth
//!   Algorithm D division, binary GCD),
//! * [`BigInt`] — signed wrapper,
//! * [`Ratio`] — always-normalized exact rationals with total order and
//!   hashing, the probability type used throughout the workspace;
//! * [`modular`] — arithmetic modulo word-sized primes, Chinese
//!   remaindering and rational reconstruction, for multi-modular solves.
//!
//! The API is deliberately minimal: only the operations the query engine
//! needs, all exact, all deterministic.

pub mod bigint;
pub mod biguint;
pub mod dist;
pub mod modular;
pub mod ratio;

pub use bigint::{BigInt, Sign};
pub use biguint::BigUint;
pub use dist::Distribution;
pub use ratio::Ratio;
