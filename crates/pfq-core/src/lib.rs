#![warn(missing_docs)]

//! The paper's query languages and evaluation algorithms.
//!
//! This crate is the primary contribution layer: it assembles the
//! substrates (algebra, c-tables, Markov chains, datalog) into the query
//! languages of *“On Probabilistic Fixpoint and Markov Chain Query
//! Languages”* and implements every evaluation algorithm the paper gives:
//!
//! | paper | here |
//! |---|---|
//! | Def. 3.2 forever-queries | [`ForeverQuery`] |
//! | Def. 3.4 inflationary queries | [`ForeverQuery`] over an inflationary kernel ([`pfq_algebra::Interpretation::inflationary`]) |
//! | §3.3 probabilistic datalog queries | [`DatalogQuery`] |
//! | Prop. 4.4 exact inflationary evaluation (PSPACE) | [`exact_inflationary`] |
//! | Thm. 4.3 randomized absolute approximation (PTIME) | [`sample_inflationary`] |
//! | Prop. 5.4 / Thm. 5.5 exact non-inflationary evaluation | [`exact_noninflationary`] |
//! | Thm. 5.6 mixing-time sampling | [`mixing_sampler`] |
//! | §5.1 provenance partitioning | [`partition`] |
//!
//! Both sampling evaluators run on the shared parallel engine in
//! [`sampler`], which provides deterministic per-trial RNG streams
//! (same seed ⇒ bit-identical estimates at any thread count) and
//! adaptive early stopping under the `(ε, δ)` guarantee.
//!
//! Each exact algorithm has one production path. Both run over the
//! memo layer in [`cache`]: programs, kernels and states are hash-consed
//! to dense ids and transition work is memoized per
//! `(program id, state id)`, so rows are shared exactly between equal
//! programs, with an [`EvalCache`] shareable across queries and across
//! the possible worlds of a pc-table. Long-run solves always use sparse GTH
//! elimination. Every kernel application runs one compiled plan
//! ([`pfq_algebra::CompiledKernel`]), and non-inflationary chain states
//! hold only the relations the kernel writes. The un-memoized tree
//! enumeration and the dense solver remain public as reference oracles
//! for tests, the fuzzer and benches; the `Database`-keyed
//! [`exact_noninflationary::build_chain`] stays public for chain
//! analysis.
//!
//! All of the above is unified behind the [`engine`] layer: an
//! [`EvalRequest`] names the task and the knobs, the [`engine::Planner`]
//! analyzes eligibility (negation-freedom, §5.1 partitioning, budget
//! probes) and emits an explainable [`Plan`], and the [`Engine`]
//! executes it. Every plan action calls its module's public `evaluate*`
//! function directly, with no wrapper in between: the exact ones take
//! the [`EvalCache`] to work through (pass `&mut EvalCache::default()`
//! for a one-off query), the sampling ones a [`sampler::SamplerConfig`].

pub mod cache;
pub mod engine;
pub mod error;
pub mod event;
pub mod exact_inflationary;
pub mod exact_noninflationary;
#[cfg(test)]
mod fixtures;
pub mod mixing_sampler;
pub mod partition;
pub mod query;
pub mod sample_inflationary;
pub mod sampler;

pub use cache::{CacheStats, EvalCache};
pub use engine::{
    Engine, EvalOutcome, EvalRequest, EvalValue, Plan, PlanAction, Strategy, Task, TaskKind,
};
pub use error::CoreError;
pub use event::Event;
pub use query::{DatalogQuery, ForeverQuery};
