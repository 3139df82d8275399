//! Exact evaluation under the default (unbounded) budgets, each call on
//! a fresh cache, so a timed call never reuses an earlier call's memo —
//! shorthand for the workload tests, the integration tests and the
//! experiments harness.

use pfq_core::exact_inflationary::{self, ExactBudget};
use pfq_core::exact_noninflationary::{self, ChainBudget};
use pfq_core::{DatalogQuery, EvalCache, ForeverQuery};
use pfq_ctable::PcDatabase;
use pfq_data::Database;
use pfq_num::Ratio;

/// Prop 4.4 exact probability.
pub fn tree_probability(query: &DatalogQuery, db: &Database) -> Ratio {
    exact_inflationary::evaluate(query, db, ExactBudget::default(), &mut EvalCache::default())
        .unwrap()
}

/// Prop 4.4 exact probability over a pc-table.
pub fn pc_probability(query: &DatalogQuery, input: &PcDatabase) -> Ratio {
    exact_inflationary::evaluate_pc(
        query,
        input,
        ExactBudget::default(),
        &mut EvalCache::default(),
    )
    .unwrap()
}

/// Thm 5.5 exact long-run probability.
pub fn chain_probability(query: &ForeverQuery, db: &Database) -> Ratio {
    exact_noninflationary::evaluate(query, db, ChainBudget::default(), &mut EvalCache::default())
        .unwrap()
}
