//! Exact evaluation under the default budgets, each call on a fresh
//! cache — shorthand shared by the integration tests. Not every test
//! target uses every helper.
#![allow(dead_code)]

use pfq::ctable::PcDatabase;
use pfq::data::Database;
use pfq::lang::exact_inflationary::{self, ExactBudget};
use pfq::lang::exact_noninflationary::{self, ChainBudget};
use pfq::lang::{DatalogQuery, EvalCache, ForeverQuery};
use pfq::num::Ratio;

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
