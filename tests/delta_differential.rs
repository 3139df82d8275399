//! Differential test for Δ-driven rule firing: at every node of the
//! computation tree below the root, a step that fires only from Δ (the
//! IDB tuples the node has and its parent lacks) must give exactly the
//! successor distribution of a step that matches every rule in full,
//! and both must agree on whether the node is a fixpoint.
//!
//! Cases come from the fuzz corpus (seed 42, the campaign's default
//! generator, negation on), the same 600 as `tests/matcher_differential.rs`.
//! Each case's tree is walked breadth-first under the fuzz node budget;
//! each node is stepped once, with the Δ from the first parent that
//! reached it, as the memoized traversal does.

use pfq::data::Database;
use pfq::datalog::eval::CompiledProgram;
use pfq::datalog::inflationary::{is_fixpoint, step_distribution, EngineState};
use pfq::lang::sampler::trial_rng;
use pfq_fuzz::{gen, FuzzConfig};
use std::collections::BTreeMap;

/// Generated cases walked.
const CASES: u64 = 600;

#[test]
fn delta_step_equals_naive_step_on_fuzz_corpus() {
    let cfg = FuzzConfig::default();
    assert!(cfg.gen.negation);
    let (mut compared, mut guarded) = (0usize, 0usize);
    for index in 0..CASES {
        let mut rng = trial_rng(cfg.seed, index);
        let case = gen::generate(&cfg.gen, &mut rng);
        let Ok((edb, initial)) = EngineState::initial(&case.program, &case.db) else {
            continue;
        };
        let program = CompiledProgram::new(&case.program);
        let negated = case.program.rules.iter().any(|r| !r.negatives.is_empty());
        // Each node with Δ from its first parent; the root has none.
        let mut frontier: BTreeMap<EngineState, Option<Database>> = BTreeMap::new();
        frontier.insert(initial, None);
        let mut nodes = 0usize;
        while let Some((state, delta)) = frontier.pop_first() {
            nodes += 1;
            if nodes > cfg.oracle.node_budget {
                break;
            }
            let naive = step_distribution(&program, &edb, &state, None);
            if let Some(delta) = &delta {
                let fired = step_distribution(&program, &edb, &state, Some(delta));
                assert_eq!(fired, naive, "case {index}, state {state:?}, Δ {delta}");
                if let Ok(successors) = &fired {
                    assert_eq!(
                        is_fixpoint(&program, &edb, &state),
                        Ok(successors.is_none()),
                        "case {index}, state {state:?}, Δ {delta}"
                    );
                }
                compared += 1;
                guarded += usize::from(negated && delta.total_tuples() > 0);
            }
            let Ok(Some(successors)) = naive else {
                continue;
            };
            for (next, _) in successors.iter() {
                if !frontier.contains_key(next) {
                    let delta = next.delta_from(&state);
                    frontier.insert(next.clone(), Some(delta));
                }
            }
        }
    }
    // Guard against a vacuous pass: Δ firing must have been compared on
    // many nodes that hold new tuples under rules with negated atoms,
    // where the argument for it leans on the database only growing.
    // About 1270 nodes are compared, 220 of them of that kind.
    assert!(
        guarded * 8 > compared,
        "only {guarded} of {compared} compared nodes had a non-empty Δ and negation"
    );
}
