//! Differential tests for one inflationary step, at every node of the
//! computation trees of a fuzz corpus:
//!
//! * Δ-driven rule firing: below the root, a step that fires only from
//!   Δ (the IDB tuples the node has and its parent lacks) must give
//!   exactly the successor distribution of a step that matches every
//!   rule in full, and both must agree on whether the node is a
//!   fixpoint.
//! * The step itself: the full-matching step must equal
//!   `pfq_fuzz::oracle::reference_step`, which shares no code with it
//!   (reference matcher, group-by-group product over ordered maps).
//!   Every tree engine steps through `step_distribution`, so only an
//!   independent oracle catches a product that drops or double-counts a
//!   combination of choices.
//!
//! Cases come from the fuzz corpus (seed 42, the campaign's default
//! generator, negation on), the same 600 as `tests/matcher_differential.rs`.
//! Each case's tree is walked breadth-first under the fuzz node budget;
//! each node is stepped once, with the Δ from the first parent that
//! reached it, as the memoized traversal does.

use pfq::data::Database;
use pfq::datalog::eval::CompiledProgram;
use pfq::datalog::inflationary::{is_fixpoint, step_distribution, EngineState, StepScratch};
use pfq::lang::sampler::trial_rng;
use pfq::num::Ratio;
use pfq_fuzz::oracle::{reference_step, ReferenceNode};
use pfq_fuzz::{gen, FuzzConfig};
use std::collections::BTreeMap;

/// Generated cases walked.
const CASES: u64 = 600;

#[test]
fn delta_step_equals_naive_step_on_fuzz_corpus() {
    let cfg = FuzzConfig::default();
    assert!(cfg.gen.negation);
    let (mut compared, mut guarded, mut stepped) = (0usize, 0usize, 0usize);
    // One scratch for every step of every case, as a traversal keeps.
    let mut scratch = StepScratch::default();
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
            let naive = step_distribution(&program, &edb, &state, None, &mut scratch);
            let reference = reference_step(&case.program, &edb, &state.idb, state.old_vals());
            match (&naive, &reference) {
                (Ok(naive), Ok(reference)) => {
                    let naive: Option<BTreeMap<ReferenceNode, Ratio>> = naive.as_ref().map(|d| {
                        d.iter()
                            .map(|(s, p)| ((s.idb.clone(), s.old_vals().to_vec()), p.clone()))
                            .collect()
                    });
                    assert_eq!(&naive, reference, "case {index}, state {state:?}");
                    stepped += 1;
                }
                (Err(_), Err(_)) => {}
                _ => panic!("case {index}, state {state:?}: {naive:?} vs {reference:?}"),
            }
            if let Some(delta) = &delta {
                let fired = step_distribution(&program, &edb, &state, Some(delta), &mut scratch);
                assert_eq!(fired, naive, "case {index}, state {state:?}, Δ {delta}");
                if let Ok(successors) = &fired {
                    assert_eq!(
                        is_fixpoint(&program, &edb, &state, &mut scratch),
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
    // Every node that steps without an error meets the reference step:
    // the roots and the Δ-compared nodes, about 1870.
    assert!(
        stepped > compared,
        "only {stepped} nodes met the reference step"
    );
}
