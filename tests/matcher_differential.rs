//! Differential test for body matching: the engines' compiled slot-plan
//! matcher must produce exactly the valuations of the map-based
//! reference matcher in `pfq_fuzz::oracle`, compared as sets of `oldVals`
//! tuples. The exact-vs-oracle fuzz checks cannot catch a matching bug
//! on their own, because the exact engine and its tree oracle share the
//! compiled matcher.
//!
//! Cases come from the fuzz corpus (seed 42, the campaign's default
//! generator). Each rule is matched against the prepared input and
//! against a sampled fixpoint, whose IDB relations are populated, and
//! once more per body atom with a semi-naive delta override. Every
//! compiled valuation also grounds each positive body atom
//! (`CompiledRule::body_tuple`, the §5.1 provenance lookup), and the
//! grounded tuple must belong to the relation that atom read.

use pfq::data::{Database, Relation, Tuple};
use pfq::datalog::eval::{CompiledProgram, CompiledRule, MatchScratch};
use pfq::datalog::inflationary::{sample_fixpoint, EngineState, StepScratch};
use pfq::datalog::DatalogError;
use pfq::lang::sampler::trial_rng;
use pfq_fuzz::oracle::reference_rule_valuations;
use pfq_fuzz::{gen, FuzzConfig};
use std::collections::BTreeSet;

/// Generated cases compared (the requirement is at least 500).
const CASES: u64 = 600;

fn compiled_valuations(
    rule: &CompiledRule,
    db: &Database,
    delta: Option<(usize, &Relation)>,
) -> Result<BTreeSet<Tuple>, DatalogError> {
    let mut out = BTreeSet::new();
    rule.for_each_valuation(db, delta, &mut MatchScratch::default(), |vals| {
        for (i, atom) in rule.rule().body.iter().enumerate() {
            let read = match delta {
                Some((d, rel)) if d == i => rel,
                _ => db.get(&atom.relation).unwrap(),
            };
            let ground = rule.body_tuple(i, vals);
            assert!(
                read.contains(&ground),
                "atom {atom} grounds to {ground:?}, not a tuple it read"
            );
        }
        assert!(
            out.insert(Tuple::new(vals.to_vec())),
            "valuation emitted twice"
        );
        Ok(())
    })?;
    Ok(out)
}

#[test]
fn compiled_matcher_equals_reference_on_fuzz_corpus() {
    let cfg = FuzzConfig::default();
    let (mut comparisons, mut nonempty) = (0usize, 0usize);
    for index in 0..CASES {
        let mut rng = trial_rng(cfg.seed, index);
        let case = gen::generate(&cfg.gen, &mut rng);
        let program = CompiledProgram::new(&case.program);
        let (edb, start) = EngineState::initial(&case.program, &case.db).unwrap();
        let mut states = vec![start.database(&edb)];
        let mut scratch = StepScratch::default();
        if let Ok(fixpoint) = sample_fixpoint(&program, &edb, &start, &mut rng, 64, &mut scratch) {
            states.push(fixpoint.database(&edb));
        }
        for db in &states {
            for (rule, compiled) in case.program.rules.iter().zip(program.rules()) {
                let mut deltas = vec![None];
                for (i, atom) in rule.body.iter().enumerate() {
                    // Every other tuple of the atom's own relation.
                    let full = db.get(&atom.relation).unwrap();
                    let half =
                        Relation::from_rows(full.schema().clone(), full.iter().step_by(2).cloned());
                    deltas.push(Some((i, half)));
                }
                for delta in &deltas {
                    let delta = delta.as_ref().map(|(i, rel)| (*i, rel));
                    let want = reference_rule_valuations(rule, db, delta).unwrap();
                    let got = compiled_valuations(compiled, db, delta).unwrap();
                    assert_eq!(
                        got,
                        want,
                        "case {index}, rule `{rule}`, delta {:?}, db {db}",
                        delta.map(|(i, _)| i)
                    );
                    comparisons += 1;
                    nonempty += usize::from(!want.is_empty());
                }
            }
        }
    }
    // Guard against a vacuous pass. Prepared inputs have empty IDB
    // relations, so many comparisons are empty; about 37 % are not.
    assert!(
        nonempty * 4 > comparisons,
        "only {nonempty} of {comparisons} comparisons had valuations"
    );
}
