//! Provenance-based partitioning — the §5.1 optimization.
//!
//! Pre-processing: give every base tuple a unique identifier, evaluate
//! all rules inflationarily *as regular datalog* while propagating
//! identifier sets (a derived tuple carries the union of the identifiers
//! it was derived from), and split the base tuples into independence
//! classes. The non-inflationary query is then evaluated on each class's
//! (much smaller) Markov chain independently, and the results combine as
//!
//! ```text
//! Pr(query) = 1 − Π_classes (1 − Pr(query | class)) .
//! ```
//!
//! Our class construction is the connected-components closure of the
//! paper's “maximal identifier sets”, with one sound refinement: base
//! tuples that can feed the *same repair-key group* (same rule, same key
//! value) are also connected, since exactly-one-of-them choices make
//! their derived tuples probabilistically dependent even though their
//! provenance sets are disjoint. Without this, tuples competing in a
//! choice group could land in different classes and the independence
//! assumption would be violated.

use crate::exact_noninflationary::{self, ChainBudget};
use crate::{CoreError, DatalogQuery, EvalCache};
use pfq_data::{Database, Tuple};
use pfq_datalog::eval::{prepare_database, CompiledProgram};
use pfq_datalog::Program;
use pfq_num::Ratio;
use std::collections::{BTreeMap, BTreeSet};

/// A per-tuple identifier-set annotation, per relation.
type Annotated = BTreeMap<String, BTreeMap<Tuple, BTreeSet<usize>>>;

/// Simple union–find over base-tuple identifiers.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }

    fn union_all(&mut self, ids: &BTreeSet<usize>) {
        let mut iter = ids.iter();
        if let Some(&first) = iter.next() {
            for &other in iter {
                self.union(first, other);
            }
        }
    }
}

/// Computes the independence classes of the base tuples: each class is a
/// sub-database containing its base tuples (IDB relations empty).
pub fn partition_classes(program: &Program, db: &Database) -> Result<Vec<Database>, CoreError> {
    if program.has_negation() {
        // Dependence through *absence* of tuples is not captured by
        // positive provenance; partitioning a program with negation
        // could split dependent tuples, so we refuse rather than
        // silently return wrong classes.
        return Err(CoreError::Datalog(pfq_datalog::DatalogError::Structure(
            "partitioning requires a negation-free program".into(),
        )));
    }
    let prepared = prepare_database(program, db)?;

    // Assign base ids to EDB tuples (and any pre-populated IDB tuples,
    // which also count as inputs).
    let mut ann: Annotated = BTreeMap::new();
    let mut base: Vec<(String, Tuple)> = Vec::new();
    for (name, rel) in prepared.iter() {
        let mut m = BTreeMap::new();
        for t in rel.iter() {
            let id = base.len();
            base.push((name.to_string(), t.clone()));
            m.insert(t.clone(), BTreeSet::from([id]));
        }
        ann.insert(name.to_string(), m);
    }
    let n = base.len();
    let mut uf = UnionFind::new(n);

    // Inflationary provenance fixpoint: treat every rule as deterministic
    // datalog, but connect ids that (a) co-occur in a derivation, or
    // (b) compete in the same repair-key group of a probabilistic rule.
    // `derived` holds the prepared input plus every tuple derived so
    // far — exactly the tuples `ann` annotates.
    let compiled = CompiledProgram::new(program);
    let mut derived = prepared;
    loop {
        let mut changed = false;
        for rule in compiled.rules() {
            // Each derivation's head tuple and the union of the id-sets
            // of the tuples its positive atoms matched.
            let body = &rule.rule().body;
            let mut matches: Vec<(Tuple, BTreeSet<usize>)> = Vec::new();
            rule.for_each_valuation(&derived, None, |vals| {
                let mut ids = BTreeSet::new();
                for (i, atom) in body.iter().enumerate() {
                    ids.extend(&ann[&atom.relation][&rule.body_tuple(i, vals)]);
                }
                matches.push((rule.head_tuple(vals)?, ids));
                Ok(())
            })?;
            let head = &rule.rule().head;
            // Group by repair-key key value for probabilistic rules.
            let mut group_ids: BTreeMap<Tuple, BTreeSet<usize>> = BTreeMap::new();
            for (t, ids) in matches {
                if !head.is_deterministic() {
                    group_ids
                        .entry(rule.head_key(&t))
                        .or_default()
                        .extend(ids.iter().copied());
                }
                derived
                    .insert_tuple(&head.relation, t.clone())
                    .expect("IDB relation prepared");
                let entry = ann
                    .get_mut(&head.relation)
                    .expect("IDB relation prepared")
                    .entry(t)
                    .or_default();
                let before = entry.len();
                entry.extend(ids);
                if entry.len() != before {
                    changed = true;
                }
            }
            for ids in group_ids.values() {
                uf.union_all(ids);
            }
        }
        if !changed {
            break;
        }
    }

    // Connect all ids co-occurring in any tuple's final annotation.
    for rel in ann.values() {
        for ids in rel.values() {
            uf.union_all(ids);
        }
    }

    // Build one sub-database per class, with all relation names present.
    let mut class_of_root: BTreeMap<usize, usize> = BTreeMap::new();
    let mut classes: Vec<Database> = Vec::new();
    let empty_template = {
        let mut t = Database::new();
        for (name, rel) in derived.iter() {
            t.declare(name, rel.schema().clone());
        }
        t
    };
    // Pre-populated IDB tuples stay with their class like any other
    // base tuple.
    for (id, (name, tuple)) in base.iter().enumerate() {
        let root = uf.find(id);
        let class_idx = *class_of_root.entry(root).or_insert_with(|| {
            classes.push(empty_template.clone());
            classes.len() - 1
        });
        classes[class_idx]
            .insert_tuple(name, tuple.clone())
            .expect("template has all relations");
    }
    Ok(classes)
}

/// Evaluates a (datalog-defined) non-inflationary query exactly via
/// partitioning: per-class Theorem 5.5 evaluation combined by the §5.1
/// product formula. The per-class solves share `cache` (kernel rows
/// memoized across classes — the per-class kernels differ only in their
/// base tuples, so identical sub-states recur).
pub fn evaluate_partitioned(
    query: &DatalogQuery,
    db: &Database,
    budget: ChainBudget,
    cache: &mut EvalCache,
) -> Result<Ratio, CoreError> {
    let classes = partition_classes(&query.program, db)?;
    let mut p_not = Ratio::one();
    for class_db in &classes {
        let (fq, prepared) = query.to_forever_query(class_db)?;
        let p = exact_noninflationary::evaluate(&fq, &prepared, budget, cache)?;
        p_not = p_not.mul_ref(&Ratio::one().sub_ref(&p));
    }
    Ok(Ratio::one().sub_ref(&p_not))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{coin_db, coin_program};
    use crate::Event;
    use pfq_data::{tuple, Relation, Schema};

    #[test]
    fn classes_split_by_key_group() {
        let classes = partition_classes(&coin_program(), &coin_db()).unwrap();
        assert_eq!(classes.len(), 2);
        for class in &classes {
            assert_eq!(class.get("R").unwrap().len(), 2);
            // Each class holds exactly one key's rows.
            let keys: BTreeSet<_> = class
                .get("R")
                .unwrap()
                .iter()
                .map(|t| t.get(0).clone())
                .collect();
            assert_eq!(keys.len(), 1);
        }
    }

    #[test]
    fn group_competitors_stay_together() {
        // Rows (1,0) and (1,1) share no derivation, but compete in one
        // repair-key group — they must not be split.
        let classes = partition_classes(&coin_program(), &coin_db()).unwrap();
        for class in &classes {
            let r = class.get("R").unwrap();
            if r.contains(&tuple![1, 0, 1]) {
                assert!(r.contains(&tuple![1, 1, 3]));
            }
        }
    }

    #[test]
    fn partitioned_matches_direct_evaluation() {
        let query = DatalogQuery::new(coin_program(), Event::tuple_in("H", tuple![1, 1]));
        let db = coin_db();
        let direct = {
            let (fq, prepared) = query.to_forever_query(&db).unwrap();
            exact_noninflationary::evaluate(
                &fq,
                &prepared,
                ChainBudget::default(),
                &mut EvalCache::default(),
            )
            .unwrap()
        };
        let partitioned = evaluate_partitioned(
            &query,
            &db,
            ChainBudget::default(),
            &mut EvalCache::default(),
        )
        .unwrap();
        assert_eq!(direct, partitioned);
        // Weight 3 out of 4 to land on (1, 1).
        assert_eq!(partitioned, Ratio::new(3, 4));
    }

    #[test]
    fn partitioned_or_event_combines_classes() {
        // Event: H contains (1,1) OR (2,1) — both classes contribute.
        let query = DatalogQuery::new(
            coin_program(),
            Event::tuple_in("H", tuple![1, 1]).or(Event::tuple_in("H", tuple![2, 1])),
        );
        let db = coin_db();
        let direct = {
            let (fq, prepared) = query.to_forever_query(&db).unwrap();
            exact_noninflationary::evaluate(
                &fq,
                &prepared,
                ChainBudget::default(),
                &mut EvalCache::default(),
            )
            .unwrap()
        };
        // 1 − (1 − 3/4)(1 − 1/2) = 7/8.
        assert_eq!(direct, Ratio::new(7, 8));
        let partitioned = evaluate_partitioned(
            &query,
            &db,
            ChainBudget::default(),
            &mut EvalCache::default(),
        )
        .unwrap();
        assert_eq!(partitioned, direct);
    }

    #[test]
    fn derivation_connects_joined_tuples() {
        // A rule joining A and B connects their tuples into one class.
        let p = pfq_datalog::parse_program("H(X) :- A(X), B(X).").unwrap();
        let db = Database::new()
            .with(
                "A",
                Relation::from_rows(Schema::new(["v"]), [tuple![1], tuple![2]]),
            )
            .with("B", Relation::from_rows(Schema::new(["v"]), [tuple![1]]));
        let classes = partition_classes(&p, &db).unwrap();
        // A(1) and B(1) join → same class; A(2) is alone.
        assert_eq!(classes.len(), 2);
        let joint = classes
            .iter()
            .find(|c| c.get("A").unwrap().contains(&tuple![1]))
            .unwrap();
        assert!(joint.get("B").unwrap().contains(&tuple![1]));
        assert!(!joint.get("A").unwrap().contains(&tuple![2]));
    }

    #[test]
    fn chained_derivations_connect_transitively() {
        let p = pfq_datalog::parse_program("T(X, Z) :- E(X, Y), E(Y, Z).\nT(X, Y) :- E(X, Y).")
            .unwrap();
        let db = Database::new().with(
            "E",
            Relation::from_rows(
                Schema::new(["i", "j"]),
                [tuple![1, 2], tuple![2, 3], tuple![7, 8]],
            ),
        );
        let classes = partition_classes(&p, &db).unwrap();
        // (1,2) and (2,3) co-derive 1→3; (7,8) is isolated.
        assert_eq!(classes.len(), 2);
    }

    #[test]
    fn fact_derived_tuple_does_not_join_classes() {
        // F(v) comes from a body-less rule, so its provenance is empty:
        // joining it with A(1) and with A(2) must not connect those two.
        let p = pfq_datalog::parse_program("F(v).\nH(X, Y) :- F(X), A(Y).").unwrap();
        let db = Database::new().with(
            "A",
            Relation::from_rows(Schema::new(["v"]), [tuple![1], tuple![2]]),
        );
        let classes = partition_classes(&p, &db).unwrap();
        assert_eq!(classes.len(), 2);
    }

    #[test]
    fn no_rules_every_tuple_is_singleton() {
        let p = pfq_datalog::parse_program("H(X) :- Nothing(X).").unwrap();
        let db = Database::new()
            .with("Nothing", Relation::empty(Schema::new(["v"])))
            .with(
                "Other",
                Relation::from_rows(Schema::new(["v"]), [tuple![1], tuple![2]]),
            );
        let classes = partition_classes(&p, &db).unwrap();
        assert_eq!(classes.len(), 2);
    }
}
