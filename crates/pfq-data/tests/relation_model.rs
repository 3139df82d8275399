//! Model-based tests of `Relation` and of `Database`'s copy-on-write
//! sharing.
//!
//! A relation is a sorted vector with a cached content hash; its model is
//! a `BTreeSet<Tuple>`. Random operation sequences run on both, and after
//! every step the relation must hold the model's tuples in the model's
//! order and answer every query as the model does. `Eq`, `Ord` and `Hash`
//! must agree with the model's: a relation whose hash was cached before
//! a mutation hashes like a freshly built equal one, since a stale hash
//! would split equal interned states. Databases share relations between
//! clones, so writing to a clone through any mutating entry point must
//! leave the original as it was.

use pfq_data::hash::FxBuildHasher;
use pfq_data::{Database, Relation, Schema, Tuple, Value};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::hash::BuildHasher;

fn schema() -> Schema {
    Schema::new(["a", "b"])
}

fn t((a, b): (i64, i64)) -> Tuple {
    Tuple::new(vec![Value::int(a), Value::int(b)])
}

fn rel_of(model: &BTreeSet<Tuple>) -> Relation {
    Relation::from_rows(schema(), model.iter().cloned())
}

fn hash_of<T: std::hash::Hash>(value: &T) -> u64 {
    FxBuildHasher::default().hash_one(value)
}

#[derive(Clone, Debug)]
enum Op {
    Insert((i64, i64)),
    Remove((i64, i64)),
    Contains((i64, i64)),
    PrefixScan(Option<i64>),
    Extend(Vec<(i64, i64)>),
    RetainBelow(i64),
    Clear,
    Union(Vec<(i64, i64)>),
    Difference(Vec<(i64, i64)>),
    Intersection(Vec<(i64, i64)>),
    IsSuperset(Vec<(i64, i64)>),
}

fn pair() -> impl Strategy<Value = (i64, i64)> {
    (0i64..5, 0i64..5)
}

fn pairs() -> impl Strategy<Value = Vec<(i64, i64)>> {
    proptest::collection::vec(pair(), 0..8)
}

fn op() -> impl Strategy<Value = Op> {
    // Inserts are listed twice: sequences should mostly grow.
    prop_oneof![
        pair().prop_map(Op::Insert),
        pair().prop_map(Op::Insert),
        pair().prop_map(Op::Remove),
        pair().prop_map(Op::Contains),
        (0i64..6).prop_map(|a| Op::PrefixScan((a < 5).then_some(a))),
        pairs().prop_map(Op::Extend),
        (0i64..6).prop_map(Op::RetainBelow),
        Just(Op::Clear),
        pairs().prop_map(Op::Union),
        pairs().prop_map(Op::Difference),
        pairs().prop_map(Op::Intersection),
        pairs().prop_map(Op::IsSuperset),
    ]
}

fn set(rows: &[(i64, i64)]) -> BTreeSet<Tuple> {
    rows.iter().map(|&p| t(p)).collect()
}

/// Applies `op` to the relation and the model; panics (through
/// `assert_eq!`) when they answer differently.
fn apply(rel: &mut Relation, model: &mut BTreeSet<Tuple>, op: &Op) {
    match op {
        Op::Insert(p) => assert_eq!(rel.insert(t(*p)), model.insert(t(*p))),
        Op::Remove(p) => assert_eq!(rel.remove(&t(*p)), model.remove(&t(*p))),
        Op::Contains(p) => {
            assert_eq!(rel.contains(&t(*p)), model.contains(&t(*p)));
            let values = [Value::int(p.0), Value::int(p.1)];
            assert_eq!(rel.contains_values(&values), model.contains(&t(*p)));
        }
        Op::PrefixScan(first) => {
            let prefix: Vec<Value> = first.iter().map(|&a| Value::int(a)).collect();
            let got: Vec<&Tuple> = rel.prefix_scan(&prefix).collect();
            let want: Vec<&Tuple> = model
                .iter()
                .filter(|u| u.values().starts_with(&prefix))
                .collect();
            assert_eq!(got, want);
        }
        Op::Extend(rows) => {
            rel.extend(rows.iter().map(|&p| t(p)));
            model.extend(rows.iter().map(|&p| t(p)));
        }
        Op::RetainBelow(bound) => {
            let keep = |u: &Tuple| u.get(0).as_int().unwrap() < *bound;
            rel.retain(keep);
            model.retain(keep);
        }
        Op::Clear => {
            rel.clear();
            model.clear();
        }
        Op::Union(rows) => {
            *rel = rel.union(&rel_of(&set(rows)));
            model.extend(set(rows));
        }
        Op::Difference(rows) => {
            *rel = rel.difference(&rel_of(&set(rows)));
            *model = model.difference(&set(rows)).cloned().collect();
        }
        Op::Intersection(rows) => {
            *rel = rel.intersection(&rel_of(&set(rows)));
            *model = model.intersection(&set(rows)).cloned().collect();
        }
        Op::IsSuperset(rows) => {
            assert_eq!(
                rel.is_superset(&rel_of(&set(rows))),
                model.is_superset(&set(rows))
            );
        }
    }
}

/// The ways a database clone can be written to.
#[derive(Clone, Debug)]
enum Write {
    GetMut(bool, (i64, i64)),
    InsertTuple(bool, (i64, i64)),
    ClearTuples,
    ResetFromOther(Vec<(i64, i64)>),
}

fn write() -> impl Strategy<Value = Write> {
    prop_oneof![
        (any::<bool>(), pair()).prop_map(|(r, p)| Write::GetMut(r, p)),
        (any::<bool>(), pair()).prop_map(|(r, p)| Write::InsertTuple(r, p)),
        Just(Write::ClearTuples),
        pairs().prop_map(Write::ResetFromOther),
    ]
}

/// A two-relation database: `E` over `e` and `F` over `f`.
fn db_of(e: &[(i64, i64)], f: &[(i64, i64)]) -> Database {
    Database::new()
        .with("E", rel_of(&set(e)))
        .with("F", rel_of(&set(f)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every operation answers as the model does, the tuples stay in the
    /// model's order, and the relation equals, orders and hashes as a
    /// fresh relation built from the model — also when its hash was
    /// cached before the operation.
    #[test]
    fn prop_relation_follows_the_set_model(ops in proptest::collection::vec(op(), 0..40)) {
        let mut rel = Relation::empty(schema());
        let mut model = BTreeSet::new();
        for op in &ops {
            // Cache the hash, so that the operation must reset it.
            hash_of(&rel);
            apply(&mut rel, &mut model, op);
            prop_assert!(rel.iter().eq(model.iter()), "after {:?}", op);
            prop_assert_eq!(rel.len(), model.len());
            prop_assert_eq!(rel.is_empty(), model.is_empty());
            let fresh = rel_of(&model);
            prop_assert_eq!(&rel, &fresh);
            prop_assert_eq!(hash_of(&rel), hash_of(&fresh), "stale hash after {:?}", op);
        }
    }

    /// `Ord` and `Eq` on relations are the model's, and equal relations
    /// hash equal.
    #[test]
    fn prop_order_and_hash_agree_with_the_model(a in pairs(), b in pairs()) {
        let (ma, mb) = (set(&a), set(&b));
        // Built in two ways: sorted at once, and one tuple at a time.
        let ra = rel_of(&ma);
        let mut rb = Relation::empty(schema());
        for &p in b.iter().rev() {
            rb.insert(t(p));
        }
        prop_assert_eq!(ra.cmp(&rb), ma.cmp(&mb));
        prop_assert_eq!(ra == rb, ma == mb);
        if ma == mb {
            prop_assert_eq!(hash_of(&ra), hash_of(&rb));
        }
    }

    /// Writing to a clone never shows through in the original, whatever
    /// the entry point, and the original's (cached) hash is unchanged.
    #[test]
    fn prop_writes_to_a_clone_leave_the_original(
        e in pairs(),
        f in pairs(),
        writes in proptest::collection::vec(write(), 1..8),
    ) {
        let original = db_of(&e, &f);
        let hash = hash_of(&original);
        let mut copy = original.clone();
        // The clone's expected content: E's and F's rows.
        let mut model = [set(&e), set(&f)];
        for w in &writes {
            match w {
                Write::GetMut(first, p) => {
                    let (name, k) = if *first { ("E", 0) } else { ("F", 1) };
                    copy.get_mut(name).unwrap().insert(t(*p));
                    model[k].insert(t(*p));
                }
                Write::InsertTuple(first, p) => {
                    let (name, k) = if *first { ("E", 0) } else { ("F", 1) };
                    copy.insert_tuple(name, t(*p)).unwrap();
                    model[k].insert(t(*p));
                }
                Write::ClearTuples => {
                    copy.clear_tuples();
                    model.iter_mut().for_each(BTreeSet::clear);
                }
                Write::ResetFromOther(rows) => {
                    copy.reset_from(&db_of(rows, &[]));
                    model = [set(rows), BTreeSet::new()];
                }
            }
            // Rebuilt from scratch, so the comparisons read every tuple.
            prop_assert_eq!(&original, &db_of(&e, &f), "after {:?}", w);
            prop_assert_eq!(hash_of(&original), hash);
            let expected = Database::new()
                .with("E", rel_of(&model[0]))
                .with("F", rel_of(&model[1]));
            prop_assert_eq!(&copy, &expected);
            prop_assert_eq!(hash_of(&copy), hash_of(&expected));
        }
        // Resetting the clone back restores the original exactly.
        copy.reset_from(&original);
        prop_assert_eq!(&copy, &original);
        prop_assert_eq!(hash_of(&copy), hash);
    }
}

/// A reset between databases of one shape keeps relations shared with
/// the source and overwrites private ones; one of another shape (a
/// schema differs) becomes a plain copy of the source.
#[test]
fn reset_checks_names_and_schemas() {
    let source = db_of(&[(1, 1)], &[(2, 2)]);
    let mut work = source.clone();
    work.insert_tuple("E", t((3, 3))).unwrap();
    work.reset_from(&source);
    assert_eq!(work, source);

    let other_schema = Database::new()
        .with(
            "E",
            Relation::from_rows(Schema::new(["x"]), [Tuple::new(vec![Value::int(7)])]),
        )
        .with("F", rel_of(&set(&[(2, 2)])));
    let mut work = other_schema.clone();
    work.get_mut("E").unwrap().clear();
    work.reset_from(&source);
    assert_eq!(work, source);
    assert_eq!(work.get("E").unwrap().schema(), &schema());
}
