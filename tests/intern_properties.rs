//! Property-based tests for the hash-consing layer: `Interner`
//! invariants on randomly generated databases.

use pfq::data::intern::{database_approx_bytes, Interner};
use pfq::data::{tuple, Database, Relation, Schema};
use proptest::prelude::*;

/// A small random database from a list of edges and a list of labels —
/// enough variety to hit collisions, permutations, and empty relations.
fn db_from(edges: &[(i64, i64)], labels: &[i64]) -> Database {
    let e = Relation::from_rows(
        Schema::new(["i", "j"]),
        edges.iter().map(|&(i, j)| tuple![i, j]),
    );
    let l = Relation::from_rows(Schema::new(["v"]), labels.iter().map(|&v| tuple![v]));
    Database::new().with("E", e).with("L", l)
}

/// A database interner with content-aware byte accounting.
fn store() -> Interner<Database> {
    Interner::with_sizer(database_approx_bytes)
}

fn edges() -> impl Strategy<Value = Vec<(i64, i64)>> {
    proptest::collection::vec((0i64..5, 0i64..5), 0..8)
}

fn labels() -> impl Strategy<Value = Vec<i64>> {
    proptest::collection::vec(0i64..5, 0..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// intern → resolve round-trips to an equal database.
    #[test]
    fn prop_intern_resolve_round_trip(e in edges(), l in labels()) {
        let db = db_from(&e, &l);
        let mut store = store();
        let id = store.intern(db.clone());
        prop_assert_eq!(store.resolve(id).as_ref(), &db);
        prop_assert_eq!(store.lookup(&db), Some(id));
    }

    /// `intern(a) == intern(b)` exactly when `a == b`.
    #[test]
    fn prop_intern_ids_agree_with_equality(
        e1 in edges(), l1 in labels(), e2 in edges(), l2 in labels(),
    ) {
        let a = db_from(&e1, &l1);
        let b = db_from(&e2, &l2);
        let mut store = store();
        let ia = store.intern(a.clone());
        let ib = store.intern(b.clone());
        prop_assert_eq!(ia == ib, a == b);
    }

    /// Ids are stable under re-insertion: re-interning any previously
    /// interned database returns its original id and adds no state.
    #[test]
    fn prop_ids_stable_under_reinsertion(dbs in proptest::collection::vec((edges(), labels()), 1..6)) {
        let dbs: Vec<Database> = dbs.iter().map(|(e, l)| db_from(e, l)).collect();
        let mut store = store();
        let ids: Vec<_> = dbs.iter().map(|db| store.intern(db.clone())).collect();
        let len = store.len();
        for (db, &id) in dbs.iter().zip(&ids).rev() {
            prop_assert_eq!(store.intern(db.clone()), id);
        }
        prop_assert_eq!(store.len(), len, "re-insertion must not grow the store");
    }

    /// Hit counters increase monotonically, by exactly one per
    /// duplicate insertion, and dense ids cover `0..len`.
    #[test]
    fn prop_hit_counters_monotone(dbs in proptest::collection::vec((edges(), labels()), 1..8)) {
        let dbs: Vec<Database> = dbs.iter().map(|(e, l)| db_from(e, l)).collect();
        let mut store = store();
        let mut last_hits = 0;
        let mut seen = std::collections::BTreeSet::new();
        for db in &dbs {
            let duplicate = !seen.insert(db.clone());
            let id = store.intern(db.clone());
            let hits = store.hits();
            if duplicate {
                prop_assert_eq!(hits, last_hits + 1);
            } else {
                prop_assert_eq!(hits, last_hits);
            }
            prop_assert!(id.index() < store.len(), "ids are dense");
            last_hits = hits;
        }
        prop_assert_eq!(store.len(), seen.len());
    }
}
