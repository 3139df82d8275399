//! One-off expression evaluation: deterministic, exact enumeration and
//! sampling.
//!
//! Each entry point compiles its expression against `db` and runs the
//! plan once (see [`crate::compiled`]); code that applies an expression
//! repeatedly compiles it once through [`crate::CompiledKernel`].

use crate::compiled::CompiledExpr;
use crate::{AlgebraError, Expr};
use pfq_data::{Database, Relation};
use pfq_num::Distribution;
use rand::Rng;

/// Evaluates a deterministic expression; fails with
/// [`AlgebraError::RepairKeyNotAllowed`] if the expression contains a
/// `repair-key`.
pub fn eval(expr: &Expr, db: &Database) -> Result<Relation, AlgebraError> {
    CompiledExpr::new(expr, db)?.eval()
}

/// Exactly enumerates the distribution over result relations
/// (possible worlds) of `expr` on `db`.
///
/// `limit` bounds the number of worlds carried at any point; exceeding it
/// aborts with [`AlgebraError::WorldLimitExceeded`] rather than silently
/// truncating the distribution.
pub fn enumerate(
    expr: &Expr,
    db: &Database,
    limit: Option<usize>,
) -> Result<Distribution<Relation>, AlgebraError> {
    CompiledExpr::new(expr, db)?.enumerate(limit)
}

/// Samples one possible world of `expr` on `db`.
pub fn sample<R: Rng + ?Sized>(
    expr: &Expr,
    db: &Database,
    rng: &mut R,
) -> Result<Relation, AlgebraError> {
    CompiledExpr::new(expr, db)?.sample(rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pred;
    use pfq_data::{tuple, Schema, Value};
    use pfq_num::Ratio;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn walk_db() -> Database {
        // The Example 3.3 shape: C holds the walker, E the weighted edges.
        let e = Relation::from_rows(
            Schema::new(["i", "j", "p"]),
            [
                tuple![1, 2, Value::frac(1, 2)],
                tuple![1, 3, Value::frac(1, 2)],
                tuple![2, 1, 1],
                tuple![3, 1, 1],
            ],
        );
        let c = Relation::from_rows(Schema::new(["i"]), [tuple![1]]);
        Database::new().with("E", e).with("C", c)
    }

    /// The random-walk kernel of Example 3.3.
    fn walk_kernel() -> Expr {
        Expr::rel("C")
            .join(Expr::rel("E"))
            .repair_key(["i"], Some("p"))
            .project(["j"])
            .rename([("j", "i")])
    }

    #[test]
    fn deterministic_ops() {
        let db = walk_db();
        let joined = eval(&Expr::rel("C").join(Expr::rel("E")), &db).unwrap();
        assert_eq!(joined.len(), 2); // edges out of node 1
        let projected = eval(&Expr::rel("E").project(["j"]), &db).unwrap();
        assert_eq!(projected.len(), 3); // j ∈ {1, 2, 3}
        let selected = eval(&Expr::rel("E").select(Pred::col_eq("i", 1)), &db).unwrap();
        assert_eq!(selected.len(), 2);
        let renamed = eval(&Expr::rel("C").rename([("i", "x")]), &db).unwrap();
        assert_eq!(renamed.schema(), &Schema::new(["x"]));
    }

    #[test]
    fn union_difference() {
        let db = walk_db();
        let i = Expr::rel("E").project(["i"]);
        let j = Expr::rel("E").project(["j"]).rename([("j", "i")]);
        let nodes = eval(&i.clone().union(j.clone()), &db).unwrap();
        assert_eq!(nodes.len(), 3);
        let only_i = eval(&i.difference(j), &db).unwrap();
        assert!(only_i.is_empty()); // every source also appears as target
    }

    #[test]
    fn deterministic_eval_rejects_repair_key() {
        let db = walk_db();
        assert_eq!(
            eval(&walk_kernel(), &db),
            Err(AlgebraError::RepairKeyNotAllowed)
        );
    }

    #[test]
    fn enumerate_walk_step() {
        let db = walk_db();
        let worlds = enumerate(&walk_kernel(), &db, None).unwrap();
        assert!(worlds.is_proper());
        assert_eq!(worlds.support_size(), 2);
        let at2 = Relation::from_rows(Schema::new(["i"]), [tuple![2]]);
        let at3 = Relation::from_rows(Schema::new(["i"]), [tuple![3]]);
        assert_eq!(worlds.mass(&at2), Ratio::new(1, 2));
        assert_eq!(worlds.mass(&at3), Ratio::new(1, 2));
    }

    #[test]
    fn enumerate_deterministic_is_singleton() {
        let db = walk_db();
        let worlds = enumerate(&Expr::rel("E").project(["i"]), &db, None).unwrap();
        assert_eq!(worlds.support_size(), 1);
        assert!(worlds.is_proper());
    }

    #[test]
    fn enumerate_merges_identical_worlds() {
        // Two coin flips unioned: worlds {1}, {1,2}, {2} with merge on {1,2}.
        let coin = Relation::from_rows(Schema::new(["k", "v"]), [tuple![0, 1], tuple![0, 2]]);
        let db = Database::new().with("R", coin);
        let e = Expr::rel("R")
            .repair_key(["k"], None)
            .project(["v"])
            .union(Expr::rel("R").repair_key(["k"], None).project(["v"]));
        let worlds = enumerate(&e, &db, None).unwrap();
        assert!(worlds.is_proper());
        assert_eq!(worlds.support_size(), 3);
        let both = Relation::from_rows(Schema::new(["v"]), [tuple![1], tuple![2]]);
        assert_eq!(worlds.mass(&both), Ratio::new(1, 2));
    }

    #[test]
    fn enumerate_respects_limit() {
        let db = walk_db();
        assert!(matches!(
            enumerate(&walk_kernel(), &db, Some(1)),
            Err(AlgebraError::WorldLimitExceeded { .. })
        ));
    }

    #[test]
    fn sample_matches_enumeration() {
        let db = walk_db();
        let worlds = enumerate(&walk_kernel(), &db, None).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let n = 10_000;
        let mut hits = 0usize;
        let at2 = Relation::from_rows(Schema::new(["i"]), [tuple![2]]);
        for _ in 0..n {
            if sample(&walk_kernel(), &db, &mut rng).unwrap() == at2 {
                hits += 1;
            }
        }
        let freq = hits as f64 / n as f64;
        assert!((freq - worlds.mass(&at2).to_f64()).abs() < 0.02);
    }

    #[test]
    fn nested_repair_key() {
        // repair-key over a result that itself came from repair-key.
        let r = Relation::from_rows(
            Schema::new(["k", "v"]),
            [tuple![0, 1], tuple![0, 2], tuple![1, 3], tuple![1, 4]],
        );
        let db = Database::new().with("R", r);
        let inner = Expr::rel("R").repair_key(["k"], None); // 4 worlds, 2 tuples each
        let outer = inner.repair_key([] as [&str; 0], None); // pick 1 of the 2
        let worlds = enumerate(&outer, &db, None).unwrap();
        assert!(worlds.is_proper());
        // Outcomes: {(0,v)} each 1/4, {(1,v)} each 1/4 → 4 distinct singletons.
        assert_eq!(worlds.support_size(), 4);
        for (_, p) in worlds.iter() {
            assert_eq!(p, &Ratio::new(1, 4));
        }
    }

    #[test]
    fn let_shares_one_probabilistic_outcome() {
        // Flip one coin, then join it with itself: always equal, so the
        // result has exactly one row — whereas inlining the repair-key
        // twice flips two independent coins.
        let coin = Relation::from_rows(Schema::new(["k", "v"]), [tuple![0, 1], tuple![0, 2]]);
        let db = Database::new().with("R", coin);
        let pick = Expr::rel("R").repair_key(["k"], None).project(["v"]);

        let shared = pick.clone().bind(
            "tmp",
            Expr::rel("tmp").join(Expr::rel("tmp").rename([("v", "w")])),
        );
        let worlds = enumerate(&shared, &db, None).unwrap();
        assert!(worlds.is_proper());
        assert_eq!(worlds.support_size(), 2); // (1,1) or (2,2)
        for (rel, p) in worlds.iter() {
            assert_eq!(rel.len(), 1);
            let t = rel.iter().next().unwrap();
            assert_eq!(t.get(0), t.get(1), "shared binding must correlate");
            assert_eq!(p, &Ratio::new(1, 2));
        }

        // The inlined version: two independent picks, 4 combinations.
        let indep = pick.clone().join(pick.rename([("v", "w")]));
        let worlds = enumerate(&indep, &db, None).unwrap();
        assert_eq!(worlds.support_size(), 4);
        let mismatched = worlds.probability_that(|rel| rel.iter().any(|t| t.get(0) != t.get(1)));
        assert_eq!(mismatched, Ratio::new(1, 2));
    }

    #[test]
    fn let_scoping_and_schema() {
        let coin = Relation::from_rows(Schema::new(["k", "v"]), [tuple![0, 1], tuple![0, 2]]);
        let db = Database::new().with("R", coin);
        let e = Expr::rel("R")
            .repair_key(["k"], None)
            .project(["v"])
            .bind("tmp", Expr::rel("tmp"));
        for (world, _) in enumerate(&e, &db, None).unwrap().iter() {
            assert_eq!(world.schema(), &Schema::new(["v"]));
        }
        assert!(e.is_probabilistic());
        // `tmp` is not an input relation; `R` is.
        assert_eq!(e.input_relations(), vec!["R".to_string()]);
        // Deterministic value binds through plain eval too.
        let det = Expr::rel("R").bind("tmp", Expr::rel("tmp").project(["v"]));
        assert_eq!(eval(&det, &db).unwrap().len(), 2);
    }

    #[test]
    fn let_binding_shadows_base_relation() {
        let a = Relation::from_rows(Schema::new(["x"]), [tuple![1]]);
        let b = Relation::from_rows(Schema::new(["x"]), [tuple![2], tuple![3]]);
        let db = Database::new().with("A", a).with("B", b);
        // Shadow A with B's contents inside the body.
        let e = Expr::rel("B").bind("A", Expr::rel("A"));
        let out = eval(&e, &db).unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.contains(&tuple![2]));
    }

    #[test]
    fn let_sample_is_consistent() {
        let coin = Relation::from_rows(Schema::new(["k", "v"]), [tuple![0, 1], tuple![0, 2]]);
        let db = Database::new().with("R", coin);
        let pick = Expr::rel("R").repair_key(["k"], None).project(["v"]);
        let shared = pick.bind(
            "tmp",
            Expr::rel("tmp").join(Expr::rel("tmp").rename([("v", "w")])),
        );
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        for _ in 0..50 {
            let rel = sample(&shared, &db, &mut rng).unwrap();
            assert_eq!(rel.len(), 1);
            let t = rel.iter().next().unwrap();
            assert_eq!(t.get(0), t.get(1));
        }
    }

    #[test]
    fn product_rejects_shared_columns() {
        let db = walk_db();
        assert!(matches!(
            eval(&Expr::rel("C").product(Expr::rel("C")), &db),
            Err(AlgebraError::SchemaMismatch { .. })
        ));
        let ok = eval(
            &Expr::rel("C").rename([("i", "x")]).product(Expr::rel("C")),
            &db,
        )
        .unwrap();
        assert_eq!(ok.len(), 1);
    }

    #[test]
    fn join_with_no_common_columns_is_product() {
        let a = Relation::from_rows(Schema::new(["x"]), [tuple![1], tuple![2]]);
        let b = Relation::from_rows(Schema::new(["y"]), [tuple![10], tuple![20]]);
        let db = Database::new().with("A", a).with("B", b);
        let r = eval(&Expr::rel("A").join(Expr::rel("B")), &db).unwrap();
        assert_eq!(r.len(), 4);
        assert_eq!(r.schema(), &Schema::new(["x", "y"]));
    }
}
