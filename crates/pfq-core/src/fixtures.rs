//! Fixtures shared by the evaluator modules' unit tests.

use crate::{DatalogQuery, Event, ForeverQuery};
use pfq_algebra::{Expr, Interpretation};
use pfq_ctable::{Condition, PcDatabase, PcTable, RandomVariable};
use pfq_data::{tuple, Database, Relation, Schema, Value};
use pfq_datalog::Program;

/// Example 3.9's reachability program from `v`, with the event
/// "`target` ∈ C".
pub(crate) fn reach_query(target: &str) -> DatalogQuery {
    DatalogQuery::parse(
        "C(v).\nC2(X!, Y) @P :- C(X), E(X, Y, P).\nC(Y) :- C2(X, Y).",
        Event::tuple_in("C", tuple![target]),
    )
    .unwrap()
}

/// The fork `v → w`, `v → u`, each with probability 1/2.
pub(crate) fn fork_db() -> Database {
    Database::new().with(
        "E",
        Relation::from_rows(
            Schema::new(["i", "j", "p"]),
            [
                tuple!["v", "w", Value::frac(1, 2)],
                tuple!["v", "u", Value::frac(1, 2)],
            ],
        ),
    )
}

/// A pc-table whose one edge `v → w` is present iff the fair coin `x`
/// lands 1: two valuations, two worlds.
pub(crate) fn coin_edge() -> PcDatabase {
    let mut input = PcDatabase::new();
    input
        .declare_variable(RandomVariable::fair_coin("x"))
        .unwrap();
    input.add_table(
        "E",
        PcTable::new(Schema::new(["i", "j", "p"])).with(tuple!["v", "w", 1], Condition::eq("x", 1)),
    );
    input
}

/// Example 3.3's random walk `C := ρ(π(repair-key_{i@p}(C ⋈ E)))` over
/// the weighted edges `E(i, j, p)`, started at `start`, with the event
/// "`target` ∈ C".
pub(crate) fn walk<P: Into<Value> + Clone>(
    edges: &[(i64, i64, P)],
    start: i64,
    target: i64,
) -> (ForeverQuery, Database) {
    let e = Relation::from_rows(
        Schema::new(["i", "j", "p"]),
        edges.iter().map(|(i, j, p)| {
            let p: Value = p.clone().into();
            tuple![*i, *j, p]
        }),
    );
    let c = Relation::from_rows(Schema::new(["i"]), [tuple![start]]);
    let db = Database::new().with("E", e).with("C", c);
    let kernel = Interpretation::new().with(
        "C",
        Expr::rel("C")
            .join(Expr::rel("E"))
            .repair_key(["i"], Some("p"))
            .project(["j"])
            .rename([("j", "i")]),
    );
    (
        ForeverQuery::new(kernel, Event::tuple_in("C", tuple![target])),
        db,
    )
}

/// The lazy two-state flip: stay w.p. 3/4, flip w.p. 1/4, so TV after `t`
/// steps is exactly `2^-(t+1)`. Starts at 1; event "1 ∈ C".
pub(crate) fn lazy_flip() -> (ForeverQuery, Database) {
    walk(&[(1, 1, 3), (1, 2, 1), (2, 1, 1), (2, 2, 3)], 1, 1)
}

/// Two independent weighted coins: `R(k, v, w)` with `k ∈ {1, 2}`.
pub(crate) fn coin_db() -> Database {
    Database::new().with(
        "R",
        Relation::from_rows(
            Schema::new(["k", "v", "w"]),
            [
                tuple![1, 0, 1],
                tuple![1, 1, 3],
                tuple![2, 0, 1],
                tuple![2, 1, 1],
            ],
        ),
    )
}

/// Choose one value per key, fresh each iteration — a memoryless
/// non-inflationary kernel whose stationary distribution is the product
/// of the per-key choice distributions. (Adding a `H(K,V) :- H(K,V)`
/// persistence rule would accumulate *all* values with probability → 1,
/// the paper's Example 3.6 effect.) Negation-free, two independence
/// classes over [`coin_db`].
pub(crate) fn coin_program() -> Program {
    pfq_datalog::parse_program("H(K!, V) @W :- R(K, V, W).").unwrap()
}
