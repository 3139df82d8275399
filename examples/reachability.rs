//! Probabilistic reachability, in both formulations the paper gives:
//! the algebra interpretation of Example 3.5 and the probabilistic
//! datalog program of Example 3.9 — checked against each other.
//!
//! Run with `cargo run --example reachability`.

use pfq::algebra::{Expr, Interpretation};
use pfq::data::{tuple, Database, Relation, Schema};
use pfq::lang::exact_inflationary::{self, ExactBudget};
use pfq::lang::exact_noninflationary::{self, ChainBudget};
use pfq::lang::{EvalCache, Event, ForeverQuery};
use pfq::workloads::graphs::reachability_query;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small weighted graph: two paths from 0 to 3, one detour to 4.
    //      0 →(1) 1 →(1) 3        weights in parentheses; the walk
    //      0 →(2) 2 →(1) 3        chooses proportionally at each node
    //      2 →(3) 4
    let edges = Relation::from_rows(
        Schema::new(["i", "j", "p"]),
        [
            tuple![0, 1, 1],
            tuple![0, 2, 2],
            tuple![1, 3, 1],
            tuple![2, 3, 1],
            tuple![2, 4, 3],
        ],
    );

    // ── Example 3.9: the datalog formulation. ──
    let query = reachability_query(0, 3);
    println!("probabilistic datalog (Example 3.9):\n{}", query.program);
    let db = Database::new().with("E", edges.clone());
    let p_datalog = exact_inflationary::evaluate(
        &query,
        &db,
        ExactBudget::default(),
        &mut EvalCache::default(),
    )?;
    // Hand computation: Pr = 1/3·1 + 2/3·(1/4) = 1/2.
    println!("Pr[3 ever reached] = {p_datalog} (expect 1/2)\n");

    // ── Example 3.5: the algebra formulation. ──
    // Cold := C;  C := C ∪ ρ_I(π_J(repair-key_{I@P}((C − Cold) ⋈ E))).
    let step = Expr::rel("C")
        .difference(Expr::rel("Cold"))
        .join(Expr::rel("E"))
        .repair_key(["i"], Some("p"))
        .project(["j"])
        .rename([("j", "i")]);
    let kernel = Interpretation::new()
        .with("Cold", Expr::rel("C"))
        .with("C", Expr::rel("C").union(step));
    println!("algebra interpretation (Example 3.5):\n{kernel}");

    let db = Database::new()
        .with("E", edges)
        .with("C", Relation::from_rows(Schema::new(["i"]), [tuple![0]]))
        .with("Cold", Relation::empty(Schema::new(["i"])));
    let fq = ForeverQuery::new(kernel, Event::tuple_in("C", tuple![3]));
    // The kernel is inflationary, so the long-run probability of the
    // event equals the probability 3 is ever reached.
    let p_algebra = exact_noninflationary::evaluate(
        &fq,
        &db,
        ChainBudget::default(),
        &mut EvalCache::default(),
    )?;
    println!("Pr[3 ever reached] = {p_algebra} (expect 1/2)");

    assert_eq!(p_datalog, p_algebra, "the two formulations must agree");
    println!("\nboth formulations agree ✓");
    Ok(())
}
