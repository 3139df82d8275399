//! The Theorem 4.1 / 5.1 reductions behave exactly as their lemmas
//! claim, across random formulas.

use pfq::lang::exact_noninflationary::{self, ChainBudget};
use pfq::lang::sample_inflationary;
use pfq::lang::sampler::SamplerConfig;
use pfq::num::Ratio;
use pfq::workloads::exact::{pc_probability, tree_probability};
use pfq::workloads::sat::{theorem_4_1_pc, theorem_4_1_repair_key, theorem_5_1_forever_query, Cnf};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Lemma 4.2, strengthened to the exact identity our implementation
/// satisfies: the query probability is (#SAT)/2ⁿ for every formula.
#[test]
fn lemma_4_2_exact_identity_on_random_formulas() {
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    for trial in 0..8 {
        let f = Cnf::random(4, 3, &mut rng);
        let (query, input) = theorem_4_1_pc(&f);
        assert!(
            query.is_linear(),
            "the reduction must stay in linear datalog"
        );
        let p = pc_probability(&query, &input);
        let expected = Ratio::new(f.count_satisfying() as i64, 16);
        assert_eq!(p, expected, "trial {trial}: {f:?}");
    }
}

/// The repair-key variant (conditions (1) + (2)) computes the same
/// probability as the pc-table variant (conditions (1) + (2')).
#[test]
fn reduction_variants_agree_on_random_formulas() {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    for _ in 0..5 {
        let f = Cnf::random(3, 2, &mut rng);
        let (q_pc, in_pc) = theorem_4_1_pc(&f);
        let (q_rk, db_rk) = theorem_4_1_repair_key(&f);
        let p_pc = pc_probability(&q_pc, &in_pc);
        let p_rk = tree_probability(&q_rk, &db_rk);
        assert_eq!(p_pc, p_rk, "{f:?}");
    }
}

/// Satisfiable ⇒ p ≥ 1/2ⁿ; unsatisfiable ⇒ p = 0 (the exact statement
/// of Lemma 4.2).
#[test]
fn lemma_4_2_separation() {
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let (sat, _) = Cnf::random_satisfiable(4, 4, &mut rng);
    let (query, input) = theorem_4_1_pc(&sat);
    let p = pc_probability(&query, &input);
    assert!(p >= Ratio::new(1, 16), "satisfiable ⇒ p ≥ 1/2ⁿ, got {p}");

    let (query, input) = theorem_4_1_pc(&Cnf::unsatisfiable());
    let p = pc_probability(&query, &input);
    assert!(p.is_zero());
}

/// The Theorem 4.1 probability shrinks as 2⁻ⁿ for a fixed satisfying
/// structure — the reason *relative* approximation is hopeless while
/// absolute approximation stays easy.
#[test]
fn relative_vs_absolute_separation() {
    // One clause (x1 ∨ x2 ∨ x3) over growing n: #SAT = 7·2^{n-3}.
    for n in [3usize, 5, 7] {
        let f = Cnf::new(n, vec![[1, 2, 3]]);
        let (query, input) = theorem_4_1_pc(&f);
        let p = pc_probability(&query, &input);
        assert_eq!(p, Ratio::new(7, 8), "padding variables don't change p");
    }
    // Force a genuinely tiny probability: x1 ∧ x2 ∧ x3 as three clauses
    // needs clause width 3 — use ANDed singleton-ish clauses (x_i ∨ x_i…
    // not allowed) — instead conjoin clauses pinning each variable:
    // (x1∨x2∨x3) ∧ (x1∨x2∨¬x3) ∧ (x1∨¬x2∨x3) ∧ (x1∨¬x2∨¬x3) forces x1
    // when combined with the x2/x3 variants — simpler: the unique-SAT
    // formula over 3 vars pinning (1,1,1):
    let mut clauses = Vec::new();
    for mask in 1..8i64 {
        // Exclude every assignment except (1,1,1).
        let c = [
            if mask & 1 == 1 { 1 } else { -1 },
            if mask & 2 == 2 { 2 } else { -2 },
            if mask & 4 == 4 { 3 } else { -3 },
        ];
        clauses.push(c);
    }
    let f = Cnf::new(3, clauses);
    assert_eq!(f.count_satisfying(), 1);
    let (query, input) = theorem_4_1_pc(&f);
    let p = pc_probability(&query, &input);
    assert_eq!(p, Ratio::new(1, 8));
    // An absolute approximation with ε = 0.2 may legitimately answer 0 —
    // it cannot distinguish 1/8-satisfiable from unsatisfiable without
    // exponentially many samples as n grows.
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let config = SamplerConfig::seeded(rng.gen()).with_adaptive(false);
    let est =
        sample_inflationary::evaluate_pc_with_config(&query, &input, 0.2, 0.1, &config).unwrap();
    assert!((est.estimate - 0.125).abs() <= 0.2);
}

/// Lemma 5.2: the non-inflationary reduction's chain absorbs into
/// event states iff the formula is satisfiable.
#[test]
fn lemma_5_2_structural() {
    // Satisfiable: every closed SCC satisfies Done(a).
    let f = Cnf::new(3, vec![[1, -2, 3]]);
    let (fq, db) = theorem_5_1_forever_query(&f).unwrap();
    let chain = exact_noninflationary::build_chain(
        &fq,
        &db,
        ChainBudget {
            max_states: 500_000,
            world_limit: 500_000,
        },
    )
    .unwrap();
    let cond = pfq::markov::scc::condensation(&chain);
    for leaf in cond.leaves() {
        for &s in &cond.components[leaf] {
            assert!(fq.event.holds(chain.state(s)));
        }
    }
}

/// The clause-pipeline flows assignments: with one clause, Done appears
/// within a few steps along every satisfying path.
#[test]
fn theorem_5_1_pipeline_flows() {
    let f = Cnf::new(3, vec![[1, 2, 3]]);
    let (fq, db) = theorem_5_1_forever_query(&f).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    // Walk a while; Done(a) must hold at the end (satisfiable ⇒ absorbed
    // with overwhelming probability after 100 steps: per step the chance
    // a satisfying assignment enters the pipeline is 7/8).
    let mut state = db.clone();
    for _ in 0..100 {
        state = fq.kernel.sample_step(&state, &mut rng).unwrap();
    }
    assert!(fq.event.holds(&state));
}
