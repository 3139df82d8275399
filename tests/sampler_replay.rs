//! Replay of Theorem 4.3 sampling runs: `(hits, samples)` pinned for
//! fixed seeds, so any change in what a trial draws, or in which order,
//! fails here. The figures were recorded from the sampler that built
//! per-step ordered sets and maps; the flat firing buffers must find
//! the same groups in the same order and draw the same options.
//!
//! Pinned runs: the E5 walk of the `experiments` harness (a 40-node
//! graph) at three seeds, a Thm 4.1 pc-table input, and the 20 programs
//! among the first 1000 of the fuzz corpus (seed 42) whose event the
//! 200-trial run hits sometimes but not always — the cases where a
//! changed draw shows.
//!
//! Beside the replay, a soundness check: every fixpoint `sample_fixpoint`
//! returns must be in the support of the exact fixpoint distribution,
//! on every corpus case whose exact tree fits the fuzz node budget, with
//! one scratch kept across all cases.

use pfq::data::Database;
use pfq::datalog::eval::CompiledProgram;
use pfq::datalog::inflationary::{enumerate_fixpoints, sample_fixpoint, EngineState, StepScratch};
use pfq::lang::sample_inflationary::{
    evaluate_pc_with_config, evaluate_with_config, evaluate_with_samples_config,
};
use pfq::lang::sampler::{trial_rng, SamplerConfig};
use pfq::lang::DatalogQuery;
use pfq::workloads::graphs::{reachability_query, WeightedGraph};
use pfq::workloads::sat::{theorem_4_1_pc, Cnf};
use pfq_fuzz::{gen, FuzzConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// `(seed, hits)` of 200 fixed trials of the E5 walk.
const E5_WALK: [(u64, usize); 3] = [(1, 39), (7, 36), ((5 << 32) ^ 1, 27)];

/// `(hits, samples)` of one sampling run.
type Counts = (usize, usize);

/// Per corpus case: its index, then the counts of 200 fixed trials and
/// of an adaptive ε = δ = 0.05 run, both seeded with the index.
const CORPUS: [(u64, Counts, Counts); 20] = [
    (29, (84, 200), (317, 738)),
    (84, (47, 200), (158, 738)),
    (108, (140, 200), (506, 738)),
    (151, (66, 200), (243, 738)),
    (162, (93, 200), (335, 738)),
    (181, (35, 200), (126, 738)),
    (196, (80, 200), (294, 738)),
    (281, (162, 200), (558, 738)),
    (401, (39, 200), (148, 738)),
    (457, (140, 200), (491, 738)),
    (516, (94, 200), (371, 738)),
    (641, (170, 200), (623, 738)),
    (692, (127, 200), (458, 738)),
    (747, (159, 200), (616, 738)),
    (778, (70, 200), (300, 738)),
    (846, (41, 200), (156, 738)),
    (855, (100, 200), (377, 738)),
    (892, (172, 200), (643, 738)),
    (899, (173, 200), (620, 738)),
    (927, (88, 200), (356, 738)),
];

fn one_thread(seed: u64) -> SamplerConfig {
    SamplerConfig::seeded(seed).with_threads(1)
}

#[test]
fn e5_walk_and_pc_input_replay() {
    let graph = WeightedGraph::erdos_renyi(40, 0.3, &mut ChaCha8Rng::seed_from_u64(42));
    let query = reachability_query(0, 39);
    let db = Database::new().with("E", graph.edge_relation());
    for (seed, hits) in E5_WALK {
        for threads in [1, 3] {
            let config = one_thread(seed).with_threads(threads);
            let r = evaluate_with_samples_config(&query, &db, 200, &config).unwrap();
            assert_eq!(
                (r.hits, r.samples),
                (hits, 200),
                "seed {seed}, {threads} threads"
            );
        }
    }
    // pc-table trials draw a world first, then the path.
    let (query, input) = theorem_4_1_pc(&Cnf::pinned(3));
    let config = one_thread(9).with_adaptive(false);
    let r = evaluate_pc_with_config(&query, &input, 0.1, 0.05, &config).unwrap();
    assert_eq!((r.hits, r.samples), (17, 185));
}

#[test]
fn fuzz_corpus_replay() {
    let cfg = FuzzConfig::default();
    for (index, fixed, adaptive) in CORPUS {
        let case = gen::generate(&cfg.gen, &mut trial_rng(cfg.seed, index));
        let query = DatalogQuery::new(case.program.clone(), case.event());
        let r = evaluate_with_samples_config(&query, &case.db, 200, &one_thread(index)).unwrap();
        assert_eq!((r.hits, r.samples), fixed, "case {index}, 200 trials");
        let r = evaluate_with_config(&query, &case.db, 0.05, 0.05, &one_thread(index)).unwrap();
        assert_eq!((r.hits, r.samples), adaptive, "case {index}, adaptive");
    }
}

#[test]
fn sampled_fixpoints_are_in_the_exact_support() {
    const CASES: u64 = 1000;
    const TRIALS: u64 = 20;
    let cfg = FuzzConfig::default();
    let mut scratch = StepScratch::default();
    let (mut checked, mut branching) = (0usize, 0usize);
    for index in 0..CASES {
        let case = gen::generate(&cfg.gen, &mut trial_rng(cfg.seed, index));
        let Ok(exact) = enumerate_fixpoints(&case.program, &case.db, Some(cfg.oracle.node_budget))
        else {
            continue;
        };
        let program = CompiledProgram::new(&case.program);
        let (edb, start) = EngineState::initial(&case.program, &case.db).unwrap();
        for trial in 0..TRIALS {
            let mut rng = trial_rng(index, trial);
            let fixpoint =
                sample_fixpoint(&program, &edb, &start, &mut rng, 1_000, &mut scratch).unwrap();
            let db = fixpoint.database(&edb);
            assert!(
                exact.mass(&db).is_positive(),
                "case {index}, trial {trial}: sampled fixpoint {db} is not in the support"
            );
        }
        checked += 1;
        branching += usize::from(exact.support_size() > 1);
    }
    // Guard against a vacuous pass: most cases fit the budget, and some
    // of them have more than one fixpoint (all 1000 fit; 44 branch).
    assert!(checked * 2 > CASES as usize, "only {checked} cases fit");
    assert!(branching >= 40, "only {branching} of {checked} branch");
}
