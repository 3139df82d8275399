//! Differential test for the kernel evaluator: the compiled plan
//! (`CompiledKernel`, which every evaluator runs) must agree with the
//! tree-walking reference interpreter in `pfq_fuzz::oracle` on
//!
//! * successor distributions, exactly, at every state of a bounded
//!   breadth-first walk of the chain;
//! * `WorldLimitExceeded`, at the same limits (every limit from 0 up to
//!   the first one both evaluators pass);
//! * sampled successors, bit for bit, over 200 steps from one ChaCha8
//!   seed (the compiled sampler must consume the RNG exactly as the tree
//!   walker does).
//!
//! Kernels come from two sets: the non-inflationary translations of the
//! fuzz corpus (seed 42, the campaign's default generator), and every
//! kernel the repository ships (the `.pfq` examples, the workload
//! generators' coloring, PageRank, queue and graph walks, and the
//! benchmark's coloring shape).

use pfq::algebra::{AlgebraError, CompiledKernel, Interpretation};
use pfq::data::Database;
use pfq::lang::sampler::trial_rng;
use pfq::lang::DatalogQuery;
use pfq::num::{Distribution, Ratio};
use pfq::workloads::coloring::ColoringMcmc;
use pfq::workloads::graphs::{walk_query, WeightedGraph};
use pfq::workloads::pagerank::pagerank_query;
use pfq::workloads::queue::BirthDeathQueue;
use pfq_fuzz::oracle::{reference_enumerate_step, reference_sample_step};
use pfq_fuzz::{gen, FuzzConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::path::Path;

/// Generated cases compared.
const CASES: u64 = 600;
/// States per kernel whose successor distributions are compared.
const STATES: usize = 12;
/// Sampled steps compared per kernel.
const STEPS: usize = 200;
/// The world limit of the distribution comparisons.
const WORLD_LIMIT: usize = 100_000;

/// The compiled successor distribution of `db`, as databases.
fn compiled_step(
    kernel: &CompiledKernel,
    db: &Database,
    limit: Option<usize>,
) -> Result<Distribution<Database>, AlgebraError> {
    let next = kernel.enumerate(&kernel.targets_of(db), limit)?;
    Ok(next.map(|state| kernel.with_targets(db, state)))
}

/// Runs the three comparisons on `interp` from `db`; returns how many
/// states were compared.
fn compare(label: &str, interp: &Interpretation, db: &Database) -> usize {
    let kernel = CompiledKernel::new(interp, db)
        .unwrap_or_else(|e| panic!("{label}: kernel does not compile: {e}"));

    // Successor distributions along a bounded breadth-first walk.
    let mut frontier = vec![db.clone()];
    let mut seen = vec![db.clone()];
    let mut compared = 0;
    while let Some(state) = frontier.pop() {
        if compared == STATES {
            break;
        }
        compared += 1;
        let want = reference_enumerate_step(interp, &state, Some(WORLD_LIMIT));
        let got = compiled_step(&kernel, &state, Some(WORLD_LIMIT));
        assert_eq!(got, want, "{label}: successors of\n{state}");
        for (next, _) in want.iter().flat_map(Distribution::iter) {
            if !seen.contains(next) {
                seen.push(next.clone());
                frontier.insert(0, next.clone());
            }
        }
    }

    // The world limit fires at the same limits.
    for limit in 0.. {
        let want = reference_enumerate_step(interp, db, Some(limit));
        let got = compiled_step(&kernel, db, Some(limit));
        assert_eq!(got, want, "{label}: step under world limit {limit}");
        if !matches!(want, Err(AlgebraError::WorldLimitExceeded { .. })) {
            break;
        }
    }

    // Sampled walks from one seed, bit for bit.
    let mut want_rng = ChaCha8Rng::seed_from_u64(0x6b65_726e);
    let mut got_rng = want_rng.clone();
    let (mut want_state, mut got_state) = (db.clone(), kernel.targets_of(db));
    for step in 0..STEPS {
        let want = reference_sample_step(interp, &want_state, &mut want_rng);
        let got = kernel.sample(&got_state, &mut got_rng);
        match (want, got) {
            (Ok(want), Ok(got)) => {
                assert_eq!(
                    kernel.with_targets(&want_state, got.clone()),
                    want,
                    "{label}: sampled step {step}"
                );
                (want_state, got_state) = (want, got);
            }
            (want, got) => {
                assert_eq!(got.err(), want.err(), "{label}: sampled step {step}");
                break;
            }
        }
    }
    assert_eq!(
        got_rng.gen::<u64>(),
        want_rng.gen::<u64>(),
        "{label}: the samplers consumed the RNG differently"
    );
    compared
}

#[test]
fn compiled_kernel_equals_reference_on_fuzz_translations() {
    let cfg = FuzzConfig::default();
    let (mut kernels, mut states) = (0usize, 0usize);
    for index in 0..CASES {
        let mut rng = trial_rng(cfg.seed, index);
        let case = gen::generate(&cfg.gen, &mut rng);
        let query = DatalogQuery::new(case.program.clone(), case.event());
        let Ok((fq, prepared)) = query.to_forever_query(&case.db) else {
            continue;
        };
        states += compare(&format!("fuzz case {index}"), &fq.kernel, &prepared);
        kernels += 1;
    }
    assert!(kernels >= 500, "only {kernels} translations compared");
    assert!(states > kernels, "the walks never left the start state");
}

/// The benchmark's coloring kernel (weighted Glauber dynamics) on a
/// 4-node tree, as `perfbench` generates it.
const BENCH_COLORING: &str = "\
@relation V(node) {\n  (0)\n  (1)\n  (2)\n  (3)\n}\n\
@relation E(node, nbr) {\n  (1, 0)\n  (0, 1)\n  (2, 1)\n  (1, 2)\n  (3, 1)\n  (1, 3)\n}\n\
@relation K(color) {\n  (0)\n  (1)\n  (2)\n}\n\
@relation W(color, w) {\n  (0, 2)\n  (1, 1)\n  (2, 4)\n}\n\
@relation Color(node, color) {\n  (0, 0)\n  (1, 1)\n  (2, 0)\n  (3, 0)\n}\n\
@kernel Color := let picked = (repair-key[](V)) in (let newc = \
(project[color](repair-key[@ w](((K - project[color]((rename[nbr->node]\
(project[nbr]((picked join E))) join Color))) join W)))) in \
(((Color - (picked join Color)) union (picked x newc))))\n\
@query kernel exact event Color(0, 1)\n";

#[test]
fn compiled_kernel_equals_reference_on_shipped_kernels() {
    let mut shipped: Vec<(String, Interpretation, Database)> = Vec::new();
    let mut files: Vec<(String, String)> =
        vec![("perfbench coloring".into(), BENCH_COLORING.into())];
    let examples = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    for entry in std::fs::read_dir(examples).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|x| x == "pfq") {
            let src = std::fs::read_to_string(&path).unwrap();
            files.push((path.display().to_string(), src));
        }
    }
    for (name, src) in files {
        let file = pfq_cli::parse_file(&src).unwrap();
        if let Some(kernels) = file.kernels {
            shipped.push((name.clone(), kernels, file.database.clone()));
        }
        if let Some(program) = file.program {
            let query = DatalogQuery::new(program, pfq::lang::Event::non_empty("_"));
            let (fq, prepared) = query.to_forever_query(&file.database).unwrap();
            shipped.push((format!("{name} (program)"), fq.kernel, prepared));
        }
    }
    let mut add = |name: &str, (query, db): (pfq::lang::ForeverQuery, Database)| {
        shipped.push((name.to_string(), query.kernel, db));
    };
    add(
        "coloring on a 4-cycle",
        ColoringMcmc::new(4, vec![(0, 1), (1, 2), (2, 3), (3, 0)], 3).color_query(0, 0),
    );
    add(
        "pagerank on a cycle",
        pagerank_query(&WeightedGraph::cycle(4), Ratio::new(17, 20), 0, 1),
    );
    add(
        "birth-death queue",
        BirthDeathQueue::new(4, 2, 3, 1).length_query(0, 2),
    );
    add(
        "walk on a lazy path",
        walk_query(&WeightedGraph::path(5).lazy(1), 0, 4),
    );
    add(
        "walk on a dumbbell",
        walk_query(&WeightedGraph::dumbbell(3), 0, 5),
    );
    assert!(shipped.len() >= 9, "only {} shipped kernels", shipped.len());
    for (name, interp, db) in &shipped {
        compare(name, interp, db);
    }
}
