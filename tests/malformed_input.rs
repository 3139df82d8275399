//! Malformed `.pfq` input is an error, never a panic.
//!
//! A seeded campaign of token mutations — delete a token, duplicate it,
//! swap it with the next one, or replace it with a token of another
//! source — over every `examples/*.pfq` file and a few fuzz reproducers.
//! Each mutant goes through `parse_file`, the `pfq plan` view and an
//! engine run of every query, under `catch_unwind`. `pfq run` prints
//! `error:` and exits 1 on every `Err` these calls return, so an outcome
//! that is `Ok` or `Err` is a clean one; a panic fails the test.
//!
//! Runs use small exact budgets, and sampling knobs are capped (small
//! `ε`/`δ` raised, step and burn-in counts lowered) so that a mutant
//! asking for millions of samples ends quickly; invalid values pass
//! through unchanged, since rejecting them is part of what is tested.

use pfq::lang::engine::{Engine, EvalRequest, Strategy};
use pfq::lang::exact_inflationary::ExactBudget;
use pfq::lang::exact_noninflationary::ChainBudget;
use pfq::lang::{DatalogQuery, Event, ForeverQuery};
use pfq_cli::{parse_file, PfqFile, Query, RunOptions, Semantics};
use pfq_fuzz::gen::{generate, GenConfig};
use pfq_fuzz::oracle::CheckId;
use pfq_fuzz::render;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

/// Mutants drawn from each source: enough that some relation header
/// comes to repeat a column, which panicked until duplicate columns
/// became a parse error.
const MUTANTS_PER_SOURCE: usize = 200;

const NODE_BUDGET: ExactBudget = ExactBudget {
    node_budget: Some(2_000),
};
const CHAIN_BUDGET: ChainBudget = ChainBudget {
    max_states: 200,
    world_limit: 256,
};

/// The mutation sources: every example file, then fuzz reproducers
/// whose queries cover the exact, sampling, chain and burn-in paths.
fn sources() -> Vec<(String, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("examples/ is readable")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "pfq"))
        .collect();
    paths.sort();
    let mut out: Vec<(String, String)> = paths
        .iter()
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (
                name,
                std::fs::read_to_string(p).expect("example is readable"),
            )
        })
        .collect();
    assert!(out.len() >= 4, "expected the shipped .pfq examples");
    let checks = [
        CheckId::SamplerBound,
        CheckId::PlannerDifferential,
        CheckId::BurnInConsistency,
    ];
    for (seed, check) in checks.into_iter().enumerate() {
        let case = generate(
            &GenConfig::default(),
            &mut ChaCha8Rng::seed_from_u64(seed as u64),
        );
        out.push((
            format!("reproducer {check:?}"),
            render::to_pfq(&case, check, seed as u64, 3, &[]),
        ));
    }
    out
}

/// `src` split into tokens: runs of word characters, single
/// punctuation characters, and runs of whitespace (kept, so a mutant
/// keeps its line structure).
fn tokens(src: &str) -> Vec<String> {
    let word = |c: char| c.is_alphanumeric() || "_.!/'\"-@".contains(c);
    let mut out: Vec<String> = Vec::new();
    for c in src.chars() {
        let extends = out
            .last()
            .and_then(|t| t.chars().last())
            .is_some_and(|p| (word(p) && word(c)) || (p.is_whitespace() && c.is_whitespace()));
        match out.last_mut() {
            Some(t) if extends => t.push(c),
            _ => out.push(c.to_string()),
        }
    }
    out
}

/// One mutant of `tokens`: one or two deletions, duplications, swaps
/// with the next token, or replacements by a token of `pool`.
fn mutate(tokens: &[String], pool: &[String], rng: &mut ChaCha8Rng) -> String {
    let mut toks = tokens.to_vec();
    let solid: Vec<usize> = (0..toks.len())
        .filter(|&i| !toks[i].trim().is_empty())
        .collect();
    for _ in 0..rng.gen_range(1..=2) {
        let k = rng.gen_range(0..solid.len());
        let i = solid[k];
        match rng.gen_range(0..4) {
            0 => toks[i].clear(),
            1 => toks[i] = format!("{0} {0}", toks[i]),
            2 => {
                let j = solid[(k + 1) % solid.len()];
                toks.swap(i, j);
            }
            _ => toks[i] = pool[rng.gen_range(0..pool.len())].clone(),
        }
    }
    toks.concat()
}

/// The engine request `pfq run` makes for `query`, with this test's
/// budgets and capped sampling knobs.
fn request<'a>(
    dq: &'a DatalogQuery,
    fq: Option<&'a ForeverQuery>,
    file: &'a PfqFile,
    query: &Query,
) -> Result<EvalRequest<'a>, String> {
    let db = &file.database;
    let small_eps = |e: f64| if e > 0.0 && e < 0.2 { 0.2 } else { e };
    let small_delta = |d: f64| if d > 0.0 && d < 0.1 { 0.1 } else { d };
    let need = |present: bool, what: &str| present.then_some(()).ok_or(what.to_string());
    let forever = || fq.ok_or("kernel queries need @kernel directives".to_string());
    let request = match query.semantics {
        Semantics::InflationaryExact => {
            need(file.program.is_some(), "no @program")?;
            EvalRequest::inflationary(dq, db).with_strategy(Strategy::ExactTree)
        }
        Semantics::InflationarySample {
            epsilon,
            delta,
            seed,
        } => {
            need(file.program.is_some(), "no @program")?;
            EvalRequest::inflationary(dq, db)
                .with_strategy(Strategy::SampleFixpoint)
                .with_epsilon_delta(small_eps(epsilon), small_delta(delta))
                .with_seed(seed)
        }
        Semantics::NoninflationaryExact => {
            need(file.program.is_some(), "no @program")?;
            EvalRequest::noninflationary(dq, db).with_strategy(Strategy::ExactChain)
        }
        Semantics::TimeAverage { steps, seed } => {
            need(file.program.is_some(), "no @program")?;
            EvalRequest::noninflationary(dq, db)
                .with_strategy(Strategy::TimeAverage {
                    steps: steps.min(200),
                })
                .with_seed(seed)
        }
        Semantics::BurnIn {
            burn_in,
            epsilon,
            delta,
            seed,
        } => {
            need(file.program.is_some(), "no @program")?;
            EvalRequest::noninflationary(dq, db)
                .with_strategy(Strategy::BurnInSample {
                    burn_in: Some(burn_in.min(20)),
                })
                .with_epsilon_delta(small_eps(epsilon), small_delta(delta))
                .with_seed(seed)
        }
        Semantics::KernelExact => {
            EvalRequest::forever(forever()?, db).with_strategy(Strategy::ExactChain)
        }
        Semantics::KernelTimeAverage { steps, seed } => EvalRequest::forever(forever()?, db)
            .with_strategy(Strategy::TimeAverage {
                steps: steps.min(200),
            })
            .with_seed(seed),
        Semantics::KernelBurnIn {
            burn_in,
            epsilon,
            delta,
            seed,
        } => EvalRequest::forever(forever()?, db)
            .with_strategy(Strategy::BurnInSample {
                burn_in: Some(burn_in.min(20)),
            })
            .with_epsilon_delta(small_eps(epsilon), small_delta(delta))
            .with_seed(seed),
    };
    Ok(request
        .with_exact_budget(NODE_BUDGET)
        .with_chain_budget(CHAIN_BUDGET)
        .with_threads(1))
}

/// What a mutant came to: a parse error, or whether `pfq plan` and
/// `pfq run` each answered (`true`) or returned an error (`false`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Outcome {
    ParseError,
    Parsed { planned: bool, ran: bool },
}

/// Parses `src`, then plans it as `pfq plan` does and runs every query
/// as `pfq run` does, on one engine; a run stops at its first error.
fn drive(src: &str) -> Outcome {
    let Ok(file) = parse_file(src) else {
        return Outcome::ParseError;
    };
    let planned = pfq_cli::plan(&file, &RunOptions::default().with_threads(1)).is_ok();
    let mut engine = Engine::new();
    let ran = file.queries.iter().all(|query| {
        let event = Event::tuple_in(query.relation.clone(), query.tuple.clone());
        let dq = DatalogQuery::new(file.program.clone().unwrap_or_default(), event.clone());
        let fq = file
            .kernels
            .clone()
            .map(|kernels| ForeverQuery::new(kernels, event));
        request(&dq, fq.as_ref(), &file, query).is_ok_and(|r| engine.run(&r).is_ok())
    });
    Outcome::Parsed { planned, ran }
}

#[test]
fn token_mutants_of_every_source_error_without_panicking() {
    let sources = sources();
    let tokenized: Vec<Vec<String>> = sources.iter().map(|(_, src)| tokens(src)).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(2010);
    let mut panics = Vec::new();
    let mut outcomes = std::collections::BTreeMap::new();
    for (s, (name, _)) in sources.iter().enumerate() {
        // Replacement tokens come from the other sources.
        let pool: Vec<String> = tokenized
            .iter()
            .enumerate()
            .filter(|&(o, _)| o != s)
            .flat_map(|(_, toks)| toks.iter().filter(|t| !t.trim().is_empty()).cloned())
            .collect();
        for m in 0..MUTANTS_PER_SOURCE {
            let mutant = mutate(&tokenized[s], &pool, &mut rng);
            match catch_unwind(AssertUnwindSafe(|| drive(&mutant))) {
                Ok(outcome) => *outcomes.entry(outcome).or_insert(0) += 1,
                Err(_) => panics.push(format!("{name} mutant {m}:\n{mutant}")),
            }
        }
    }
    assert!(
        panics.is_empty(),
        "{} mutant(s) panicked:\n\n{}",
        panics.len(),
        panics.join("\n\n")
    );
    // The campaign reaches every outcome: mutants fail to parse, fail
    // to plan and to run, and still answer both.
    for outcome in [
        Outcome::ParseError,
        Outcome::Parsed {
            planned: false,
            ran: false,
        },
        Outcome::Parsed {
            planned: true,
            ran: true,
        },
    ] {
        assert!(outcomes.contains_key(&outcome), "{outcomes:?}");
    }
}

#[test]
fn tokens_round_trip_the_source() {
    for (_, src) in sources() {
        assert_eq!(tokens(&src).concat(), src);
    }
}
