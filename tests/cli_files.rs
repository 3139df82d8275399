//! The `.pfq` example files in the repository stay valid and produce the
//! documented exact answers.

use pfq_cli::{parse_file, render_results, PfqFile, QueryResult, RunOptions};
use std::path::Path;

fn repo_example(name: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("examples")
        .join(name)
}

/// Reads and parses a `.pfq` file, as `pfq run` and `pfq plan` do.
fn load(path: &Path) -> Result<PfqFile, Box<dyn std::error::Error>> {
    parse_file(&std::fs::read_to_string(path)?)
}

fn run_path(
    path: &Path,
    options: &RunOptions,
) -> Result<Vec<QueryResult>, Box<dyn std::error::Error>> {
    pfq_cli::run(&load(path)?, options)
}

#[test]
fn fork_pfq_runs_with_documented_answers() {
    let results = run_path(&repo_example("fork.pfq"), &RunOptions::default()).unwrap();
    assert_eq!(results.len(), 2);
    // Weights 1:3 toward u, so Pr[w] = 1/4 exactly.
    assert!(
        results[0].value.starts_with("p = 1/4"),
        "{}",
        results[0].value
    );
    assert!(results[1].value.contains("samples"), "{}", results[1].value);
}

#[test]
fn pagerank_pfq_is_exact_and_sums_to_one() {
    let results = run_path(&repo_example("pagerank.pfq"), &RunOptions::default()).unwrap();
    assert_eq!(results.len(), 4);
    // The three exact long-run probabilities sum to 1.
    let mut total = pfq::num::Ratio::zero();
    for r in &results[..3] {
        let frac = r
            .value
            .strip_prefix("p = ")
            .and_then(|s| s.split_whitespace().next())
            .unwrap();
        total = total.add_ref(&pfq::num::Ratio::parse(frac).unwrap());
    }
    assert!(total.is_one(), "exact PageRank masses must sum to 1");
    // Cross-check node 0 against the library's own PageRank evaluator.
    let g = pfq::workloads::graphs::WeightedGraph {
        n: 3,
        edges: vec![(0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 0, 1)],
    };
    let (q, db) = pfq::workloads::pagerank::pagerank_query(&g, pfq::num::Ratio::new(3, 20), 0, 0);
    let expected = pfq::lang::exact_noninflationary::evaluate(
        &q,
        &db,
        pfq::lang::exact_noninflationary::ChainBudget::default(),
        &mut pfq::lang::EvalCache::default(),
    )
    .unwrap();
    assert!(
        results[0].value.starts_with(&format!("p = {expected}")),
        "{} vs {expected}",
        results[0].value
    );
}

#[test]
fn stats_demo_pfq_matches_golden_output() {
    // `pfq run --stats` output is byte-stable: exact queries carry no
    // wall-time fields, and every cache counter is deterministic. This
    // pins the whole stats surface against silent drift.
    let options = RunOptions {
        stats: true,
        ..RunOptions::default()
    };
    let results = run_path(&repo_example("stats_demo.pfq"), &options).unwrap();
    let rendered = render_results(&results);
    let golden = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests")
            .join("golden")
            .join("stats_demo.out"),
    )
    .unwrap();
    assert_eq!(
        rendered, golden,
        "stats output drifted from tests/golden/stats_demo.out; \
         if the change is intentional, regenerate with \
         `pfq run examples/stats_demo.pfq --stats`"
    );
}

/// Replaces the wall-time figure in sampled-result lines — the only
/// non-deterministic bytes `pfq run` emits — with a fixed token, so
/// sampled queries can be pinned by golden files too.
fn normalize(rendered: &str) -> String {
    rendered
        .split_inclusive('\n')
        .map(|line| match (line.rfind("; "), line.rfind(" ms on ")) {
            (Some(semi), Some(ms)) if semi < ms => {
                format!("{}; <time> ms on {}", &line[..semi], &line[ms + 7..])
            }
            _ => line.to_string(),
        })
        .collect()
}

/// Every `examples/*.pfq` file is pinned by a golden output under
/// `tests/golden/<stem>.out`, run deterministically (one worker thread,
/// the seeds baked into the files, wall times normalized). Regenerate
/// after an intentional output change with
/// `UPDATE_GOLDEN=1 cargo test --test cli_files`.
#[test]
fn every_example_pfq_matches_golden_output() {
    let examples = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    let golden_dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden");
    let mut covered = 0;
    let mut names: Vec<_> = std::fs::read_dir(&examples)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "pfq"))
        .collect();
    names.sort();
    for path in names {
        let stem = path.file_stem().unwrap().to_str().unwrap().to_string();
        let options = RunOptions {
            threads: 1,
            // stats_demo's golden pins the cache-statistics surface.
            stats: stem == "stats_demo",
            ..RunOptions::default()
        };
        let results =
            run_path(&path, &options).unwrap_or_else(|e| panic!("examples/{stem}.pfq failed: {e}"));
        let rendered = normalize(&render_results(&results));
        let golden_path = golden_dir.join(format!("{stem}.out"));
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::write(&golden_path, &rendered).unwrap();
            covered += 1;
            continue;
        }
        let golden = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
            panic!(
                "missing golden for examples/{stem}.pfq ({e}); \
                 regenerate with UPDATE_GOLDEN=1 cargo test --test cli_files"
            )
        });
        assert_eq!(
            rendered, golden,
            "examples/{stem}.pfq output drifted from tests/golden/{stem}.out; \
             if intentional, regenerate with UPDATE_GOLDEN=1 cargo test --test cli_files"
        );
        covered += 1;
    }
    assert!(
        covered >= 4,
        "expected at least 4 .pfq examples, saw {covered}"
    );
}

/// `pfq plan` is byte-deterministic — no evaluation runs, no wall
/// times — so each example's planner analysis is pinned verbatim under
/// `tests/golden/plan_<stem>.out`. Regenerate after an intentional
/// planner change with `UPDATE_GOLDEN=1 cargo test --test cli_files`.
#[test]
fn example_plans_match_golden_output() {
    let golden_dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden");
    for stem in ["coloring", "fork", "pagerank"] {
        let options = RunOptions::default().with_threads(1);
        let rendered = load(&repo_example(&format!("{stem}.pfq")))
            .and_then(|file| pfq_cli::plan(&file, &options))
            .unwrap_or_else(|e| panic!("pfq plan examples/{stem}.pfq failed: {e}"));
        let golden_path = golden_dir.join(format!("plan_{stem}.out"));
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::write(&golden_path, &rendered).unwrap();
            continue;
        }
        let golden = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
            panic!(
                "missing golden for pfq plan examples/{stem}.pfq ({e}); \
                 regenerate with UPDATE_GOLDEN=1 cargo test --test cli_files"
            )
        });
        assert_eq!(
            rendered, golden,
            "pfq plan examples/{stem}.pfq drifted from tests/golden/plan_{stem}.out; \
             if intentional, regenerate with UPDATE_GOLDEN=1 cargo test --test cli_files"
        );
    }
}

/// `pfq run --explain` attaches the executed plan under each result;
/// with one worker thread and the file-baked seeds, the whole surface
/// is golden-pinned (wall times normalized) under
/// `tests/golden/explain_<stem>.out`.
#[test]
fn example_explain_runs_match_golden_output() {
    let golden_dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden");
    for stem in ["coloring", "fork", "pagerank"] {
        let options = RunOptions::default().with_threads(1).with_explain(true);
        let results = run_path(&repo_example(&format!("{stem}.pfq")), &options)
            .unwrap_or_else(|e| panic!("examples/{stem}.pfq --explain failed: {e}"));
        assert!(
            results.iter().all(|r| r.plan.is_some()),
            "--explain must attach a plan to every {stem} result"
        );
        let rendered = normalize(&render_results(&results));
        let golden_path = golden_dir.join(format!("explain_{stem}.out"));
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::write(&golden_path, &rendered).unwrap();
            continue;
        }
        let golden = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
            panic!(
                "missing golden for examples/{stem}.pfq --explain ({e}); \
                 regenerate with UPDATE_GOLDEN=1 cargo test --test cli_files"
            )
        });
        assert_eq!(
            rendered, golden,
            "examples/{stem}.pfq --explain drifted from tests/golden/explain_{stem}.out; \
             if intentional, regenerate with UPDATE_GOLDEN=1 cargo test --test cli_files"
        );
    }
}

#[test]
fn coloring_pfq_is_uniform() {
    let results = run_path(&repo_example("coloring.pfq"), &RunOptions::default()).unwrap();
    assert_eq!(results.len(), 2);
    assert!(
        results[0].value.starts_with("p = 1/3"),
        "{}",
        results[0].value
    );
}

/// What `pfq run` prints after `error: ` (and exits 1 on) for `src`.
fn run_error(src: &str) -> String {
    let file = parse_file(src).expect("the source parses");
    match pfq_cli::run(&file, &RunOptions::default().with_threads(1)) {
        Ok(results) => panic!("expected an error, got {}", render_results(&results)),
        Err(e) => e.to_string(),
    }
}

/// `examples/coloring.pfq` with its exact query's event replaced.
fn coloring_with_event(event: &str) -> String {
    let src = std::fs::read_to_string(repo_example("coloring.pfq")).unwrap();
    let exact = "@query kernel exact event Color(1, 0)";
    assert!(src.contains(exact));
    src.replace(exact, &format!("@query kernel exact event {event}"))
}

/// A kernel writing 2-column tuples into a unary relation is not a
/// Definition 3.1 interpretation; it used to answer `p = 0`.
#[test]
fn ill_formed_kernel_is_an_error() {
    let src = "@relation W(node, w) {\n  (1, 1)\n  (2, 1)\n}\n\
               @relation Pick(node) {\n  (1)\n}\n\
               @kernel Pick := repair-key[@ w](W)\n\
               @query kernel exact event Pick(1)\n";
    assert_eq!(
        run_error(src),
        "schema mismatch in interpretation kernel result vs target relation: (node, w) vs (node)"
    );
}

/// A renaming onto a column the relation already has gives its result
/// two columns of one name; it used to panic.
#[test]
fn rename_onto_an_existing_column_is_an_error() {
    let src = "@relation E(i, j) {\n  (1, 2)\n}\n\
               @relation C(j) {\n  (1)\n}\n\
               @kernel C := project[j](rename[i->j](E))\n\
               @query kernel exact event C(1)\n";
    assert_eq!(run_error(src), "duplicate column \"j\" in rename result");
}

/// A projection that names a column twice used to panic.
#[test]
fn projection_repeating_a_column_is_an_error() {
    let src = "@relation C(i) {\n  (1)\n}\n\
               @kernel C := project[i, i](C)\n\
               @query kernel exact event C(1)\n";
    assert_eq!(
        run_error(src),
        "duplicate column \"i\" in projection result"
    );
}

/// A misspelled event relation used to answer `p = 0`.
#[test]
fn kernel_event_on_an_unknown_relation_is_an_error() {
    assert_eq!(
        run_error(&coloring_with_event("Colour(1, 0)")),
        "bad event: no relation named \"Colour\""
    );
}

/// An event tuple of the wrong arity used to answer `p = 0`.
#[test]
fn kernel_event_of_the_wrong_arity_is_an_error() {
    assert_eq!(
        run_error(&coloring_with_event("Color(1, 0, 5)")),
        "bad event: tuple (1, 0, 5) has arity 3, but Color(node, color) has arity 2"
    );
}

/// `examples/fork.pfq` with its exact query's event replaced.
fn fork_with_event(event: &str) -> String {
    let src = std::fs::read_to_string(repo_example("fork.pfq")).unwrap();
    let exact = "@query inflationary exact event C(w)";
    assert!(src.contains(exact));
    src.replace(exact, &format!("@query inflationary exact event {event}"))
}

/// A misspelled inflationary event relation used to answer `p = 0`.
#[test]
fn inflationary_event_on_an_unknown_relation_is_an_error() {
    assert_eq!(
        run_error(&fork_with_event("Colour(v)")),
        "bad event: no relation named \"Colour\""
    );
}

/// An inflationary event tuple of the wrong arity used to answer
/// `p = 0`. `C` is an IDB relation, declared with generated columns.
#[test]
fn inflationary_event_of_the_wrong_arity_is_an_error() {
    assert_eq!(
        run_error(&fork_with_event("C(v, w)")),
        "bad event: tuple (v, w) has arity 2, but C(c0) has arity 1"
    );
}

/// What `pfq run` and `pfq plan` print after `error: ` (and exit 1 on)
/// for a source that does not parse.
fn parse_error(src: &str) -> String {
    match parse_file(src) {
        Ok(_) => panic!("expected a parse error"),
        Err(e) => e.to_string(),
    }
}

/// A parse error inside `@program` reports its file line and column,
/// not its position within the block.
#[test]
fn program_parse_error_reports_the_file_line() {
    let src = "% header\n\
               @relation E(i, j) {\n  (1, 2)\n}\n\
               @program {\n  T(X, Y) :- E(X, Y).\n\n  T(X, Z) :- T(X, Y) E(Y, Z).\n}\n\
               @query inflationary exact event T(1, 2)\n";
    assert_eq!(
        parse_error(src),
        "parse error at 8:22: expected `.` at end of rule"
    );
}

const OVERSIZED: &str = "99999999999999999999999999999";

/// An integer literal beyond `i64` is an error wherever it appears; it
/// used to parse as a string constant.
#[test]
fn oversized_literal_in_a_relation_row_is_an_error() {
    let src = format!(
        "@relation E(i, j) {{\n  (1, 2)\n  (1, {OVERSIZED})\n}}\n\
         @program {{\n  T(X, Y) :- E(X, Y).\n}}\n\
         @query inflationary exact event T(1, 2)\n"
    );
    assert_eq!(parse_error(&src), "line 3: integer literal overflows i64");
}

#[test]
fn oversized_literal_in_a_program_fact_is_an_error() {
    let src = format!(
        "@relation E(i, j) {{\n  (1, 2)\n}}\n\
         @program {{\n  C({OVERSIZED}).\n}}\n\
         @query inflationary exact event C(1)\n"
    );
    assert_eq!(
        parse_error(&src),
        "parse error at 5:24: integer literal overflows i64"
    );
}

#[test]
fn oversized_literal_in_a_kernel_predicate_is_an_error() {
    let src = format!(
        "@relation C(i) {{\n  (1)\n}}\n\
         @kernel C := select[i = {OVERSIZED}](C)\n\
         @query kernel exact event C(1)\n"
    );
    assert_eq!(
        parse_error(&src),
        "line 4: kernel expression: at byte 11: integer literal overflows i64"
    );
}

#[test]
fn oversized_literal_in_a_query_event_is_an_error() {
    let src = format!(
        "@relation E(i, j) {{\n  (1, 2)\n}}\n\
         @program {{\n  T(X, Y) :- E(X, Y).\n}}\n\
         @query inflationary exact event T(1, {OVERSIZED})\n"
    );
    assert_eq!(parse_error(&src), "line 7: integer literal overflows i64");
}

/// A relation header that names a column twice used to panic.
#[test]
fn relation_header_repeating_a_column_is_an_error() {
    let src = "@relation E(i, i) {\n  (1, 2)\n}\n\
               @relation C(i) {\n  (1)\n}\n\
               @kernel C := project[i](C)\n\
               @query kernel exact event C(1)\n";
    assert_eq!(
        parse_error(src),
        "line 1: duplicate column \"i\" in @relation E"
    );
}

/// A second `@relation C` used to replace the first without a word.
#[test]
fn duplicate_relation_is_an_error() {
    let src = "@relation C(i) {\n  (1)\n}\n\
               @relation C(i) {\n  (2)\n}\n\
               @kernel C := C\n\
               @query kernel exact event C(1)\n";
    assert_eq!(parse_error(src), "line 4: duplicate @relation C");
}

/// A second `@kernel C` used to replace the first without a word.
#[test]
fn duplicate_kernel_is_an_error() {
    let src = "@relation C(i) {\n  (1)\n}\n\
               @relation E(i, j) {\n  (1, 2)\n}\n\
               @kernel C := C\n\
               @kernel C := rename[j->i](project[j](C join E))\n\
               @query kernel exact event C(1)\n";
    assert_eq!(parse_error(src), "line 8: duplicate @kernel C");
}
