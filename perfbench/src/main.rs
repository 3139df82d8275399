//! Seeded end-to-end and per-layer benchmark for `pfq`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One operation is what `pfq run file.pfq` does: parse a generated
//! `.pfq` source, then plan and execute each of its queries on one fresh
//! engine. A single client runs operations back to back (closed loop)
//! for `--seconds`, cycling through a pool of seeded inputs, and checks
//! every answer against a brute-force reference. With `--trace 0` the
//! last stdout line carries the end-to-end metrics; with `--trace 1` it
//! carries per-layer metrics built from spans recorded around each call
//! into a layer.

mod workloads;

use pfq_cli::{parse_file, Semantics};
use pfq_core::engine::{Engine, EvalRequest, Strategy};
use pfq_core::{CacheStats, DatalogQuery, Event, ForeverQuery};
use pfq_data::Database;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Input, Rng, Workload, EPSILON, WORKLOADS};

/// Set-up runs this many times per run and its median is reported.
const SETUP_REPEATS: u32 = 15;
/// Pool inputs executed once during set-up, before any timing.
const WARMUP_OPS: usize = 8;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or(format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be a positive number")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The layer a span covers. `Op` spans enclose one operation; the other
/// spans of that operation are its children.
#[derive(Clone, Copy)]
enum Layer {
    Op,
    /// `.pfq` text → database, program, kernels and queries.
    Parse,
    /// The planner, including its exact-tree or chain probes.
    Plan,
    /// The evaluator the plan names.
    Execute,
    /// Dropping the engine and its interned states and memos.
    Teardown,
}

struct Span {
    op: usize,
    layer: Layer,
    start: Instant,
    end: Instant,
}

/// Spans kept in memory while tracing; recording is a no-op otherwise.
struct Tracer {
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    fn push(&mut self, op: usize, layer: Layer, start: Instant, end: Instant) {
        if self.on {
            self.spans.push(Span {
                op,
                layer,
                start,
                end,
            });
        }
    }

    fn record<T>(&mut self, op: usize, layer: Layer, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.push(op, layer, start, Instant::now());
        out
    }
}

/// Work counters of one operation: its engine's cache statistics and the
/// trials its sampling plans drew. They depend on the input, not timing.
#[derive(Clone, Copy, Default)]
struct Counters {
    cache: CacheStats,
    samples: u64,
}

/// One answer: the value and whether a sampling plan produced it.
struct Answer {
    value: f64,
    sampled: bool,
}

fn request<'a>(
    semantics: &Semantics,
    planned: bool,
    dq: &'a DatalogQuery,
    fq: Option<&'a ForeverQuery>,
    db: &'a Database,
) -> Result<EvalRequest<'a>, String> {
    let pick = |forced| if planned { Strategy::Auto } else { forced };
    let request = match (semantics, fq) {
        (Semantics::InflationaryExact, _) => {
            EvalRequest::inflationary(dq, db).with_strategy(pick(Strategy::ExactTree))
        }
        (
            Semantics::InflationarySample {
                epsilon,
                delta,
                seed,
            },
            _,
        ) => EvalRequest::inflationary(dq, db)
            .with_strategy(pick(Strategy::SampleFixpoint))
            .with_epsilon_delta(*epsilon, *delta)
            .with_seed(*seed),
        (Semantics::KernelExact, Some(fq)) => {
            EvalRequest::forever(fq, db).with_strategy(pick(Strategy::ExactChain))
        }
        _ => return Err("directive not used by this benchmark".into()),
    };
    // One sampling thread and the full Hoeffding sample count keep the
    // work per operation independent of core count and of the answer.
    Ok(request.with_threads(1).with_adaptive(false))
}

/// Runs one operation: parse, then plan and execute every query on a
/// fresh engine.
fn run_op(
    input: &Input,
    planned: bool,
    op: usize,
    tracer: &mut Tracer,
) -> Result<(Vec<Answer>, Counters), String> {
    let file = tracer
        .record(op, Layer::Parse, || parse_file(&input.source))
        .map_err(|e| e.to_string())?;
    let mut engine = Engine::new();
    let mut answers = Vec::new();
    let mut counters = Counters::default();
    for query in &file.queries {
        let event = Event::tuple_in(query.relation.clone(), query.tuple.clone());
        let fq = match query.semantics {
            Semantics::KernelExact => file
                .kernels
                .clone()
                .map(|k| ForeverQuery::new(k, event.clone())),
            _ => None,
        };
        let dq = DatalogQuery::new(file.program.clone().unwrap_or_default(), event);
        let request = request(&query.semantics, planned, &dq, fq.as_ref(), &file.database)?;
        let plan = tracer
            .record(op, Layer::Plan, || engine.plan(&request))
            .map_err(|e| e.to_string())?;
        let outcome = tracer
            .record(op, Layer::Execute, || engine.execute(&request, &plan))
            .map_err(|e| e.to_string())?;
        if let Some(report) = &outcome.report {
            counters.samples += report.samples as u64;
        }
        answers.push(Answer {
            value: outcome.value.to_f64(),
            sampled: outcome.report.is_some(),
        });
    }
    counters.cache = engine.stats();
    tracer.record(op, Layer::Teardown, || drop(engine));
    Ok((answers, counters))
}

/// Whether every answer matches its reference: exact plans to float
/// precision, sampling plans within 2ε.
fn check(input: &Input, answers: &[Answer]) -> Result<(), String> {
    if answers.len() != input.expected.len() {
        return Err(format!(
            "{} answers for {} queries",
            answers.len(),
            input.expected.len()
        ));
    }
    for (a, &want) in answers.iter().zip(&input.expected) {
        let tolerance = if a.sampled { 2.0 * EPSILON } else { 1e-9 };
        if a.value.is_nan() || (a.value - want).abs() > tolerance {
            return Err(format!("answer {} but reference {want}", a.value));
        }
    }
    Ok(())
}

/// Generates the pool, parses every source once and runs the first few
/// inputs, so allocator and lazy state are warm before timing. Appends
/// its wall time to `times`.
fn setup(workload: &Workload, seed: u64, times: &mut Vec<f64>) -> Result<Vec<Input>, String> {
    let start = Instant::now();
    let mut rng = Rng::new(seed, workload.name);
    let pool: Vec<Input> = (0..workload.pool)
        .map(|_| (workload.generate)(&mut rng))
        .collect();
    for input in &pool {
        parse_file(&input.source).map_err(|e| e.to_string())?;
    }
    let mut tracer = Tracer {
        on: false,
        spans: Vec::new(),
    };
    for input in pool.iter().take(WARMUP_OPS) {
        run_op(input, workload.planned, 0, &mut tracer)?;
    }
    times.push(start.elapsed().as_secs_f64());
    Ok(pool)
}

/// Linear-interpolated quantile.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Each input's fastest time over its runs, where operation `op` ran
/// input `op % inputs`. Failed operations are infinite, so an input that
/// never completed is left out.
fn best_per_input(times: impl Iterator<Item = f64>, inputs: usize) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; inputs];
    for (op, t) in times.enumerate() {
        best[op % inputs] = best[op % inputs].min(t);
    }
    best.retain(|t| t.is_finite());
    best
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.map(|w| w.name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let workload = args.workload;

    let mut setup_times = Vec::new();
    let pool = match setup(workload, args.seed, &mut setup_times) {
        Ok(pool) => pool,
        Err(e) => {
            eprintln!("error: set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Closed loop, one client: operation `op` runs pool input
    // `op % pool.len()`, so each input recurs spread over the run.
    let mut tracer = Tracer {
        on: args.trace,
        spans: Vec::new(),
    };
    let mut op_ms = Vec::new();
    let mut counters: Vec<Option<Counters>> = vec![None; pool.len()];
    let (mut attempted, mut failed) = (0usize, 0usize);
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    while started.elapsed() < budget {
        // The other set-ups run between operations, spread evenly over the
        // run, so their median samples the host at several moments.
        let repeats = setup_times.len() as u32;
        if repeats < SETUP_REPEATS && started.elapsed() >= budget * repeats / SETUP_REPEATS {
            if let Err(e) = setup(workload, args.seed, &mut setup_times) {
                eprintln!("error: set-up failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        let index = attempted % pool.len();
        let begin = Instant::now();
        let result = run_op(&pool[index], workload.planned, attempted, &mut tracer);
        let end = Instant::now();
        tracer.push(attempted, Layer::Op, begin, end);
        let verdict = result.and_then(|(answers, work)| {
            counters[index].get_or_insert(work);
            check(&pool[index], &answers)
        });
        op_ms.push(match verdict {
            Ok(()) => ms(end - begin),
            Err(e) => {
                if failed < 5 {
                    eprintln!("operation {attempted} (input {index}) failed: {e}");
                }
                failed += 1;
                f64::INFINITY
            }
        });
        attempted += 1;
    }
    eprintln!(
        "{}: {attempted} operations over {} inputs, {failed} failed",
        workload.name,
        pool.len().min(attempted)
    );

    // The host's speed drifts by tens of percent over seconds, so each
    // input's time is the fastest of its runs (the one least disturbed),
    // and metrics summarise those per-input times.
    let latency = best_per_input(op_ms.iter().copied(), pool.len());
    if latency.is_empty() {
        eprintln!("error: no operation completed");
        return ExitCode::FAILURE;
    }
    let metrics = if args.trace {
        // Time per operation in each layer; an operation's self time
        // (building requests) is reported as client time.
        let mut layer_ms = vec![[0.0; 5]; attempted];
        for span in &tracer.spans {
            layer_ms[span.op][span.layer as usize] += ms(span.end - span.start);
        }
        let layer = |f: fn(&[f64; 5]) -> f64| {
            let times = (layer_ms.iter().zip(&op_ms)).map(|(t, op)| {
                if op.is_finite() {
                    f(t)
                } else {
                    f64::INFINITY
                }
            });
            mean(&best_per_input(times, pool.len()))
        };
        let work: Vec<Counters> = counters.iter().flatten().copied().collect();
        let per_input = |f: fn(&Counters) -> u64| {
            work.iter().map(|c| f(c) as f64).sum::<f64>() / work.len() as f64
        };
        let hits = per_input(|c| c.cache.step_hits + c.cache.result_hits + c.cache.kernel_hits);
        let lookups = per_input(|c| {
            let s = &c.cache;
            s.step_hits
                + s.step_misses
                + s.result_hits
                + s.result_misses
                + s.kernel_hits
                + s.kernel_misses
        });
        let execute_ms = layer(|t| t[Layer::Execute as usize]);
        let samples = per_input(|c| c.samples);
        vec![
            ("parse_ms", layer(|t| t[Layer::Parse as usize]), "ms"),
            ("plan_ms", layer(|t| t[Layer::Plan as usize]), "ms"),
            ("execute_ms", execute_ms, "ms"),
            ("teardown_ms", layer(|t| t[Layer::Teardown as usize]), "ms"),
            (
                "client_ms",
                layer(|t| t[0] - t[1..].iter().sum::<f64>()),
                "ms",
            ),
            (
                "tree_nodes",
                per_input(|c| c.cache.engine_states as u64),
                "count",
            ),
            ("row_evals", per_input(|c| c.cache.step_misses), "count"),
            ("row_hits", per_input(|c| c.cache.step_hits), "count"),
            ("result_hits", per_input(|c| c.cache.result_hits), "count"),
            (
                "chain_states",
                per_input(|c| c.cache.db_states as u64),
                "count",
            ),
            ("kernel_rows", per_input(|c| c.cache.kernel_misses), "count"),
            (
                "kernel_row_hits",
                per_input(|c| c.cache.kernel_hits),
                "count",
            ),
            (
                "memo_hit_ratio",
                if lookups > 0.0 { hits / lookups } else { 0.0 },
                "ratio",
            ),
            (
                "state_kib",
                per_input(|c| c.cache.approx_bytes as u64) / 1024.0,
                "KiB",
            ),
            ("samples", samples, "count"),
            ("samples_per_s", samples / (execute_ms / 1e3), "1/s"),
        ]
    } else {
        vec![
            ("latency_p50_ms", quantile(&latency, 0.5), "ms"),
            ("latency_p75_ms", quantile(&latency, 0.75), "ms"),
            ("setup_s", quantile(&setup_times, 0.5), "s"),
        ]
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
