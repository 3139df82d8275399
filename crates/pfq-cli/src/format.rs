//! Parsing of `.pfq` files: `@relation` blocks, one `@program` block,
//! and `@query` directives.

use pfq_algebra::Interpretation;
use pfq_data::{Database, Relation, Schema, Tuple, Value};
use pfq_datalog::{DatalogError, Program};
use pfq_num::Ratio;

/// How a query should be evaluated.
#[derive(Clone, Debug, PartialEq)]
pub enum Semantics {
    /// Proposition 4.4: exact computation-tree traversal.
    InflationaryExact,
    /// Theorem 4.3: absolute `(ε, δ)` sampling.
    InflationarySample {
        /// Absolute error bound ε.
        epsilon: f64,
        /// Failure probability δ.
        delta: f64,
        /// RNG seed (runs are reproducible).
        seed: u64,
    },
    /// Theorem 5.5: explicit chain + exact long-run analysis.
    NoninflationaryExact,
    /// One long walk's time average.
    TimeAverage {
        /// Number of kernel steps to walk.
        steps: usize,
        /// RNG seed.
        seed: u64,
    },
    /// Theorem 5.6: restart sampling with a fixed burn-in.
    BurnIn {
        /// Kernel steps per sample before observing.
        burn_in: usize,
        /// Absolute error bound ε.
        epsilon: f64,
        /// Failure probability δ.
        delta: f64,
        /// RNG seed.
        seed: u64,
    },
    /// Like [`Semantics::NoninflationaryExact`] but over the `@kernel`
    /// interpretation instead of a translated `@program`.
    KernelExact,
    /// Like [`Semantics::TimeAverage`] over the `@kernel` interpretation.
    KernelTimeAverage {
        /// Number of kernel steps to walk.
        steps: usize,
        /// RNG seed.
        seed: u64,
    },
    /// Like [`Semantics::BurnIn`] over the `@kernel` interpretation.
    KernelBurnIn {
        /// Kernel steps per sample before observing.
        burn_in: usize,
        /// Absolute error bound ε.
        epsilon: f64,
        /// Failure probability δ.
        delta: f64,
        /// RNG seed.
        seed: u64,
    },
}

/// One `@query` directive.
#[derive(Clone, Debug, PartialEq)]
pub struct Query {
    /// Evaluation mode.
    pub semantics: Semantics,
    /// The observed relation.
    pub relation: String,
    /// The observed ground tuple.
    pub tuple: Tuple,
    /// The directive's source text (for echoing in reports).
    pub source: String,
}

/// A parsed `.pfq` file.
#[derive(Clone, Debug)]
pub struct PfqFile {
    /// The declared base relations.
    pub database: Database,
    /// The datalog program, if an `@program` block is present.
    pub program: Option<Program>,
    /// The transition kernel built from `@kernel` directives, if any.
    pub kernels: Option<Interpretation>,
    /// The queries, in file order.
    pub queries: Vec<Query>,
}

/// A parse error with a line number.
#[derive(Clone, Debug, PartialEq)]
pub struct FormatError {
    /// 1-based source line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for FormatError {}

fn err(line: usize, message: impl Into<String>) -> FormatError {
    FormatError {
        line,
        message: message.into(),
    }
}

/// Strips a `%` comment (not inside quotes) and trailing whitespace.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, ch) in line.char_indices() {
        match ch {
            '"' => in_str = !in_str,
            '%' if !in_str => return line[..i].trim_end(),
            _ => {}
        }
    }
    line.trim_end()
}

/// Parses one constant value: integer, `a/b` rational, quoted string, or
/// bare identifier (taken as a string constant).
fn parse_value(token: &str, line: usize) -> Result<Value, FormatError> {
    let token = token.trim();
    if token.is_empty() {
        return Err(err(line, "empty value"));
    }
    if let Some(stripped) = token.strip_prefix('"') {
        let inner = stripped
            .strip_suffix('"')
            .ok_or_else(|| err(line, format!("unterminated string {token:?}")))?;
        return Ok(Value::str(inner));
    }
    if token.contains('/') {
        let r = Ratio::parse(token).ok_or_else(|| err(line, format!("bad rational {token:?}")))?;
        return Ok(Value::ratio(r));
    }
    if let Ok(i) = token.parse::<i64>() {
        return Ok(Value::int(i));
    }
    let digits = token.strip_prefix('-').unwrap_or(token);
    if !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()) {
        return Err(err(line, "integer literal overflows i64"));
    }
    if token.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        return Ok(Value::str(token));
    }
    Err(err(line, format!("cannot parse value {token:?}")))
}

/// Splits `name(c1, c2, …)` into the name and comma-separated parts;
/// `name` alone yields no parts.
fn split_call(text: &str, line: usize) -> Result<(String, Vec<String>), FormatError> {
    let text = text.trim();
    match text.find('(') {
        None => Ok((text.to_string(), Vec::new())),
        Some(open) => {
            let name = text[..open].trim().to_string();
            let rest = text[open + 1..]
                .strip_suffix(')')
                .ok_or_else(|| err(line, format!("missing `)` in {text:?}")))?;
            let parts = if rest.trim().is_empty() {
                Vec::new()
            } else {
                rest.split(',').map(|s| s.trim().to_string()).collect()
            };
            Ok((name, parts))
        }
    }
}

/// Parses a `.pfq` source file.
pub fn parse_file(src: &str) -> Result<PfqFile, Box<dyn std::error::Error>> {
    let mut database = Database::new();
    let mut program_src: Option<(usize, String)> = None;
    let mut kernels: Option<Interpretation> = None;
    let mut queries = Vec::new();

    let lines: Vec<&str> = src.lines().collect();
    let mut i = 0usize;
    while i < lines.len() {
        let line_no = i + 1;
        let line = strip_comment(lines[i]).trim();
        i += 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("@relation") {
            let header = rest
                .trim()
                .strip_suffix('{')
                .ok_or_else(|| err(line_no, "expected `{` after @relation header"))?;
            let (name, cols) = split_call(header, line_no)?;
            if cols.is_empty() && !header.contains('(') {
                return Err(err(line_no, "relation header needs a column list").into());
            }
            if database.get(&name).is_some() {
                return Err(err(line_no, format!("duplicate @relation {name}")).into());
            }
            let schema = Schema::try_new(cols).map_err(|column| {
                err(
                    line_no,
                    format!("duplicate column {column:?} in @relation {name}"),
                )
            })?;
            let mut rel = Relation::empty(schema.clone());
            // Tuple lines until `}`.
            loop {
                if i >= lines.len() {
                    return Err(err(line_no, "unterminated @relation block").into());
                }
                let tline_no = i + 1;
                let tline = strip_comment(lines[i]).trim().to_string();
                i += 1;
                if tline == "}" {
                    break;
                }
                if tline.is_empty() {
                    continue;
                }
                let inner = tline
                    .strip_prefix('(')
                    .and_then(|s| s.strip_suffix(')'))
                    .ok_or_else(|| err(tline_no, format!("expected `(v, …)` got {tline:?}")))?;
                let values: Vec<Value> = if inner.trim().is_empty() {
                    Vec::new()
                } else {
                    inner
                        .split(',')
                        .map(|tok| parse_value(tok, tline_no))
                        .collect::<Result<_, _>>()?
                };
                if values.len() != schema.arity() {
                    return Err(err(
                        tline_no,
                        format!(
                            "tuple has {} values but {name} has arity {}",
                            values.len(),
                            schema.arity()
                        ),
                    )
                    .into());
                }
                rel.insert(Tuple::new(values));
            }
            database.set(name, rel);
        } else if let Some(rest) = line.strip_prefix("@program") {
            if !rest.trim().starts_with('{') {
                return Err(err(line_no, "expected `{` after @program").into());
            }
            if program_src.is_some() {
                return Err(err(line_no, "duplicate @program block").into());
            }
            // One body line per file line, indentation kept, so a parse
            // error's position maps back onto the file.
            let mut body = String::new();
            loop {
                if i >= lines.len() {
                    return Err(err(line_no, "unterminated @program block").into());
                }
                let pline = strip_comment(lines[i]);
                i += 1;
                if pline.trim() == "}" {
                    break;
                }
                body.push_str(pline);
                body.push('\n');
            }
            program_src = Some((line_no, body));
        } else if let Some(rest) = line.strip_prefix("@query") {
            queries.push(parse_query(rest.trim(), line_no)?);
        } else if let Some(rest) = line.strip_prefix("@kernel") {
            let (target, expr_src) = rest
                .split_once(":=")
                .ok_or_else(|| err(line_no, "expected `@kernel Rel := <expression>`"))?;
            let expr = pfq_algebra::parser::parse_expr(expr_src.trim())
                .map_err(|e| err(line_no, format!("kernel expression: {e}")))?;
            let target = target.trim();
            let kernels = kernels.get_or_insert_with(Interpretation::new);
            if kernels.kernel(target).is_some() {
                return Err(err(line_no, format!("duplicate @kernel {target}")).into());
            }
            kernels.define(target, expr);
        } else {
            return Err(err(line_no, format!("unexpected directive: {line:?}")).into());
        }
    }

    let program = match program_src {
        Some((block_line, src)) => Some(pfq_datalog::parse_program(&src).map_err(|e| match e {
            DatalogError::Parse { line, col, message } => DatalogError::Parse {
                line: block_line + line,
                col,
                message,
            },
            other => other,
        })?),
        None => None,
    };
    if program.is_none() && kernels.is_none() {
        return Err(err(
            lines.len().max(1),
            "missing @program block or @kernel directives",
        )
        .into());
    }
    Ok(PfqFile {
        database,
        program,
        kernels,
        queries,
    })
}

fn parse_query(text: &str, line: usize) -> Result<Query, FormatError> {
    let words: Vec<&str> = text.split_whitespace().collect();
    let mut pos = 0usize;
    let next = |pos: &mut usize| -> Result<&str, FormatError> {
        let w = words
            .get(*pos)
            .copied()
            .ok_or_else(|| err(line, "truncated @query directive"))?;
        *pos += 1;
        Ok(w)
    };
    let parse_f64 = |w: &str| -> Result<f64, FormatError> {
        w.parse()
            .map_err(|_| err(line, format!("expected a number, got {w:?}")))
    };
    let parse_usize = |w: &str| -> Result<usize, FormatError> {
        w.parse()
            .map_err(|_| err(line, format!("expected an integer, got {w:?}")))
    };

    let family = next(&mut pos)?.to_string();
    let mode = next(&mut pos)?.to_string();

    // Keyword/value pairs until `event`.
    let mut epsilon = 0.05f64;
    let mut delta = 0.05f64;
    let mut seed = 0u64;
    let mut steps = 10_000usize;
    let mut burn_in = 100usize;
    // `burn-in` doubles as the mode word with its value right after it.
    if mode == "burn-in" || mode == "burnin" {
        burn_in = parse_usize(next(&mut pos)?)?;
    }
    loop {
        let w = next(&mut pos)?;
        match w {
            "event" => break,
            "epsilon" => epsilon = parse_f64(next(&mut pos)?)?,
            "delta" => delta = parse_f64(next(&mut pos)?)?,
            "seed" => seed = parse_usize(next(&mut pos)?)? as u64,
            "steps" => steps = parse_usize(next(&mut pos)?)?,
            "burn-in" | "burnin" => burn_in = parse_usize(next(&mut pos)?)?,
            other => return Err(err(line, format!("unknown @query option {other:?}"))),
        }
    }
    let event_text: String = words[pos..].join(" ");
    if event_text.is_empty() {
        return Err(err(line, "missing event atom"));
    }
    let (relation, parts) = split_call(&event_text, line)?;
    let values: Vec<Value> = parts
        .iter()
        .map(|p| parse_value(p, line))
        .collect::<Result<_, _>>()?;
    let tuple = Tuple::new(values);

    let semantics = match (family.as_str(), mode.as_str()) {
        ("inflationary", "exact") => Semantics::InflationaryExact,
        ("inflationary", "sample") => Semantics::InflationarySample {
            epsilon,
            delta,
            seed,
        },
        ("noninflationary", "exact") => Semantics::NoninflationaryExact,
        ("noninflationary", "time-average") => Semantics::TimeAverage { steps, seed },
        ("noninflationary", "burn-in") | ("noninflationary", "burnin") => Semantics::BurnIn {
            burn_in,
            epsilon,
            delta,
            seed,
        },
        ("kernel", "exact") => Semantics::KernelExact,
        ("kernel", "time-average") => Semantics::KernelTimeAverage { steps, seed },
        ("kernel", "burn-in") | ("kernel", "burnin") => Semantics::KernelBurnIn {
            burn_in,
            epsilon,
            delta,
            seed,
        },
        (f, m) => {
            return Err(err(line, format!("unknown query mode `{f} {m}`")));
        }
    };
    Ok(Query {
        semantics,
        relation,
        tuple,
        source: format!("@query {text}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfq_data::tuple;

    const SAMPLE: &str = r#"
% A walk on a fork.
@relation E(i, j, p) {
  (v, w, 1/2)
  (v, u, 1/2)   % weights normalize per source
}

@program {
  C(v).
  C2(X!, Y) @P :- C(X), E(X, Y, P).
  C(Y) :- C2(X, Y).
}

@query inflationary exact event C(w)
@query inflationary sample epsilon 0.1 delta 0.05 seed 7 event C(w)
"#;

    #[test]
    fn parses_full_file() {
        let f = parse_file(SAMPLE).unwrap();
        assert_eq!(f.database.get("E").unwrap().len(), 2);
        assert!(f
            .database
            .get("E")
            .unwrap()
            .contains(&tuple!["v", "w", Value::frac(1, 2)]));
        assert_eq!(f.program.as_ref().unwrap().rules.len(), 3);
        assert_eq!(f.queries.len(), 2);
        assert_eq!(f.queries[0].semantics, Semantics::InflationaryExact);
        assert_eq!(
            f.queries[1].semantics,
            Semantics::InflationarySample {
                epsilon: 0.1,
                delta: 0.05,
                seed: 7
            }
        );
        assert_eq!(f.queries[0].relation, "C");
        assert_eq!(f.queries[0].tuple, tuple!["w"]);
    }

    #[test]
    fn value_kinds() {
        assert_eq!(parse_value("42", 1).unwrap(), Value::int(42));
        assert_eq!(parse_value("-3", 1).unwrap(), Value::int(-3));
        assert_eq!(parse_value("17/20", 1).unwrap(), Value::frac(17, 20));
        assert_eq!(
            parse_value("\"hi there\"", 1).unwrap(),
            Value::str("hi there")
        );
        assert_eq!(parse_value("lakers", 1).unwrap(), Value::str("lakers"));
        assert!(parse_value("", 1).is_err());
        assert!(parse_value("a b", 1).is_err());
        assert!(parse_value("1/0", 1).is_err());
        let overflow = parse_value("99999999999999999999999999999", 1).unwrap_err();
        assert_eq!(overflow.message, "integer literal overflows i64");
    }

    #[test]
    fn query_modes() {
        let q = parse_query("noninflationary exact event Done(a)", 1).unwrap();
        assert_eq!(q.semantics, Semantics::NoninflationaryExact);
        let q = parse_query(
            "noninflationary time-average steps 500 seed 3 event Done",
            1,
        )
        .unwrap();
        assert_eq!(
            q.semantics,
            Semantics::TimeAverage {
                steps: 500,
                seed: 3
            }
        );
        assert_eq!(q.tuple, Tuple::new(Vec::new()));
        let q = parse_query(
            "noninflationary burn-in 25 epsilon 0.2 delta 0.1 seed 9 event C(1, 2)",
            1,
        )
        .unwrap();
        assert_eq!(
            q.semantics,
            Semantics::BurnIn {
                burn_in: 25,
                epsilon: 0.2,
                delta: 0.1,
                seed: 9
            }
        );
        assert_eq!(q.tuple, tuple![1, 2]);
    }

    #[test]
    fn errors_carry_lines() {
        let bad = "@relation E(i, j) {\n(1)\n}\n@program {\nC(1).\n}";
        let e = parse_file(bad).unwrap_err().to_string();
        assert!(e.contains("line 2"), "{e}");
        assert!(e.contains("arity"), "{e}");

        assert!(
            parse_file("@program {\nC(1).\n}\n@query bogus exact event C(1)")
                .unwrap_err()
                .to_string()
                .contains("unknown query mode")
        );
        assert!(parse_file("@nonsense")
            .unwrap_err()
            .to_string()
            .contains("unexpected"));
        assert!(parse_file("@relation E(i) {\n(1)\n}")
            .unwrap_err()
            .to_string()
            .contains("missing @program"));
    }

    #[test]
    fn comments_and_strings_interact() {
        assert_eq!(strip_comment("a % b"), "a");
        assert_eq!(strip_comment("\"a % b\""), "\"a % b\"");
        assert_eq!(strip_comment("x \"%\" % tail"), "x \"%\"");
    }

    #[test]
    fn unterminated_blocks() {
        assert!(parse_file("@relation E(i) {\n(1)")
            .unwrap_err()
            .to_string()
            .contains("unterminated"));
        assert!(parse_file("@program {\nC(1).")
            .unwrap_err()
            .to_string()
            .contains("unterminated"));
    }
}
