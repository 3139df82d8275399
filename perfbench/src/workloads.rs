//! Seeded workload generators. Each input is the text of a `.pfq` file
//! (the program receives nothing else) plus the reference probability of
//! every `@query` in it, computed here by brute force independently of
//! the program under test.

use std::fmt::Write;

/// ε of every sampling directive; answers from sampling plans are
/// accepted within `2ε` (Hoeffding puts a miss that wide below 1e-9).
pub const EPSILON: f64 = 0.15;
const DELTA: f64 = 0.05;

/// One generated `.pfq` file and its reference answers, in query order.
pub struct Input {
    pub source: String,
    pub expected: Vec<f64>,
}

/// A named stream of seeded inputs.
pub struct Workload {
    pub name: &'static str,
    /// Leave strategy choice to the planner (`Strategy::Auto`) instead of
    /// forcing the path each directive names, as `pfq run` does.
    pub planned: bool,
    /// Distinct inputs generated per run; the measured loop cycles them.
    pub pool: usize,
    pub generate: fn(&mut Rng) -> Input,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "sat_exact",
        planned: false,
        pool: 48,
        generate: sat,
    },
    Workload {
        name: "coloring_chain",
        planned: false,
        pool: 48,
        generate: coloring,
    },
    Workload {
        name: "reach_sample",
        planned: false,
        pool: 48,
        generate: layered_reach,
    },
    Workload {
        name: "reach_planned",
        planned: true,
        pool: 96,
        generate: cyclic_reach,
    },
];

/// SplitMix64: a tiny seeded generator, so inputs depend on nothing but
/// the seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: &str) -> Rng {
        let mut rng = Rng(seed);
        for b in stream.bytes() {
            rng.0 ^= u64::from(b);
            rng.next();
        }
        rng
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// `k` distinct values from `0..n` other than `except`.
    fn distinct(&mut self, k: usize, n: usize, except: Option<usize>) -> Vec<usize> {
        let mut out = Vec::with_capacity(k);
        while out.len() < k {
            let v = self.below(n);
            if Some(v) != except && !out.contains(&v) {
                out.push(v);
            }
        }
        out
    }
}

fn relation(out: &mut String, header: &str, rows: impl IntoIterator<Item = String>) {
    writeln!(out, "@relation {header} {{").unwrap();
    for row in rows {
        writeln!(out, "  ({row})").unwrap();
    }
    out.push_str("}\n");
}

const SAT_VARS: usize = 4;
const SAT_CLAUSES: usize = 10;
/// Holds the middle ~40% of random formulas.
const SAT_STEPS: std::ops::RangeInclusive<usize> = 78..=88;

/// Thm 4.1's 3-SAT reduction (repair-key variant) under Prop 4.4 exact
/// inflationary evaluation: `A` picks every variable's literal at once,
/// `R` walks the clause chain, and Pr[Done] = #SAT / 2ⁿ. Formulas are
/// drawn until the clause steps `R` takes, summed over all 2ⁿ worlds, fall
/// in `SAT_STEPS`, so every input costs about the same.
fn sat(rng: &mut Rng) -> Input {
    let (clauses, steps) = loop {
        let clauses: Vec<[i64; 3]> = (0..SAT_CLAUSES)
            .map(|_| {
                let vars = rng.distinct(3, SAT_VARS, None);
                [0, 1, 2].map(|i| {
                    let v = vars[i] as i64 + 1;
                    if rng.next() & 1 == 1 {
                        v
                    } else {
                        -v
                    }
                })
            })
            .collect();
        let steps: Vec<usize> = (0..1u32 << SAT_VARS)
            .map(|assignment| {
                let holds =
                    |lit: &i64| (assignment >> (lit.unsigned_abs() - 1) & 1 == 1) == (*lit > 0);
                clauses.iter().take_while(|c| c.iter().any(holds)).count()
            })
            .collect();
        if SAT_STEPS.contains(&steps.iter().sum()) {
            break (clauses, steps);
        }
    };
    let mut src = String::new();
    relation(
        &mut src,
        "O(c1, c2)",
        (0..SAT_CLAUSES).map(|k| format!("{k}, {}", k + 1)),
    );
    relation(
        &mut src,
        "Cl(c, l)",
        clauses
            .iter()
            .enumerate()
            .flat_map(|(k, c)| c.map(|lit| format!("{}, {lit}", k + 1))),
    );
    relation(
        &mut src,
        "AW(v, l)",
        (1..=SAT_VARS as i64).flat_map(|v| [format!("{v}, {v}"), format!("{v}, {}", -v)]),
    );
    writeln!(
        src,
        "@program {{\n  A(V!, L) :- AW(V, L).\n  R(0).\n  \
         R(C) :- R(Cp), O(Cp, C), Cl(C, L), A(V, L).\n  Done(a) :- R({SAT_CLAUSES}).\n}}\n\
         @query inflationary exact event Done(a)"
    )
    .unwrap();
    let satisfying = steps.iter().filter(|&&s| s == SAT_CLAUSES).count();
    Input {
        source: src,
        expected: vec![satisfying as f64 / f64::from(1u32 << SAT_VARS)],
    }
}

const COLOR_NODES: usize = 4;
const COLORS: usize = 3;

/// Weighted Glauber dynamics over the proper 3-colorings of a random
/// tree, as a raw `@kernel`, under Thm 5.5 exact long-run evaluation.
/// Every tree on n nodes has 3·2ⁿ⁻¹ proper colorings, so the chain size is
/// fixed while its shape varies. The stationary law is ∝ ∏ w(color), so
/// the reference enumerates colorings.
fn coloring(rng: &mut Rng) -> Input {
    let parent: Vec<usize> = (1..COLOR_NODES).map(|i| rng.below(i)).collect();
    let weight: Vec<usize> = (0..COLORS).map(|_| 1 + rng.below(4)).collect();
    let mut start = [0usize; COLOR_NODES];
    for (i, &p) in parent.iter().enumerate() {
        start[i + 1] = usize::from(start[p] == 0);
    }
    let queries: Vec<(usize, usize)> = (0..2)
        .map(|_| (rng.below(COLOR_NODES), rng.below(COLORS)))
        .collect();

    let mut src = String::new();
    relation(&mut src, "V(node)", (0..COLOR_NODES).map(|v| v.to_string()));
    relation(
        &mut src,
        "E(node, nbr)",
        parent
            .iter()
            .enumerate()
            .flat_map(|(i, &p)| [format!("{}, {p}", i + 1), format!("{p}, {}", i + 1)]),
    );
    relation(&mut src, "K(color)", (0..COLORS).map(|c| c.to_string()));
    relation(
        &mut src,
        "W(color, w)",
        weight.iter().enumerate().map(|(c, w)| format!("{c}, {w}")),
    );
    relation(
        &mut src,
        "Color(node, color)",
        start.iter().enumerate().map(|(v, c)| format!("{v}, {c}")),
    );
    src.push_str(
        "@kernel Color := let picked = (repair-key[](V)) in (let newc = \
         (project[color](repair-key[@ w](((K - project[color]((rename[nbr->node]\
         (project[nbr]((picked join E))) join Color))) join W)))) in \
         (((Color - (picked join Color)) union (picked x newc))))\n",
    );
    for (v, c) in &queries {
        writeln!(src, "@query kernel exact event Color({v}, {c})").unwrap();
    }

    let mut total = 0.0;
    let mut mass = vec![0.0; queries.len()];
    let mut colors = [0usize; COLOR_NODES];
    for code in 0..COLORS.pow(COLOR_NODES as u32) {
        let mut rest = code;
        for c in colors.iter_mut() {
            *c = rest % COLORS;
            rest /= COLORS;
        }
        if parent
            .iter()
            .enumerate()
            .any(|(i, &p)| colors[i + 1] == colors[p])
        {
            continue;
        }
        let w: f64 = colors.iter().map(|&c| weight[c] as f64).product();
        total += w;
        for (m, &(v, c)) in mass.iter_mut().zip(&queries) {
            if colors[v] == c {
                *m += w;
            }
        }
    }
    Input {
        source: src,
        expected: mass.iter().map(|m| m / total).collect(),
    }
}

/// The reachability program of the paper's Example 3.9: every reached
/// node picks one successor (weighted), once.
fn walk_program(src: &mut String, edges: &[(usize, usize, usize)]) {
    relation(
        src,
        "E(i, j, p)",
        edges.iter().map(|(i, j, w)| format!("{i}, {j}, {w}")),
    );
    src.push_str(
        "@program {\n  C(0).\n  C2(X!, Y) @P :- C(X), E(X, Y, P).\n  C(Y) :- C2(X, Y).\n}\n",
    );
}

/// Random weighted out-edges: `out[u]` lists `(v, w)`.
fn out_edges(edges: &[(usize, usize, usize)], nodes: usize) -> Vec<Vec<(usize, f64)>> {
    let mut out = vec![Vec::new(); nodes];
    for &(u, v, w) in edges {
        out[u].push((v, w as f64));
    }
    for row in &mut out {
        let sum: f64 = row.iter().map(|(_, w)| w).sum();
        for (_, w) in row.iter_mut() {
            *w /= sum;
        }
    }
    out
}

const LAYERS: usize = 4;
const WIDTH: usize = 3;

/// The walk on a random layered DAG under Thm 4.3 `(ε, δ)`-sampling, which
/// the `sample` directive forces: every operation draws the full Hoeffding
/// count of trials. The reference is a forward pass over the layers.
fn layered_reach(rng: &mut Rng) -> Input {
    let id = |layer: usize, k: usize| {
        if layer == 0 {
            0
        } else {
            1 + (layer - 1) * WIDTH + k
        }
    };
    let mut edges = Vec::new();
    for layer in 0..LAYERS {
        for k in 0..if layer == 0 { 1 } else { WIDTH } {
            for succ in rng.distinct(2, WIDTH, None) {
                edges.push((id(layer, k), id(layer + 1, succ), 1 + rng.below(3)));
            }
        }
    }
    let target = id(LAYERS, rng.below(WIDTH));
    let nodes = id(LAYERS, WIDTH);
    let out = out_edges(&edges, nodes);
    let mut reach = vec![0.0; nodes];
    reach[0] = 1.0;
    for u in 0..nodes {
        for &(v, p) in &out[u] {
            reach[v] += reach[u] * p;
        }
    }
    let mut src = String::new();
    walk_program(&mut src, &edges);
    writeln!(
        src,
        "@query inflationary sample epsilon {EPSILON} delta {DELTA} seed {} event C({target})",
        rng.below(1 << 20)
    )
    .unwrap();
    Input {
        source: src,
        expected: vec![reach[target]],
    }
}

const CYCLIC_NODES: usize = 7;
const CYCLIC_QUERIES: usize = 4;
/// Holds the middle ~35% of random digraphs.
const WALK_PREFIXES: std::ops::RangeInclusive<usize> = 16..=20;

/// The walk on a random digraph with cycles, several targets per file,
/// under planner-chosen evaluation: the planner's exact-tree probe and
/// every later query share one memoized computation tree. The walk stops
/// at its first repeated node, so Pr[C(t)] sums ∏p over the simple paths
/// from 0 to t. Digraphs are drawn until their number of simple paths
/// from 0, which sets the tree size, falls in `WALK_PREFIXES`.
fn cyclic_reach(rng: &mut Rng) -> Input {
    let (edges, reach) = loop {
        let mut edges = Vec::new();
        for u in 0..CYCLIC_NODES {
            for v in rng.distinct(2, CYCLIC_NODES, Some(u)) {
                edges.push((u, v, 1 + rng.below(3)));
            }
        }
        let out = out_edges(&edges, CYCLIC_NODES);
        let mut reach = vec![0.0; CYCLIC_NODES];
        let mut visited = vec![false; CYCLIC_NODES];
        if WALK_PREFIXES.contains(&simple_paths(&out, 0, 1.0, &mut visited, &mut reach)) {
            break (edges, reach);
        }
    };
    let targets: Vec<usize> = rng
        .distinct(CYCLIC_QUERIES, CYCLIC_NODES - 1, None)
        .into_iter()
        .map(|t| t + 1)
        .collect();
    let mut src = String::new();
    walk_program(&mut src, &edges);
    for t in &targets {
        writeln!(src, "@query inflationary exact event C({t})").unwrap();
    }
    Input {
        source: src,
        expected: targets.iter().map(|&t| reach[t]).collect(),
    }
}

/// Adds to `reach` the probability of every simple path from `u` (reached
/// with probability `p`) and returns how many such paths there are.
fn simple_paths(
    out: &[Vec<(usize, f64)>],
    u: usize,
    p: f64,
    visited: &mut [bool],
    reach: &mut [f64],
) -> usize {
    visited[u] = true;
    reach[u] += p;
    let mut paths = 1;
    for &(v, q) in &out[u] {
        if !visited[v] {
            paths += simple_paths(out, v, p * q, visited, reach);
        }
    }
    visited[u] = false;
    paths
}
