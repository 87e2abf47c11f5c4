//! The one equivalence harness of the integration tests.
//!
//! A [`Scenario`] is a base graph and a stream of [`Step`]s: reads, query
//! sets, deltas, pinned views and snapshot restarts. [`run`] replays it on
//! an engine set up by [`Axes`] and compares every answer with one
//! reference: `evaluate_algebraic` (Definition 2, Lemma 4) on a
//! `GraphBuilder` rebuild of the edge set at the epoch the answer was read
//! at. The reference shares no code with `VersionedGraph`, the product BFS
//! or any engine path. A failing scenario is minimised and printed as a literal that a
//! regression test can paste.
#![allow(dead_code)] // each test binary uses a different subset

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtc_rpq::core::snapshot::{read_snapshot, write_snapshot};
use rtc_rpq::core::{CacheBudget, Engine, EngineConfig, EngineError, EpochView, Strategy};
use rtc_rpq::eval::evaluate_algebraic;
use rtc_rpq::graph::{GraphBuilder, GraphDelta, LabeledMultigraph, PairSet, RowSetPolicy};
use rtc_rpq::regex::Regex;
use std::cell::Cell;
use std::collections::{BTreeSet, HashMap};
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Once};
use std::{fmt, iter};

/// Labels used by the random generators.
pub const ALPHABET: [&str; 4] = ["a", "b", "c", "d"];

/// One labeled edge `(src, label, dst)`.
pub type Edge = (u32, &'static str, u32);

/// One step of a [`Scenario`].
#[derive(Clone, Debug, PartialEq)]
pub enum Step {
    /// Evaluate one query.
    Query(Regex),
    /// Evaluate a query set in one call (`evaluate_set` when read live).
    Set(Vec<Regex>),
    /// Apply `Delta(deletes, inserts)`, deletes first as `VersionedGraph` does.
    Delta(Vec<Edge>, Vec<Edge>),
    /// Pin a view and hold it: the scenario's `k`-th `Pin`, from 0, is view `k`.
    Pin,
    /// Ask held view `k` one query (a no-op unless view `k` is held).
    Ask(usize, Regex),
    /// Drop held view `k`.
    Unpin(usize),
    /// Continue from `read_snapshot(write_snapshot(engine))`; views already
    /// held stay on the old engine.
    Restart,
}

/// A base graph over `n` vertices and the steps replayed on it.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    pub n: u32,
    pub edges: Vec<Edge>,
    pub steps: Vec<Step>,
}

/// The base graphs [`scenario`] draws.
#[derive(Clone, Copy, Debug)]
pub enum Shape {
    /// Up to 80 uniform edges over 2..24 vertices.
    Uniform,
    /// 20..60 uniform edges over 3..10 vertices: many cycles.
    DenseCyclic,
    /// The empty graph, one vertex, or one self-loop.
    Degenerate,
    /// One giant `a`-cycle with chords and singleton feeders into it, out of
    /// it, between feeders or off `V_a`, plus uniform `b`/`c` edges (the
    /// shape of the benchmark's RMAT graphs).
    GiantScc,
}

/// Parses a query (the form minimised scenarios print queries in).
pub fn q(src: &str) -> Regex {
    Regex::parse(src).unwrap()
}

/// A deterministic RNG for a named test case.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

fn label(r: &mut StdRng) -> &'static str {
    ALPHABET[r.gen_range(0..ALPHABET.len())]
}

/// `m` uniform edges over `n` vertices (at least one).
fn random_edges(r: &mut StdRng, n: u32, m: usize) -> Vec<Edge> {
    let mut edge = |_| (r.gen_range(0..n.max(1)), label(r), r.gen_range(0..n.max(1)));
    (0..m).map(&mut edge).collect()
}

fn uniform(r: &mut StdRng, n: Range<u32>, m: Range<usize>) -> (u32, Vec<Edge>) {
    let (n, m) = (r.gen_range(n), r.gen_range(m));
    (n, random_edges(r, n, m))
}

/// The graph over `n` vertices with `edges`, built by `GraphBuilder`.
fn build<'e>(n: u32, edges: impl IntoIterator<Item = &'e Edge>) -> LabeledMultigraph {
    let mut b = GraphBuilder::new();
    b.ensure_vertices(n as usize);
    for &(s, l, d) in edges {
        b.add_edge(s, l, d);
    }
    b.build()
}

/// A random multigraph of `m` uniform edges over `n` vertices, each drawn from its range.
pub fn random_graph(r: &mut StdRng, n: Range<u32>, m: Range<usize>) -> LabeledMultigraph {
    let (n, edges) = uniform(r, n, m);
    build(n, &edges)
}

/// A random relation of `m` uniform pairs over `n` vertices, each drawn from its range.
pub fn random_pairs(r: &mut StdRng, n: Range<u32>, m: Range<usize>) -> (u32, Vec<(u32, u32)>) {
    let (n, edges) = uniform(r, n, m);
    (n, edges.into_iter().map(|(s, _, d)| (s, d)).collect())
}

/// A random regular expression with bounded depth, `ε` leaves included.
///
/// Shapes are weighted toward the paper's workload (concatenations and
/// closures) but cover alternation and options too.
pub fn random_regex(r: &mut StdRng, depth: u32) -> Regex {
    let shape = if depth == 0 { 0 } else { r.gen_range(0..10) };
    let sub = |r: &mut StdRng| random_regex(r, depth - 1);
    match shape {
        0..=2 if r.gen_range(0..8) == 0 => Regex::Epsilon,
        0..=2 => Regex::label(label(r)),
        3..=5 => Regex::concat((0..r.gen_range(2..=3)).map(|_| sub(r)).collect()),
        6 => Regex::alt((0..r.gen_range(2..=3)).map(|_| sub(r)).collect()),
        7 => Regex::plus(sub(r)),
        8 => Regex::star(sub(r)),
        _ => Regex::optional(sub(r)),
    }
}

fn giant_scc(r: &mut StdRng) -> (u32, Vec<Edge>) {
    let n = r.gen_range(6u32..40);
    let k = r.gen_range(3..=n / 2);
    let mut edges = Vec::new();
    for v in 0..k {
        edges.push((v, "a", (v + 1) % k));
        edges.push((r.gen_range(0..k), "a", r.gen_range(0..k)));
    }
    for v in k..n {
        match r.gen_range(0..4) {
            0 => edges.push((v, "a", r.gen_range(0..k))),
            1 => edges.push((r.gen_range(0..k), "a", v)),
            2 => edges.push((v, "a", r.gen_range(k..n))),
            _ => {}
        }
    }
    for l in ["b", "c"] {
        edges.extend((0..2 * n).map(|_| (r.gen_range(0..n), l, r.gen_range(0..n))));
    }
    (n, edges)
}

/// One seeded scenario: a `shape` base graph, a set over a pool of 2..5
/// queries that warms the cache, then 4..15 random steps. A delta deletes
/// up to three edges, mostly ones the graph has, inserts 1..3, one time in
/// eight onto a new vertex, and is read back over the whole pool. One time
/// in four a restart is drawn in a delta's place, and read back the same
/// way.
pub fn scenario(seed: u64, shape: Shape) -> Scenario {
    let mut r = rng(seed);
    let (n, edges) = match shape {
        Shape::Uniform => uniform(&mut r, 2..24, 0..80),
        Shape::DenseCyclic => uniform(&mut r, 3..10, 20..60),
        Shape::Degenerate => {
            [(0, vec![]), (1, vec![]), (1, vec![(0, "a", 0)])][r.gen_range(0..3)].clone()
        }
        Shape::GiantScc => giant_scc(&mut r),
    };
    // The plainest closure, whose structure is one label's own relation,
    // then 1..4 random queries.
    let mut pool = vec![Regex::plus(Regex::label(label(&mut r)))];
    pool.extend((1..r.gen_range(2..6)).map(|i| random_regex(&mut r, 2 + i % 2)));
    let pick = |r: &mut StdRng| pool[r.gen_range(0..pool.len())].clone();
    let (mut steps, mut seen, mut held, mut pins, mut grown) =
        (vec![Step::Set(pool.clone())], edges.clone(), vec![], 0, n);
    for _ in 0..r.gen_range(4..16) {
        let step = match r.gen_range(0..13) {
            3 => Step::Set((0..r.gen_range(2..=4)).map(|_| pick(&mut r)).collect()),
            4..=6 if r.gen_range(0..4) == 0 => {
                steps.push(Step::Restart);
                Step::Set(pool.clone())
            }
            4..=6 => {
                let (d, i, grow) = (r.gen_range(0..4), r.gen_range(1..4), r.gen_range(0..8) == 0);
                let mut del = random_edges(&mut r, grown, d);
                for e in &mut del {
                    if !seen.is_empty() && r.gen_range(0..4) > 0 {
                        *e = seen.swap_remove(r.gen_range(0..seen.len()));
                    }
                }
                let mut ins = random_edges(&mut r, grown, i);
                if grow {
                    ins[0].2 = grown;
                    grown += 1;
                }
                seen.extend(&ins);
                steps.push(Step::Delta(del, ins));
                Step::Set(pool.clone())
            }
            7 | 8 => {
                held.push(pins);
                pins += 1;
                Step::Pin
            }
            9..=11 if !held.is_empty() => Step::Ask(held[r.gen_range(0..held.len())], pick(&mut r)),
            12 if !held.is_empty() => Step::Unpin(held.swap_remove(r.gen_range(0..held.len()))),
            _ => Step::Query(pick(&mut r)),
        };
        steps.push(step);
    }
    Scenario { n, edges, steps }
}

impl Step {
    /// The queries the step reads.
    pub fn queries(&self) -> &[Regex] {
        match self {
            Step::Query(q) | Step::Ask(_, q) => std::slice::from_ref(q),
            Step::Set(qs) => qs,
            _ => &[],
        }
    }
}

impl Scenario {
    /// `queries`, one `Query` step each, over the graph of `edges`.
    pub fn fixed(edges: &[Edge], queries: &[&str]) -> Scenario {
        Scenario {
            n: edges.iter().map(|e| e.0.max(e.2) + 1).max().unwrap_or(0),
            edges: edges.to_vec(),
            steps: queries.iter().map(|s| Step::Query(q(s))).collect(),
        }
    }

    /// The base graph.
    pub fn graph(&self) -> LabeledMultigraph {
        build(self.n, &self.edges)
    }

    /// Smaller candidates, in the order the minimiser tries them: without
    /// each half of the steps, each quarter, …, each single step; then
    /// without one base edge, delta op or set member.
    fn shrinks(&self) -> impl Iterator<Item = Scenario> + '_ {
        let len = self.steps.len();
        let chunks = iter::successors(Some(len.div_ceil(2)), |&c| (c > 1).then(|| c.div_ceil(2)));
        let cuts = chunks.flat_map(move |c| (0..len).step_by(c).map(move |at| (at, c)));
        let cut = move |(at, c): (usize, usize)| {
            let mut s = self.clone();
            s.steps.drain(at..(at + c).min(len));
            s
        };
        cuts.map(cut)
            .chain((0..).map_while(move |i| self.without(i)))
    }

    /// `self` without its `i`-th element, counting base edges, then each
    /// step's delta ops and set members in order; `None` past the end.
    fn without(&self, mut i: usize) -> Option<Scenario> {
        fn take<T>(v: &mut Vec<T>, i: &mut usize) -> bool {
            let hit = *i < v.len();
            if hit {
                v.remove(*i);
            } else {
                *i -= v.len();
            }
            hit
        }
        let mut s = self.clone();
        let hit = take(&mut s.edges, &mut i)
            || s.steps.iter_mut().any(|step| match step {
                Step::Delta(del, ins) => take(del, &mut i) || take(ins, &mut i),
                Step::Set(qs) => take(qs, &mut i),
                _ => false,
            });
        hit.then_some(s)
    }
}

/// Steps and scenarios print as the Rust literals that build them.
impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let literal = |q: &Regex| format!("q({:?})", q.to_string());
        let qs: Vec<_> = self.queries().iter().map(literal).collect();
        match self {
            Step::Query(_) => write!(f, "Step::Query({})", qs[0]),
            Step::Set(_) => write!(f, "Step::Set(vec![{}])", qs.join(", ")),
            Step::Delta(del, ins) => write!(f, "Step::Delta(vec!{del:?}, vec!{ins:?})"),
            Step::Pin => write!(f, "Step::Pin"),
            Step::Ask(k, _) => write!(f, "Step::Ask({k}, {})", qs[0]),
            Step::Unpin(k) => write!(f, "Step::Unpin({k})"),
            Step::Restart => write!(f, "Step::Restart"),
        }
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Scenario {{\n    n: {},", self.n)?;
        writeln!(f, "    edges: vec!{:?},\n    steps: vec![", self.edges)?;
        for step in &self.steps {
            writeln!(f, "        {step},")?;
        }
        write!(f, "    ],\n}}")
    }
}

/// Where `Query` and `Set` steps are read: the live engine, or a view
/// pinned for the step (which memoizes what it answers).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reader {
    Live,
    Pinned,
}

/// The engine configurations and readers a run covers: by default one,
/// `EngineConfig::default()` (which honours `RPQ_REPR` and `RPQ_CACHE_BUDGET`)
/// read live. Each setter fixes one axis to the values it lists.
#[derive(Clone, Debug)]
pub struct Axes(Vec<Axis>);

/// One combination of [`Axes`].
type Axis = (EngineConfig, Reader);

impl Default for Axes {
    fn default() -> Self {
        Axes(vec![(EngineConfig::default(), Reader::Live)])
    }
}

macro_rules! axes {
    ($($axis:ident: $t:ty => |$c:ident, $v:ident| $set:expr;)*) => {
        impl Axes {
            $(pub fn $axis(self, values: &[$t]) -> Self {
                let each = |c: Axis| values.iter().map(move |&$v| {
                    let mut $c = c; $set; $c
                });
                Axes(self.0.into_iter().flat_map(each).collect())
            })*
        }
    };
}

axes! {
    strategy: Strategy => |c, v| c.0.strategy = v;
    threads: usize => |c, v| c.0.threads = v;
    repr: RowSetPolicy => |c, v| c.0.representation = v;
    budget: CacheBudget => |c, v| c.0.cache_budget = v;
    reader: Reader => |c, v| c.1 = v;
}

/// What an inspector sees after each step, once the answers passed.
pub struct Probe<'a> {
    pub index: usize,
    pub step: &'a Step,
    pub engine: &'a Engine<'a>,
    /// Views by pin ordinal; `None` once unpinned.
    pub held: &'a [Option<EpochView>],
    /// The view that answered the step's reads, if one did.
    pub view: Option<&'a EpochView>,
    /// The graph the step's reads were answered on.
    pub graph: &'a LabeledMultigraph,
    /// The step's answers, one per query; empty when it read nothing or
    /// hit the DNF clause budget.
    pub answers: &'a [PairSet],
}

/// [`run`] with no inspector.
pub fn assert_equivalent(s: &Scenario, axes: &Axes) {
    run(s, axes, |_| {});
}

/// Replays `s` under each of `axes`, comparing every answer with the
/// reference and calling `inspect` after each step (step 0 starts every
/// replay, so an inspector with state resets it there). On a failure,
/// shrinks `s` while it still fails and panics with the minimal scenario.
pub fn run(s: &Scenario, axes: &Axes, mut inspect: impl FnMut(&Probe)) {
    // The reference answers of `s`, shared by every combination.
    let mut known = HashMap::new();
    for &axis in &axes.0 {
        let mut fails =
            |s: &Scenario, k: &mut _| quietly(|| replay(s, axis, k, &mut inspect)).err();
        if fails(s, &mut known).is_some() {
            let (min, msg) = minimise(s, |c| fails(c, &mut HashMap::new())).expect("fails");
            let (from, to) = (s.steps.len(), min.steps.len());
            panic!("{msg}\n{axis:?}\nminimised from {from} to {to} steps:\n{min}");
        }
    }
}

/// Reference answers by epoch and query.
type Known = HashMap<(u64, String), PairSet>;

fn replay(s: &Scenario, axis: Axis, known: &mut Known, inspect: &mut dyn FnMut(&Probe)) {
    let (live, base) = (axis.1 == Reader::Live, s.graph());
    let mut engine = Engine::with_config(&base, axis.0);
    let (mut n, mut edges): (_, BTreeSet<Edge>) = (s.n, s.edges.iter().copied().collect());
    let mut at = vec![s.graph()]; // the reference graph at each epoch
    let mut held: Vec<Option<EpochView>> = Vec::new();
    for (index, step) in s.steps.iter().enumerate() {
        let pinned;
        let (mut view, mut got) = (None, None);
        match step {
            Step::Query(q) if live => got = Some(engine.evaluate(q).map(|a| vec![a])),
            Step::Set(qs) if live => got = Some(engine.evaluate_set(qs)),
            Step::Query(_) | Step::Set(_) => {
                pinned = engine.pin();
                view = Some(&pinned);
            }
            Step::Ask(k, _) => view = held.get(*k).and_then(Option::as_ref),
            Step::Delta(del, ins) => {
                let mut delta = GraphDelta::new();
                for e in del {
                    delta.delete(e.0, e.1, e.2);
                    edges.remove(e);
                }
                for e in ins {
                    delta.insert(e.0, e.1, e.2);
                    n = n.max(e.0 + 1).max(e.2 + 1);
                }
                edges.extend(ins);
                engine.apply_delta(&delta);
                at.push(build(n, &edges));
                assert_eq!(engine.graph().vertex_count(), n as usize);
            }
            Step::Pin => held.push(Some(engine.pin())),
            Step::Unpin(k) => drop(held.get_mut(*k).and_then(Option::take)),
            Step::Restart => {
                let mut bytes = Vec::new();
                write_snapshot(&engine, &mut bytes).expect("snapshot writes to memory");
                engine = read_snapshot(&bytes[..], axis.0)
                    .unwrap_or_else(|e| panic!("step {index} `{step}`: {e}"));
            }
        }
        let read = |v: &EpochView, q| v.evaluate(q).map(Arc::unwrap_or_clone);
        let got = got.or_else(|| view.map(|v| step.queries().iter().map(|q| read(v, q)).collect()));
        let answers = match got {
            None | Some(Err(EngineError::Dnf(_))) => Vec::new(),
            Some(got) => got.unwrap_or_else(|e| panic!("step {index} `{step}`: {e}")),
        };
        let epoch = view.map_or(engine.epoch(), EpochView::epoch);
        for (query, got) in step.queries().iter().zip(&answers) {
            let expect = known.entry((epoch, query.to_string()));
            let expect = expect.or_insert_with(|| evaluate_algebraic(&at[epoch as usize], query));
            assert_eq!(got, expect, "step {index}, epoch {epoch}: {query}");
        }
        let graph = view.map_or(engine.graph(), EpochView::graph);
        inspect(&Probe {
            index,
            step,
            engine: &engine,
            held: &held,
            view,
            graph,
            answers: &answers,
        });
    }
}

/// Shrinks a failing scenario to the first of its [`Scenario::shrinks`]
/// that still fails, until none does; `None` when `s` passes.
pub fn minimise(
    s: &Scenario,
    mut fails: impl FnMut(&Scenario) -> Option<String>,
) -> Option<(Scenario, String)> {
    let mut found = (s.clone(), fails(s)?);
    loop {
        let Some(smaller) = found.0.shrinks().find_map(|c| fails(&c).map(|m| (c, m))) else {
            return Some(found);
        };
        found = smaller;
    }
}

thread_local!(static QUIET: Cell<bool> = const { Cell::new(false) });

/// Runs `f`, turning a panic into its message without printing it.
fn quietly(f: impl FnOnce()) -> Result<(), String> {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let print = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET.with(Cell::get) {
                print(info);
            }
        }));
    });
    QUIET.with(|q| q.set(true));
    let out = panic::catch_unwind(AssertUnwindSafe(f));
    QUIET.with(|q| q.set(false));
    out.map_err(|e| match e.downcast::<String>() {
        Ok(msg) => *msg,
        Err(e) => e.downcast_ref::<&str>().unwrap_or(&"panic").to_string(),
    })
}
