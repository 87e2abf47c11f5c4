//! The one test kit of the workspace: every random graph, relation, regex,
//! delta and command stream the tests draw, the equivalence harness that
//! checks engines against the reference, and the minimiser.
//!
//! A [`Scenario`] is a base graph and a stream of [`Step`]s: reads, query
//! sets, deltas, pinned views and snapshot restarts. [`run`] replays it
//! under each of [`Axes`] — on an engine, or over the wire through
//! `Session::execute` or a TCP connection to `rpq_server::serve` ([`wire`])
//! — and compares every answer with one reference: `evaluate_algebraic`
//! (Definition 2, Lemma 4) on a `GraphBuilder` rebuild of the edge set at
//! the epoch the answer was read at. The reference shares no code with
//! `VersionedGraph`, the product BFS or any engine path. A failing
//! scenario is minimised and printed as a literal that a regression test
//! can paste. [`check`] does the same for any other drawn input.
//!
//! The kit is a dev-dependency of the root package only: the packages it
//! depends on cannot use it without linking a second copy of their types.

pub mod wire;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpq_core::snapshot::{read_snapshot, write_snapshot};
use rpq_core::{CacheBudget, Engine, EngineConfig, EngineError, EpochView, Strategy};
use rpq_eval::evaluate_algebraic;
use rpq_graph::{GraphBuilder, GraphDelta, LabeledMultigraph, PairSet, VertexId};
use rpq_regex::Regex;
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
    /// The end vertices of `query`-paths from one source (`ends_from`),
    /// which may lie past the graph's vertices, and a `check` from that
    /// source to each vertex.
    Ends(u32, Regex),
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
    /// `2n..4n` uniform edges over 64..160 vertices: wide enough that the
    /// 1/32 density rule leaves short closure rows sparse next to dense
    /// ones, and dense enough that multi-label closures form cycles. On the
    /// other shapes (at most 39 vertices) a row over at most 32 ids is
    /// dense as soon as it holds one.
    Wide,
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

/// A word of up to `max_len` labels, each drawn from [`ALPHABET`].
pub fn random_word(r: &mut StdRng, max_len: usize) -> Vec<&'static str> {
    (0..r.gen_range(0..=max_len)).map(|_| label(r)).collect()
}

/// `m` uniform edges over `n` vertices (at least one).
fn edges_over(r: &mut StdRng, n: u32, m: usize) -> Vec<Edge> {
    let mut edge = |_| (r.gen_range(0..n.max(1)), label(r), r.gen_range(0..n.max(1)));
    (0..m).map(&mut edge).collect()
}

/// `m` uniform edges over `n` vertices, each drawn from its range, with the
/// vertex count drawn.
pub fn random_edges(r: &mut StdRng, n: Range<u32>, m: Range<usize>) -> (u32, Vec<Edge>) {
    let (n, m) = (r.gen_range(n), r.gen_range(m));
    (n, edges_over(r, n, m))
}

/// The graph over `n` vertices with `edges`, built by `GraphBuilder`.
pub fn build<'e>(n: u32, edges: impl IntoIterator<Item = &'e Edge>) -> LabeledMultigraph {
    let mut b = GraphBuilder::new();
    b.ensure_vertices(n as usize);
    for &(s, l, d) in edges {
        b.add_edge(s, l, d);
    }
    b.build()
}

/// A random multigraph of `m` uniform edges over `n` vertices, each drawn from its range.
pub fn random_graph(r: &mut StdRng, n: Range<u32>, m: Range<usize>) -> LabeledMultigraph {
    let (n, edges) = random_edges(r, n, m);
    build(n, &edges)
}

/// A random relation of `m` uniform pairs over `n` vertices, each drawn from its range.
pub fn random_pairs(r: &mut StdRng, n: Range<u32>, m: Range<usize>) -> (u32, Vec<(u32, u32)>) {
    let (n, edges) = random_edges(r, n, m);
    (n, edges.into_iter().map(|(s, _, d)| (s, d)).collect())
}

/// Draws relations of up to `m` uniform pairs over exactly `n` vertices.
pub fn relation(n: u32, m: usize) -> impl Fn(&mut StdRng) -> Vec<(u32, u32)> {
    move |r| random_pairs(r, n..n + 1, 0..m).1
}

/// `m` vertex ids below `n`, repeats allowed, with `m` drawn from its range.
pub fn random_ids(r: &mut StdRng, n: u32, m: Range<usize>) -> Vec<u32> {
    (0..r.gen_range(m)).map(|_| r.gen_range(0..n)).collect()
}

/// A random regular expression with bounded depth, `ε` leaves included.
///
/// Shapes are weighted toward the paper's workload (concatenations and
/// closures) but cover alternation and options too.
pub fn random_regex(r: &mut StdRng, depth: u32) -> Regex {
    let leaf = |r: &mut StdRng| match r.gen_range(0..8) {
        0 => Regex::Epsilon,
        _ => Regex::label(label(r)),
    };
    regex_with(r, depth, &leaf)
}

/// A random expression for the parser and normal-form properties: depth up
/// to 4, with `∅` leaves and multi-character labels as well.
pub fn random_syntax(r: &mut StdRng) -> Regex {
    let leaf = |r: &mut StdRng| match r.gen_range(0..7) {
        0 => Regex::Epsilon,
        1 => Regex::Empty,
        i => Regex::label(["a", "b", "c", "xy", "l0"][i - 2]),
    };
    let depth = r.gen_range(0..5);
    regex_with(r, depth, &leaf)
}

fn regex_with(r: &mut StdRng, depth: u32, leaf: &dyn Fn(&mut StdRng) -> Regex) -> Regex {
    let shape = if depth == 0 { 0 } else { r.gen_range(0..10) };
    let sub = |r: &mut StdRng| regex_with(r, depth - 1, leaf);
    match shape {
        0..=2 => leaf(r),
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
/// way. An `Ends` read starts from one of the vertices or the two ids past
/// them.
pub fn scenario(seed: u64, shape: Shape) -> Scenario {
    let mut r = rng(seed);
    let (n, edges) = match shape {
        Shape::Uniform => random_edges(&mut r, 2..24, 0..80),
        Shape::DenseCyclic => random_edges(&mut r, 3..10, 20..60),
        Shape::Degenerate => {
            [(0, vec![]), (1, vec![]), (1, vec![(0, "a", 0)])][r.gen_range(0..3)].clone()
        }
        Shape::GiantScc => giant_scc(&mut r),
        Shape::Wide => {
            let n = r.gen_range(64..160);
            let m = r.gen_range(2 * n as usize..4 * n as usize);
            (n, edges_over(&mut r, n, m))
        }
    };
    // The plainest closure, whose structure is one label's own relation,
    // then 1..4 random queries.
    let mut pool = vec![Regex::plus(Regex::label(label(&mut r)))];
    pool.extend((1..r.gen_range(2..6)).map(|i| random_regex(&mut r, 2 + i % 2)));
    let pick = |r: &mut StdRng| pool[r.gen_range(0..pool.len())].clone();
    let (mut steps, mut seen, mut held, mut pins, mut grown) =
        (vec![Step::Set(pool.clone())], edges.clone(), vec![], 0, n);
    for _ in 0..r.gen_range(4..16) {
        let step = match r.gen_range(0..14) {
            3 => Step::Set((0..r.gen_range(2..=4)).map(|_| pick(&mut r)).collect()),
            4..=6 if r.gen_range(0..4) == 0 => {
                steps.push(Step::Restart);
                Step::Set(pool.clone())
            }
            4..=6 => {
                let (d, i, grow) = (r.gen_range(0..4), r.gen_range(1..4), r.gen_range(0..8) == 0);
                let mut del = edges_over(&mut r, grown, d);
                for e in &mut del {
                    if !seen.is_empty() && r.gen_range(0..4) > 0 {
                        *e = seen.swap_remove(r.gen_range(0..seen.len()));
                    }
                }
                let mut ins = edges_over(&mut r, grown, i);
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
            13 => Step::Ends(r.gen_range(0..grown + 2), pick(&mut r)),
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
            Step::Query(q) | Step::Ask(_, q) | Step::Ends(_, q) => std::slice::from_ref(q),
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
            Step::Ends(src, _) => write!(f, "Step::Ends({src}, {})", qs[0]),
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

/// Where `Query`, `Set` and `Ends` steps are read: the live engine, a view
/// pinned for the step (which memoizes what it answers), or over the wire
/// ([`wire`]) through `Session::execute` or a TCP connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reader {
    Live,
    Pinned,
    Session,
    Tcp,
}

/// The engine configurations and readers a run covers: by default
/// `EngineConfig::default()` read live, unbounded and under a 2 KiB
/// budget over both tiers, so every suite that fixes no budget of its own
/// also runs the budgeted insert, eviction and miss paths (2 KiB evicts on
/// some scenario of every shape but the degenerate one: all wide ones,
/// about a third of the giant-SCC ones, a few uniform and dense-cyclic
/// ones). Each setter fixes one axis to the values it lists, replacing
/// the default's; no combination is listed twice. The `binary` axis is the
/// mode of a wire replay's first connection (its second takes the other);
/// engine readers ignore it.
#[derive(Clone, Debug)]
pub struct Axes(Vec<Axis>);

/// One combination of [`Axes`].
type Axis = (EngineConfig, Reader, bool);

impl Default for Axes {
    fn default() -> Self {
        let tight = CacheBudget::parse("bytes=2k").expect("a budget spec");
        let axes = Axes(vec![(EngineConfig::default(), Reader::Live, false)]);
        axes.budget(&[CacheBudget::default(), tight])
    }
}

macro_rules! axes {
    ($($axis:ident: $t:ty => |$c:ident, $v:ident| $set:expr;)*) => {
        impl Axes {
            $(pub fn $axis(self, values: &[$t]) -> Self {
                let each = |c: Axis| values.iter().map(move |&$v| {
                    let mut $c = c; $set; $c
                });
                let mut axes = Vec::new();
                for c in self.0.into_iter().flat_map(each) {
                    if !axes.contains(&c) {
                        axes.push(c);
                    }
                }
                Axes(axes)
            })*
        }
    };
}

impl Axes {
    /// The engine configuration of each combination, for tests that build
    /// their own engines or servers.
    pub fn configs(&self) -> impl Iterator<Item = EngineConfig> + '_ {
        self.0.iter().map(|a| a.0)
    }
}

axes! {
    strategy: Strategy => |c, v| c.0.strategy = v;
    budget: CacheBudget => |c, v| c.0.cache_budget = v;
    reader: Reader => |c, v| c.1 = v;
    binary: bool => |c, v| c.2 = v;
}

/// What an inspector sees after each step of an engine replay, once the
/// answers passed.
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
    /// The step's answers, one per query (an `Ends` read as the pairs from
    /// its source); empty when it read nothing or hit the DNF clause budget.
    pub answers: &'a [PairSet],
}

/// [`run`] with no inspector.
pub fn assert_equivalent(s: &Scenario, axes: &Axes) {
    run(s, axes, |_| {});
}

/// Replays `s` under each of `axes`, comparing every answer with the
/// reference and calling `inspect` after each step of an engine replay
/// (step 0 starts every replay, so an inspector with state resets it
/// there; wire replays call no inspector). On a failure, shrinks `s` while
/// it still fails and panics with the minimal scenario.
pub fn run(s: &Scenario, axes: &Axes, mut inspect: impl FnMut(&Probe)) {
    // The reference answers of `s`, shared by every combination.
    let mut known = HashMap::new();
    for &axis in &axes.0 {
        let mut fails = |s: &Scenario, k: &mut _| {
            quietly(|| match axis.1 {
                Reader::Live | Reader::Pinned => replay(s, axis, k, &mut inspect),
                Reader::Session | Reader::Tcp => wire::replay(s, axis, k),
            })
            .err()
        };
        if fails(s, &mut known).is_some() {
            let (min, msg) = minimise(s, |c| fails(c, &mut HashMap::new())).expect("fails");
            let (from, to) = (s.steps.len(), min.steps.len());
            panic!("{msg}\n{axis:?}\nminimised from {from} to {to} steps:\n{min}");
        }
    }
}

/// Reference answers by epoch and query.
type Known = HashMap<(u64, String), PairSet>;

/// The reference side of a replay: the edge set and a rebuild of the graph
/// at every epoch so far, and the answers read off them.
struct Reference<'k> {
    n: u32,
    edges: BTreeSet<Edge>,
    at: Vec<LabeledMultigraph>,
    known: &'k mut Known,
}

impl<'k> Reference<'k> {
    fn new(s: &Scenario, known: &'k mut Known) -> Self {
        let edges = s.edges.iter().copied().collect();
        Reference {
            n: s.n,
            edges,
            at: vec![s.graph()],
            known,
        }
    }

    fn epoch(&self) -> u64 {
        self.at.len() as u64 - 1
    }

    /// Applies a delta, deletes first, as the next epoch.
    fn apply(&mut self, del: &[Edge], ins: &[Edge]) {
        for e in del {
            self.edges.remove(e);
        }
        for e in ins {
            self.n = self.n.max(e.0 + 1).max(e.2 + 1);
        }
        self.edges.extend(ins);
        self.at.push(build(self.n, &self.edges));
    }

    /// The reference answer to `query` at `epoch`; for an `Ends` read,
    /// only the pairs from its source.
    fn answer(&mut self, epoch: u64, step: &Step, query: &Regex) -> PairSet {
        let at = &self.at[epoch as usize];
        let key = (epoch, query.to_string());
        let all = self
            .known
            .entry(key)
            .or_insert_with(|| evaluate_algebraic(at, query));
        match step {
            Step::Ends(src, _) => all.iter().filter(|p| p.0 == VertexId(*src)).collect(),
            _ => all.clone(),
        }
    }
}

/// The pairs `(src, end)` of an `Ends` read.
fn from(src: u32, ends: &[VertexId]) -> PairSet {
    ends.iter().map(|&e| (VertexId(src), e)).collect()
}

fn replay(s: &Scenario, axis: Axis, known: &mut Known, inspect: &mut dyn FnMut(&Probe)) {
    let (live, base) = (axis.1 == Reader::Live, s.graph());
    let mut engine = Engine::with_config(&base, axis.0);
    let mut reference = Reference::new(s, known);
    let mut held: Vec<Option<EpochView>> = Vec::new();
    for (index, step) in s.steps.iter().enumerate() {
        let pinned;
        let (mut view, mut got) = (None, None);
        match step {
            Step::Query(q) if live => got = Some(engine.evaluate(q).map(|a| vec![a])),
            Step::Set(qs) if live => got = Some(engine.evaluate_set(qs)),
            Step::Ends(src, q) if live => {
                got = Some(Ok(vec![from(*src, &engine.ends_from(q, VertexId(*src)))]));
            }
            Step::Query(_) | Step::Set(_) | Step::Ends(..) => {
                pinned = engine.pin();
                view = Some(&pinned);
            }
            Step::Ask(k, _) => view = held.get(*k).and_then(Option::as_ref),
            Step::Delta(del, ins) => {
                let mut delta = GraphDelta::new();
                for e in del {
                    delta.delete(e.0, e.1, e.2);
                }
                for e in ins {
                    delta.insert(e.0, e.1, e.2);
                }
                engine.apply_delta(&delta);
                reference.apply(del, ins);
                assert_eq!(engine.graph().vertex_count(), reference.n as usize);
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
        let read = |v: &EpochView, q| match step {
            Step::Ends(src, _) => Ok(from(*src, &v.ends_from(q, VertexId(*src)))),
            _ => v.evaluate(q).map(Arc::unwrap_or_clone),
        };
        let got = got.or_else(|| view.map(|v| step.queries().iter().map(|q| read(v, q)).collect()));
        let answers = match got {
            None | Some(Err(EngineError::Dnf(_))) => Vec::new(),
            Some(got) => got.unwrap_or_else(|e| panic!("step {index} `{step}`: {e}")),
        };
        let epoch = view.map_or(engine.epoch(), EpochView::epoch);
        for (query, got) in step.queries().iter().zip(&answers) {
            let expect = reference.answer(epoch, step, query);
            assert_eq!(got, &expect, "step {index}, epoch {epoch}: {query}");
        }
        let graph = view.map_or(engine.graph(), EpochView::graph);
        if let Step::Ends(src, q) = step {
            let want = reference.answer(epoch, step, q);
            for d in 0..graph.vertex_count() as u32 {
                let (s, d) = (VertexId(*src), VertexId(d));
                let found = view.map_or_else(|| engine.check(q, s, d), |v| v.check(q, s, d));
                let ctx = format!("step {index}, epoch {epoch}: check {s} {d} {q}");
                assert_eq!(found, want.contains(s, d), "{ctx}");
            }
        }
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

/// An input the minimiser can cut down. A `Vec` shrinks by dropping each
/// half of its elements, each quarter, …, each single one; a [`Scenario`]
/// cuts its steps the same way, then drops single base edges, delta ops
/// and set members; a tuple shrinks one component at a time. Anything else
/// does not shrink, and fails as drawn.
pub trait Shrink: Clone + fmt::Debug {
    /// Smaller candidates, in the order the minimiser tries them.
    fn shrinks(&self) -> Box<dyn Iterator<Item = Self> + '_> {
        Box::new(iter::empty())
    }
}

/// The ranges a `len`-element sequence is cut by: each half, each quarter,
/// …, each single element.
fn cuts(len: usize) -> impl Iterator<Item = Range<usize>> {
    let first = Some(len.div_ceil(2)).filter(|&c| c > 0);
    let chunks = iter::successors(first, |&c| (c > 1).then(|| c.div_ceil(2)));
    chunks.flat_map(move |c| (0..len).step_by(c).map(move |at| at..(at + c).min(len)))
}

impl<T: Clone + fmt::Debug> Shrink for Vec<T> {
    fn shrinks(&self) -> Box<dyn Iterator<Item = Self> + '_> {
        Box::new(cuts(self.len()).map(|cut| {
            let mut v = self.clone();
            v.drain(cut);
            v
        }))
    }
}

impl Shrink for Scenario {
    fn shrinks(&self) -> Box<dyn Iterator<Item = Self> + '_> {
        let cut = |cut| {
            let mut s = self.clone();
            s.steps.drain(cut);
            s
        };
        let elements = (0..).map_while(|i| self.without(i));
        Box::new(cuts(self.steps.len()).map(cut).chain(elements))
    }
}

macro_rules! shrink {
    (tuple $(($($t:ident $i:tt),*))*) => {$(
        impl<$($t: Shrink),*> Shrink for ($($t,)*) {
            fn shrinks(&self) -> Box<dyn Iterator<Item = Self> + '_> {
                let all = iter::empty();
                $(let all = all.chain(self.$i.shrinks().map(move |x| {
                    let mut t = self.clone();
                    t.$i = x;
                    t
                }));)*
                Box::new(all)
            }
        }
    )*};
    ($($t:ty),*) => {$(impl Shrink for $t {})*};
}

shrink!(tuple (A 0, B 1) (A 0, B 1, C 2) (A 0, B 1, C 2, D 3));
shrink!(u8, u32, usize, f64, Regex);

/// Shrinks a failing input to the first of its [`Shrink::shrinks`] that
/// still fails, until none does; `None` when `input` passes.
pub fn minimise<T: Shrink>(
    input: &T,
    mut fails: impl FnMut(&T) -> Option<String>,
) -> Option<(T, String)> {
    let mut found = (input.clone(), fails(input)?);
    loop {
        let Some(smaller) = found.0.shrinks().find_map(|c| fails(&c).map(|m| (c, m))) else {
            return Some(found);
        };
        found = smaller;
    }
}

/// Checks `property` on `cases` inputs, the one of seed `s` drawn by
/// `draw` from `rng(s)` for `s` in `seed..seed + cases`. A failing input
/// is minimised and reported with its seed and its literal.
pub fn check<T: Shrink>(
    seed: u64,
    cases: u64,
    mut draw: impl FnMut(&mut StdRng) -> T,
    property: impl Fn(&T),
) {
    for seed in seed..seed + cases {
        let fails = |t: &T| quietly(|| property(t)).err();
        if let Some((min, msg)) = minimise(&draw(&mut rng(seed)), fails) {
            panic!("{msg}\nseed {seed}, minimised input:\n{min:?}");
        }
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
