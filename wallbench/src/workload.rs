//! The three workloads: their names, sizes, and seeded query streams.

use crate::reference::{iri, var, Bgp, Pattern, QuerySpec, Slot};
use ids_core::workflow::RepurposingThresholds;
use ids_graph::Term;
use ids_simrt::rng::SplitMix64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One analyst re-running the repurposing query at new thresholds.
    WhatifSession,
    /// 16 tenant sessions in a closed loop through `QueryService`.
    ServeMix,
    /// BGP-only joins over the Table 1 sources on 2,048 ranks.
    GraphJoin,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::WhatifSession, Workload::ServeMix, Workload::GraphJoin];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WhatifSession => "whatif_session",
            Workload::ServeMix => "serve_mix",
            Workload::GraphJoin => "graph_join",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Set-ups per timed run; `setup_s` is their median.
    pub fn setups(self) -> usize {
        match self {
            Workload::WhatifSession | Workload::ServeMix => 5,
            Workload::GraphJoin => 3,
        }
    }

    /// Queries in the fixed prefix that `virtual_s` sums and the traced
    /// run replays. The timed phase always completes at least this many.
    pub fn prefix(self) -> usize {
        match self {
            Workload::WhatifSession => WHATIF_GRID,
            Workload::ServeMix => 320,
            Workload::GraphJoin => 64,
        }
    }
}

/// Unreviewed background proteins in the what-if dataset: they never
/// reach a FILTER, but make ingest long enough for `setup_s` to be steady.
pub const WHATIF_BACKGROUND: usize = 20_000;

/// The X6 dataset's own background size, used as-is by `serve_mix`.
pub const SERVE_BACKGROUND: usize = 400;

/// Seed of every workload's dataset. The data is fixed: generated
/// datasets differ in how many candidates pass each threshold, which moved
/// a what-if query's cost by up to 1.6× from one seed to the next. So
/// `--seed` drives the query streams (order, constants, fresh thresholds)
/// and every seed runs its queries on the same data.
pub const DATASET_SEED: u64 = 0xDA7A;

/// The rng stream of the query streams, rooted at `--seed`.
const QUERY_STREAM: u64 = 0x0E41;

/// `x` rounded to `1 / per_unit` (dividing an integer keeps the printed
/// decimal short).
fn round_to(x: f64, per_unit: f64) -> f64 {
    (x * per_unit).round() / per_unit
}

/// Endless seeded draws from `0..n` in shuffled rounds: each round deals
/// every index once, so every round has the same composition and only the
/// order follows the seed.
struct Deck {
    rng: SplitMix64,
    n: usize,
    left: Vec<usize>,
}

impl Deck {
    fn new(rng: SplitMix64, n: usize) -> Self {
        Self { rng, n, left: Vec::new() }
    }

    fn deal(&mut self) -> usize {
        if self.left.is_empty() {
            // Fisher–Yates.
            self.left = (0..self.n).collect();
            for i in (1..self.n).rev() {
                let j = self.rng.next_below(i as u64 + 1) as usize;
                self.left.swap(i, j);
            }
        }
        self.left.pop().expect("a deck of n > 0 cards is refilled when empty")
    }
}

/// `min_pic50` thresholds of the what-if grid. Query cost falls with
/// `min_pic50` (tight thresholds let the engine run `pic50` before
/// `sw_similarity`), so the grid's queries form one cost cluster per
/// value. With an odd number of equal clusters a pass's median latency
/// lies inside the middle one, not in the gap between two.
const WHATIF_PIC50: [f64; 3] = [3.0, 6.0, 9.0];

/// The what-if grid: `sw_similarity` 0.20, 0.30, …, 0.90 × `min_pic50`
/// 3, 6 or 9. Cell 0 is the loosest corner.
pub const WHATIF_GRID: usize = 8 * WHATIF_PIC50.len();

/// The analyst's endless session: passes over the threshold grid, each
/// opening with the loosest cell (every candidate, so all cold docking
/// happens in the session's first query) and then visiting the other 23
/// cells in a seed-shuffled order. Every pass runs the same queries, so
/// the docking and filter work of a pass does not depend on the seed.
pub fn whatif_queries(seed: u64) -> impl Iterator<Item = QuerySpec> {
    let mut deck = Deck::new(SplitMix64::new(seed, QUERY_STREAM), WHATIF_GRID - 1);
    let mut issued = 0usize;
    let axis = WHATIF_PIC50.len();
    std::iter::repeat_with(move || {
        let cell = if issued.is_multiple_of(WHATIF_GRID) { 0 } else { 1 + deck.deal() };
        issued += 1;
        QuerySpec::Repurposing(RepurposingThresholds {
            sw_similarity: round_to(0.20 + 0.1 * (cell / axis) as f64, 100.0),
            min_pic50: WHATIF_PIC50[cell % axis],
            min_dtba: 3.0,
        })
    })
}

fn bgp(select: &[&str], patterns: Vec<Pattern>) -> QuerySpec {
    QuerySpec::Bgp(Bgp { select: select.iter().map(|s| s.to_string()).collect(), patterns })
}

fn p(s: Slot, pred: &str, o: Slot) -> Pattern {
    Pattern::new(s, iri(pred), o)
}

/// Join templates in the graph-join stream.
pub const GRAPH_TEMPLATES: usize = 4;

/// The graph-join stream: four 3–4-pattern join templates in a fixed
/// rotation, each with a seed-drawn constant.
pub fn graph_queries(seed: u64) -> impl Iterator<Item = QuerySpec> {
    let mut rng = SplitMix64::new(seed, QUERY_STREAM);
    let mut i = 0usize;
    std::iter::repeat_with(move || {
        i += 1;
        match (i - 1) % GRAPH_TEMPLATES {
            // Samples sharing an organism with reviewed proteins.
            0 => bgp(
                &["s", "p"],
                vec![
                    p(
                        var("s"),
                        "biosample:attribute",
                        Slot::Const(Term::str(format!("attr{}", rng.next_below(100)))),
                    ),
                    p(var("s"), "biosample:organism", var("t")),
                    p(var("p"), "up:organism", var("t")),
                    p(var("p"), "up:reviewed", Slot::Const(Term::Int(1))),
                ],
            ),
            // Ortholog-group members of one species, their xrefs and
            // organisms.
            1 => bgp(
                &["g", "p", "x", "t"],
                vec![
                    p(var("g"), "odb:species", iri(&format!("taxon:{}", rng.next_below(500)))),
                    p(var("g"), "odb:member", var("p")),
                    p(var("x"), "b2r:xref", var("p")),
                    p(var("p"), "up:organism", var("t")),
                ],
            ),
            // Compounds with one assay count, their targets' organisms.
            2 => bgp(
                &["c", "p", "t"],
                vec![
                    p(
                        var("c"),
                        "chembl:assayCount",
                        Slot::Const(Term::Int(rng.next_below(50) as i64)),
                    ),
                    p(var("c"), "chembl:inhibits", var("p")),
                    p(var("p"), "up:organism", var("t")),
                ],
            ),
            // Cross-references from one source that land on reviewed
            // ortholog-group members.
            _ => bgp(
                &["x", "p", "g"],
                vec![
                    p(var("x"), "b2r:source", iri(&format!("db:{}", rng.next_below(30)))),
                    p(var("x"), "b2r:xref", var("p")),
                    p(var("g"), "odb:member", var("p")),
                    p(var("p"), "up:reviewed", Slot::Const(Term::Int(1))),
                ],
            ),
        }
    })
}

/// Every `FRESH_EVERY`-th query submitted to the service is a repurposing
/// variant no one has run: it misses the reuse cache past the shared BGP.
/// Counting over all sessions (not per session) spreads the misses evenly
/// instead of in bursts where every session misses at once.
pub const FRESH_EVERY: usize = 8;

/// The shared pool serve sessions draw from: repurposing variants that
/// overlap on their BGP, and BGP-only lookups.
pub fn serve_pool() -> Vec<QuerySpec> {
    let mut pool: Vec<QuerySpec> = [(0.9, 3.0), (0.5, 4.0), (0.35, 3.5), (0.25, 5.0)]
        .into_iter()
        .map(|(sw_similarity, min_pic50)| {
            QuerySpec::Repurposing(RepurposingThresholds {
                sw_similarity,
                min_pic50,
                min_dtba: 3.0,
            })
        })
        .collect();
    let one = || Slot::Const(Term::Int(1));
    pool.push(bgp(
        &["p", "a"],
        vec![
            p(var("p"), "rdf:type", iri("up:Protein")),
            p(var("p"), "up:reviewed", one()),
            p(var("p"), "up:accession", var("a")),
        ],
    ));
    pool.push(bgp(
        &["c", "p"],
        vec![p(var("c"), "chembl:inhibits", var("p")), p(var("p"), "up:reviewed", one())],
    ));
    pool.push(bgp(
        &["c", "s"],
        vec![
            p(var("c"), "rdf:type", iri("chembl:Compound")),
            p(var("c"), "chembl:smiles", var("s")),
        ],
    ));
    pool.push(bgp(
        &["c", "q"],
        vec![p(var("c"), "chembl:inhibits", var("p")), p(var("q"), "chembl:inhibits", var("p"))],
    ));
    pool
}

/// Draws serve queries: the `k`-th submission is fresh when
/// `k % FRESH_EVERY == FRESH_EVERY - 1`, else the next pool entry from a
/// seed-shuffled deck.
pub struct ServeDraws {
    rng: SplitMix64,
    deck: Deck,
    pool: Vec<QuerySpec>,
    used_sw: Vec<f64>,
}

impl ServeDraws {
    pub fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed, QUERY_STREAM);
        let pool = serve_pool();
        Self { deck: Deck::new(rng.split(), pool.len()), rng, pool, used_sw: Vec::new() }
    }

    pub fn draw(&mut self, k: usize) -> QuerySpec {
        if k % FRESH_EVERY != FRESH_EVERY - 1 {
            return self.pool[self.deck.deal()].clone();
        }
        // A threshold no earlier query used, so the WHERE fragment is new.
        // Between the low band (≤ 0.39) and the tight band (≈ 1.0), every
        // such threshold passes the same candidates: each miss does the
        // same work, so the miss cost does not depend on the draw.
        let mut sw = round_to(self.rng.next_range(0.40, 0.95), 1e4);
        while self.used_sw.iter().any(|&u| (u - sw).abs() < 5e-5) {
            sw = round_to(sw + 1e-4, 1e4);
        }
        self.used_sw.push(sw);
        QuerySpec::Repurposing(RepurposingThresholds {
            sw_similarity: sw,
            min_pic50: 3.0,
            min_dtba: 3.0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_query_sequence() {
        let a: Vec<String> = whatif_queries(7).take(30).map(|q| q.text()).collect();
        let b: Vec<String> = whatif_queries(7).take(30).map(|q| q.text()).collect();
        assert_eq!(a, b);
        let c: Vec<String> = whatif_queries(8).take(30).map(|q| q.text()).collect();
        assert_ne!(a, c);
        let a: Vec<String> = graph_queries(7).take(30).map(|q| q.text()).collect();
        let b: Vec<String> = graph_queries(7).take(30).map(|q| q.text()).collect();
        assert_eq!(a, b);
        let (mut x, mut y) = (ServeDraws::new(3), ServeDraws::new(3));
        for k in 0..64 {
            assert_eq!(x.draw(k), y.draw(k));
        }
    }

    #[test]
    fn every_whatif_pass_covers_the_grid() {
        let texts = |seed| -> Vec<String> {
            let mut pass: Vec<String> =
                whatif_queries(seed).take(WHATIF_GRID).map(|q| q.text()).collect();
            pass.sort();
            pass
        };
        let first = texts(1);
        let mut uniq = first.clone();
        uniq.dedup();
        assert_eq!(uniq.len(), WHATIF_GRID);
        assert_eq!(first, texts(2), "same grid, only the order follows the seed");
        let loosest = |seed| whatif_queries(seed).step_by(WHATIF_GRID).take(3).map(|q| q.text());
        assert!(loosest(1).chain(loosest(2)).all(|q| q.contains(">= 0.2)") && q.contains("> 3)")));
        assert!(
            first.iter().any(|q| q.contains(">= 0.2)"))
                && first.iter().any(|q| q.contains(">= 0.9)"))
        );
    }

    #[test]
    fn fresh_serve_variants_never_repeat() {
        let mut d = ServeDraws::new(1);
        let fresh: Vec<String> = (0..4000)
            .filter(|k| k % FRESH_EVERY == FRESH_EVERY - 1)
            .map(|k| d.draw(k).text())
            .collect();
        let mut uniq = fresh.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), fresh.len());
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
