//! The correctness reference: answers computed without the engine's
//! planner or executor.
//!
//! * BGP-only queries are answered by a naive join written here, over
//!   the triples the benchmark generated (dumped once from the datastore
//!   with a match-everything scan, then indexed by predicate in this file).
//! * Repurposing queries are answered by direct `UdfRegistry::call`s over
//!   the candidate (protein, compound) pairs that the naive join finds.
//!
//! Both sides are compared through [`digest_rows`], a hash of the sorted,
//! decoded result rows, so row order and dictionary ids never matter.

use ids_core::workflow::{
    register_workflow_udfs, repurposing_query, RepurposingThresholds, Target, WorkflowModels,
};
use ids_core::Datastore;
use ids_graph::{Dictionary, SolutionSet, Term, TermId, TriplePattern};
use ids_simrt::rng::fnv1a;
use ids_udf::{UdfRegistry, UdfValue};
use std::cell::OnceCell;
use std::collections::HashMap;
use std::sync::Arc;

/// One position of a triple pattern.
#[derive(Debug, Clone, PartialEq)]
pub enum Slot {
    /// A variable, named without the leading `?`.
    Var(String),
    /// A constant term.
    Const(Term),
}

/// A variable slot.
pub fn var(name: &str) -> Slot {
    Slot::Var(name.to_string())
}

/// An IRI constant slot.
pub fn iri(name: &str) -> Slot {
    Slot::Const(Term::iri(name))
}

/// A triple pattern over [`Slot`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct Pattern {
    pub s: Slot,
    pub p: Slot,
    pub o: Slot,
}

impl Pattern {
    pub fn new(s: Slot, p: Slot, o: Slot) -> Self {
        Self { s, p, o }
    }
}

/// A basic graph pattern query: `SELECT <select> WHERE { <patterns> }`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bgp {
    pub select: Vec<String>,
    pub patterns: Vec<Pattern>,
}

impl Bgp {
    /// Render as IQL text.
    pub fn to_iql(&self) -> String {
        let select: Vec<String> = self.select.iter().map(|v| format!("?{v}")).collect();
        let mut out = format!("SELECT {} WHERE {{", select.join(" "));
        for p in &self.patterns {
            out.push_str(&format!(" {} {} {} .", slot_iql(&p.s), slot_iql(&p.p), slot_iql(&p.o)));
        }
        out.push_str(" }");
        out
    }
}

fn slot_iql(slot: &Slot) -> String {
    match slot {
        Slot::Var(v) => format!("?{v}"),
        Slot::Const(Term::Iri(s)) => format!("<{s}>"),
        Slot::Const(Term::Str(s)) => format!("{s:?}"),
        Slot::Const(Term::Int(i)) => i.to_string(),
        Slot::Const(t) => panic!("no IQL spelling for constant {t:?} in a benchmark query"),
    }
}

/// Every triple of a datastore, indexed by predicate.
pub struct TripleIndex {
    dict: Arc<Dictionary>,
    by_pred: HashMap<TermId, Edges>,
}

/// One predicate's `(subject, object)` pairs, with subject- and
/// object-keyed lookups built on first use and kept for later queries.
#[derive(Default)]
struct Edges {
    all: Vec<(TermId, TermId)>,
    by_s: OnceCell<HashMap<TermId, Vec<TermId>>>,
    by_o: OnceCell<HashMap<TermId, Vec<TermId>>>,
}

impl Edges {
    fn by_s(&self) -> &HashMap<TermId, Vec<TermId>> {
        self.by_s.get_or_init(|| group(self.all.iter().map(|&(s, o)| (s, o))))
    }

    fn by_o(&self) -> &HashMap<TermId, Vec<TermId>> {
        self.by_o.get_or_init(|| group(self.all.iter().map(|&(s, o)| (o, s))))
    }
}

fn group(pairs: impl Iterator<Item = (TermId, TermId)>) -> HashMap<TermId, Vec<TermId>> {
    let mut map: HashMap<TermId, Vec<TermId>> = HashMap::new();
    for (k, v) in pairs {
        map.entry(k).or_default().push(v);
    }
    map
}

impl TripleIndex {
    /// Dump `ds` with one match-everything scan per shard.
    pub fn dump(ds: &Datastore) -> Self {
        let mut by_pred: HashMap<TermId, Edges> = HashMap::new();
        for shard in 0..ds.num_shards() {
            for t in ds.scan_shard(shard, &TriplePattern::default()) {
                by_pred.entry(t.p).or_default().all.push((t.s, t.o));
            }
        }
        Self { dict: Arc::clone(ds.dictionary()), by_pred }
    }

    /// Answer `q` by nested-loop joins in pattern order, each probing a
    /// subject- or object-keyed index, projected on `q.select` (bag
    /// semantics, no DISTINCT). Predicates must be constants.
    pub fn answer(&self, q: &Bgp) -> Vec<Vec<TermId>> {
        let empty = Edges::default();
        let mut vars: Vec<String> = Vec::new();
        // Every partial solution binds exactly the variables seen so far.
        let mut rows: Vec<Vec<TermId>> = vec![Vec::new()];
        for pat in &q.patterns {
            let Slot::Const(p) = &pat.p else {
                panic!("reference join needs constant predicates: {pat:?}")
            };
            let edges = self.dict.lookup(p).and_then(|id| self.by_pred.get(&id)).unwrap_or(&empty);
            let s = self.resolve(&pat.s, &vars);
            let o = self.resolve(&pat.o, &vars);
            if matches!(s, End::Missing) || matches!(o, End::Missing) {
                return Vec::new();
            }
            // `?x <p> ?x` binds one column, not two, and needs s == o.
            let o_is_s = matches!((&s, &o), (End::Fresh(a), End::Fresh(b)) if a == b);
            let mut next = Vec::new();
            for row in &rows {
                let mut emit = |es: TermId, eo: TermId| {
                    let mut r = row.clone();
                    if let End::Fresh(_) = &s {
                        r.push(es);
                    }
                    if matches!(&o, End::Fresh(_)) && !o_is_s {
                        r.push(eo);
                    }
                    next.push(r);
                };
                match (s.value(row), o.value(row)) {
                    (Some(sv), ov) => {
                        for &eo in edges.by_s().get(&sv).map(Vec::as_slice).unwrap_or(&[]) {
                            if ov.is_none_or(|ov| ov == eo) {
                                emit(sv, eo);
                            }
                        }
                    }
                    (None, Some(ov)) => {
                        for &es in edges.by_o().get(&ov).map(Vec::as_slice).unwrap_or(&[]) {
                            emit(es, ov);
                        }
                    }
                    (None, None) => {
                        for &(es, eo) in &edges.all {
                            if !o_is_s || es == eo {
                                emit(es, eo);
                            }
                        }
                    }
                }
            }
            if let End::Fresh(v) = &s {
                vars.push(v.clone());
            }
            if let End::Fresh(v) = &o {
                if !o_is_s {
                    vars.push(v.clone());
                }
            }
            rows = next;
        }
        let cols: Vec<usize> = q
            .select
            .iter()
            .map(|v| vars.iter().position(|w| w == v).expect("selected variable is bound"))
            .collect();
        rows.iter().map(|r| cols.iter().map(|&c| r[c]).collect()).collect()
    }

    fn resolve(&self, slot: &Slot, vars: &[String]) -> End {
        match slot {
            Slot::Const(t) => match self.dict.lookup(t) {
                Some(id) => End::Const(id),
                None => End::Missing,
            },
            Slot::Var(v) => match vars.iter().position(|w| w == v) {
                Some(col) => End::Bound(col),
                None => End::Fresh(v.clone()),
            },
        }
    }
}

/// How one end of a pattern constrains a triple during the reference join.
enum End {
    /// A constant absent from the dictionary: nothing can match.
    Missing,
    Const(TermId),
    /// A variable bound by an earlier pattern, at this column.
    Bound(usize),
    /// A variable this pattern binds first.
    Fresh(String),
}

impl End {
    /// The value this end is fixed to for partial solution `row`, if any.
    fn value(&self, row: &[TermId]) -> Option<TermId> {
        match self {
            End::Const(id) => Some(*id),
            End::Bound(col) => Some(row[*col]),
            End::Missing | End::Fresh(_) => None,
        }
    }
}

/// Order-independent digest of result rows: each term is decoded and
/// hashed by its stable byte form, rows are sorted, then hashed in order.
pub fn digest_rows<'a>(dict: &Dictionary, rows: impl Iterator<Item = &'a [TermId]>) -> u64 {
    digest_encoded(
        rows.map(|row| encode_row(&row.iter().map(|&id| dict.decode(id)).collect::<Vec<_>>()))
            .collect(),
    )
}

/// Digest of an engine result, with columns taken in `select` order.
/// `None` when a selected variable is missing from the result schema.
pub fn digest_solutions(dict: &Dictionary, sols: &SolutionSet, select: &[String]) -> Option<u64> {
    let cols: Option<Vec<usize>> = select.iter().map(|v| sols.var_index(v)).collect();
    let cols = cols?;
    let rows: Vec<Vec<TermId>> =
        sols.rows().iter().map(|r| cols.iter().map(|&c| r[c]).collect()).collect();
    Some(digest_rows(dict, rows.iter().map(Vec::as_slice)))
}

/// Columns the repurposing query projects.
pub fn repurposing_select() -> Vec<String> {
    ["compound", "smiles", "energy"].iter().map(|s| s.to_string()).collect()
}

/// The candidate BGP of [`ids_core::workflow::repurposing_query`].
pub fn repurposing_bgp() -> Bgp {
    Bgp {
        select: ["protein", "seq", "compound", "smiles"].iter().map(|s| s.to_string()).collect(),
        patterns: vec![
            Pattern::new(var("protein"), iri("rdf:type"), iri("up:Protein")),
            Pattern::new(var("protein"), iri("up:reviewed"), Slot::Const(Term::Int(1))),
            Pattern::new(var("protein"), iri("up:sequence"), var("seq")),
            Pattern::new(var("compound"), iri("chembl:inhibits"), var("protein")),
            Pattern::new(var("compound"), iri("chembl:smiles"), var("smiles")),
        ],
    }
}

/// One candidate row with its three FILTER scores.
struct Candidate {
    compound: TermId,
    smiles_id: TermId,
    smiles: String,
    sw: f64,
    pic50: f64,
    dtba: f64,
}

/// Reference answers for repurposing queries at any thresholds: the
/// FILTER scores of every candidate are computed once by direct UDF calls
/// on a private registry (no cache attached), and docking energies are
/// computed on demand, once per ligand.
pub struct RepurposingReference {
    dict: Arc<Dictionary>,
    registry: UdfRegistry,
    candidates: Vec<Candidate>,
    energies: HashMap<String, f64>,
}

impl RepurposingReference {
    pub fn new(index: &TripleIndex, target: &Target, models: WorkflowModels) -> Self {
        let dict = Arc::clone(&index.dict);
        let registry = UdfRegistry::new();
        register_workflow_udfs(&registry, &dict, target, models, None);
        let text = |id: TermId| -> String {
            dict.decode(id)
                .and_then(|t| t.as_str().map(String::from))
                .expect("sequence and SMILES objects are string literals")
        };
        let call = |name: &str, args: &[UdfValue]| -> f64 {
            registry
                .call(name, args)
                .unwrap_or_else(|e| panic!("reference call of {name}: {e}"))
                .value
                .as_f64()
                .unwrap_or(f64::NAN)
        };
        let mut sw_memo: HashMap<TermId, f64> = HashMap::new();
        let mut candidates = Vec::new();
        for row in index.answer(&repurposing_bgp()) {
            let (protein, seq_id, compound, smiles_id) = (row[0], row[1], row[2], row[3]);
            let (seq, smiles) = (text(seq_id), text(smiles_id));
            let sw = *sw_memo
                .entry(seq_id)
                .or_insert_with(|| call("sw_similarity", &[UdfValue::Str(seq.clone())]));
            let pic50 =
                call("pic50", &[UdfValue::Str(smiles.clone()), UdfValue::Id(protein.raw())]);
            let dtba = call("dtba", &[UdfValue::Str(seq), UdfValue::Str(smiles.clone())]);
            candidates.push(Candidate { compound, smiles_id, smiles, sw, pic50, dtba });
        }
        Self { dict, registry, candidates, energies: HashMap::new() }
    }

    /// Digest of the expected `(compound, smiles, energy)` rows.
    pub fn digest(&mut self, t: &RepurposingThresholds) -> u64 {
        let mut rows: Vec<Vec<u8>> = Vec::new();
        for c in &self.candidates {
            if !(c.sw >= t.sw_similarity && c.pic50 > t.min_pic50 && c.dtba >= t.min_dtba) {
                continue;
            }
            let energy = *self.energies.entry(c.smiles.clone()).or_insert_with(|| {
                self.registry
                    .call("vina_docking", &[UdfValue::Str(c.smiles.clone())])
                    .unwrap_or_else(|e| panic!("reference docking call: {e}"))
                    .value
                    .as_f64()
                    .unwrap_or(f64::NAN)
            });
            rows.push(encode_row(&[
                self.dict.decode(c.compound),
                self.dict.decode(c.smiles_id),
                Some(Term::float(energy)),
            ]));
        }
        digest_encoded(rows)
    }
}

fn encode_row(terms: &[Option<Term>]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for t in terms {
        let tb = t.as_ref().map(Term::to_bytes).unwrap_or_default();
        bytes.extend_from_slice(&(tb.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&tb);
    }
    bytes
}

fn digest_encoded(mut rows: Vec<Vec<u8>>) -> u64 {
    rows.sort();
    let mut all = Vec::new();
    for r in &rows {
        all.extend_from_slice(&(r.len() as u64).to_le_bytes());
        all.extend_from_slice(r);
    }
    fnv1a(&all)
}

/// A benchmark query in structured form, so the reference never parses
/// IQL.
#[derive(Debug, Clone, PartialEq)]
pub enum QuerySpec {
    /// `workflow::repurposing_query` at these thresholds.
    Repurposing(RepurposingThresholds),
    /// A BGP-only query.
    Bgp(Bgp),
}

impl QuerySpec {
    pub fn text(&self) -> String {
        match self {
            QuerySpec::Repurposing(t) => repurposing_query(t),
            QuerySpec::Bgp(b) => b.to_iql(),
        }
    }

    pub fn select(&self) -> Vec<String> {
        match self {
            QuerySpec::Repurposing(_) => repurposing_select(),
            QuerySpec::Bgp(b) => b.select.clone(),
        }
    }

    /// The query's triple patterns.
    pub fn patterns(&self) -> Vec<Pattern> {
        match self {
            QuerySpec::Repurposing(_) => repurposing_bgp().patterns,
            QuerySpec::Bgp(b) => b.patterns.clone(),
        }
    }
}

/// Reference digests for any [`QuerySpec`] over one dataset, memoized by
/// query text.
pub struct Reference {
    index: TripleIndex,
    repurposing: Option<RepurposingReference>,
    memo: HashMap<String, u64>,
}

impl Reference {
    /// Dump `ds`; with a `target`, also score the repurposing candidates
    /// (the workflow UDFs on a private registry with no cache).
    pub fn new(ds: &Datastore, target: Option<&Target>) -> Self {
        let index = TripleIndex::dump(ds);
        let repurposing =
            target.map(|t| RepurposingReference::new(&index, t, crate::setup::workflow_models()));
        Self { index, repurposing, memo: HashMap::new() }
    }

    pub fn digest(&mut self, q: &QuerySpec) -> u64 {
        let key = q.text();
        if let Some(&d) = self.memo.get(&key) {
            return d;
        }
        let d = match q {
            QuerySpec::Repurposing(t) => self
                .repurposing
                .as_mut()
                .expect("repurposing queries run only on NCNPR datasets")
                .digest(t),
            QuerySpec::Bgp(b) => {
                let rows = self.index.answer(b);
                digest_rows(&self.index.dict, rows.iter().map(Vec::as_slice))
            }
        };
        self.memo.insert(key, d);
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::{count_failures, Record};
    use crate::sequential;
    use crate::setup;
    use crate::workload::{serve_pool, whatif_queries};
    use ids_workloads::ncnpr::{Band, NcnprConfig};

    /// A small NCNPR dataset (short sequences) so debug-build tests stay
    /// fast: two tight-band proteins and a few unreviewed ones.
    fn tiny(seed: u64) -> setup::Ready {
        let config = NcnprConfig {
            seed,
            sequence_len: 48,
            bands: vec![Band {
                mutation_rate: 0.0,
                similarity_range: None,
                proteins: 2,
                compounds_per_protein: 3,
            }],
            background_proteins: 5,
        };
        setup::ncnpr(&config, None)
    }

    fn run(ready: &mut setup::Ready, seed: u64, n: usize) -> Vec<Record> {
        sequential::timed(&mut ready.inst, &mut whatif_queries(seed), 0.0, n, 1).records
    }

    #[test]
    fn engine_matches_reference_on_every_pool_query() {
        let mut ready = tiny(5);
        let mut reference = Reference::new(ready.inst.datastore(), ready.target.as_ref());
        let mut queries = serve_pool().into_iter();
        let records = sequential::timed(&mut ready.inst, &mut queries, 0.0, serve_pool().len(), 1);
        assert_eq!(records.records.len(), serve_pool().len());
        assert!(records.records.iter().any(|r| r.rows > 0));
        assert_eq!(count_failures(&records.records, &mut reference), 0);
    }

    #[test]
    fn same_seed_same_virtual_seconds_and_digests() {
        let (mut a, mut b) = (tiny(9), tiny(9));
        let (ra, rb) = (run(&mut a, 3, 4), run(&mut b, 3, 4));
        for (x, y) in ra.iter().zip(&rb) {
            assert_eq!(x.query, y.query);
            assert_eq!(x.virtual_s.to_bits(), y.virtual_s.to_bits());
            assert_eq!(x.digest, y.digest);
        }
        assert!(ra.iter().all(|r| r.digest.is_some()));
    }

    #[test]
    fn corrupted_row_is_caught() {
        let mut ready = tiny(5);
        let query = QuerySpec::Repurposing(RepurposingThresholds {
            sw_similarity: 0.9,
            min_pic50: 3.0,
            min_dtba: 3.0,
        });
        let out = ready.inst.query(&query.text()).expect("query runs");
        assert!(!out.solutions.is_empty(), "the tiny dataset has survivors");
        let dict = ready.inst.datastore().dictionary();
        let mut reference = Reference::new(ready.inst.datastore(), ready.target.as_ref());
        let select = query.select();
        let good = digest_solutions(dict, &out.solutions, &select);
        assert_eq!(good, Some(reference.digest(&query)));

        // Swap one row's compound for another term the dictionary knows.
        let mut rows = out.solutions.rows().to_vec();
        let c = out.solutions.var_index("compound").unwrap();
        rows[0][c] = dict.lookup(&Term::iri("up:P29274")).expect("target protein is interned");
        let corrupted = SolutionSet::new(out.solutions.vars().to_vec(), rows);
        let bad = digest_solutions(dict, &corrupted, &select);
        assert_ne!(bad, good);
        let record = |digest| Record {
            query: query.clone(),
            wall_ms: 1.0,
            speed: 1.0,
            virtual_s: 0.0,
            digest,
            rows: 1,
        };
        assert_eq!(count_failures(&[record(good), record(bad), record(None)], &mut reference), 2);
    }

    #[test]
    fn reference_join_handles_constants_and_shared_variables() {
        let ds = Datastore::new(3);
        for (s, o) in [("a", "x"), ("b", "x"), ("c", "y")] {
            ds.add_fact(&Term::iri(s), &Term::iri("p"), &Term::iri(o));
        }
        ds.add_fact(&Term::iri("x"), &Term::iri("q"), &Term::Int(1));
        ds.add_fact(&Term::iri("y"), &Term::iri("q"), &Term::Int(2));
        ds.build_indexes();
        let index = TripleIndex::dump(&ds);
        let q = Bgp {
            select: vec!["s".into(), "o".into()],
            patterns: vec![
                Pattern::new(var("s"), iri("p"), var("o")),
                Pattern::new(var("o"), iri("q"), Slot::Const(Term::Int(1))),
            ],
        };
        let mut got: Vec<Vec<Term>> = index
            .answer(&q)
            .iter()
            .map(|r| r.iter().map(|&id| ds.decode(id).unwrap()).collect())
            .collect();
        got.sort_by_key(|r| format!("{r:?}"));
        assert_eq!(
            got,
            vec![vec![Term::iri("a"), Term::iri("x")], vec![Term::iri("b"), Term::iri("x")]]
        );
        let missing = Bgp {
            select: vec!["s".into()],
            patterns: vec![Pattern::new(var("s"), iri("p"), iri("nowhere"))],
        };
        assert!(index.answer(&missing).is_empty());
        assert_eq!(q.to_iql(), "SELECT ?s ?o WHERE { ?s <p> ?o . ?o <q> 1 . }");
    }
}
