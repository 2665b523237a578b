//! Virtual-time pin for BGP joins at 2,048 ranks.
//!
//! Runs the four join shapes of the wall-clock benchmark's `graph_join`
//! workload over the Table 1 sources (generated at scale 2e-6, about
//! 206 k triples) on a 64-node Cray EX instance — 2,048 ranks, so every
//! join exchanges across 2,048 partitions and most rank-local joins have
//! an empty side. Each
//! query's virtual latency (exact `f64` bits) and a digest of its sorted,
//! decoded rows are pinned. Host-side rewrites of the scan, exchange,
//! join, and planning paths must leave both untouched; a change to row
//! placement or to any virtual charge fails here.

use ids::core::{IdsConfig, IdsInstance};
use ids::simrt::rng::fnv1a;
use ids::workloads::sources::generate_all;

/// The four `graph_join` templates, each with one fixed constant.
const QUERIES: [&str; 4] = [
    "SELECT ?s ?p WHERE { ?s <biosample:attribute> \"attr7\" . ?s <biosample:organism> ?t . \
     ?p <up:organism> ?t . ?p <up:reviewed> 1 . }",
    "SELECT ?g ?p ?x ?t WHERE { ?g <odb:species> <taxon:42> . ?g <odb:member> ?p . \
     ?x <b2r:xref> ?p . ?p <up:organism> ?t . }",
    "SELECT ?c ?p ?t WHERE { ?c <chembl:assayCount> 3 . ?c <chembl:inhibits> ?p . \
     ?p <up:organism> ?t . }",
    "SELECT ?x ?p ?g WHERE { ?x <b2r:source> <db:4> . ?x <b2r:xref> ?p . \
     ?g <odb:member> ?p . ?p <up:reviewed> 1 . }",
];

/// (virtual seconds as `f64` bits, row count, sorted-row digest) per
/// query, recorded before the host-cost rewrite of the BGP path.
const PINNED: [(u64, usize, u64); 4] = [
    (4571676363862173534, 71, 2078952540092470909),
    (4571675561567156910, 2, 13353611310297513759),
    (4571586474123457566, 3, 2877905779232072396),
    (4571674509272641214, 4, 7086970796482473865),
];

/// FNV-1a over the query's rows, each rendered from its decoded terms and
/// sorted, so the digest depends on the result multiset only.
fn digest(inst: &IdsInstance, sols: &ids::graph::SolutionSet) -> u64 {
    let mut rows: Vec<String> = sols
        .rows()
        .iter()
        .map(|row| {
            let terms: Vec<String> =
                row.iter().map(|&id| format!("{:?}", inst.datastore().decode(id))).collect();
            terms.join("\u{1f}")
        })
        .collect();
    rows.sort();
    fnv1a(format!("{:?}|{}", sols.vars(), rows.join("\u{1e}")).as_bytes())
}

#[test]
fn graph_join_virtual_time_is_pinned_at_2048_ranks() {
    let mut inst = IdsInstance::launch(IdsConfig::cray_ex(64, 11));
    assert_eq!(inst.cluster().topology().total_ranks(), 2048);
    generate_all(inst.datastore(), 2.0e-6, 0xDA7A);
    inst.datastore().build_indexes();
    let mut got = Vec::new();
    for q in QUERIES {
        let out = inst.query(q).unwrap_or_else(|e| panic!("{q}: {e}"));
        got.push((out.elapsed_secs.to_bits(), out.solutions.len(), digest(&inst, &out.solutions)));
    }
    assert_eq!(got, PINNED, "virtual seconds / rows / digests moved: {got:?}");
}
