//! Differential tests for the columnar BGP path: the batch hash join, the
//! exchange routing, and the index-range shard scans must agree exactly —
//! rows, row order, column widths and `byte_size` — with the simplest
//! possible model of each: the row-oriented `hash_join`, pushing rows one
//! by one, and a filter over every stored triple.

use ids_graph::ops::{hash_join, hash_join_batch, scan_to_solutions};
use ids_graph::{
    PartitionedStore, Routing, ScanSpec, SolutionBatch, SolutionSet, TermId, Triple, TriplePattern,
};
use proptest::prelude::*;

/// A small id domain (so keys repeat) with some ids moved past `u32::MAX`
/// when `wide` is set, to exercise 8-byte columns.
fn term(v: u64, wide: bool) -> TermId {
    if wide && v.is_multiple_of(3) {
        TermId(u64::from(u32::MAX) + 1 + v)
    } else {
        TermId(v)
    }
}

/// Join schemas: one shared variable, none (cross product), two shared
/// variables at different positions, key-only, two keys with no
/// right-side extras, and a side without variables (the rows of a fully
/// bound pattern).
fn layout(i: usize) -> (Vec<&'static str>, Vec<&'static str>) {
    match i {
        0 => (vec!["a", "b"], vec!["b", "c"]),
        1 => (vec!["a", "b"], vec!["c", "d"]),
        2 => (vec!["a", "b", "c"], vec!["c", "a", "d"]),
        3 => (vec!["a"], vec!["a"]),
        4 => (vec!["a", "b"], vec!["b", "a"]),
        5 => (vec![], vec!["a"]),
        _ => (vec!["a"], vec![]),
    }
}

fn set(vars: &[&str], rows: &[(u64, u64, u64)], wide: bool) -> SolutionSet {
    SolutionSet::new(
        vars.iter().map(|v| v.to_string()).collect(),
        rows.iter()
            .map(|&(x, y, z)| [x, y, z][..vars.len()].iter().map(|&v| term(v, wide)).collect())
            .collect(),
    )
}

/// The index order a scan of `pat` returns: SPO when the subject is bound
/// (or nothing is), POS when the predicate leads, OSP when only the
/// object is bound.
fn index_key(pat: &TriplePattern, t: &Triple) -> (TermId, TermId, TermId) {
    match (pat.s, pat.p, pat.o) {
        (None, Some(_), _) => (t.p, t.o, t.s),
        (None, None, Some(_)) => (t.o, t.s, t.p),
        _ => (t.s, t.p, t.o),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `hash_join_batch` returns the row join's rows in the row join's
    /// order, with the column widths (hence `byte_size`) that pushing
    /// those rows one by one gives — on empty sides, cross products,
    /// duplicate keys, multi-variable keys, and ids above `u32::MAX`.
    #[test]
    fn batch_join_matches_row_join(
        shape in 0usize..7,
        left_rows in proptest::collection::vec((0u64..6, 0u64..6, 0u64..6), 0..14),
        right_rows in proptest::collection::vec((0u64..6, 0u64..6, 0u64..6), 0..14),
        wide in any::<bool>(),
    ) {
        let (lv, rv) = layout(shape);
        let left = set(&lv, &left_rows, wide);
        let right = set(&rv, &right_rows, wide);
        let rowwise = hash_join(&left, &right);
        let batch =
            hash_join_batch(&SolutionBatch::from_set(&left), &SolutionBatch::from_set(&right))
                .unwrap();
        prop_assert_eq!(batch.to_set(), rowwise.clone());
        prop_assert_eq!(batch.byte_size(), rowwise.byte_size());
        prop_assert_eq!(batch, SolutionBatch::from_set(&rowwise));
    }

    /// Routing then scattering equals pushing every row onto its part in
    /// (source, row) order; `Routing::byte_size` prices each part exactly,
    /// and a part left out of the scatter is `None`.
    #[test]
    fn routing_matches_row_pushes(
        sources in proptest::collection::vec(
            proptest::collection::vec((0u64..40, 0u64..40, 0u64..1), 0..12), 1..5),
        parts in 1usize..6,
        wide in any::<bool>(),
    ) {
        let vars = ["k", "v"];
        let batches: Vec<SolutionBatch> =
            sources.iter().map(|rows| SolutionBatch::from_set(&set(&vars, rows, wide))).collect();
        let dest = |b: &SolutionBatch, i: usize| (b.column(0).get(i) % parts as u64) as usize;
        let mut expect: Vec<SolutionBatch> =
            (0..parts).map(|_| SolutionBatch::empty(vec!["k".to_string(), "v".to_string()])).collect();
        for b in &batches {
            for i in 0..b.len() {
                expect[dest(b, i)].push_row(&b.row(i));
            }
        }
        let routing = Routing::route(batches, parts, dest).unwrap();
        for (d, e) in expect.iter().enumerate() {
            prop_assert_eq!(routing.rows(d), e.len());
            prop_assert_eq!(routing.byte_size(d), e.byte_size());
        }
        let got = routing.scatter(|d| d != 0);
        prop_assert!(got[0].is_none());
        for d in 1..parts {
            prop_assert_eq!(got[d].as_ref(), Some(&expect[d]));
        }
    }

    /// Shard `scan`, `count`, and the columnar `scan_shard_batch` agree
    /// with a filter over every stored triple, in index order, for all
    /// eight bound/unbound `(s, p, o)` shapes.
    #[test]
    fn shard_scans_match_a_naive_filter(
        triples in proptest::collection::vec((0u64..10, 0u64..4, 0u64..10), 0..80),
        shards in 1usize..5,
        probe in (0u64..10, 0u64..4, 0u64..10),
        wide in any::<bool>(),
    ) {
        let mut store = PartitionedStore::new(shards);
        let mut all: Vec<Triple> = triples
            .iter()
            .map(|&(s, p, o)| Triple::new(term(s, wide), term(p, wide), term(o, wide)))
            .collect();
        store.insert_all(all.iter().copied());
        store.build_indexes();
        all.sort_unstable();
        all.dedup();
        let (ps, pp, po) = (term(probe.0, wide), term(probe.1, wide), term(probe.2, wide));
        for shape in 0..8u8 {
            let pat = TriplePattern::new(
                (shape & 1 != 0).then_some(ps),
                (shape & 2 != 0).then_some(pp),
                (shape & 4 != 0).then_some(po),
            );
            let mut total = 0;
            for shard in 0..shards {
                let mut expect: Vec<Triple> = all
                    .iter()
                    .filter(|t| store.shard_of(t.s) == shard && pat.matches(t))
                    .copied()
                    .collect();
                expect.sort_by_key(|t| index_key(&pat, t));
                let got = store.scan_shard(shard, &pat);
                prop_assert_eq!(&got, &expect);
                prop_assert_eq!(store.count_shard(shard, &pat), expect.len());
                total += expect.len();

                let vars = [
                    pat.s.is_none().then_some("s"),
                    pat.p.is_none().then_some("p"),
                    pat.o.is_none().then_some("o"),
                ];
                let spec = ScanSpec::new(pat, vars[0], vars[1], vars[2]);
                let batch = store.scan_shard_batch(shard, &spec);
                let rowwise = scan_to_solutions(&pat, vars[0], vars[1], vars[2], &expect);
                prop_assert_eq!(batch.byte_size(), rowwise.byte_size());
                prop_assert_eq!(batch, SolutionBatch::from_set(&rowwise));
            }
            prop_assert_eq!(store.count_all(&pat), total);
        }
    }
}
