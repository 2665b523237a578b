//! The partitioned triple store.
//!
//! Triples are distributed across the cluster's ranks by a hash of the
//! subject id, as CGE shards its graph. Each shard keeps three sorted
//! indexes (SPO, POS, OSP) so any triple pattern scans in
//! O(log n + answers): subject-bound lookups use SPO, predicate scans use
//! POS (through a small per-shard predicate directory), object lookups
//! use OSP. Index builds are parallel (rayon) and ingest is buffered,
//! mirroring CGE's bulk-load-then-query lifecycle.

use crate::batch::{Column, SolutionBatch};
use crate::term::TermId;
use crate::triple::Triple;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A triple pattern: `None` positions are wildcards ("variables").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TriplePattern {
    pub s: Option<TermId>,
    pub p: Option<TermId>,
    pub o: Option<TermId>,
}

impl TriplePattern {
    /// Pattern with every position bound/unbound as given.
    pub fn new(s: Option<TermId>, p: Option<TermId>, o: Option<TermId>) -> Self {
        Self { s, p, o }
    }

    /// Whether `t` matches this pattern.
    #[inline]
    pub fn matches(&self, t: &Triple) -> bool {
        self.s.is_none_or(|s| s == t.s)
            && self.p.is_none_or(|p| p == t.p)
            && self.o.is_none_or(|o| o == t.o)
    }
}

/// A triple position a scan binds to a variable.
#[derive(Debug, Clone, Copy)]
enum Position {
    S,
    P,
    O,
}

impl Position {
    #[inline]
    fn of(self, t: &Triple) -> TermId {
        match self {
            Position::S => t.s,
            Position::P => t.p,
            Position::O => t.o,
        }
    }
}

/// A pattern scan that binds the pattern's wildcards to variables: the
/// output schema (built once, shared by every shard's batch) and which
/// triple position fills each column.
#[derive(Debug, Clone)]
pub struct ScanSpec {
    pattern: TriplePattern,
    bind: Vec<Position>,
    schema: Arc<[String]>,
}

impl ScanSpec {
    /// Bind `var_s` / `var_p` / `var_o` (`None` for no column) in that
    /// column order.
    ///
    /// # Panics
    /// Panics if a variable is supplied for a position the pattern binds.
    pub fn new(
        pattern: TriplePattern,
        var_s: Option<&str>,
        var_p: Option<&str>,
        var_o: Option<&str>,
    ) -> Self {
        assert!(!(pattern.s.is_some() && var_s.is_some()), "subject is bound; no variable allowed");
        assert!(
            !(pattern.p.is_some() && var_p.is_some()),
            "predicate is bound; no variable allowed"
        );
        assert!(!(pattern.o.is_some() && var_o.is_some()), "object is bound; no variable allowed");
        let mut bind = Vec::new();
        let mut vars = Vec::new();
        for (pos, var) in [(Position::S, var_s), (Position::P, var_p), (Position::O, var_o)] {
            if let Some(v) = var {
                bind.push(pos);
                vars.push(v.to_string());
            }
        }
        Self { pattern, bind, schema: vars.into() }
    }
}

/// The sub-slice of `index` (sorted by `key`) whose keys equal `k`.
#[inline]
fn equal_range<K: Ord>(index: &[Triple], key: impl Fn(&Triple) -> K, k: K) -> &[Triple] {
    let lo = index.partition_point(|t| key(t) < k);
    let len = index[lo..].partition_point(|t| key(t) <= k);
    &index[lo..lo + len]
}

/// One rank's shard: the same triples in three sort orders.
#[derive(Debug, Default)]
struct Shard {
    spo: Vec<Triple>,
    pos: Vec<Triple>,
    osp: Vec<Triple>,
    /// Predicate directory over POS: each distinct predicate with the
    /// offset its run starts at, ascending. A few dozen entries per shard,
    /// so a predicate-led lookup touches this small array instead of
    /// binary-searching the (cold) POS index.
    preds: Vec<(TermId, usize)>,
    pending: Vec<Triple>,
}

fn pos_key(t: &Triple) -> (TermId, TermId, TermId) {
    (t.p, t.o, t.s)
}

fn osp_key(t: &Triple) -> (TermId, TermId, TermId) {
    (t.o, t.s, t.p)
}

impl Shard {
    fn build(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        // Take the buffer so its allocation is freed here rather than kept
        // (empty) for the store's lifetime: the next shard's indexes reuse
        // it, which keeps ingest's peak footprint at about the indexes'.
        let pending = std::mem::take(&mut self.pending);
        self.spo.extend_from_slice(&pending);
        self.pos.extend_from_slice(&pending);
        self.osp.extend(pending);
        self.spo.sort_unstable();
        self.spo.dedup();
        self.pos.sort_unstable_by_key(pos_key);
        self.pos.dedup();
        self.osp.sort_unstable_by_key(osp_key);
        self.osp.dedup();
        self.preds.clear();
        for (i, t) in self.pos.iter().enumerate() {
            if self.preds.last().is_none_or(|&(p, _)| p != t.p) {
                self.preds.push((t.p, i));
            }
        }
    }

    /// The POS run of predicate `p`, found through the directory.
    fn predicate_run(&self, p: TermId) -> &[Triple] {
        let i = self.preds.partition_point(|&(q, _)| q < p);
        match self.preds.get(i) {
            Some(&(q, start)) if q == p => {
                let end = self.preds.get(i + 1).map_or(self.pos.len(), |&(_, e)| e);
                &self.pos[start..end]
            }
            _ => &[],
        }
    }

    /// The contiguous index range holding exactly the pattern's matches.
    /// Every bound/unbound shape has an index sorted with its bound
    /// positions as a prefix, so no match needs filtering: subject-led
    /// shapes seek SPO, predicate-led ones POS (`(p,o)` seeks the full
    /// pair), object-led ones OSP (`(s,o)` seeks `(o,s)`, which lists a
    /// subject's facts in the same predicate order SPO does). Predicate
    /// runs come from the directory.
    fn matches(&self, pat: &TriplePattern) -> &[Triple] {
        debug_assert!(self.pending.is_empty(), "scan before build_indexes()");
        match (pat.s, pat.p, pat.o) {
            (Some(s), None, None) => equal_range(&self.spo, |t| t.s, s),
            (Some(s), Some(p), None) => equal_range(&self.spo, |t| (t.s, t.p), (s, p)),
            (Some(s), Some(p), Some(o)) => equal_range(&self.spo, |t| (t.s, t.p, t.o), (s, p, o)),
            (Some(s), None, Some(o)) => equal_range(&self.osp, |t| (t.o, t.s), (o, s)),
            (None, Some(p), None) => self.predicate_run(p),
            (None, Some(p), Some(o)) => equal_range(self.predicate_run(p), |t| t.o, o),
            (None, None, Some(o)) => equal_range(&self.osp, |t| t.o, o),
            (None, None, None) => &self.spo,
        }
    }
}

/// Per-shard sizing statistics for load-balance analysis.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardStats {
    /// Triples per shard, indexed by shard (= rank) id.
    pub triples: Vec<usize>,
}

impl ShardStats {
    /// Max/mean shard imbalance (1.0 = perfect).
    pub fn imbalance(&self) -> f64 {
        let max = self.triples.iter().copied().max().unwrap_or(0) as f64;
        let mean = self.triples.iter().sum::<usize>() as f64 / self.triples.len().max(1) as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    /// Total triples across shards.
    pub fn total(&self) -> usize {
        self.triples.iter().sum()
    }
}

/// The store: one shard per rank, subject-hash partitioned.
pub struct PartitionedStore {
    shards: Vec<Shard>,
}

/// Mix a term id into a well-distributed placement hash. Dense sequential
/// ids would otherwise stripe subjects across shards in lockstep with
/// insertion order.
#[inline]
fn placement_hash(id: TermId) -> u64 {
    let mut z = id.0.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl PartitionedStore {
    /// A store sharded `num_shards` ways (one shard per rank).
    pub fn new(num_shards: usize) -> Self {
        assert!(num_shards > 0, "need at least one shard");
        Self { shards: (0..num_shards).map(|_| Shard::default()).collect() }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning a subject.
    #[inline]
    pub fn shard_of(&self, subject: TermId) -> usize {
        (placement_hash(subject) % self.shards.len() as u64) as usize
    }

    /// Buffer a triple for insertion (call [`Self::build_indexes`] before
    /// scanning).
    pub fn insert(&mut self, t: Triple) {
        let shard = self.shard_of(t.s);
        self.shards[shard].pending.push(t);
    }

    /// Buffer a batch.
    pub fn insert_all(&mut self, triples: impl IntoIterator<Item = Triple>) {
        for t in triples {
            self.insert(t);
        }
    }

    /// Sort and deduplicate all shard indexes (parallel).
    pub fn build_indexes(&mut self) {
        self.shards.par_iter_mut().for_each(Shard::build);
    }

    /// Scan one shard for a pattern. Ranks call this on their own shard.
    pub fn scan_shard(&self, shard: usize, pat: &TriplePattern) -> Vec<Triple> {
        self.shards[shard].matches(pat).to_vec()
    }

    /// Scan one shard straight into a columnar batch: each bound column is
    /// filled from the index range at its exact length, in the row order
    /// of [`Self::scan_shard`], at the width pushing the rows would give.
    pub fn scan_shard_batch(&self, shard: usize, spec: &ScanSpec) -> SolutionBatch {
        let range = self.shards[shard].matches(&spec.pattern);
        let cols = spec
            .bind
            .iter()
            .map(|&pos| Column::collect(range.iter().map(|t| pos.of(t).raw()), range.len()));
        SolutionBatch::from_columns(Arc::clone(&spec.schema), range.len(), cols)
    }

    /// Count matches in one shard without materializing.
    pub fn count_shard(&self, shard: usize, pat: &TriplePattern) -> usize {
        self.shards[shard].matches(pat).len()
    }

    /// Scan every shard (single-node convenience / tests).
    pub fn scan_all(&self, pat: &TriplePattern) -> Vec<Triple> {
        (0..self.shards.len()).flat_map(|i| self.scan_shard(i, pat)).collect()
    }

    /// Global match count for a pattern, saturating at `usize::MAX`.
    pub fn count_all(&self, pat: &TriplePattern) -> usize {
        self.shards.iter().map(|s| s.matches(pat).len()).fold(0, usize::saturating_add)
    }

    /// Total triples stored.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.spo.len() + s.pending.len()).sum()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-shard statistics.
    pub fn stats(&self) -> ShardStats {
        ShardStats { triples: self.shards.iter().map(|s| s.spo.len() + s.pending.len()).collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64, p: u64, o: u64) -> Triple {
        Triple::new(TermId(s), TermId(p), TermId(o))
    }

    fn demo_store(shards: usize) -> PartitionedStore {
        let mut st = PartitionedStore::new(shards);
        // 100 subjects × 3 predicates.
        for s in 0..100 {
            st.insert(t(s, 1000, 2000 + s % 10)); // type
            st.insert(t(s, 1001, 3000 + s)); // name
            st.insert(t(s, 1002, s + 1)); // linked-to next subject
        }
        st.build_indexes();
        st
    }

    #[test]
    fn subject_scan_finds_all_facts() {
        let st = demo_store(4);
        let got = st.scan_all(&TriplePattern::new(Some(TermId(5)), None, None));
        assert_eq!(got.len(), 3);
        assert!(got.iter().all(|tr| tr.s == TermId(5)));
    }

    #[test]
    fn predicate_scan_spans_shards() {
        let st = demo_store(4);
        let got = st.scan_all(&TriplePattern::new(None, Some(TermId(1001)), None));
        assert_eq!(got.len(), 100);
    }

    #[test]
    fn object_scan_uses_osp() {
        let st = demo_store(4);
        let got = st.scan_all(&TriplePattern::new(None, None, Some(TermId(2003))));
        assert_eq!(got.len(), 10, "subjects with s%10==3");
        assert!(got.iter().all(|tr| tr.o == TermId(2003)));
    }

    #[test]
    fn bound_spo_point_lookup() {
        let st = demo_store(4);
        let got =
            st.scan_all(&TriplePattern::new(Some(TermId(7)), Some(TermId(1002)), Some(TermId(8))));
        assert_eq!(got.len(), 1);
        let missing =
            st.scan_all(&TriplePattern::new(Some(TermId(7)), Some(TermId(1002)), Some(TermId(9))));
        assert!(missing.is_empty());
    }

    #[test]
    fn full_scan_returns_everything() {
        let st = demo_store(4);
        assert_eq!(st.scan_all(&TriplePattern::default()).len(), 300);
        assert_eq!(st.len(), 300);
    }

    #[test]
    fn counts_agree_with_scans() {
        let st = demo_store(4);
        for pat in [
            TriplePattern::default(),
            TriplePattern::new(Some(TermId(3)), None, None),
            TriplePattern::new(None, Some(TermId(1000)), None),
            TriplePattern::new(None, None, Some(TermId(2001))),
            TriplePattern::new(None, Some(TermId(1000)), Some(TermId(2001))),
        ] {
            assert_eq!(st.count_all(&pat), st.scan_all(&pat).len(), "{pat:?}");
        }
    }

    #[test]
    fn duplicates_are_removed_at_build() {
        let mut st = PartitionedStore::new(2);
        st.insert(t(1, 2, 3));
        st.insert(t(1, 2, 3));
        st.build_indexes();
        assert_eq!(st.len(), 1);
    }

    #[test]
    fn same_subject_lands_on_one_shard() {
        let st = demo_store(8);
        for s in 0..100u64 {
            let shard = st.shard_of(TermId(s));
            // All of subject s's facts must be in that shard.
            let local = st.scan_shard(shard, &TriplePattern::new(Some(TermId(s)), None, None));
            assert_eq!(local.len(), 3, "subject {s}");
        }
    }

    #[test]
    fn placement_is_reasonably_balanced() {
        let mut st = PartitionedStore::new(16);
        for s in 0..16_000 {
            st.insert(t(s, 1, 2));
        }
        st.build_indexes();
        let stats = st.stats();
        assert!(stats.imbalance() < 1.2, "imbalance {}", stats.imbalance());
        assert_eq!(stats.total(), 16_000);
    }

    #[test]
    fn incremental_ingest_after_build() {
        let mut st = demo_store(4);
        st.insert(t(500, 1000, 2000));
        st.build_indexes();
        assert_eq!(st.scan_all(&TriplePattern::new(Some(TermId(500)), None, None)).len(), 1);
        // Earlier data still present.
        assert_eq!(st.len(), 301);
    }
}
