//! Shard-local relational operators.
//!
//! The paper's query engine "commonly re-balances solutions across ranks
//! between operations (e.g., scans, joins, merges)" (§2.4.2) — these are
//! those operations, executed per rank on local solution sets. Cross-rank
//! movement is the engine's job (ids-core); everything here is pure.

use crate::batch::{Column, SolutionBatch};
use crate::solution::SolutionSet;
use crate::store::TriplePattern;
use crate::term::TermId;
use crate::triple::Triple;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

/// Why a batch operator refused its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpError {
    /// A column the operator reads has an unbound cell; joins and
    /// exchanges run on fully bound solutions only.
    NullBinding { var: String },
    /// Batches that must share a schema do not.
    SchemaMismatch { left: Vec<String>, right: Vec<String> },
    /// An operator that needs at least one input got none.
    NoInput,
    /// A scatter routed a row to a part that does not exist.
    PartOutOfRange { part: usize, parts: usize },
}

impl std::fmt::Display for OpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpError::NullBinding { var } => write!(f, "unbound ?{var} in a fully bound operator"),
            OpError::SchemaMismatch { left, right } => {
                write!(f, "schemas differ: {left:?} vs {right:?}")
            }
            OpError::NoInput => write!(f, "operator needs at least one input"),
            OpError::PartOutOfRange { part, parts } => {
                write!(f, "row routed to part {part} of {parts}")
            }
        }
    }
}

impl std::error::Error for OpError {}

/// Bind a scanned pattern's wildcards to variables, producing solutions.
///
/// `var_s` / `var_p` / `var_o` name the variables for unbound positions
/// (`None` for bound positions, which produce no column). A position that
/// is bound in the pattern must not carry a variable name.
///
/// # Panics
/// Panics if a variable is supplied for a bound position.
pub fn scan_to_solutions(
    pattern: &TriplePattern,
    var_s: Option<&str>,
    var_p: Option<&str>,
    var_o: Option<&str>,
    triples: &[Triple],
) -> SolutionSet {
    assert!(!(pattern.s.is_some() && var_s.is_some()), "subject is bound; no variable allowed");
    assert!(!(pattern.p.is_some() && var_p.is_some()), "predicate is bound; no variable allowed");
    assert!(!(pattern.o.is_some() && var_o.is_some()), "object is bound; no variable allowed");
    let mut vars = Vec::new();
    if let Some(v) = var_s {
        vars.push(v.to_string());
    }
    if let Some(v) = var_p {
        vars.push(v.to_string());
    }
    if let Some(v) = var_o {
        vars.push(v.to_string());
    }
    let mut out = SolutionSet::empty(vars);
    for t in triples {
        debug_assert!(pattern.matches(t));
        let mut row = Vec::new();
        if var_s.is_some() {
            row.push(t.s);
        }
        if var_p.is_some() {
            row.push(t.p);
        }
        if var_o.is_some() {
            row.push(t.o);
        }
        out.push(row);
    }
    out
}

/// Hash join on all shared variables. The output schema is the left schema
/// followed by the right's non-shared variables, matching SPARQL BGP
/// semantics. If there are no shared variables this is a cross product.
pub fn hash_join(left: &SolutionSet, right: &SolutionSet) -> SolutionSet {
    let shared: Vec<(usize, usize)> = left
        .vars()
        .iter()
        .enumerate()
        .filter_map(|(li, v)| right.var_index(v).map(|ri| (li, ri)))
        .collect();
    let right_extra: Vec<usize> =
        (0..right.vars().len()).filter(|ri| !shared.iter().any(|&(_, sri)| sri == *ri)).collect();

    let mut vars: Vec<String> = left.vars().to_vec();
    vars.extend(right_extra.iter().map(|&ri| right.vars()[ri].clone()));
    let mut out = SolutionSet::empty(vars);

    // Build side: hash the smaller input on the shared-key tuple.
    let mut table: HashMap<Vec<TermId>, Vec<usize>> = HashMap::new();
    for (idx, row) in right.rows().iter().enumerate() {
        let key: Vec<TermId> = shared.iter().map(|&(_, ri)| row[ri]).collect();
        table.entry(key).or_default().push(idx);
    }

    for lrow in left.rows() {
        let key: Vec<TermId> = shared.iter().map(|&(li, _)| lrow[li]).collect();
        if let Some(matches) = table.get(&key) {
            for &ridx in matches {
                let rrow = &right.rows()[ridx];
                let mut row = lrow.clone();
                row.extend(right_extra.iter().map(|&ri| rrow[ri]));
                out.push(row);
            }
        }
    }
    out
}

/// Multiplicative hasher for term-id join keys. The keys are dense ids the
/// dictionary assigns, never raw outside input, so one multiply mixes them
/// well enough at a fraction of SipHash's cost. Join output order never
/// depends on it (the table is only probed).
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        // `[u64]` keys arrive here as one byte slice: mix a word at a time.
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let mut word = [0u8; 8];
            word.copy_from_slice(w);
            self.write_u64(u64::from_le_bytes(word));
        }
        for &b in words.remainder() {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517C_C1B7_2722_0A95);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type IdMap<K> = HashMap<K, usize, BuildHasherDefault<IdHasher>>;

/// End of a key chain in [`KeyChains`].
const CHAIN_END: usize = usize::MAX;

/// The build side of a hash join: for each distinct key, the first row
/// holding it, and for each row the next row with the same key — so a
/// probe walks its matches in insertion order without a `Vec` per key.
struct KeyChains<K> {
    head: IdMap<K>,
    next: Vec<usize>,
}

impl<K: Hash + Eq> KeyChains<K> {
    fn build(rows: usize, mut key: impl FnMut(usize) -> K) -> Self {
        let mut head = IdMap::with_capacity_and_hasher(rows, Default::default());
        let mut next = vec![CHAIN_END; rows];
        // Insert back to front so each chain runs in ascending row order.
        for idx in (0..rows).rev() {
            match head.entry(key(idx)) {
                Entry::Occupied(mut e) => next[idx] = e.insert(idx),
                Entry::Vacant(e) => {
                    e.insert(idx);
                }
            }
        }
        Self { head, next }
    }

    fn matches<Q>(&self, key: &Q, mut each: impl FnMut(usize))
    where
        K: std::borrow::Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let mut at = self.head.get(key).copied().unwrap_or(CHAIN_END);
        while at != CHAIN_END {
            each(at);
            at = self.next[at];
        }
    }
}

/// The shape of a batch hash join, computed once from the two schemas and
/// reused for every rank's join: the shared-variable column pairs, the
/// right side's extra columns, and the output schema.
#[derive(Debug, Clone)]
pub struct JoinSpec {
    left_vars: Vec<String>,
    right_vars: Vec<String>,
    shared: Vec<(usize, usize)>,
    right_extra: Vec<usize>,
    schema: Arc<[String]>,
}

impl JoinSpec {
    /// Plan a join of batches with schemas `left` and `right`.
    pub fn new(left: &[String], right: &[String]) -> Self {
        let shared: Vec<(usize, usize)> = left
            .iter()
            .enumerate()
            .filter_map(|(li, v)| right.iter().position(|r| r == v).map(|ri| (li, ri)))
            .collect();
        let right_extra: Vec<usize> =
            (0..right.len()).filter(|ri| !shared.iter().any(|&(_, sri)| sri == *ri)).collect();
        let mut vars: Vec<String> = left.to_vec();
        vars.extend(right_extra.iter().map(|&ri| right[ri].clone()));
        Self {
            left_vars: left.to_vec(),
            right_vars: right.to_vec(),
            shared,
            right_extra,
            schema: vars.into(),
        }
    }

    /// The output schema: the left variables, then the right side's
    /// non-shared ones.
    pub fn schema(&self) -> &Arc<[String]> {
        &self.schema
    }

    /// Join `left` with `right` — same rows, order and column widths as
    /// [`hash_join`] over the equivalent row sets: build on the right side
    /// in insertion order, probe left rows in order. An empty side returns
    /// an empty batch at once, without building a table.
    ///
    /// # Errors
    /// [`OpError::SchemaMismatch`] when an input's schema is not the one
    /// this spec was planned for; [`OpError::NullBinding`] when an input
    /// has an unbound cell.
    pub fn join(
        &self,
        left: &SolutionBatch,
        right: &SolutionBatch,
    ) -> Result<SolutionBatch, OpError> {
        for (batch, vars) in [(left, &self.left_vars), (right, &self.right_vars)] {
            if batch.vars() != vars.as_slice() {
                return Err(OpError::SchemaMismatch {
                    left: vars.clone(),
                    right: batch.vars().to_vec(),
                });
            }
            batch.check_bound()?;
        }
        if left.is_empty() || right.is_empty() {
            return Ok(SolutionBatch::empty(Arc::clone(&self.schema)));
        }
        let mut lidx: Vec<usize> = Vec::new();
        let mut ridx: Vec<usize> = Vec::new();
        let mut pair = |l: usize, r: usize| {
            lidx.push(l);
            ridx.push(r);
        };
        match self.shared.as_slice() {
            // No shared variables: cross product.
            [] => {
                for l in 0..left.len() {
                    for r in 0..right.len() {
                        pair(l, r);
                    }
                }
            }
            // One shared variable: the key is the raw id itself.
            &[(lc, rc)] => {
                let (lk, rk) = (left.column(lc), right.column(rc));
                let table = KeyChains::build(right.len(), |r| rk.get(r));
                for l in 0..left.len() {
                    table.matches(&lk.get(l), |r| pair(l, r));
                }
            }
            shared => {
                let lcols: Vec<&Column> = shared.iter().map(|&(lc, _)| left.column(lc)).collect();
                let rcols: Vec<&Column> = shared.iter().map(|&(_, rc)| right.column(rc)).collect();
                let table = KeyChains::build(right.len(), |r| {
                    rcols.iter().map(|c| c.get(r)).collect::<Vec<u64>>()
                });
                let mut key: Vec<u64> = Vec::with_capacity(lcols.len());
                for l in 0..left.len() {
                    key.clear();
                    key.extend(lcols.iter().map(|c| c.get(l)));
                    table.matches(key.as_slice(), |r| pair(l, r));
                }
            }
        }
        let left_cols = (0..left.vars().len()).map(|c| left.column(c).gather(&lidx));
        let right_cols = self.right_extra.iter().map(|&c| right.column(c).gather(&ridx));
        let cols = left_cols.chain(right_cols);
        Ok(SolutionBatch::from_columns(Arc::clone(&self.schema), lidx.len(), cols))
    }
}

/// Columnar twin of [`hash_join`]: identical join semantics, output row
/// order and column widths, so a batch execution stays byte-identical to
/// a row execution. Plans a [`JoinSpec`] per call; callers joining many
/// batch pairs of one shape plan it once instead.
///
/// # Errors
/// [`OpError::NullBinding`] when an input has an unbound cell.
pub fn hash_join_batch(
    left: &SolutionBatch,
    right: &SolutionBatch,
) -> Result<SolutionBatch, OpError> {
    JoinSpec::new(left.vars(), right.vars()).join(left, right)
}

/// Union of solution sets with identical schemas ("merge" in CGE terms).
/// Merging no sets gives the empty set over no variables.
///
/// # Panics
/// Panics if schemas differ.
pub fn merge(sets: Vec<SolutionSet>) -> SolutionSet {
    let mut it = sets.into_iter();
    let Some(mut first) = it.next() else {
        return SolutionSet::empty(Vec::new());
    };
    for s in it {
        first.append(s);
    }
    first
}

/// Columnar twin of [`merge`]: concatenate batches in order. Merging no
/// batches gives the empty batch over no variables.
///
/// # Panics
/// Panics if schemas differ.
pub fn merge_batches(batches: Vec<SolutionBatch>) -> SolutionBatch {
    let total: usize = batches.iter().map(SolutionBatch::len).sum();
    let mut it = batches.into_iter();
    let Some(mut first) = it.next() else {
        return SolutionBatch::empty(Vec::<String>::new());
    };
    first.reserve(total - first.len());
    for b in it {
        first.append(b);
    }
    first
}

/// Project onto a subset of variables (preserving requested order).
///
/// # Panics
/// Panics if a requested variable is absent.
pub fn project(input: &SolutionSet, vars: &[&str]) -> SolutionSet {
    let idx: Vec<usize> = vars
        .iter()
        .map(|v| input.var_index(v).unwrap_or_else(|| panic!("unknown variable ?{v}")))
        .collect();
    let mut out = SolutionSet::empty(vars.iter().map(|s| s.to_string()).collect());
    for row in input.rows() {
        out.push(idx.iter().map(|&i| row[i]).collect());
    }
    out
}

/// Remove duplicate rows (first occurrence wins, order preserved).
pub fn distinct(input: &SolutionSet) -> SolutionSet {
    let mut seen: HashSet<&[TermId]> = HashSet::with_capacity(input.len());
    let mut out = SolutionSet::empty(input.vars().to_vec());
    for row in input.rows() {
        if seen.insert(row.as_slice()) {
            out.push(row.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triple::Triple;

    fn id(v: u64) -> TermId {
        TermId(v)
    }

    fn t(s: u64, p: u64, o: u64) -> Triple {
        Triple::new(id(s), id(p), id(o))
    }

    #[test]
    fn scan_binds_wildcards_only() {
        let pat = TriplePattern::new(None, Some(id(9)), None);
        let triples = vec![t(1, 9, 11), t(2, 9, 12)];
        let sols = scan_to_solutions(&pat, Some("s"), None, Some("o"), &triples);
        assert_eq!(sols.vars(), &["s".to_string(), "o".to_string()]);
        assert_eq!(sols.rows(), &[vec![id(1), id(11)], vec![id(2), id(12)]]);
    }

    #[test]
    #[should_panic(expected = "predicate is bound")]
    fn scan_rejects_var_on_bound_position() {
        let pat = TriplePattern::new(None, Some(id(9)), None);
        scan_to_solutions(&pat, Some("s"), Some("p"), None, &[]);
    }

    #[test]
    fn join_on_shared_var() {
        // proteins: (?p, ?seq)   inhibitors: (?p, ?c)
        let left = SolutionSet::new(
            vec!["p".into(), "seq".into()],
            vec![vec![id(1), id(21)], vec![id(2), id(22)], vec![id(3), id(23)]],
        );
        let right = SolutionSet::new(
            vec!["p".into(), "c".into()],
            vec![
                vec![id(1), id(31)],
                vec![id(1), id(32)],
                vec![id(3), id(33)],
                vec![id(9), id(39)],
            ],
        );
        let joined = hash_join(&left, &right);
        assert_eq!(joined.vars(), &["p".to_string(), "seq".to_string(), "c".to_string()]);
        assert_eq!(joined.len(), 3, "p=1 matches twice, p=3 once, p=2/9 drop");
        assert!(joined.rows().contains(&vec![id(1), id(21), id(32)]));
        assert!(joined.rows().contains(&vec![id(3), id(23), id(33)]));
    }

    #[test]
    fn join_without_shared_vars_is_cross_product() {
        let left = SolutionSet::new(vec!["a".into()], vec![vec![id(1)], vec![id(2)]]);
        let right =
            SolutionSet::new(vec!["b".into()], vec![vec![id(10)], vec![id(20)], vec![id(30)]]);
        assert_eq!(hash_join(&left, &right).len(), 6);
    }

    #[test]
    fn join_on_multiple_shared_vars() {
        let left = SolutionSet::new(
            vec!["x".into(), "y".into()],
            vec![vec![id(1), id(2)], vec![id(1), id(3)]],
        );
        let right = SolutionSet::new(
            vec!["y".into(), "x".into()],
            vec![vec![id(2), id(1)], vec![id(3), id(9)]],
        );
        let joined = hash_join(&left, &right);
        assert_eq!(joined.len(), 1, "both x and y must agree");
        assert_eq!(joined.rows()[0], vec![id(1), id(2)]);
    }

    #[test]
    fn join_with_empty_side_is_empty() {
        let left = SolutionSet::new(vec!["a".into()], vec![vec![id(1)]]);
        let right = SolutionSet::empty(vec!["a".into()]);
        assert!(hash_join(&left, &right).is_empty());
        assert!(hash_join(&right, &left).is_empty());
    }

    #[test]
    fn merge_concatenates() {
        let a = SolutionSet::new(vec!["x".into()], vec![vec![id(1)]]);
        let b = SolutionSet::new(vec!["x".into()], vec![vec![id(2)], vec![id(3)]]);
        assert_eq!(merge(vec![a, b]).len(), 3);
    }

    #[test]
    fn project_reorders_and_drops() {
        let s = SolutionSet::new(
            vec!["a".into(), "b".into(), "c".into()],
            vec![vec![id(1), id(2), id(3)]],
        );
        let p = project(&s, &["c", "a"]);
        assert_eq!(p.vars(), &["c".to_string(), "a".to_string()]);
        assert_eq!(p.rows()[0], vec![id(3), id(1)]);
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn project_unknown_var_panics() {
        let s = SolutionSet::empty(vec!["a".into()]);
        project(&s, &["zzz"]);
    }

    #[test]
    fn batch_scan_matches_row_scan() {
        let pat = TriplePattern::new(None, Some(id(9)), None);
        let mut store = crate::PartitionedStore::new(1);
        store.insert_all([t(1, 9, 11), t(2, 9, 12), t(3, 9, 13), t(4, 8, 14)]);
        store.build_indexes();
        let rowwise =
            scan_to_solutions(&pat, Some("s"), None, Some("o"), &store.scan_shard(0, &pat));
        let spec = crate::ScanSpec::new(pat, Some("s"), None, Some("o"));
        let batch = store.scan_shard_batch(0, &spec);
        assert_eq!(batch.to_set(), rowwise);
        assert_eq!(batch.len(), 3);
    }

    #[test]
    fn batch_join_matches_row_join_exactly() {
        let left = SolutionSet::new(
            vec!["p".into(), "seq".into()],
            vec![vec![id(1), id(21)], vec![id(2), id(22)], vec![id(3), id(23)]],
        );
        let right = SolutionSet::new(
            vec!["p".into(), "c".into()],
            vec![
                vec![id(1), id(31)],
                vec![id(1), id(32)],
                vec![id(3), id(33)],
                vec![id(9), id(39)],
            ],
        );
        let rowwise = hash_join(&left, &right);
        let batch =
            hash_join_batch(&SolutionBatch::from_set(&left), &SolutionBatch::from_set(&right))
                .unwrap();
        // Same schema, same rows, same order — byte-identical.
        assert_eq!(batch.to_set(), rowwise);
    }

    #[test]
    fn batch_cross_product_matches_row_cross_product() {
        let left = SolutionSet::new(vec!["a".into()], vec![vec![id(1)], vec![id(2)]]);
        let right =
            SolutionSet::new(vec!["b".into()], vec![vec![id(10)], vec![id(20)], vec![id(30)]]);
        let rowwise = hash_join(&left, &right);
        let batch =
            hash_join_batch(&SolutionBatch::from_set(&left), &SolutionBatch::from_set(&right))
                .unwrap();
        assert_eq!(batch.to_set(), rowwise);
    }

    #[test]
    fn batch_join_with_an_empty_side_keeps_the_joined_schema() {
        let full = SolutionBatch::from_set(&SolutionSet::new(
            vec!["a".into(), "b".into()],
            vec![vec![id(1), id(2)]],
        ));
        let empty = SolutionBatch::empty(vec!["b".to_string(), "c".to_string()]);
        let spec = JoinSpec::new(full.vars(), empty.vars());
        let out = spec.join(&full, &empty).unwrap();
        assert!(out.is_empty());
        assert_eq!(out.vars(), &["a".to_string(), "b".to_string(), "c".to_string()]);
        let flipped = hash_join_batch(&empty, &full).unwrap();
        assert_eq!(flipped.vars(), &["b".to_string(), "c".to_string(), "a".to_string()]);
    }

    #[test]
    fn batch_join_refuses_nulls_and_foreign_schemas() {
        let mut left = SolutionBatch::empty(vec!["k".to_string()]);
        left.push_opt_row(&[None]);
        let right = SolutionBatch::from_set(&SolutionSet::new(vec!["k".into()], vec![vec![id(1)]]));
        assert_eq!(
            hash_join_batch(&left, &right),
            Err(OpError::NullBinding { var: "k".to_string() })
        );
        let spec = JoinSpec::new(&["x".to_string()], right.vars());
        assert!(matches!(spec.join(&right, &right), Err(OpError::SchemaMismatch { .. })));
    }

    #[test]
    fn merging_nothing_is_empty() {
        assert!(merge(Vec::new()).is_empty());
        let b = merge_batches(Vec::new());
        assert!(b.is_empty() && b.vars().is_empty());
    }

    #[test]
    fn batch_merge_concatenates_in_order() {
        let a = SolutionBatch::from_set(&SolutionSet::new(vec!["x".into()], vec![vec![id(1)]]));
        let b = SolutionBatch::from_set(&SolutionSet::new(
            vec!["x".into()],
            vec![vec![id(2)], vec![id(3)]],
        ));
        let merged = merge_batches(vec![a, b]);
        assert_eq!(merged.to_set().rows(), &[vec![id(1)], vec![id(2)], vec![id(3)]]);
    }

    #[test]
    fn distinct_removes_duplicates_stably() {
        let s = SolutionSet::new(
            vec!["x".into()],
            vec![vec![id(2)], vec![id(1)], vec![id(2)], vec![id(3)], vec![id(1)]],
        );
        let d = distinct(&s);
        assert_eq!(d.rows().iter().map(|r| r[0].0).collect::<Vec<_>>(), vec![2, 1, 3]);
    }
}
