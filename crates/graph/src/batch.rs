//! Columnar solution batches — the engine's hot-path representation.
//!
//! [`crate::SolutionSet`] is the row-oriented boundary type (results,
//! checkpoints, tests). Inside the engine, intermediate solutions flow as
//! [`SolutionBatch`]es: one dictionary-term-id column per variable, stored
//! at the narrowest width that holds every id (`u32` until a column sees a
//! dictionary id past `u32::MAX`, `u64` after), plus an optional null
//! bitmap per column for partially bound rows.
//!
//! Two properties matter:
//!
//! * **Honest byte accounting.** [`SolutionBatch::byte_size`] is the exact
//!   serialized size of the batch under the columnar wire layout (schema
//!   header + one tag byte per column + `rows × width` value bytes + the
//!   null bitmap when present) — the same formula the typed cache objects
//!   in ids-cache use, so network-cost charging, cache admission caps, and
//!   re-balancing all charge what the bytes actually measure instead of the
//!   historical 8-bytes-per-cell guess.
//! * **Row-engine equivalence.** Conversions to/from [`SolutionSet`]
//!   preserve row order exactly, and the batch operators in [`crate::ops`]
//!   mirror the row operators' output ordering, so a batch execution is
//!   byte-identical to a row execution.

use crate::ops::OpError;
use crate::solution::SolutionSet;
use crate::term::TermId;
use std::sync::Arc;

/// Term-id values of one column, at the narrowest sufficient width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Column {
    /// All ids fit in 32 bits (4 bytes per row on the wire).
    U32(Vec<u32>),
    /// At least one id overflowed 32 bits (8 bytes per row).
    U64(Vec<u64>),
}

impl Column {
    fn len(&self) -> usize {
        match self {
            Column::U32(v) => v.len(),
            Column::U64(v) => v.len(),
        }
    }

    /// Wire width in bytes per value.
    pub fn width(&self) -> u64 {
        match self {
            Column::U32(_) => 4,
            Column::U64(_) => 8,
        }
    }

    /// The raw value at `i` (a null cell reads 0).
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        match self {
            Column::U32(v) => u64::from(v[i]),
            Column::U64(v) => v[i],
        }
    }

    fn push(&mut self, value: u64) {
        match self {
            Column::U32(v) => match u32::try_from(value) {
                Ok(narrow) => v.push(narrow),
                Err(_) => {
                    // Dictionary-overflow promotion: widen the whole column.
                    let mut wide: Vec<u64> = v.iter().map(|&x| u64::from(x)).collect();
                    wide.push(value);
                    *self = Column::U64(wide);
                }
            },
            Column::U64(v) => v.push(value),
        }
    }

    /// Collect `values` at the width pushing them one by one onto an empty
    /// column would give: `u32` unless some value overflows it.
    pub(crate) fn collect(values: impl IntoIterator<Item = u64>, capacity: usize) -> Column {
        let mut values = values.into_iter();
        let mut narrow = Vec::with_capacity(capacity);
        while let Some(x) = values.next() {
            match u32::try_from(x) {
                Ok(n) => narrow.push(n),
                Err(_) => {
                    let mut wide: Vec<u64> = Vec::with_capacity(capacity.max(narrow.len() + 1));
                    wide.extend(narrow.iter().map(|&n| u64::from(n)));
                    wide.push(x);
                    wide.extend(values);
                    return Column::U64(wide);
                }
            }
        }
        Column::U32(narrow)
    }

    /// The values at rows `idx`, in that order, at push width.
    pub(crate) fn gather(&self, idx: &[usize]) -> Column {
        match self {
            Column::U32(v) => Column::U32(idx.iter().map(|&i| v[i]).collect()),
            Column::U64(v) => Column::collect(idx.iter().map(|&i| v[i]), idx.len()),
        }
    }

    /// Append every value of `other` with push semantics: a `u32` column
    /// widens only if an appended value overflows `u32`.
    fn extend(&mut self, other: &Column) {
        match (&mut *self, other) {
            (Column::U32(d), Column::U32(s)) => d.extend_from_slice(s),
            (Column::U64(d), Column::U32(s)) => d.extend(s.iter().map(|&x| u64::from(x))),
            (Column::U64(d), Column::U64(s)) => d.extend_from_slice(s),
            (Column::U32(d), Column::U64(s)) => {
                if s.iter().all(|&x| u32::try_from(x).is_ok()) {
                    d.extend(s.iter().map(|&x| x as u32));
                } else {
                    let mut wide: Vec<u64> = Vec::with_capacity(d.len() + s.len());
                    wide.extend(d.iter().map(|&x| u64::from(x)));
                    wide.extend_from_slice(s);
                    *self = Column::U64(wide);
                }
            }
        }
    }

    fn reserve(&mut self, additional: usize) {
        match self {
            Column::U32(v) => v.reserve(additional),
            Column::U64(v) => v.reserve(additional),
        }
    }

    fn split_off(&mut self, at: usize) -> Column {
        match self {
            Column::U32(v) => Column::U32(v.split_off(at)),
            Column::U64(v) => Column::U64(v.split_off(at)),
        }
    }
}

/// One variable's column: values plus an optional null bitmap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnData {
    values: Column,
    /// Bit `i` set ⇒ row `i` is unbound. `None` ⇒ fully bound column (the
    /// common case; the engine's BGP semantics never produce nulls today).
    nulls: Option<Vec<u64>>,
    null_count: usize,
}

impl ColumnData {
    fn new() -> Self {
        Self::bound(Column::U32(Vec::new()))
    }

    fn bound(values: Column) -> Self {
        Self { values, nulls: None, null_count: 0 }
    }

    fn is_null(&self, i: usize) -> bool {
        match &self.nulls {
            Some(words) => words.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1),
            None => false,
        }
    }

    fn set_null(&mut self, i: usize) {
        let words = self.nulls.get_or_insert_with(Vec::new);
        let word = i / 64;
        if words.len() <= word {
            words.resize(word + 1, 0);
        }
        words[word] |= 1 << (i % 64);
        self.null_count += 1;
    }
}

/// A columnar table of variable bindings.
///
/// Schema and row order match the equivalent [`SolutionSet`] exactly; only
/// the in-memory (and wire) layout differs. The schema is shared: batches
/// split, scattered, or scanned from one source hold the same
/// `Arc<[String]>`, so a 2,048-way exchange allocates no variable names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolutionBatch {
    vars: Arc<[String]>,
    cols: Vec<ColumnData>,
    rows: usize,
}

impl SolutionBatch {
    /// An empty batch with the given schema.
    pub fn empty(vars: impl Into<Arc<[String]>>) -> Self {
        let vars = vars.into();
        let cols = vars.iter().map(|_| ColumnData::new()).collect();
        Self { vars, cols, rows: 0 }
    }

    /// A fully bound batch of `rows` rows from one value column per
    /// variable (a schema without variables still has rows: one per
    /// match of a fully bound pattern).
    ///
    /// # Panics
    /// Panics if the column count differs from the schema or a column's
    /// length from `rows`.
    pub(crate) fn from_columns(
        vars: Arc<[String]>,
        rows: usize,
        columns: impl IntoIterator<Item = Column>,
    ) -> Self {
        let mut cols = Vec::with_capacity(vars.len());
        cols.extend(columns.into_iter().map(ColumnData::bound));
        assert_eq!(vars.len(), cols.len(), "one column per variable");
        assert!(cols.iter().all(|c| c.values.len() == rows), "column length must match rows");
        Self { vars, cols, rows }
    }

    /// Convert a row-oriented set (row order preserved).
    pub fn from_set(set: &SolutionSet) -> Self {
        let mut out = Self::empty(set.vars().to_vec());
        for row in set.rows() {
            out.push_row(row);
        }
        out
    }

    /// Convert back to the row-oriented boundary type.
    ///
    /// # Panics
    /// Panics if any binding is null — [`SolutionSet`] cannot represent
    /// unbound cells, and the engine never checkpoints or returns them.
    pub fn to_set(&self) -> SolutionSet {
        assert_eq!(self.null_count(), 0, "cannot convert a batch with nulls to a SolutionSet");
        let mut rows = Vec::with_capacity(self.rows);
        for i in 0..self.rows {
            rows.push(self.cols.iter().map(|c| TermId(c.values.get(i))).collect());
        }
        SolutionSet::new(self.vars.to_vec(), rows)
    }

    /// Variable names (column order).
    pub fn vars(&self) -> &[String] {
        &self.vars
    }

    /// The shared schema handle.
    pub fn schema(&self) -> &Arc<[String]> {
        &self.vars
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Index of a variable in the schema.
    pub fn var_index(&self, var: &str) -> Option<usize> {
        self.vars.iter().position(|v| v == var)
    }

    /// The values of column `col` (null cells read 0; see
    /// [`Self::null_count`]).
    ///
    /// # Panics
    /// Panics if `col` is out of bounds.
    pub fn column(&self, col: usize) -> &Column {
        &self.cols[col].values
    }

    /// The binding at (`row`, `col`), or `None` if it is null.
    pub fn get(&self, row: usize, col: usize) -> Option<TermId> {
        assert!(row < self.rows && col < self.cols.len(), "cell out of bounds");
        let c = &self.cols[col];
        if c.is_null(row) {
            return None;
        }
        Some(TermId(c.values.get(row)))
    }

    /// Total null bindings across all columns.
    pub fn null_count(&self) -> usize {
        self.cols.iter().map(|c| c.null_count).sum()
    }

    /// Copy row `i` into `buf` (cleared first).
    ///
    /// # Panics
    /// Panics if the row is out of bounds or contains a null binding.
    pub fn copy_row(&self, i: usize, buf: &mut Vec<TermId>) {
        assert!(i < self.rows, "row out of bounds");
        buf.clear();
        for c in &self.cols {
            assert!(!c.is_null(i), "copy_row on a null binding");
            buf.push(TermId(c.values.get(i)));
        }
    }

    /// Materialize row `i`.
    pub fn row(&self, i: usize) -> Vec<TermId> {
        let mut buf = Vec::with_capacity(self.cols.len());
        self.copy_row(i, &mut buf);
        buf
    }

    /// Append a fully bound row.
    ///
    /// # Panics
    /// Panics on width mismatch.
    pub fn push_row(&mut self, row: &[TermId]) {
        assert_eq!(row.len(), self.vars.len(), "row width must match schema");
        for (c, t) in self.cols.iter_mut().zip(row) {
            c.values.push(t.raw());
        }
        self.rows += 1;
    }

    /// Append a row with possibly unbound cells (`None` ⇒ null).
    ///
    /// # Panics
    /// Panics on width mismatch.
    pub fn push_opt_row(&mut self, row: &[Option<TermId>]) {
        assert_eq!(row.len(), self.vars.len(), "row width must match schema");
        let i = self.rows;
        for (c, t) in self.cols.iter_mut().zip(row) {
            match t {
                Some(t) => c.values.push(t.raw()),
                None => {
                    c.values.push(0);
                    c.set_null(i);
                }
            }
        }
        self.rows += 1;
    }

    /// Append all rows of `other` (schemas must match exactly). Column
    /// widths follow the same rule as pushing `other`'s rows one by one.
    ///
    /// # Panics
    /// Panics if schemas differ.
    pub fn append(&mut self, other: SolutionBatch) {
        assert_eq!(self.vars, other.vars, "merge requires identical schemas");
        let base = self.rows;
        for (dst, src) in self.cols.iter_mut().zip(other.cols) {
            if src.nulls.is_none() {
                dst.values.extend(&src.values);
                continue;
            }
            for i in 0..src.values.len() {
                if src.is_null(i) {
                    dst.values.push(0);
                    dst.set_null(base + i);
                } else {
                    dst.values.push(src.values.get(i));
                }
            }
        }
        self.rows += other.rows;
    }

    /// Reserve room for `additional` more rows in every column.
    pub(crate) fn reserve(&mut self, additional: usize) {
        for c in &mut self.cols {
            c.values.reserve(additional);
        }
    }

    /// Split off rows `[at, len)` into a new batch, keeping `[0, at)`.
    ///
    /// # Panics
    /// Panics if `at > len` or if the batch has nulls (split is only used
    /// on the fully bound re-balancing path).
    pub fn split_off(&mut self, at: usize) -> SolutionBatch {
        assert!(at <= self.rows, "split point out of bounds");
        assert_eq!(self.null_count(), 0, "split_off on a batch with nulls");
        let cols =
            self.cols.iter_mut().map(|c| ColumnData::bound(c.values.split_off(at))).collect();
        let moved = self.rows - at;
        self.rows = at;
        SolutionBatch { vars: Arc::clone(&self.vars), cols, rows: moved }
    }

    /// The rows at `idx`, in that order, as a new batch sharing this
    /// schema. Column widths are those pushing the rows one by one would
    /// give, so [`Self::byte_size`] is unchanged by the route a row took.
    ///
    /// # Errors
    /// [`OpError::NullBinding`] if the batch has null bindings.
    pub fn gather(&self, idx: &[usize]) -> Result<SolutionBatch, OpError> {
        self.check_bound()?;
        let cols = self.cols.iter().map(|c| ColumnData::bound(c.values.gather(idx))).collect();
        Ok(SolutionBatch { vars: Arc::clone(&self.vars), cols, rows: idx.len() })
    }

    pub(crate) fn check_bound(&self) -> Result<(), OpError> {
        match self.cols.iter().position(|c| c.null_count > 0) {
            Some(c) => Err(OpError::NullBinding { var: self.vars[c].clone() }),
            None => Ok(()),
        }
    }

    /// Exact serialized size in bytes under the columnar wire layout:
    /// `u16` var count; per var a `u16` length + name bytes; `u64` row
    /// count; per column one tag byte, `rows × width` value bytes, and
    /// `⌈rows/8⌉` bitmap bytes when the column has nulls. This is the
    /// number the engine charges to networks, caches, and re-balancing.
    pub fn byte_size(&self) -> u64 {
        wire_size(
            &self.vars,
            self.rows,
            self.cols.iter().map(|c| (c.values.width(), c.nulls.is_some())),
        )
    }
}

/// [`SolutionBatch::byte_size`] of a batch with schema `vars`, `rows`
/// rows, and per column its value width and whether it has a null bitmap.
fn wire_size(vars: &[String], rows: usize, cols: impl Iterator<Item = (u64, bool)>) -> u64 {
    let rows = rows as u64;
    let mut total = 2u64 + 8;
    for (v, (width, nullable)) in vars.iter().zip(cols) {
        total += 2 + v.len() as u64;
        total += 1 + rows * width;
        if nullable {
            total += rows.div_ceil(8);
        }
    }
    total
}

/// Rows of a set of source batches routed to `parts` destinations — the
/// data plane of a hash exchange, split in two passes so a caller can
/// price every destination before paying for any copy.
///
/// [`Self::route`] computes each row's destination, each destination's
/// row count, and which of its columns must be wide; that is enough for
/// the exact [`Self::byte_size`] of every destination batch.
/// [`Self::scatter`] then fills the destinations the caller still needs
/// into columns reserved to their exact counts: one allocation per
/// destination and column, not one per row, and none at all for a
/// destination nobody reads (e.g. a join partition whose other side is
/// empty).
#[derive(Debug)]
pub struct Routing {
    sources: Vec<SolutionBatch>,
    schema: Arc<[String]>,
    /// `routes[s][i]`: destination of row `i` of source `s`.
    routes: Vec<Vec<u32>>,
    counts: Vec<usize>,
    /// `wide[d * ncols + c]`: column `c` of destination `d` receives a
    /// value past `u32::MAX` — exactly when pushing its rows one by one
    /// would widen it.
    wide: Vec<bool>,
}

impl Routing {
    /// Route row `i` of `sources[s]` to `dest(&sources[s], i)`.
    ///
    /// # Errors
    /// [`OpError::NoInput`] when `sources` is empty,
    /// [`OpError::SchemaMismatch`] when the sources' schemas differ,
    /// [`OpError::NullBinding`] on null bindings, and
    /// [`OpError::PartOutOfRange`] when `dest` names a part `>= parts`.
    pub fn route(
        sources: Vec<SolutionBatch>,
        parts: usize,
        mut dest: impl FnMut(&SolutionBatch, usize) -> usize,
    ) -> Result<Self, OpError> {
        let schema = Arc::clone(&sources.first().ok_or(OpError::NoInput)?.vars);
        let ncols = schema.len();
        let mut routes: Vec<Vec<u32>> = Vec::with_capacity(sources.len());
        let mut counts = vec![0usize; parts];
        let mut wide = vec![false; parts * ncols];
        for src in &sources {
            if src.vars != schema {
                return Err(OpError::SchemaMismatch {
                    left: schema.to_vec(),
                    right: src.vars.to_vec(),
                });
            }
            src.check_bound()?;
            let mut route = Vec::with_capacity(src.rows);
            for i in 0..src.rows {
                let d = dest(src, i);
                if d >= parts {
                    return Err(OpError::PartOutOfRange { part: d, parts });
                }
                counts[d] += 1;
                route.push(d as u32);
            }
            for (c, col) in src.cols.iter().enumerate() {
                if let Column::U64(v) = &col.values {
                    for (&x, &d) in v.iter().zip(&route) {
                        if x > u64::from(u32::MAX) {
                            wide[d as usize * ncols + c] = true;
                        }
                    }
                }
            }
            routes.push(route);
        }
        Ok(Self { sources, schema, routes, counts, wide })
    }

    /// Number of destinations.
    pub fn parts(&self) -> usize {
        self.counts.len()
    }

    /// Rows routed to destination `part`.
    pub fn rows(&self, part: usize) -> usize {
        self.counts[part]
    }

    /// Exact [`SolutionBatch::byte_size`] of destination `part`'s batch.
    pub fn byte_size(&self, part: usize) -> u64 {
        let ncols = self.schema.len();
        let wide = &self.wide[part * ncols..(part + 1) * ncols];
        wire_size(
            &self.schema,
            self.counts[part],
            wide.iter().map(|&w| (if w { 8 } else { 4 }, false)),
        )
    }

    /// Materialize the destinations `keep` selects (`None` for the rest).
    /// Each holds its rows in (source, row) order and shares the sources'
    /// schema.
    pub fn scatter(self, keep: impl Fn(usize) -> bool) -> Vec<Option<SolutionBatch>> {
        let ncols = self.schema.len();
        let mut cols: Vec<Option<Vec<Column>>> = (0..self.parts())
            .map(|d| {
                keep(d).then(|| {
                    (0..ncols)
                        .map(|c| {
                            if self.wide[d * ncols + c] {
                                Column::U64(Vec::with_capacity(self.counts[d]))
                            } else {
                                Column::U32(Vec::with_capacity(self.counts[d]))
                            }
                        })
                        .collect()
                })
            })
            .collect();
        for (src, route) in self.sources.iter().zip(&self.routes) {
            for (c, col) in src.cols.iter().enumerate() {
                for (i, &d) in route.iter().enumerate() {
                    match cols[d as usize].as_mut().map(|part| &mut part[c]) {
                        // Narrow part: every value routed here fits.
                        Some(Column::U32(v)) => v.push(col.values.get(i) as u32),
                        Some(Column::U64(v)) => v.push(col.values.get(i)),
                        None => {}
                    }
                }
            }
        }
        cols.into_iter()
            .zip(self.counts)
            .map(|(c, rows)| {
                c.map(|c| SolutionBatch {
                    vars: Arc::clone(&self.schema),
                    cols: c.into_iter().map(ColumnData::bound).collect(),
                    rows,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(v: u64) -> TermId {
        TermId(v)
    }

    fn demo_set() -> SolutionSet {
        SolutionSet::new(
            vec!["protein".into(), "compound".into()],
            (0..10).map(|i| vec![id(i), id(100 + i)]).collect(),
        )
    }

    #[test]
    fn round_trips_through_set() {
        let set = demo_set();
        let batch = SolutionBatch::from_set(&set);
        assert_eq!(batch.len(), 10);
        assert_eq!(batch.vars(), set.vars());
        assert_eq!(batch.to_set(), set);
        assert_eq!(batch.row(3), vec![id(3), id(103)]);
        assert_eq!(batch.get(3, 1), Some(id(103)));
    }

    #[test]
    fn narrow_columns_use_four_bytes_and_promote_on_overflow() {
        let mut b = SolutionBatch::empty(vec!["x".into()]);
        b.push_row(&[id(7)]);
        // header: 2 (nvars) + 8 (nrows) + 2+1 (name "x") + 1 (tag) = 14
        assert_eq!(b.byte_size(), 14 + 4);
        b.push_row(&[id(u64::from(u32::MAX) + 1)]);
        // Overflow promotes the whole column to 8-byte cells.
        assert_eq!(b.byte_size(), 14 + 2 * 8);
        assert_eq!(b.row(0), vec![id(7)]);
        assert_eq!(b.row(1), vec![id(u64::from(u32::MAX) + 1)]);
    }

    #[test]
    fn byte_size_matches_row_set_formula() {
        let set = demo_set();
        let batch = SolutionBatch::from_set(&set);
        assert_eq!(batch.byte_size(), set.byte_size());
    }

    #[test]
    fn null_bitmap_tracks_unbound_cells() {
        let mut b = SolutionBatch::empty(vec!["a".into(), "b".into()]);
        b.push_opt_row(&[Some(id(1)), None]);
        b.push_opt_row(&[Some(id(2)), Some(id(3))]);
        assert_eq!(b.null_count(), 1);
        assert_eq!(b.get(0, 1), None);
        assert_eq!(b.get(1, 1), Some(id(3)));
        // Bitmap bytes are charged for the nullable column only.
        let without = {
            let mut c = SolutionBatch::empty(vec!["a".into(), "b".into()]);
            c.push_row(&[id(1), id(0)]);
            c.push_row(&[id(2), id(3)]);
            c.byte_size()
        };
        assert_eq!(b.byte_size(), without + 1);
    }

    #[test]
    #[should_panic(expected = "nulls")]
    fn to_set_rejects_nulls() {
        let mut b = SolutionBatch::empty(vec!["a".into()]);
        b.push_opt_row(&[None]);
        b.to_set();
    }

    #[test]
    fn append_and_split_preserve_order() {
        let mut a = SolutionBatch::from_set(&demo_set());
        let b = SolutionBatch::from_set(&demo_set());
        a.append(b);
        assert_eq!(a.len(), 20);
        let tail = a.split_off(15);
        assert_eq!((a.len(), tail.len()), (15, 5));
        assert_eq!(tail.row(0), vec![id(5), id(105)]);
        assert_eq!(a.row(14), vec![id(4), id(104)]);
    }

    #[test]
    fn append_keeps_null_positions() {
        let mut a = SolutionBatch::empty(vec!["x".into()]);
        a.push_row(&[id(1)]);
        let mut b = SolutionBatch::empty(vec!["x".into()]);
        b.push_opt_row(&[None]);
        b.push_row(&[id(2)]);
        a.append(b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.get(0, 0), Some(id(1)));
        assert_eq!(a.get(1, 0), None);
        assert_eq!(a.get(2, 0), Some(id(2)));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        let mut b = SolutionBatch::empty(vec!["a".into(), "b".into()]);
        b.push_row(&[id(1)]);
    }
}
