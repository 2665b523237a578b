//! Per-phase and per-rank statistics.
//!
//! The paper's analysis (Figures 4 and 5) decomposes end-to-end latency into
//! operator stages and attributes stalls to the slowest rank. [`PhaseStats`]
//! records, for each BSP phase, the distribution of per-rank busy time and
//! the synchronized virtual time at which the phase completed — exactly the
//! data needed to regenerate those breakdowns.

use serde::{Deserialize, Serialize};

/// Summary statistics over a set of per-rank values.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StatSummary {
    pub min: f64,
    pub max: f64,
    pub mean: f64,
    pub std: f64,
}

impl StatSummary {
    /// Summarize a non-empty slice of values.
    pub fn of(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "cannot summarize an empty slice");
        let n = values.len() as f64;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        for &v in values {
            min = min.min(v);
            max = max.max(v);
            sum += v;
        }
        let mean = sum / n;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        Self { min, max, mean, std: var.sqrt() }
    }

    /// Load imbalance factor: `max / mean` (1.0 = perfectly balanced).
    /// This is the quantity the paper's throughput-based re-balancer drives
    /// toward 1.
    pub fn imbalance(&self) -> f64 {
        if self.mean <= 0.0 {
            1.0
        } else {
            self.max / self.mean
        }
    }
}

/// Counters a rank accumulates during a phase (solutions scanned, UDF calls,
/// bytes exchanged, …), keyed by a static label.
///
/// A phase bumps one or two labels per rank, so the counters are a short
/// list in first-touch order: a linear scan beats hashing, and a rank
/// that counts nothing allocates nothing.
#[derive(Debug, Clone, Default, Serialize)]
pub struct RankStats {
    counters: Vec<(&'static str, u64)>,
}

impl RankStats {
    /// Add `n` to the counter `name`.
    #[inline]
    pub fn add(&mut self, name: &'static str, n: u64) {
        match self.counters.iter_mut().find(|(k, _)| *k == name) {
            Some((_, v)) => *v += n,
            None => self.counters.push((name, n)),
        }
    }

    /// Read a counter (0 if never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.counters.iter().find(|(k, _)| *k == name).map_or(0, |&(_, v)| v)
    }

    /// Iterate over all counters.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().copied()
    }

    /// Merge another rank's counters into this one (for aggregation).
    pub fn merge(&mut self, other: &RankStats) {
        for (k, v) in other.iter() {
            self.add(k, v);
        }
    }
}

/// Record of one completed BSP phase across all ranks.
#[derive(Debug, Clone, Serialize)]
pub struct PhaseStats {
    /// Human-readable phase label, e.g. `"scan"`, `"filter"`, `"docking"`.
    pub name: String,
    /// Per-rank busy time during this phase (virtual seconds).
    pub busy: StatSummary,
    /// Synchronized virtual time when the phase's closing barrier released.
    pub completed_at: f64,
    /// Aggregated counters summed over ranks.
    pub totals: RankStats,
}

impl PhaseStats {
    /// Wall-clock-style duration of the phase on the critical path: the
    /// slowest rank's busy time (barrier-bound phases are max-bound).
    pub fn critical_path(&self) -> f64 {
        self.busy.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic() {
        let s = StatSummary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.std - (1.25f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn imbalance_of_uniform_is_one() {
        let s = StatSummary::of(&[2.0, 2.0, 2.0]);
        assert!((s.imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn imbalance_flags_stragglers() {
        // One rank doing 10x the mean work → imbalance well above 1.
        let mut v = vec![1.0; 9];
        v.push(10.0);
        let s = StatSummary::of(&v);
        assert!(s.imbalance() > 4.0);
    }

    #[test]
    fn counters_accumulate_and_merge() {
        let mut a = RankStats::default();
        a.add("solutions", 10);
        a.add("solutions", 5);
        let mut b = RankStats::default();
        b.add("solutions", 1);
        b.add("udf_calls", 3);
        a.merge(&b);
        assert_eq!(a.get("solutions"), 16);
        assert_eq!(a.get("udf_calls"), 3);
        assert_eq!(a.get("missing"), 0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_summary_panics() {
        StatSummary::of(&[]);
    }
}
