//! Per-query records of a timed or traced phase, and the end-to-end
//! metrics computed from them.

use crate::reference::{QuerySpec, Reference};
use crate::report::{ratio, Metrics};
use crate::stats::{median, tail, Tail};

/// Samples a tail percentile must keep beyond it.
pub const TAIL_BEYOND: usize = 10;

/// One completed query.
#[derive(Debug, Clone)]
pub struct Record {
    pub query: QuerySpec,
    /// Wall latency (for `serve_mix`, from `submit` to its `Completed`).
    pub wall_ms: f64,
    /// Host-speed factor while it ran (see `calib`): `wall_ms * speed` is
    /// its latency at reference speed.
    pub speed: f64,
    /// Virtual seconds the engine charged it (0 on error).
    pub virtual_s: f64,
    /// Digest of its result rows; `None` when the query errored.
    pub digest: Option<u64>,
    /// Result rows (0 on error).
    pub rows: usize,
}

impl Record {
    /// Latency at reference host speed.
    pub fn ref_ms(&self) -> f64 {
        self.wall_ms * self.speed
    }
}

/// A timed phase: its records, in completion order, and how long the
/// system under test worked.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    pub records: Vec<Record>,
    /// Wall seconds spent in calls into the system under test (digests and
    /// the benchmark's own bookkeeping between them excluded).
    pub busy_s: f64,
    /// `busy_s` at reference host speed.
    pub ref_busy_s: f64,
}

impl Phase {
    /// Count `wall_s` of work done at host-speed factor `speed`.
    pub fn add_busy(&mut self, wall_s: f64, speed: f64) {
        self.busy_s += wall_s;
        self.ref_busy_s += wall_s * speed;
    }

    /// Median latency at reference speed of the first `n` records.
    pub fn prefix_p50_ms(&self, n: usize) -> f64 {
        let walls: Vec<f64> = self.records.iter().take(n).map(Record::ref_ms).collect();
        median(&walls).unwrap_or(0.0)
    }

    /// Total virtual seconds of the first `n` records.
    pub fn prefix_virtual_s(&self, n: usize) -> f64 {
        self.records.iter().take(n).map(|r| r.virtual_s).sum()
    }
}

/// Records that errored or whose digest differs from the reference.
pub fn count_failures(records: &[Record], reference: &mut Reference) -> usize {
    records.iter().filter(|r| r.digest != Some(reference.digest(&r.query))).count()
}

/// The first `n` records of `traced` must match `untraced` exactly in
/// virtual seconds and result digest. Returns a description of the first
/// difference.
pub fn check_reproduced(untraced: &[Record], traced: &[Record], n: usize) -> Result<(), String> {
    if untraced.len() < n || traced.len() < n {
        return Err(format!(
            "need {n} records on both sides, have {} untraced and {} traced",
            untraced.len(),
            traced.len()
        ));
    }
    for (i, (u, t)) in untraced.iter().zip(traced).take(n).enumerate() {
        if u.query != t.query {
            return Err(format!("query {i} differs: {:?} vs {:?}", u.query, t.query));
        }
        if u.virtual_s.to_bits() != t.virtual_s.to_bits() || u.digest != t.digest {
            return Err(format!(
                "query {i}: untraced ({} s, {:?}) vs traced ({} s, {:?})",
                u.virtual_s, u.digest, t.virtual_s, t.digest
            ));
        }
    }
    Ok(())
}

/// End-to-end metrics of one timed run. Latencies, throughput and set-up
/// times are at reference host speed (see `calib`); `setup_samples` are
/// already scaled.
pub fn end_to_end(
    phase: &Phase,
    prefix: usize,
    setup_samples: &[f64],
    failed: usize,
    peak_rss_mb: f64,
) -> (Metrics, Option<Tail>) {
    let lat: Vec<f64> = phase.records.iter().map(Record::ref_ms).collect();
    let tail = tail(&lat, TAIL_BEYOND);
    let mut m = Metrics::default();
    m.push("query_p50_ms", median(&lat).unwrap_or(0.0), "ms");
    m.push("query_tail_ms", tail.map_or(0.0, |t| t.value), "ms");
    m.push("throughput_qps", ratio(lat.len() as f64, phase.ref_busy_s), "1/s");
    m.push("setup_s", median(setup_samples).unwrap_or(0.0), "s");
    m.push("peak_rss_mb", peak_rss_mb, "MiB");
    m.push("virtual_s", phase.prefix_virtual_s(prefix), "s");
    m.push("ok_frac", 1.0 - ratio(failed as f64, lat.len() as f64), "frac");
    (m, tail)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::Bgp;

    #[test]
    fn latencies_and_throughput_are_at_reference_speed() {
        let mut phase = Phase::default();
        // Two queries at half speed, one at full speed.
        for (wall_ms, speed) in [(20.0, 0.5), (30.0, 0.5), (12.0, 1.0)] {
            phase.add_busy(wall_ms / 1e3, speed);
            phase.records.push(Record {
                query: QuerySpec::Bgp(Bgp { select: vec![], patterns: vec![] }),
                wall_ms,
                speed,
                virtual_s: 1.0,
                digest: Some(0),
                rows: 0,
            });
        }
        let (m, _) = end_to_end(&phase, 2, &[3.0, 1.0, 2.0], 1, 7.0);
        let get = |name: &str| m.0.iter().find(|x| x.name == name).unwrap().value;
        assert_eq!(get("query_p50_ms"), 12.0);
        assert!((get("throughput_qps") - 3.0 / 0.037).abs() < 1e-9);
        assert!((phase.busy_s - 0.062).abs() < 1e-12);
        assert_eq!(get("setup_s"), 2.0);
        assert_eq!(get("virtual_s"), 2.0);
        assert!((get("ok_frac") - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(phase.prefix_p50_ms(2), 12.5);
    }
}
