//! Per-layer metrics of the traced run. Layers are named by crate. Every
//! metric is printed for every workload; a layer a workload does not
//! reach reads 0 (for example `udf.*` on `graph_join`, the null check for
//! UDF optimizations).
//!
//! Times are means per traced query unless the name says otherwise;
//! counts are totals over the traced queries, whose number is fixed per
//! workload, so counts repeat exactly for a given seed.

use crate::report::{ratio, Metrics};
use crate::setup::SetupTimes;
use crate::trace::{Tracer, UdfTally, WORKFLOW_UDFS};
use ids_cache::CacheStats;
use ids_core::StageBreakdown;
use ids_simrt::PhaseStats;

/// What the traced run measured, summed over its queries.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub queries: usize,
    /// Σ wall seconds of the traced queries.
    pub query_wall_s: f64,
    // core: an extra `iql::parse_query` per query, `prepare_run`, and each
    // `step_run` bucketed by `PlanRun::phase_label()`.
    pub parse_s: f64,
    pub prepare_s: f64,
    pub bgp_s: f64,
    pub where_s: f64,
    pub apply_s: f64,
    pub gather_s: f64,
    /// UDF wall time inside `where-filter` steps.
    pub where_udf_s: f64,
    /// Rows entering the WHERE filter (Σ `QueryOutcome::pre_filter_counts`).
    pub pre_filter_rows: u64,
    // graph: each query's patterns replayed through `Datastore::scan_shard`.
    pub scan_s: f64,
    pub scan_rows: u64,
    // simrt: virtual breakdowns and the cluster's phase history.
    pub virt: StageBreakdown,
    pub joined_rows: u64,
    pub filter_imbalance_sum: f64,
    pub filter_phases: usize,
    // cache: `CacheManager::stats()` before and after the traced queries.
    pub cache_before: CacheStats,
    pub cache_after: CacheStats,
    // reuse: from `Completed::resumed_from`. A hit resumed from the
    // query's last checkpoint (only the gather left); a partial hit resumed
    // from an earlier one (e.g. a new FILTER threshold over a stored BGP).
    pub reuse_probes: u64,
    pub reuse_hits: u64,
    pub reuse_partial: u64,
    // serve: each `run_round`, and the `Completed` timings.
    pub rounds: u64,
    pub round_s: f64,
    pub round_udf_s: f64,
    pub slices: u64,
    pub queue_wait_virtual_s: f64,
    pub setup: SetupTimes,
    /// Traced `query_p50_ms` ÷ untraced, minus 1.
    pub overhead_frac: f64,
}

impl Layers {
    /// Fold one outcome's virtual breakdown in.
    pub fn add_breakdown(&mut self, b: &StageBreakdown) {
        self.virt.scan_secs += b.scan_secs;
        self.virt.join_secs += b.join_secs;
        self.virt.rebalance_secs += b.rebalance_secs;
        self.virt.filter_secs += b.filter_secs;
        self.virt.gather_secs += b.gather_secs;
        for (udf, s) in &b.apply_secs {
            *self.virt.apply_secs.entry(udf.clone()).or_default() += s;
        }
    }

    /// Fold in the cluster phases completed during the traced queries.
    pub fn add_phases(&mut self, phases: &[PhaseStats]) {
        for ph in phases {
            match ph.name.as_str() {
                "join" => self.joined_rows += ph.totals.get("joined_rows"),
                "filter" => {
                    self.filter_imbalance_sum += ph.busy.imbalance();
                    self.filter_phases += 1;
                }
                _ => {}
            }
        }
    }

    pub fn metrics(&self, tracer: &Tracer) -> Metrics {
        let q = self.queries.max(1) as f64;
        let per_q_ms = |s: f64| 1e3 * s / q;
        let udfs = tracer.udf_tallies();
        let none = UdfTally::default();
        let udf = |name: &str| udfs.get(name).unwrap_or(&none);
        let udf_busy_s = udfs.values().fold(0.0, |a, t| a + t.busy_s);
        let mut m = Metrics::default();

        for name in WORKFLOW_UDFS {
            let t = udf(name);
            m.push(format!("udf.{name}.calls"), t.calls as f64, "count");
            m.push(format!("udf.{name}.busy_ms"), per_q_ms(t.busy_s), "ms");
            m.push(
                format!("udf.{name}.distinct_args_frac"),
                ratio(t.distinct.len() as f64, t.calls as f64),
                "frac",
            );
        }
        let sw = udf("sw_similarity");
        let mcells = sw.sw_cells as f64 / 1e6;
        m.push("models.sw.mcells", mcells, "Mcell");
        m.push("models.sw.mcells_per_s", ratio(mcells, sw.busy_s), "Mcell/s");

        m.push("core.parse_us", 1e6 * self.parse_s / q, "us");
        m.push("core.plan_us", 1e6 * (self.prepare_s - self.parse_s).max(0.0) / q, "us");
        m.push("core.bgp_ms", per_q_ms(self.bgp_s), "ms");
        m.push("core.where_ms", per_q_ms(self.where_s), "ms");
        m.push("core.apply_ms", per_q_ms(self.apply_s), "ms");
        m.push("core.gather_ms", per_q_ms(self.gather_s), "ms");
        m.push("core.self_ms", per_q_ms(self.where_s - self.where_udf_s), "ms");
        let steps_s = self.prepare_s + self.bgp_s + self.where_s + self.apply_s + self.gather_s;
        m.push("core.step_share", ratio(steps_s, self.query_wall_s), "frac");
        m.push("udf.where.busy_share", ratio(self.where_udf_s, self.where_s), "frac");
        m.push(
            "udf.where.pass_frac",
            ratio(udf("vina_docking").calls as f64, self.pre_filter_rows as f64),
            "frac",
        );

        m.push("graph.scan_ms", per_q_ms(self.scan_s), "ms");
        m.push("graph.scan_rows", self.scan_rows as f64 / q, "rows");
        m.push("graph.bgp_scan_share", ratio(self.scan_s, self.bgp_s), "frac");
        m.push("graph.ingest_s", self.setup.ingest_s, "s");
        m.push("graph.index_s", self.setup.index_s.unwrap_or(0.0), "s");
        let load_s = self.setup.ingest_s + self.setup.index_s.unwrap_or(0.0);
        m.push("graph.ingest_triples_per_s", ratio(self.setup.triples as f64, load_s), "1/s");

        let v = &self.virt;
        // `fold` from +0.0: an empty f64 `sum` is -0.0.
        let apply = v.apply_secs.values().fold(0.0, |a, b| a + b);
        m.push("simrt.virtual.scan_s", v.scan_secs / q, "s");
        m.push("simrt.virtual.join_s", v.join_secs / q, "s");
        m.push("simrt.virtual.rebalance_s", v.rebalance_secs / q, "s");
        m.push("simrt.virtual.filter_s", v.filter_secs / q, "s");
        m.push("simrt.virtual.apply_s", apply / q, "s");
        m.push("simrt.virtual.gather_s", v.gather_secs / q, "s");
        m.push(
            "simrt.filter_imbalance",
            ratio(self.filter_imbalance_sum, self.filter_phases as f64),
            "ratio",
        );
        m.push("simrt.joined_rows", self.joined_rows as f64 / q, "rows");

        let (b, a) = (&self.cache_before, &self.cache_after);
        let hits = a.cache_hits().saturating_sub(b.cache_hits()) as f64;
        let misses = a.total_misses.saturating_sub(b.total_misses) as f64;
        let fetches = a.backing_fetches.saturating_sub(b.backing_fetches) as f64;
        m.push("cache.hits", hits, "count");
        m.push("cache.misses", misses, "count");
        m.push("cache.backing_fetches", fetches, "count");
        // Share of all gets served by a cache tier.
        m.push("cache.hit_rate", ratio(hits, hits + misses + fetches), "frac");
        let dock = udf("vina_docking");
        m.push("cache.get_us", 1e6 * ratio(dock.cache_served_s, dock.cache_served as f64), "us");
        m.push("models.docking.sims", dock.sims as f64, "count");
        m.push("models.docking.sim_ms", 1e3 * ratio(dock.sim_s, dock.sims as f64), "ms");

        m.push("reuse.probes", self.reuse_probes as f64, "count");
        m.push("reuse.hits", self.reuse_hits as f64, "count");
        m.push("reuse.partial_hits", self.reuse_partial as f64, "count");
        m.push("reuse.hit_rate", ratio(self.reuse_hits as f64, self.reuse_probes as f64), "frac");

        m.push("serve.rounds", self.rounds as f64, "count");
        m.push("serve.round_ms", 1e3 * ratio(self.round_s, self.rounds as f64), "ms");
        m.push(
            "serve.self_ms",
            1e3 * ratio(self.round_s - self.round_udf_s, self.rounds as f64),
            "ms",
        );
        m.push("serve.slices_per_query", ratio(self.slices as f64, self.queries as f64), "slices");
        m.push(
            "serve.queue_wait_virtual_s",
            ratio(self.queue_wait_virtual_s, self.queries as f64),
            "s",
        );

        m.push("trace.queries", self.queries as f64, "count");
        m.push("trace.udf_busy_ms", per_q_ms(udf_busy_s), "ms");
        m.push("trace.overhead_frac", self.overhead_frac, "frac");
        m
    }
}
