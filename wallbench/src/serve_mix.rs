//! `serve_mix`: 16 tenant sessions in a closed loop through
//! `QueryService`. Each session keeps one query outstanding and submits
//! its next query when `run_round` returns its `Completed`.

use crate::calib::Calibrator;
use crate::layers::Layers;
use crate::phase::{Phase, Record};
use crate::reference::{digest_solutions, QuerySpec};
use crate::report::ratio;
use crate::trace::Tracer;
use crate::workload::{serve_pool, ServeDraws};
use ids_core::IdsInstance;
use ids_serve::{Completed, QueryId, QueryService, ServeConfig, SessionId, TenantConfig};
use std::collections::HashMap;
use std::time::Instant;

/// Concurrent tenant sessions.
pub const SESSIONS: usize = 16;

/// The service plus its open sessions and query stream.
pub struct ServeMix {
    pub svc: QueryService,
    sessions: Vec<SessionId>,
    /// Queries submitted so far, over all sessions.
    issued: usize,
    draws: ServeDraws,
}

impl ServeMix {
    /// Wrap `inst` in a service with semantic reuse on, warm the reuse
    /// cache with every pool query (through a separate tenant), and open
    /// the sessions. The quantum is far below any stage's virtual cost, so
    /// each tenant runs about one stage per round (the scheduler's progress
    /// floor) and short queries finish rounds before long ones; weights
    /// are mildly skewed, as in X6, for WDRR to arbitrate.
    pub fn new(inst: IdsInstance, seed: u64) -> Result<Self, String> {
        let mut svc = QueryService::new(
            inst,
            ServeConfig {
                quantum_secs: 1.0e-9,
                reuse: true,
                max_in_flight: usize::MAX,
                ..ServeConfig::default()
            },
        );
        svc.register_tenant(TenantConfig::new("warmup"));
        let warm = svc.open_session("warmup").map_err(|e| e.to_string())?;
        for q in serve_pool() {
            svc.submit(warm, &q.text()).map_err(|e| format!("warm-up submit: {e}"))?;
            for c in svc.run_until_idle() {
                c.result.map_err(|e| format!("warm-up query: {e}"))?;
            }
        }
        let mut sessions = Vec::with_capacity(SESSIONS);
        for i in 0..SESSIONS {
            let tenant = format!("tenant{i:02}");
            svc.register_tenant(
                TenantConfig::new(tenant.clone())
                    .with_weight(1 + (i % 3) as u32)
                    .with_max_queued(1),
            );
            sessions.push(svc.open_session(&tenant).map_err(|e| e.to_string())?);
        }
        Ok(Self { svc, sessions, issued: 0, draws: ServeDraws::new(seed) })
    }

    /// Run scheduler rounds until `done(completed, elapsed_s)` holds,
    /// starting with one submission per session. The host's speed is
    /// measured before and after each round, and the round's factor is
    /// their mean; a query's factor is the mean over the rounds it spanned,
    /// weighted by their wall time. With `trace`, each round is timed as a
    /// span and the service's layers are tallied.
    pub fn run(
        &mut self,
        done: impl Fn(usize, f64) -> bool,
        mut trace: Option<(&Tracer, &mut Layers)>,
    ) -> Result<Phase, String> {
        let start = Instant::now();
        let mut cal = Calibrator::default();
        let mut speed = cal.factor();
        let mut phase = Phase::default();
        let mut pending = HashMap::new();
        for s in 0..SESSIONS {
            self.submit(s, speed, &mut pending, &mut phase, trace_parts(&mut trace))?;
        }
        let phases_before = self.svc.instance().cluster().phases().len();
        let cache_before = self.svc.instance().cache().map(|c| c.stats());
        while !done(phase.records.len(), start.elapsed().as_secs_f64()) {
            let before = cal.factor();
            let t = Instant::now();
            let completed = match trace.as_mut() {
                None => self.svc.run_round(),
                Some((tracer, layers)) => {
                    let udf_before = tracer.udf_busy_s();
                    let (completed, secs) = tracer.span("serve.run_round", || self.svc.run_round());
                    layers.rounds += 1;
                    layers.round_s += secs;
                    layers.round_udf_s += tracer.udf_busy_s() - udf_before;
                    completed
                }
            };
            let end = Instant::now();
            speed = (before + cal.factor()) / 2.0;
            phase.add_busy((end - t).as_secs_f64(), speed);
            let mut resubmit = Vec::with_capacity(completed.len());
            for c in completed {
                let sub: Submitted = pending
                    .remove(&c.query)
                    .ok_or_else(|| format!("completion for unknown query {:?}", c.query))?;
                if let Some((_, layers)) = trace.as_mut() {
                    tally(layers, &sub.query, &c);
                }
                let mean_speed =
                    ratio(phase.ref_busy_s - sub.ref_busy_s, phase.busy_s - sub.busy_s);
                let wall_s = (end - sub.at).as_secs_f64();
                phase.records.push(self.record(sub.query, wall_s, mean_speed, &c));
                let s = self.sessions.iter().position(|&s| s == c.session);
                resubmit.push(s.ok_or("completion on an unknown session")?);
            }
            for s in resubmit {
                self.submit(s, speed, &mut pending, &mut phase, trace_parts(&mut trace))?;
            }
        }
        if let Some((_, layers)) = trace {
            let inst = self.svc.instance();
            layers.add_phases(&inst.cluster().phases()[phases_before..]);
            if let (Some(before), Some(cache)) = (cache_before, inst.cache()) {
                layers.cache_before = before;
                layers.cache_after = cache.stats();
            }
            layers.queries += phase.records.len();
        }
        Ok(phase)
    }

    /// Submit session `s`'s next query at host-speed factor `speed`.
    /// Traced, an extra `iql::parse_query` and the `submit` (which parses
    /// and plans) are timed as the core layer's parse and prepare.
    fn submit(
        &mut self,
        s: usize,
        speed: f64,
        pending: &mut HashMap<QueryId, Submitted>,
        phase: &mut Phase,
        trace: Option<(&Tracer, &mut Layers)>,
    ) -> Result<(), String> {
        let query = self.draws.draw(self.issued);
        self.issued += 1;
        let text = query.text();
        let mut trace = trace;
        if let Some((tracer, layers)) = trace.as_mut() {
            let (_, secs) = tracer.span("core.parse", || ids_core::iql::parse_query(&text));
            layers.parse_s += secs;
        }
        let t = Instant::now();
        let id = match trace {
            None => self.svc.submit(self.sessions[s], &text),
            Some((tracer, layers)) => {
                let (id, secs) =
                    tracer.span("serve.submit", || self.svc.submit(self.sessions[s], &text));
                layers.prepare_s += secs;
                id
            }
        }
        .map_err(|e| format!("submit: {e}"))?;
        phase.add_busy(t.elapsed().as_secs_f64(), speed);
        let (busy_s, ref_busy_s) = (phase.busy_s, phase.ref_busy_s);
        pending.insert(id, Submitted { at: t, query, busy_s, ref_busy_s });
        Ok(())
    }

    fn record(&self, query: QuerySpec, wall_s: f64, speed: f64, c: &Completed) -> Record {
        let (virtual_s, digest, rows) = match &c.result {
            Ok(out) => (
                c.latency_secs,
                digest_solutions(
                    self.svc.instance().datastore().dictionary(),
                    &out.solutions,
                    &query.select(),
                ),
                out.solutions.len(),
            ),
            Err(_) => (0.0, None, 0),
        };
        Record { query, wall_ms: wall_s * 1e3, speed, virtual_s, digest, rows }
    }
}

/// A query waiting for its `Completed`: when it was submitted, and the
/// phase's busy seconds (wall and at reference speed) at that moment.
struct Submitted {
    at: Instant,
    query: QuerySpec,
    busy_s: f64,
    ref_busy_s: f64,
}

/// Reborrow the optional trace handles for one call.
fn trace_parts<'a>(
    trace: &'a mut Option<(&Tracer, &mut Layers)>,
) -> Option<(&'a Tracer, &'a mut Layers)> {
    trace.as_mut().map(|(t, l)| (&**t, &mut **l))
}

fn tally(layers: &mut Layers, query: &QuerySpec, c: &Completed) {
    layers.slices += u64::from(c.slices);
    layers.queue_wait_virtual_s += c.queue_wait_secs;
    layers.reuse_probes += 1;
    // Checkpoint ordinals: 0 after the BGP, 1 after WHERE, 2 + i after
    // stage i. Repurposing queries end with their APPLY stage.
    let last = match query {
        QuerySpec::Repurposing(_) => 2,
        QuerySpec::Bgp(_) => 0,
    };
    if c.resumed_from >= last {
        layers.reuse_hits += 1;
    } else if c.resumed_from >= 0 {
        layers.reuse_partial += 1;
    }
    if let Ok(out) = &c.result {
        layers.add_breakdown(&out.breakdown);
        layers.pre_filter_rows += out.pre_filter_counts.iter().sum::<u64>();
    }
}
