//! One client in a closed loop (`whatif_session`, `graph_join`): the next
//! query is sent when the previous one returns.

use crate::calib::Calibrator;
use crate::layers::Layers;
use crate::phase::{Phase, Record};
use crate::reference::{digest_solutions, Pattern, QuerySpec, Slot};
use crate::trace::Tracer;
use ids_core::{IdsInstance, QueryError, QueryOutcome, StepOutcome};
use ids_graph::TriplePattern;
use std::time::Instant;

fn record(
    inst: &IdsInstance,
    query: QuerySpec,
    wall_s: f64,
    speed: f64,
    res: &Result<QueryOutcome, QueryError>,
) -> Record {
    let (virtual_s, digest, rows) = match res {
        Ok(out) => (
            out.elapsed_secs,
            digest_solutions(inst.datastore().dictionary(), &out.solutions, &query.select()),
            out.solutions.len(),
        ),
        Err(_) => (0.0, None, 0),
    };
    Record { query, wall_ms: wall_s * 1e3, speed, virtual_s, digest, rows }
}

/// Run the next query through `IdsInstance::query`. Only the call is
/// timed; its host-speed factor is the mean of the factors measured right
/// before and right after it, and the digest is taken after that.
pub fn one(
    inst: &mut IdsInstance,
    queries: &mut dyn Iterator<Item = QuerySpec>,
    cal: &mut Calibrator,
) -> Record {
    let query = queries.next().expect("query streams are endless");
    let text = query.text();
    let before = cal.factor();
    let t = Instant::now();
    let res = inst.query(&text);
    let wall_s = t.elapsed().as_secs_f64();
    let speed = (before + cal.factor()) / 2.0;
    record(inst, query, wall_s, speed, &res)
}

/// Run queries until at least `seconds` have passed and at least
/// `min_queries` have completed, stopping at a whole number of `pass`es of
/// the query stream so that every run does the same mix of queries.
pub fn timed(
    inst: &mut IdsInstance,
    queries: &mut dyn Iterator<Item = QuerySpec>,
    seconds: f64,
    min_queries: usize,
    pass: usize,
) -> Phase {
    let start = Instant::now();
    let mut cal = Calibrator::default();
    let mut phase = Phase::default();
    let done = |phase: &Phase| {
        let n = phase.records.len();
        n >= min_queries && n.is_multiple_of(pass) && start.elapsed().as_secs_f64() >= seconds
    };
    while !done(&phase) {
        let r = one(inst, queries, &mut cal);
        phase.add_busy(r.wall_ms / 1e3, r.speed);
        phase.records.push(r);
    }
    phase
}

/// Run exactly `n` queries with every layer boundary timed: an extra
/// `iql::parse_query`, `prepare_run`, and each `step_run` by phase label;
/// then (outside the query's wall time) each pattern replayed through
/// `Datastore::scan_shard` over every shard. `before_each` runs ahead of
/// every traced query (the untraced twin's matching query), so both see
/// the host in the same state.
pub fn traced(
    inst: &mut IdsInstance,
    queries: &mut dyn Iterator<Item = QuerySpec>,
    n: usize,
    tracer: &Tracer,
    layers: &mut Layers,
    mut before_each: impl FnMut(),
) -> Phase {
    let mut cal = Calibrator::default();
    let mut phase = Phase::default();
    let phases_before = inst.cluster().phases().len();
    for i in 0..n {
        before_each();
        let query = queries.next().expect("query streams are endless");
        let text = query.text();
        tracer.set_query(i as u64);
        let (_, parse_s) = tracer.span("core.parse", || ids_core::iql::parse_query(&text));
        layers.parse_s += parse_s;
        let before = cal.factor();
        let t = Instant::now();
        let (res, _) = tracer.span("query", || run_steps(inst, &text, tracer, layers));
        let wall_s = t.elapsed().as_secs_f64();
        let speed = (before + cal.factor()) / 2.0;
        phase.add_busy(wall_s, speed);
        layers.query_wall_s += wall_s;
        if let Ok(out) = &res {
            layers.add_breakdown(&out.breakdown);
            layers.pre_filter_rows += out.pre_filter_counts.iter().sum::<u64>();
        }
        phase.records.push(record(inst, query.clone(), wall_s, speed, &res));
        replay_scans(inst, &query.patterns(), tracer, layers);
    }
    layers.queries += n;
    layers.add_phases(&inst.cluster().phases()[phases_before..]);
    phase
}

fn run_steps(
    inst: &mut IdsInstance,
    text: &str,
    tracer: &Tracer,
    layers: &mut Layers,
) -> Result<QueryOutcome, QueryError> {
    let (run, prepare_s) = tracer.span("core.prepare_run", || inst.prepare_run(text, false));
    layers.prepare_s += prepare_s;
    let mut run = run?;
    loop {
        let label = run.phase_label();
        let udf_before = tracer.udf_busy_s();
        let (step, secs) = tracer.span(&format!("core.step.{label}"), || inst.step_run(&mut run));
        if label.starts_with("pattern") {
            layers.bgp_s += secs;
        } else if label == "where-filter" {
            layers.where_s += secs;
            layers.where_udf_s += tracer.udf_busy_s() - udf_before;
        } else if label.starts_with("stage") {
            layers.apply_s += secs;
        } else {
            layers.gather_s += secs;
        }
        if let StepOutcome::Done(out) = step? {
            return Ok(*out);
        }
    }
}

/// The graph layer's share of the BGP: each pattern, with constants
/// resolved through the dictionary, scanned on every shard.
fn replay_scans(inst: &IdsInstance, patterns: &[Pattern], tracer: &Tracer, layers: &mut Layers) {
    let ds = inst.datastore();
    let id = |slot: &Slot| match slot {
        Slot::Var(_) => Some(None),
        Slot::Const(t) => ds.dictionary().lookup(t).map(Some),
    };
    for pat in patterns {
        // A constant missing from the dictionary matches nothing.
        let (Some(s), Some(p), Some(o)) = (id(&pat.s), id(&pat.p), id(&pat.o)) else { continue };
        let tp = TriplePattern::new(s, p, o);
        let (rows, secs) = tracer.span("graph.scan_shard", || {
            (0..ds.num_shards()).map(|shard| ds.scan_shard(shard, &tp).len() as u64).sum::<u64>()
        });
        layers.scan_s += secs;
        layers.scan_rows += rows;
    }
}
