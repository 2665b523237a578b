//! Wall-clock benchmark of the IDS query engine.
//!
//! ```text
//! cargo run --release --manifest-path wallbench/Cargo.toml -- \
//!     --workload <whatif_session|serve_mix|graph_join> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run sets the workload up (several times with `--trace 0`, for a
//! steady `setup_s`), times a closed-loop phase of at least `--seconds`
//! through the public API with default `ExecOptions`, and checks every
//! result against a reference computed without the engine's planner or
//! executor. End-to-end times are scaled to reference host speed (see
//! `calib`). With `--trace 1` it then sets up again with timing taps and
//! replays the phase's fixed prefix traced (paired query by query with an
//! untraced twin, for the overhead ratio), checks that the traced replay
//! reproduces the untraced virtual seconds and result digests exactly, and
//! reports per-layer metrics; spans go to `wallbench/out/`.
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed`, and `metrics` (end-to-end with `--trace 0`, per-layer with
//! `--trace 1`).

mod calib;
mod layers;
mod phase;
mod reference;
mod report;
mod sequential;
mod serve_mix;
mod setup;
mod stats;
mod trace;
mod workload;

use calib::Calibrator;
use layers::Layers;
use phase::{check_reproduced, count_failures, end_to_end, Phase};
use reference::{QuerySpec, Reference};
use report::{result_line, Metrics};
use serve_mix::ServeMix;
use setup::Ready;
use std::path::PathBuf;
use std::sync::Arc;
use trace::Tracer;
use workload::{graph_queries, whatif_queries, Workload, DATASET_SEED};

const USAGE: &str = "usage: ids-wallbench --workload <whatif_session|serve_mix|graph_join> \
                     --seed <n> --seconds <s> --trace <0|1>";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
                }
                "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad("expected seconds"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(bad("expected positive seconds"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("expected 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// A workload set up and warmed, ready for its timed phase. At most two
/// exist at a time (a traced one and its untraced twin), so the variants'
/// sizes do not matter.
#[allow(clippy::large_enum_variant)]
enum Env {
    /// `whatif_session` and `graph_join`: one client.
    Sequential {
        ready: Ready,
        queries: Box<dyn Iterator<Item = QuerySpec>>,
        /// Queries per pass of the stream (a grid pass, a template
        /// rotation); the timed phase ends at a whole number of passes.
        pass: usize,
    },
    ServeMix {
        mix: ServeMix,
        target: ids_core::workflow::Target,
    },
}

/// Warm-up query for NCNPR datasets: BGP-only, so it fills no cache and
/// trains no UDF profile, and it is not in any workload's query stream.
const NCNPR_WARMUP: &str = "SELECT ?p WHERE { ?p <rdf:type> <up:Protein> . ?p <up:reviewed> 1 . }";

/// Seed offset of `graph_join`'s warm-up queries (one per template).
const GRAPH_WARMUP_SEED: u64 = 0x5A17;

impl Env {
    /// Launch → data → indexes → UDFs → warm-up. Returns the env and its
    /// set-up wall seconds.
    fn setup(w: Workload, seed: u64, tracer: Option<&Arc<Tracer>>) -> Result<(Self, f64), String> {
        let query_err = |e: ids_core::QueryError| format!("warm-up query: {e}");
        match w {
            Workload::WhatifSession => {
                let dataset = setup::x6_dataset(DATASET_SEED, workload::WHATIF_BACKGROUND);
                let mut ready = setup::ncnpr(&dataset, tracer);
                ready.inst.query(NCNPR_WARMUP).map_err(query_err)?;
                let secs = ready.started.elapsed().as_secs_f64();
                let queries = Box::new(whatif_queries(seed));
                Ok((Env::Sequential { ready, queries, pass: workload::WHATIF_GRID }, secs))
            }
            Workload::GraphJoin => {
                let mut ready = setup::sources(DATASET_SEED);
                for q in graph_queries(seed ^ GRAPH_WARMUP_SEED).take(workload::GRAPH_TEMPLATES) {
                    ready.inst.query(&q.text()).map_err(query_err)?;
                }
                let secs = ready.started.elapsed().as_secs_f64();
                let queries = Box::new(graph_queries(seed));
                Ok((Env::Sequential { ready, queries, pass: workload::GRAPH_TEMPLATES }, secs))
            }
            Workload::ServeMix => {
                let dataset = setup::x6_dataset(DATASET_SEED, workload::SERVE_BACKGROUND);
                let ready = setup::ncnpr(&dataset, tracer);
                let target = ready.target.expect("NCNPR set-up has a target");
                let mix = ServeMix::new(ready.inst, seed)?;
                let secs = ready.started.elapsed().as_secs_f64();
                Ok((Env::ServeMix { mix, target }, secs))
            }
        }
    }

    fn setup_times(&self) -> setup::SetupTimes {
        match self {
            Env::Sequential { ready, .. } => ready.times,
            // The service owns the instance; its ingest split is not kept.
            Env::ServeMix { .. } => setup::SetupTimes::default(),
        }
    }

    /// The timed phase: at least `seconds` and at least `min` queries.
    fn timed(&mut self, seconds: f64, min: usize) -> Result<Phase, String> {
        match self {
            Env::Sequential { ready, queries, pass } => {
                Ok(sequential::timed(&mut ready.inst, queries.as_mut(), seconds, min, *pass))
            }
            Env::ServeMix { mix, .. } => mix.run(|n, el| n >= min && el >= seconds, None),
        }
    }

    /// The traced replay of the first `n` queries. A sequential workload
    /// also replays them untraced on `twin`, one query ahead of each traced
    /// one; those untraced records are returned second.
    fn traced(
        &mut self,
        n: usize,
        tracer: &Tracer,
        layers: &mut Layers,
        twin: Option<&mut Env>,
    ) -> Result<(Phase, Phase), String> {
        match self {
            Env::Sequential { ready, queries, .. } => {
                let mut cal = Calibrator::default();
                let mut untraced = Phase::default();
                let mut twin = match twin {
                    Some(Env::Sequential { ready, queries, .. }) => {
                        Some((&mut ready.inst, queries))
                    }
                    _ => None,
                };
                let cache_before = ready.inst.cache().map(|c| c.stats());
                let phase = sequential::traced(
                    &mut ready.inst,
                    queries.as_mut(),
                    n,
                    tracer,
                    layers,
                    || {
                        if let Some((inst, queries)) = twin.as_mut() {
                            untraced.records.push(sequential::one(
                                inst,
                                queries.as_mut(),
                                &mut cal,
                            ));
                        }
                    },
                );
                if let (Some(before), Some(cache)) = (cache_before, ready.inst.cache()) {
                    layers.cache_before = before;
                    layers.cache_after = cache.stats();
                }
                Ok((phase, untraced))
            }
            Env::ServeMix { mix, .. } => {
                Ok((mix.run(|done, _| done >= n, Some((tracer, layers)))?, Phase::default()))
            }
        }
    }

    fn reference(&self) -> Reference {
        match self {
            Env::Sequential { ready, .. } => {
                Reference::new(ready.inst.datastore(), ready.target.as_ref())
            }
            Env::ServeMix { mix, target } => {
                Reference::new(mix.svc.instance().datastore(), Some(target))
            }
        }
    }
}

struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Metrics,
}

fn run(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let prefix = w.prefix();
    let setups = if args.trace { 1 } else { w.setups() };
    let mut cal = Calibrator::default();
    let (mut setup_samples, mut setup_walls) = (Vec::new(), Vec::new());
    let mut env = None;
    for _ in 0..setups {
        // Free the previous instance first so peak memory is one instance.
        drop(env.take());
        // The host's speed before and after, averaged, scales the set-up.
        let before = cal.factor();
        let (e, secs) = Env::setup(w, args.seed, None)?;
        setup_samples.push(secs * (before + cal.factor()) / 2.0);
        setup_walls.push(secs);
        env = Some(e);
    }
    let mut env = env.expect("at least one set-up");
    let phase = env.timed(args.seconds, prefix)?;
    let peak_rss_mb = setup::peak_rss_mb().unwrap_or(0.0);

    let mut reference = env.reference();
    let failed = count_failures(&phase.records, &mut reference);
    let (e2e, tail) = end_to_end(&phase, prefix, &setup_samples, failed, peak_rss_mb);
    let rows: usize = phase.records.iter().map(|r| r.rows).sum();
    println!(
        "{}: seed {}, {} queries ({:.1} result rows each) in {:.3} s busy, {} failed",
        w.name(),
        args.seed,
        phase.records.len(),
        rows as f64 / phase.records.len().max(1) as f64,
        phase.busy_s,
        failed,
    );
    let walls: Vec<f64> = phase.records.iter().map(|r| r.wall_ms).collect();
    let speeds: Vec<f64> = phase.records.iter().map(|r| r.speed).collect();
    println!(
        "unscaled wall clock: query p50 {:.3} ms, {:.3} q/s, set-ups {:?} s; \
         host-speed factor median {:.3} [{:.3}, {:.3}]",
        stats::median(&walls).unwrap_or(0.0),
        report::ratio(walls.len() as f64, phase.busy_s),
        setup_walls,
        stats::median(&speeds).unwrap_or(0.0),
        speeds.iter().copied().fold(f64::INFINITY, f64::min),
        speeds.iter().copied().fold(0.0, f64::max),
    );
    if let Some(t) = tail {
        println!(
            "query_tail_ms is p{:.2} over {} samples ({} beyond)",
            t.percentile,
            t.samples,
            phase::TAIL_BEYOND
        );
    }
    println!("failed_frac = {}", failed as f64 / phase.records.len().max(1) as f64);
    e2e.print("end-to-end (untraced):");
    if !args.trace {
        return Ok(Outcome {
            correct: failed == 0,
            attempted: phase.records.len(),
            failed,
            metrics: e2e,
        });
    }

    drop(env);
    let tracer = Tracer::new();
    let (mut env, _) = Env::setup(w, args.seed, Some(&tracer))?;
    tracer.clear();
    // Sequential workloads pair each traced query with the same query on an
    // untraced twin, so the overhead ratio sees one host state. Two
    // services cannot interleave rounds without charging one's rounds to
    // the other's latencies, so `serve_mix` compares with the timed phase.
    let mut twin = match w {
        Workload::ServeMix => None,
        _ => Some(Env::setup(w, args.seed, None)?.0),
    };
    let mut layers = Layers { setup: env.setup_times(), ..Layers::default() };
    let (traced, paired) = env.traced(prefix, &tracer, &mut layers, twin.as_mut())?;
    let traced_failed = count_failures(&traced.records, &mut reference);
    let untraced = if paired.records.is_empty() { &phase } else { &paired };
    layers.overhead_frac = traced.prefix_p50_ms(prefix) / untraced.prefix_p50_ms(prefix) - 1.0;
    let reproduced = check_reproduced(&phase.records, &traced.records, prefix);
    if let Err(e) = &reproduced {
        println!("traced run did not reproduce the untraced run: {e}");
    }
    let spans = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out").join(format!(
        "spans-{}-seed{}.jsonl",
        w.name(),
        args.seed
    ));
    match tracer.write_spans(&spans) {
        Ok(n) => println!("wrote {n} spans to {}", spans.display()),
        Err(e) => println!("could not write spans to {}: {e}", spans.display()),
    }
    let per_layer = layers.metrics(&tracer);
    per_layer.print("per-layer (traced):");
    Ok(Outcome {
        correct: failed == 0 && traced_failed == 0 && reproduced.is_ok(),
        attempted: phase.records.len() + traced.records.len(),
        failed: failed + traced_failed,
        metrics: per_layer,
    })
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            println!("{}", result_line(out.correct, out.attempted, out.failed, &out.metrics))
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` lists exactly the metrics this program prints.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let (e2e, _) = end_to_end(&Phase::default(), 1, &[1.0], 0, 1.0);
        let per_layer = Layers::default().metrics(&Tracer::new());
        for m in e2e.0.iter().chain(&per_layer.0) {
            let entry = format!("{{\"name\": \"{}\", \"unit\": \"{}\",", m.name, m.unit);
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(json.matches("\"better\"").count(), e2e.0.len() + per_layer.0.len());
        for w in Workload::ALL {
            assert!(json.contains(&format!("{{\"name\": \"{}\", \"why\"", w.name())));
        }
    }

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse("--workload graph_join --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(a, Args { workload: Workload::GraphJoin, seed: 3, seconds: 10.0, trace: true });
        assert!(parse("--workload nope --seed 3 --seconds 10 --trace 0").is_err());
        assert!(parse("--workload graph_join --seed 3 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload graph_join --seconds 10").is_err());
        assert!(parse("--workload graph_join --seed 3 --seconds 10 --trace 2").is_err());
    }
}
