//! Instruments for the traced run: an in-memory span log and same-name UDF
//! timing wrappers. Nothing here runs in the timed (untraced) runs.
//!
//! Spans are recorded around calls into each layer's public functions
//! from the benchmark's own code, kept in memory, and written out as JSON
//! lines when the run ends.

use ids_cache::CacheManager;
use ids_simrt::rng::fnv1a;
use ids_udf::{UdfOutput, UdfRegistry, UdfValue};
use std::collections::{BTreeMap, HashSet};
use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// The workflow UDFs the taps wrap, in registration order.
pub const WORKFLOW_UDFS: [&str; 4] = ["sw_similarity", "pic50", "dtba", "vina_docking"];

/// Spans beyond this many are timed but not kept, bounding memory.
const MAX_SPANS: usize = 400_000;

/// One recorded span. Times are microseconds since the tracer started.
struct Span {
    id: u32,
    parent: Option<u32>,
    query: u64,
    name: String,
    start_us: f64,
    end_us: f64,
}

/// Per-UDF counters gathered by the taps.
#[derive(Debug, Clone, Default)]
pub struct UdfTally {
    pub calls: u64,
    pub busy_s: f64,
    /// Hashes of distinct argument tuples.
    pub distinct: HashSet<u64>,
    /// Dynamic-programming cells (`sw_similarity` only).
    pub sw_cells: u64,
    /// Docking calls answered from the cache, and their wall time.
    pub cache_served: u64,
    pub cache_served_s: f64,
    /// Docking calls that ran the simulation, and their wall time.
    pub sims: u64,
    pub sim_s: f64,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    /// Open spans, innermost last (`None` = open but not kept).
    stack: Vec<Option<u32>>,
    query: u64,
    dropped: u64,
    udfs: BTreeMap<&'static str, UdfTally>,
    /// Wall seconds spent inside any tapped UDF so far.
    udf_busy_s: f64,
}

/// The span log plus UDF tallies of one traced run.
pub struct Tracer {
    origin: Instant,
    state: Mutex<State>,
}

impl Tracer {
    pub fn new() -> Arc<Self> {
        Arc::new(Self { origin: Instant::now(), state: Mutex::new(State::default()) })
    }

    /// Forget everything recorded so far (set-up and warm-up), so the
    /// tallies cover only the traced queries.
    pub fn clear(&self) {
        *self.lock() = State::default();
    }

    /// Tag spans opened from now on with query `q`.
    pub fn set_query(&self, q: u64) {
        self.lock().query = q;
    }

    /// Run `f` inside a span named `name`; returns its output and wall
    /// seconds.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        {
            let mut st = self.lock();
            let id = if st.spans.len() < MAX_SPANS {
                let id = st.spans.len() as u32;
                let parent = st.stack.last().copied().flatten();
                let query = st.query;
                st.spans.push(Span {
                    id,
                    parent,
                    query,
                    name: name.to_string(),
                    start_us: self.micros(start),
                    end_us: f64::NAN,
                });
                Some(id)
            } else {
                st.dropped += 1;
                None
            };
            st.stack.push(id);
        }
        let out = f();
        let end = Instant::now();
        let mut st = self.lock();
        if let Some(Some(id)) = st.stack.pop() {
            st.spans[id as usize].end_us = self.micros(end);
        }
        (out, (end - start).as_secs_f64())
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("no tracer user panics while holding the lock")
    }

    fn micros(&self, t: Instant) -> f64 {
        (t - self.origin).as_secs_f64() * 1e6
    }

    /// Wall seconds spent inside tapped UDFs so far.
    pub fn udf_busy_s(&self) -> f64 {
        self.lock().udf_busy_s
    }

    /// Snapshot of the per-UDF tallies.
    pub fn udf_tallies(&self) -> BTreeMap<&'static str, UdfTally> {
        self.lock().udfs.clone()
    }

    /// Write every kept span as one JSON object per line.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let st = self.lock();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &st.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"query\":{},\"name\":{:?},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.id, parent, s.query, s.name, s.start_us, s.end_us
            )?;
        }
        if st.dropped > 0 {
            writeln!(out, "{{\"dropped_spans\":{}}}", st.dropped)?;
        }
        out.flush()?;
        Ok(st.spans.len())
    }

    fn record_udf(&self, name: &'static str, args: &[UdfValue], secs: f64, extra: TapExtra) {
        let mut st = self.lock();
        st.udf_busy_s += secs;
        let t = st.udfs.entry(name).or_default();
        t.calls += 1;
        t.busy_s += secs;
        t.distinct.insert(fnv1a(format!("{args:?}").as_bytes()));
        match extra {
            TapExtra::None => {}
            TapExtra::SwCells(cells) => t.sw_cells += cells,
            TapExtra::Docking { cache_served: true } => {
                t.cache_served += 1;
                t.cache_served_s += secs;
            }
            TapExtra::Docking { cache_served: false } => {
                t.sims += 1;
                t.sim_s += secs;
            }
        }
    }
}

enum TapExtra {
    None,
    SwCells(u64),
    Docking { cache_served: bool },
}

/// Register same-name timing wrappers for the workflow UDFs on `registry`,
/// each forwarding to `inner` (where `register_workflow_udfs` put the real
/// ones). `cache` is read before and after each docking call to tell cache
/// hits from simulations; `target_len` is the target sequence length, for
/// counting Smith–Waterman cells.
pub fn install_udf_taps(
    registry: &UdfRegistry,
    inner: Arc<UdfRegistry>,
    tracer: &Arc<Tracer>,
    cache: Option<Arc<CacheManager>>,
    target_len: usize,
) {
    for name in WORKFLOW_UDFS {
        let inner = Arc::clone(&inner);
        let tracer = Arc::clone(tracer);
        let cache = cache.clone();
        registry
            .register_static(
                name,
                Arc::new(move |args: &[UdfValue]| -> UdfOutput {
                    let hits_before = cache
                        .as_ref()
                        .filter(|_| name == "vina_docking")
                        .map(|c| c.stats().cache_hits());
                    let (out, secs) = tracer.span(name, || inner.call(name, args));
                    let out = out.unwrap_or_else(|e| panic!("tapped UDF {name}: {e}"));
                    let extra = match name {
                        "sw_similarity" => {
                            let len = args.first().and_then(UdfValue::as_str).map_or(0, str::len);
                            TapExtra::SwCells((len * target_len) as u64)
                        }
                        "vina_docking" => TapExtra::Docking {
                            cache_served: match (&cache, hits_before) {
                                (Some(c), Some(before)) => c.stats().cache_hits() > before,
                                _ => false,
                            },
                        },
                        _ => TapExtra::None,
                    };
                    tracer.record_udf(name, args, secs, extra);
                    out
                }),
            )
            .unwrap_or_else(|e| panic!("tap for {name} must be the first registration: {e}"));
    }
}
