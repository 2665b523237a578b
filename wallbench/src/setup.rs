//! Instance set-up for the three workloads: launch, data generation,
//! index build, UDF install. Warm-up is the caller's, since it differs per
//! workload.

use crate::trace::{install_udf_taps, Tracer};
use ids_cache::{BackingStore, CacheConfig, CacheManager};
use ids_core::workflow::{install_workflow, register_workflow_udfs, Target, WorkflowModels};
use ids_core::{IdsConfig, IdsInstance};
use ids_simrt::{NetworkModel, Topology};
use ids_udf::UdfRegistry;
use ids_workloads::ncnpr::{build, Band, NcnprConfig};
use ids_workloads::sources::generate_all;
use std::sync::Arc;
use std::time::Instant;

/// Root seed of the simulated cluster (rng streams, placement). A system
/// setting, not a workload input, so it does not follow `--seed`.
const CLUSTER_SEED: u64 = 11;

/// `sources::generate_all` scale giving ≈ 1.03 M triples (Table 1 × 1e-5).
pub const SOURCES_SCALE: f64 = 1.0e-5;

/// The workflow models every NCNPR workload installs (and the reference
/// recomputes with): the X6 ablation's fast models.
pub fn workflow_models() -> WorkflowModels {
    WorkflowModels::test_models()
}

/// Wall-clock split of one set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Data generation and ingest (for `ncnpr::build` this includes its own
    /// index build, which it does not expose separately).
    pub ingest_s: f64,
    /// Separate index build (`None` when folded into `ingest_s`).
    pub index_s: Option<f64>,
    pub triples: usize,
}

/// An instance ready for queries, minus warm-up.
pub struct Ready {
    pub inst: IdsInstance,
    pub started: Instant,
    pub times: SetupTimes,
    /// The NCNPR drug target (NCNPR datasets only).
    pub target: Option<Target>,
}

/// The X6 serving ablation's banded NCNPR dataset: a tight band of 12
/// near-identical proteins (6 compounds each) and a low band of 24
/// divergent ones (4 compounds each), plus unreviewed background proteins.
pub fn x6_dataset(seed: u64, background_proteins: usize) -> NcnprConfig {
    NcnprConfig {
        seed,
        bands: vec![
            Band {
                mutation_rate: 0.0,
                similarity_range: None,
                proteins: 12,
                compounds_per_protein: 6,
            },
            Band {
                mutation_rate: 0.62,
                similarity_range: Some((0.21, 0.39)),
                proteins: 24,
                compounds_per_protein: 4,
            },
        ],
        background_proteins,
        ..NcnprConfig::default()
    }
}

/// Launch an 8-rank (4 × 2) instance with the X6 cache attached, load the
/// NCNPR dataset, and install the workflow UDFs. With a tracer, the UDFs
/// go on a private registry and the instance gets timing taps forwarding
/// to it.
pub fn ncnpr(dataset: &NcnprConfig, tracer: Option<&Arc<Tracer>>) -> Ready {
    let started = Instant::now();
    let topo = Topology::new(4, 2);
    let mut cfg = IdsConfig::laptop(topo.total_ranks(), CLUSTER_SEED);
    cfg.topology = topo;
    let mut inst = IdsInstance::launch(cfg);
    let cache = Arc::new(CacheManager::new(
        topo,
        NetworkModel::slingshot(),
        CacheConfig::new(2, 64 << 20, 256 << 20).with_replication(2),
        BackingStore::default_store(),
    ));
    inst.attach_cache(Arc::clone(&cache));
    let t = Instant::now();
    let data = build(inst.datastore(), dataset);
    let ingest_s = t.elapsed().as_secs_f64();
    match tracer {
        None => install_workflow(&mut inst, &data.target, workflow_models()),
        Some(tracer) => {
            let inner = Arc::new(UdfRegistry::new());
            register_workflow_udfs(
                &inner,
                inst.datastore().dictionary(),
                &data.target,
                workflow_models(),
                Some(Arc::clone(&cache)),
            );
            install_udf_taps(
                inst.registry(),
                inner,
                tracer,
                Some(cache),
                data.target.sequence.len(),
            );
        }
    }
    Ready {
        inst,
        started,
        times: SetupTimes { ingest_s, index_s: None, triples: data.triples },
        target: Some(data.target),
    }
}

/// Launch a 2,048-rank (64 × 32) instance and load the seven Table 1
/// sources at [`SOURCES_SCALE`]. No UDFs, no cache.
pub fn sources(seed: u64) -> Ready {
    let started = Instant::now();
    let inst = IdsInstance::launch(IdsConfig::cray_ex(64, CLUSTER_SEED));
    let t = Instant::now();
    let stats = generate_all(inst.datastore(), SOURCES_SCALE, seed);
    let ingest_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    inst.datastore().build_indexes();
    let index_s = t.elapsed().as_secs_f64();
    let triples = stats.iter().map(|s| s.triples as usize).sum();
    Ready {
        inst,
        started,
        times: SetupTimes { ingest_s, index_s: Some(index_s), triples },
        target: None,
    }
}

/// The process's peak resident set (`VmHWM`) in MiB, if readable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
