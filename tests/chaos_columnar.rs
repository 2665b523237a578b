//! Columnar/row price parity under chaos: the batch price settings
//! (`batch_dispatch_secs`, `columnar_eval_amortization`,
//! `columnar_join_amortization`) select a virtual-time *cost model*,
//! never a data plane — there is one batched engine. This suite pins the
//! invariant: whatever fault schedule the chaos matrix throws at the
//! cluster, the default batch prices return **byte-identical**
//! `QueryOutcome` rows to the row-at-a-time prices (no dispatch charge,
//! no amortization).
//!
//! Fault-free, equality is exact (same rows, same order, same term ids).
//! Under faults the two price lists accrue different virtual times — that is
//! the point of the ablation — so fault windows can intersect stages
//! differently; rows are compared as sorted decoded multisets, the same
//! tolerance `chaos_faults.rs` grants dilated clocks.

use ids::cache::{
    BackingStore, CacheConfig, CacheManager, IntermediateSolutions, TypedSolutionSet,
};
use ids::core::workflow::{
    install_workflow, repurposing_query, RepurposingThresholds, WorkflowModels,
};
use ids::core::{IdsConfig, IdsInstance, QueryOutcome};
use ids::simrt::{FaultConfig, FaultPlane, NetworkModel, Topology};
use ids::workloads::ncnpr::{build, Band, NcnprConfig};
use std::sync::Arc;

/// The CI seed matrix (ci.sh runs one seed per job via `CHAOS_SEED`).
fn chaos_seeds() -> Vec<u64> {
    match std::env::var("CHAOS_SEED") {
        Ok(s) => vec![s.parse().expect("CHAOS_SEED must be an unsigned integer")],
        Err(_) => (1..=8).collect(),
    }
}

fn ms_chaos() -> FaultConfig {
    use ids::simrt::faults::{
        CrashConfig, LinkConfig, StorageConfig, StragglerConfig, TransientConfig,
    };
    FaultConfig {
        crash: Some(CrashConfig { mean_uptime_secs: 2.0e-3, mean_downtime_secs: 0.5e-3 }),
        transient: Some(TransientConfig { fail_prob: 0.05 }),
        link: Some(LinkConfig {
            mean_healthy_secs: 1.0e-3,
            mean_degraded_secs: 0.4e-3,
            latency_mult: 8.0,
            bandwidth_mult: 0.25,
        }),
        straggler: Some(StragglerConfig { fraction: 0.25, slowdown: 3.0 }),
        storage: Some(StorageConfig { bit_rot_prob: 0.02, torn_write_prob: 0.01 }),
        permanent: None,
    }
}

fn small_config() -> NcnprConfig {
    NcnprConfig {
        bands: vec![
            Band {
                mutation_rate: 0.0,
                similarity_range: None,
                proteins: 3,
                compounds_per_protein: 4,
            },
            Band {
                mutation_rate: 0.62,
                similarity_range: Some((0.21, 0.39)),
                proteins: 5,
                compounds_per_protein: 2,
            },
        ],
        background_proteins: 10,
        ..NcnprConfig::default()
    }
}

/// Launch one instance with the full NCNPR workflow installed and the
/// price list pinned; identical to the `chaos_faults.rs` harness except
/// that `columnar = false` selects the row-at-a-time prices.
fn launch(topo: Topology, faults: Option<(u64, FaultConfig)>, columnar: bool) -> IdsInstance {
    let cache = Arc::new(CacheManager::new(
        topo,
        NetworkModel::slingshot(),
        CacheConfig::new(2, 64 << 20, 256 << 20),
        BackingStore::default_store(),
    ));
    let mut cfg = IdsConfig::laptop(topo.total_ranks(), 11);
    cfg.topology = topo;
    let mut inst = IdsInstance::launch(cfg);
    inst.attach_cache(cache);
    if let Some((seed, fc)) = faults {
        let plane = Arc::new(FaultPlane::new(seed, fc, topo.nodes(), topo.total_ranks(), 10.0));
        inst.attach_faults(plane);
    }
    let dataset = build(inst.datastore(), &small_config());
    let target = dataset.target.clone();
    install_workflow(&mut inst, &target, WorkflowModels::test_models());
    if !columnar {
        let opts = inst.exec_options_mut();
        opts.batch_dispatch_secs = 0.0;
        opts.columnar_eval_amortization = 1.0;
        opts.columnar_join_amortization = 1.0;
    }
    inst
}

fn query() -> String {
    repurposing_query(&RepurposingThresholds { sw_similarity: 0.9, min_pic50: 3.0, min_dtba: 3.0 })
}

/// Raw term-id rows — the strictest equality there is.
fn raw_rows(o: &QueryOutcome) -> Vec<Vec<u64>> {
    o.solutions.rows().iter().map(|r| r.iter().map(|t| t.raw()).collect()).collect()
}

/// Sorted decoded (compound, energy) rows — rank-placement tolerant.
fn extract(o: &QueryOutcome, inst: &IdsInstance) -> Vec<(String, String)> {
    let ds = inst.datastore();
    let mut v: Vec<(String, String)> = o
        .solutions
        .rows()
        .iter()
        .map(|r| {
            (
                ds.decode(r[1]).unwrap().to_string(),
                format!("{:.12}", ds.decode(r[2]).unwrap().as_f64().unwrap()),
            )
        })
        .collect();
    v.sort();
    v
}

/// Fault-free, the two cost models are observationally indistinguishable
/// at the data plane: same schema, same rows, same order, same dictionary
/// ids. (Virtual time is *not* compared here: on this 12-row UDF-heavy
/// workflow the per-batch dispatch charge is not amortized away — the
/// `ablation_columnar` bench owns the speedup claim on a workload where
/// batching matters.)
#[test]
fn fault_free_runs_are_byte_identical() {
    let mut row = launch(Topology::new(4, 2), None, false);
    let mut col = launch(Topology::new(4, 2), None, true);
    let row_out = row.query(&query()).unwrap();
    let col_out = col.query(&query()).unwrap();
    assert_eq!(row_out.solutions.vars(), col_out.solutions.vars(), "schema divergence");
    assert_eq!(raw_rows(&row_out), raw_rows(&col_out), "row/columnar data-plane divergence");
    assert_eq!(row_out.solutions.len(), 12, "3 proteins x 4 compounds");
}

/// The full chaos matrix: per seed, the columnar engine under faults
/// matches the row engine under the *same* fault schedule and the
/// fault-free baseline, row for row after the placement-tolerant sort.
#[test]
fn chaos_matrix_row_vs_columnar_parity() {
    let mut base = launch(Topology::new(4, 2), None, true);
    let base_out = base.query(&query()).unwrap();
    let expected = extract(&base_out, &base);
    assert_eq!(expected.len(), 12);

    for seed in chaos_seeds() {
        let mut row = launch(Topology::new(4, 2), Some((seed, ms_chaos())), false);
        let mut col = launch(Topology::new(4, 2), Some((seed, ms_chaos())), true);
        let row_out = row
            .query(&query())
            .unwrap_or_else(|e| panic!("seed {seed}: row chaos run failed: {e}"));
        let col_out = col
            .query(&query())
            .unwrap_or_else(|e| panic!("seed {seed}: columnar chaos run failed: {e}"));
        assert!(!col_out.degraded(), "seed {seed}: columnar fault paths must not drop rows");
        assert_eq!(
            extract(&row_out, &row),
            extract(&col_out, &col),
            "seed {seed}: row/columnar divergence under chaos"
        );
        assert_eq!(
            extract(&col_out, &col),
            expected,
            "seed {seed}: columnar chaos run diverged from fault-free baseline"
        );
    }
}

/// Serialized intermediates are price-agnostic: encoding the final
/// solutions of each run as a reuse checkpoint yields the exact same
/// wire bytes, and the O(1) `encoded_len` accounting matches the
/// measured size — the number the cache admission path charges.
#[test]
fn serialized_intermediates_are_mode_agnostic_and_exactly_accounted() {
    let mut row = launch(Topology::new(4, 2), None, false);
    let mut col = launch(Topology::new(4, 2), None, true);
    let q = query();
    let a = row.query(&q).unwrap();
    let b = col.query(&q).unwrap();

    let typed = |o: &QueryOutcome| IntermediateSolutions {
        fingerprint: 0xC0_10_AA,
        pre_filter_counts: o.pre_filter_counts.clone(),
        sets: vec![TypedSolutionSet {
            vars: o.solutions.vars().to_vec(),
            rows: o.solutions.rows().iter().map(|r| r.iter().map(|t| t.raw()).collect()).collect(),
        }],
    };
    let (oa, ob) = (typed(&a), typed(&b));
    let (ea, eb) = (oa.encode(), ob.encode());
    assert_eq!(ea, eb, "checkpoint wire bytes must match across modes");
    assert_eq!(oa.encoded_len(), ea.len(), "size accounting must equal measured bytes");
}
