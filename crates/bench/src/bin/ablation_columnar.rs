//! Experiment X7 — columnar batched execution ablation.
//!
//! Runs the same join+FILTER-heavy NCNPR workload twice on identically
//! built instances through the one batched engine, under two price
//! lists: the row-at-a-time prices (no per-batch dispatch charge, no
//! amortization — every row pays the full eval and join cost) and the
//! default batch prices. Three invariants are asserted, not just printed:
//!
//! 1. the two runs produce **byte-identical** solution sets (same
//!    schema, same rows, same order — prices change the virtual-time
//!    cost model, never the data plane),
//! 2. columnar execution is at least 1.5x faster in total virtual time
//!    on this eval-overhead-dominated workload,
//! 3. cache byte accounting is **exact**: the serialized checkpoint's
//!    `encoded_len()` equals `encode().len()` byte for byte (no
//!    8-bytes-per-cell estimates anywhere in the admission path).
//!
//! Results also land in `bench_results/columnar.json` (hand-rolled JSON
//! — no serde_json in the vendored set).

use ids_bench::reporting::{section, table};
use ids_cache::{IntermediateSolutions, TypedSolutionSet};
use ids_core::engine::{ExecOptions, QueryOutcome};
use ids_core::{IdsConfig, IdsInstance};
use ids_simrt::Topology;
use ids_workloads::ncnpr::{build, Band, NcnprConfig};
use std::fmt::Write as _;

const SEED: u64 = 11;

/// Join-heavy dataset: every compound→protein edge survives the FILTER,
/// so the filter stage runs over thousands of joined rows and the
/// per-row dispatch overhead — the thing batching amortizes — dominates.
fn dataset_config() -> NcnprConfig {
    NcnprConfig {
        bands: vec![
            Band {
                mutation_rate: 0.0,
                similarity_range: None,
                proteins: 200,
                compounds_per_protein: 24,
            },
            Band {
                mutation_rate: 0.5,
                similarity_range: Some((0.2, 0.4)),
                proteins: 200,
                compounds_per_protein: 24,
            },
        ],
        background_proteins: 200,
        ..NcnprConfig::default()
    }
}

/// Three patterns (two distributed joins) and a three-conjunct FILTER of
/// plain comparisons: no UDF time to drown out the per-row engine
/// overhead the columnar path amortizes.
fn workload_query() -> &'static str {
    "SELECT ?c ?p WHERE { ?c <chembl:inhibits> ?p . \
                          ?p <up:reviewed> ?r . \
                          ?p <rdf:type> <up:Protein> . \
       FILTER(?r >= 0 && ?r <= 1 && ?r != 2) }"
}

struct Run {
    mode: &'static str,
    rows: usize,
    total_virtual_secs: f64,
    batches: u64,
    mean_batch_rows: f64,
    outcome: QueryOutcome,
}

/// The row-at-a-time price list: batches cost nothing to dispatch and
/// amortize nothing, so each row pays the full `eval_secs_per_row` and
/// `join_secs_per_row`.
fn row_prices(opts: &mut ExecOptions) {
    opts.batch_dispatch_secs = 0.0;
    opts.columnar_eval_amortization = 1.0;
    opts.columnar_join_amortization = 1.0;
}

fn run_mode(columnar: bool) -> Run {
    let topo = Topology::new(4, 2);
    let mut cfg = IdsConfig::laptop(topo.total_ranks(), SEED);
    cfg.topology = topo;
    let mut inst = IdsInstance::launch(cfg);
    build(inst.datastore(), &dataset_config());
    if !columnar {
        row_prices(inst.exec_options_mut());
    }

    let outcome = inst.query(workload_query()).expect("workload query runs clean");
    let snap = inst.metrics_snapshot();
    let batches = snap.counter_sum("ids_engine_batches_total");
    let occupancy = snap
        .histograms
        .iter()
        .find(|(k, _)| k.name == "ids_engine_batch_rows")
        .map(|(_, h)| h.mean())
        .unwrap_or(0.0);
    Run {
        mode: if columnar { "columnar" } else { "row" },
        rows: outcome.solutions.len(),
        total_virtual_secs: outcome.elapsed_secs,
        batches,
        mean_batch_rows: occupancy,
        outcome,
    }
}

/// The honest-accounting check: serialize the final solution set the way
/// a reuse checkpoint would and require the O(1) size computation to
/// match the real wire bytes exactly — this is the number `CacheManager`
/// caps and `put_ephemeral` limits charge against.
fn assert_exact_accounting(out: &QueryOutcome) -> (u64, u64) {
    let typed = TypedSolutionSet {
        vars: out.solutions.vars().to_vec(),
        rows: out.solutions.rows().iter().map(|r| r.iter().map(|t| t.raw()).collect()).collect(),
    };
    let obj = IntermediateSolutions {
        fingerprint: 0x1D5_C01,
        pre_filter_counts: vec![out.solutions.len() as u64],
        sets: vec![typed],
    };
    let computed = obj.encoded_len() as u64;
    let actual = obj.encode().len() as u64;
    assert_eq!(
        computed, actual,
        "encoded_len must equal the measured serialized size byte for byte"
    );
    (computed, actual)
}

fn write_json(row: &Run, col: &Run, speedup: f64, bytes: u64) -> std::io::Result<()> {
    let mut j = String::new();
    j.push_str("{\n  \"experiment\": \"ablation_columnar\",\n");
    let _ = writeln!(j, "  \"seed\": {SEED},");
    let _ = writeln!(j, "  \"query_rows\": {},", col.rows);
    j.push_str("  \"runs\": [\n");
    for (i, r) in [row, col].iter().enumerate() {
        let _ = write!(
            j,
            "    {{\"mode\": \"{}\", \"total_virtual_secs\": {:.9}, \
             \"batches\": {}, \"mean_batch_rows\": {:.1}}}",
            r.mode, r.total_virtual_secs, r.batches, r.mean_batch_rows,
        );
        j.push_str(if i == 0 { ",\n" } else { "\n" });
    }
    j.push_str("  ],\n");
    let _ = writeln!(j, "  \"speedup\": {speedup:.3},");
    let _ = writeln!(j, "  \"byte_identical_results\": true,");
    let _ = writeln!(j, "  \"checkpoint_bytes_exact\": {bytes}");
    j.push_str("}\n");
    std::fs::create_dir_all("bench_results")?;
    std::fs::write("bench_results/columnar.json", j)
}

fn main() {
    section("X7: columnar batched execution — row vs batch cost model");
    let row = run_mode(false);
    let col = run_mode(true);

    // 1. Byte-identical results: same schema, same rows, same order.
    assert_eq!(row.outcome.solutions.vars(), col.outcome.solutions.vars(), "schemas match");
    assert_eq!(
        row.outcome.solutions.rows(),
        col.outcome.solutions.rows(),
        "columnar execution must reproduce the row engine's rows exactly"
    );
    assert!(row.rows > 1000, "workload must be join-heavy, got {} rows", row.rows);
    // One data plane: both price lists run and meter the same batches.
    assert!(col.batches > 0, "the batched engine meters its batches");
    assert_eq!(row.batches, col.batches, "both runs meter the same batches");

    // 2. The virtual-time win the batch dispatch model exists to deliver.
    let speedup = row.total_virtual_secs / col.total_virtual_secs;
    assert!(
        speedup >= 1.5,
        "columnar must be >= 1.5x faster on this workload: row={:.9}s col={:.9}s ({speedup:.2}x)",
        row.total_virtual_secs,
        col.total_virtual_secs
    );

    // 3. Honest byte accounting on the serialized intermediates.
    let (bytes, _) = assert_exact_accounting(&col.outcome);

    let rows_tbl: Vec<Vec<String>> = [&row, &col]
        .iter()
        .map(|r| {
            vec![
                r.mode.to_string(),
                r.rows.to_string(),
                format!("{:.9}s", r.total_virtual_secs),
                r.batches.to_string(),
                format!("{:.1}", r.mean_batch_rows),
            ]
        })
        .collect();
    table(&["mode", "result rows", "virtual total", "batches", "mean batch rows"], &rows_tbl);
    println!(
        "\ncolumnar speedup: {speedup:.2}x ({:.9}s -> {:.9}s), results byte-identical, \
         checkpoint accounting exact at {bytes} bytes",
        row.total_virtual_secs, col.total_virtual_secs
    );

    write_json(&row, &col, speedup, bytes).expect("write bench_results/columnar.json");
    println!("wrote bench_results/columnar.json");
}
