//! Host-speed calibration.
//!
//! The benchmark runs on shared hosts whose speed drifts: the same query
//! ran up to 1.8× slower for stretches of seconds to minutes, as long as a
//! run, so raw wall times of one commit spread by 15–35 % (quartile
//! distance over median) from run to run. Right before and right after
//! each query (each round, for `serve_mix`, and each set-up) the benchmark
//! times a fixed kernel of its own and scales the measured wall time by
//! `(REFERENCE_KERNEL_MS / kernel time) ^ SENSITIVITY`, averaged over the
//! two measurements: the result estimates the time the work would have
//! taken on a host where the kernel takes [`REFERENCE_KERNEL_MS`]. The
//! kernel calls no code of the program, and
//! its data stay in L1/L2 and are warmed before it is timed, so its time
//! does not depend on what the program did before it (measured right
//! after a query and again 10 ms later, it read the same within 1–3 %).

use ids_simrt::rng::SplitMix64;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Kernel time that defines reference speed: about its time in the
/// fastest state seen on the 2-vCPU Xeon VM the baseline was recorded on.
pub const REFERENCE_KERNEL_MS: f64 = 0.16;

/// How strongly the engine's wall time follows the kernel's: when the host
/// slows the kernel by a factor `k`, it slows the engine by about
/// `k ^ SENSITIVITY`. Fitted by least squares of log unscaled median
/// latency on log kernel speed over 20 runs of each workload: 0.64
/// (`whatif_session`), 0.60 (`serve_mix`), 0.62 (`graph_join`). With full
/// scaling (1.0) the host's slow stretches were over-corrected by up to
/// 15 %.
const SENSITIVITY: f64 = 0.6;

/// Timed runs of each kernel part per measurement (after one untimed
/// run); the measurement takes their median.
const RUNS: usize = 5;

/// Distinct keys of the hash-and-sort part.
const KEYS: usize = 6000;

/// The kernel's fixed inputs and its buffers, allocated once so that no
/// allocation is timed.
pub struct Calibrator {
    a: Vec<u8>,
    b: Vec<u8>,
    rows: [Vec<i32>; 2],
    keys: Vec<u64>,
    map: HashMap<u64, u32>,
    sorted: Vec<u64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        let mut rng = SplitMix64::new(0xCA1, 0xB);
        let mut seq =
            |n| (0..n).map(|_| b"ACDEFGHIKLMNPQRSTVWY"[rng.next_below(20) as usize]).collect();
        let (a, b): (Vec<u8>, Vec<u8>) = (seq(200), seq(200));
        let rows = [vec![0; b.len() + 1], vec![0; b.len() + 1]];
        let keys = (0..KEYS).map(|_| rng.next_u64()).collect();
        Self { a, b, rows, keys, map: HashMap::with_capacity(KEYS), sorted: vec![0; KEYS] }
    }
}

impl Calibrator {
    /// The host-speed factor now: [`REFERENCE_KERNEL_MS`] over the
    /// kernel's time, to the power [`SENSITIVITY`]. A wall time times this
    /// factor is the estimated time at reference speed. The kernel has two parts, timed separately: a
    /// Smith–Waterman DP (compute-bound, like the UDFs) and a hash-map
    /// build, probe and sort (memory-bound, like the joins); its time is
    /// the geometric mean of the two parts' median times.
    pub fn factor(&mut self) -> f64 {
        let Self { a, b, rows, keys, map, sorted } = self;
        let dp = median_ms(|| {
            black_box(local_alignment(black_box(a), black_box(b), rows));
        });
        let hs = median_ms(|| {
            black_box(hash_and_sort(black_box(keys), map, sorted));
        });
        (REFERENCE_KERNEL_MS / (dp * hs).sqrt()).powf(SENSITIVITY)
    }
}

/// Median wall milliseconds of [`RUNS`] runs of `f`, after one untimed run.
fn median_ms(mut f: impl FnMut()) -> f64 {
    f();
    let mut ms = [0.0; RUNS];
    for m in &mut ms {
        let t = Instant::now();
        f();
        *m = t.elapsed().as_secs_f64() * 1e3;
    }
    ms.sort_by(f64::total_cmp);
    ms[RUNS / 2]
}

/// Smith–Waterman score with linear gaps (match 2, mismatch −1, gap −2),
/// in two caller-owned rows of `b.len() + 1` cells.
fn local_alignment(a: &[u8], b: &[u8], [prev, cur]: &mut [Vec<i32>; 2]) -> i32 {
    prev.fill(0);
    cur.fill(0);
    let mut best = 0;
    for &x in a {
        for (j, &y) in b.iter().enumerate() {
            let diag = prev[j] + if x == y { 2 } else { -1 };
            let v = diag.max(prev[j + 1] - 2).max(cur[j] - 2).max(0);
            cur[j + 1] = v;
            best = best.max(v);
        }
        std::mem::swap(prev, cur);
    }
    best
}

/// Fill `map` with `keys`, probe every key, and sort a copy into `sorted`
/// (both buffers keep their capacity between calls).
fn hash_and_sort(keys: &[u64], map: &mut HashMap<u64, u32>, sorted: &mut [u64]) -> u64 {
    map.clear();
    map.extend(keys.iter().zip(0..).map(|(&k, i)| (k, i)));
    let hits: u64 = keys.iter().rev().filter_map(|k| map.get(k)).map(|&i| u64::from(i)).sum();
    sorted.copy_from_slice(keys);
    sorted.sort_unstable();
    sorted[sorted.len() / 2] ^ hits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_scores_identity_and_factor_is_positive() {
        let mut c = Calibrator::default();
        let (a, b) = (c.a.clone(), c.b.clone());
        let same = local_alignment(&a, &a, &mut c.rows);
        assert_eq!(same, 2 * a.len() as i32);
        assert!(local_alignment(&a, &b, &mut c.rows) < same);
        let keys = c.keys.clone();
        let mid = hash_and_sort(&keys, &mut c.map, &mut c.sorted);
        assert!(c.sorted.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(mid, hash_and_sort(&keys, &mut c.map, &mut c.sorted));
        let f = c.factor();
        assert!(f.is_finite() && f > 0.0);
    }
}
