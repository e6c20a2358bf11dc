//! Workload and measurement helpers for the columnar-detection experiment.
//!
//! The `columnar` criterion group (`cargo bench -p cfd-bench --bench
//! columnar`) and the `columnar_exp` binary (`cargo run --release -p
//! cfd-bench --bin columnar_exp`) share this module: a deterministic dirty
//! relation, a 20-CFD detection workload, and a timing harness comparing
//! the seed's row-wise `Value`-keyed detection
//! ([`cfd_clean::detect_all_rowwise`]) against the dictionary-encoded
//! columnar path ([`cfd_clean::detect_all`]).

use cfd_model::{Cfd, Pattern};
use cfd_relalg::instance::{Relation, Tuple};
use cfd_relalg::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Attribute count of the benchmark relation.
pub const ARITY: usize = 8;

/// Per-column error probability of [`dirty_relation`] (the paper's
/// cleaning experiments corrupt a few percent of cells).
const ERROR_RATE: f64 = 0.02;

/// A deterministic dirty relation: `n` tuples functionally determined by a
/// string key in column 0, with ~2% (`ERROR_RATE`) of the dependent cells
/// corrupted — so every CFD of [`detection_sigma`] finds violations at a
/// realistic rate instead of in every group. String-typed key columns make
/// the row-wise baseline pay the heap hash/compare cost the dictionary
/// encoding removes (census-style data is string-heavy). Column 3 is a
/// unique row id (LHS-only in the workload), keeping all `n` tuples
/// distinct under set semantics.
pub fn dirty_relation(n: usize, seed: u64) -> Relation {
    dirty_relation_rated(n, seed, ERROR_RATE)
}

/// [`dirty_relation`] with an explicit per-cell error rate (the
/// incremental experiment models a mostly-clean maintained store, the
/// batch-cleaning one a dirtier warehouse).
pub fn dirty_relation_rated(n: usize, seed: u64, rate: f64) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let key = rng.gen_range(0..(n as i64 / 2).max(4));
        let noise = |rng: &mut StdRng, clean: i64, pool: i64| {
            if rng.gen_bool(rate) {
                (clean + 1 + rng.gen_range(0..pool)) % pool
            } else {
                clean
            }
        };
        let t1 = noise(&mut rng, key % 211, 211);
        let t2 = noise(&mut rng, key % 1009, 1009);
        let t4 = noise(&mut rng, key % 727, 727);
        let t5 = key % 13;
        let t6 = if rng.gen_bool(rate) { 8 } else { 7 };
        let t7 = noise(&mut rng, t5, 13);
        let t: Tuple = vec![
            Value::str(format!("k{key}")),
            Value::str(format!("c{t1}")),
            Value::int(t2),
            Value::int(i as i64),
            Value::int(t4),
            Value::int(t5),
            Value::int(t6),
            Value::int(t7),
        ];
        out.push(t);
    }
    out.into_iter().collect()
}

/// The 20-CFD detection workload of the §5-style cleaning experiment:
/// plain FDs of LHS width 1–3, conditional CFDs, constant-RHS patterns,
/// and the attribute-equality form, spread over all [`ARITY`] columns.
pub fn detection_sigma() -> Vec<Cfd> {
    let sigma = vec![
        // Plain FDs off the key, single-attribute LHS.
        Cfd::fd(&[0], 1).unwrap(),
        Cfd::fd(&[0], 2).unwrap(),
        Cfd::fd(&[0], 4).unwrap(),
        Cfd::fd(&[0], 5).unwrap(),
        // Wider LHS (exercise the packed 2-key and Vec-keyed paths).
        Cfd::fd(&[0, 1], 2).unwrap(),
        Cfd::fd(&[0, 2], 4).unwrap(),
        Cfd::fd(&[0, 1], 4).unwrap(),
        Cfd::fd(&[0, 1, 2], 4).unwrap(),
        Cfd::fd(&[0, 2, 5], 7).unwrap(),
        // FDs keyed by the unique row id: satisfied, pure scan cost.
        Cfd::fd(&[2, 3], 4).unwrap(),
        Cfd::fd(&[0, 3], 1).unwrap(),
        Cfd::fd(&[1, 2, 3], 5).unwrap(),
        // Conditional CFDs: constant LHS cells scope the check.
        Cfd::new(
            vec![(0, Pattern::Wild), (5, Pattern::cst(3))],
            1,
            Pattern::Wild,
        )
        .unwrap(),
        Cfd::new(
            vec![(0, Pattern::Wild), (5, Pattern::cst(5))],
            2,
            Pattern::Wild,
        )
        .unwrap(),
        Cfd::new(vec![(3, Pattern::cst(10))], 7, Pattern::Wild).unwrap(),
        // Constant-RHS patterns (single-tuple rule).
        Cfd::new(vec![(5, Pattern::cst(2))], 6, Pattern::cst(7)).unwrap(),
        Cfd::new(vec![(5, Pattern::cst(4))], 6, Pattern::cst(7)).unwrap(),
        Cfd::const_col(6, 7i64),
        // An absent constant: matches nothing, tests the Absent fast path.
        Cfd::new(vec![(5, Pattern::cst(99))], 7, Pattern::cst(0)).unwrap(),
        // Attribute equality: columns 5 and 7 agree on clean rows.
        Cfd::attr_eq(5, 7).unwrap(),
    ];
    debug_assert_eq!(sigma.len(), 20);
    debug_assert!(sigma.iter().all(|c| c.validate_arity(ARITY).is_ok()));
    sigma
}

/// One measured comparison point.
#[derive(Clone, Debug)]
pub struct ComparisonPoint {
    /// Tuple count.
    pub tuples: usize,
    /// CFD count.
    pub cfds: usize,
    /// Violations found (identical for both paths by property).
    pub violations: usize,
    /// Best-of-`runs` wall time of the seed row-wise detection.
    pub rowwise: Duration,
    /// Best-of-`runs` wall time of columnar + parallel detection.
    pub columnar: Duration,
}

impl ComparisonPoint {
    /// `rowwise / columnar` — how many times faster the columnar path is.
    pub fn speedup(&self) -> f64 {
        self.rowwise.as_secs_f64() / self.columnar.as_secs_f64().max(1e-12)
    }
}

/// Measure both detection paths on `n` tuples × the 20-CFD workload,
/// best-of-`runs`, asserting the outputs agree.
pub fn compare_detection(n: usize, runs: usize) -> ComparisonPoint {
    let rel = dirty_relation(n, 0xC0FFEE);
    let sigma = detection_sigma();
    let mut rowwise = Duration::MAX;
    let mut columnar = Duration::MAX;
    let mut violations = 0;
    for _ in 0..runs.max(1) {
        let t = Instant::now();
        let a = cfd_clean::detect_all_rowwise(&rel, &sigma);
        rowwise = rowwise.min(t.elapsed());
        let t = Instant::now();
        let b = cfd_clean::detect_all(&rel, &sigma);
        columnar = columnar.min(t.elapsed());
        assert_eq!(a, b, "both paths must report identical violations");
        violations = b.len();
    }
    ComparisonPoint {
        tuples: n,
        cfds: sigma.len(),
        violations,
        rowwise,
        columnar,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_shapes() {
        assert_eq!(detection_sigma().len(), 20);
        let r = dirty_relation(2000, 7);
        assert_eq!(r.len(), 2000, "unique suffix keeps tuples distinct");
    }

    #[test]
    fn paths_agree_on_the_benchmark_workload() {
        let rel = dirty_relation(3000, 42);
        let sigma = detection_sigma();
        assert_eq!(
            cfd_clean::detect_all_rowwise(&rel, &sigma),
            cfd_clean::detect_all(&rel, &sigma)
        );
    }

    #[test]
    fn comparison_point_runs() {
        let p = compare_detection(1500, 1);
        assert_eq!(p.cfds, 20);
        assert!(p.rowwise > Duration::ZERO && p.columnar > Duration::ZERO);
    }
}
