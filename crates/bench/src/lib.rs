//! # cfd-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§5):
//!
//! | target | paper artifact |
//! |--------|----------------|
//! | `cargo run --release -p cfd-bench --bin fig5` | Fig. 5(a)+(b): vary \|Σ\| |
//! | `cargo run --release -p cfd-bench --bin fig6` | Fig. 6(a)+(b): vary \|Y\| |
//! | `cargo run --release -p cfd-bench --bin fig7` | Fig. 7(a)+(b): vary \|F\| |
//! | `cargo run --release -p cfd-bench --bin fig8` | Fig. 8(a)+(b): vary \|Ec\| |
//! | `cargo run --release -p cfd-bench --bin table1` | Table 1 + Table 2 cell validation |
//! | `cargo bench -p cfd-bench` | criterion microbenchmarks + ablations |
//!
//! The paper's methodology: 10 random datasets per configuration, 5 runs
//! each, averages reported. The binaries default to 3 datasets × 1 run to
//! keep wall-clock reasonable; pass `--datasets N` / `--runs N` to match
//! the paper exactly.
//!
//! # Performance
//!
//! The [`columnar`] module drives the columnar-detection experiment
//! (ISSUE 1): exhaustive CFD violation detection over the
//! dictionary-encoded [`cfd_relalg::columnar::ColumnarRelation`] versus
//! the seed's row-wise `Value`-keyed hash grouping, on a dirty 8-column
//! relation × 20 CFDs. Two entry points share it:
//!
//! * `cargo bench -p cfd-bench --bench columnar` — the criterion group;
//! * `cargo run --release -p cfd-bench --bin columnar_exp` — a standalone
//!   comparison that also writes `BENCH_columnar.json`.
//!
//! Measured on the single-core reference container (best of 3, end to end
//! — dictionary encoding *included* in the columnar time):
//!
//! | tuples  | row-wise | columnar | speedup | violations |
//! |---------|----------|----------|---------|------------|
//! | 10,000  | 36.4 ms  |  6.2 ms  | **5.9×** |  1,836    |
//! | 100,000 | 544.5 ms | 98.5 ms  | **5.5×** | 17,073    |
//! | 500,000 | 6.220 s  | 1.024 s  | **6.1×** | 87,461    |
//!
//! The win is layout + keying: group-by keys become one packed machine
//! word per row (`u32`/`u64`/`u128` for LHS width ≤ 4) hashed with Fx
//! instead of a `Vec<&Value>` hashed with SipHash, CFDs sharing an LHS
//! reuse one grouping pass, and `Value`s are materialized only at the
//! reporting boundary. On multi-core hosts `detect_all` additionally fans
//! per-CFD work across threads with rayon (the reference container is
//! single-core, so the numbers above are pure single-thread gains).
//!
//! The [`incremental`] module drives the delta-detection experiment
//! (ISSUE 2): batches of mixed inserts/deletes replayed through the
//! persistent [`cfd_clean::DeltaDetector`] versus a full columnar
//! `detect_all` rescan after every batch, on the same 8-column relation
//! and 20-CFD workload:
//!
//! * `cargo run --release -p cfd-bench --bin incremental_exp` — prints a
//!   table and writes `BENCH_incremental.json`.
//!
//! Measured on the single-core reference container (100k-tuple base,
//! batches of 1k mixed updates, best of 5 identically-seeded replays):
//!
//! | base dirtiness | delta apply / batch | rescan / batch | speedup |
//! |---------------|---------------------|----------------|---------|
//! | 0.5% (maintained-store model) | 3.1 ms | 65.8 ms | **21.3×** |
//! | 2% (batch-cleaning model)     | 4.0 ms | 72.6 ms | **18.2×** |
//!
//! The delta engine's per-batch cost is `O(|Δ|·|Σ|)` plus the size of
//! the reported diff, which is why the dirtier configuration (where each
//! batch retires and creates hundreds of violations) pays more; the
//! rescan pays `O(|r|·|Σ|)` regardless. Both paths are verified to
//! report identical violation sets at the end of every replay.
//!
//! The [`cind`] module drives the incremental-CIND experiment (ISSUE 4):
//! mixed update batches over a two-relation orders/customers store,
//! replayed through the cross-relation [`cfd_clean::MultiStore`] (whose
//! `CindDelta` maintains witness-count indexes in `O(|Δ|)` per batch)
//! versus the full `cfd_cind::satisfy` rescan after every batch:
//!
//! * `cargo run --release -p cfd-bench --bin cind_exp` — prints a table
//!   and writes `BENCH_cind.json` (`host_cores` recorded as in the
//!   sharded experiment).
//!
//! The [`view`] module drives the live materialized-view experiment
//! (ISSUE 5): mixed update batches over an orders/customers store with
//! a registered 2-atom join view, replayed through the multistore's
//! [`cfd_clean::MaterializedView`] (telescoped delta-join maintenance +
//! incremental view-side detection, `O(|Δ⋈|)` per batch) versus full
//! `SpcQuery` re-evaluation (the factorized `eval_spc` — the strong
//! baseline) + `detect_all` rescan after every batch:
//!
//! * `cargo run --release -p cfd-bench --bin view_exp` — prints a table
//!   and writes `BENCH_view.json` (`host_cores` recorded).
//!
//! The [`durable`] module drives the durability experiment (ISSUE 6):
//! the same mixed-update style of workload on a string-heavy
//! orders/lineitems [`cfd_clean::MultiStore`], measuring (a) WAL
//! logging overhead per batch at each fsync policy versus the plain
//! in-memory store, (b) [`cfd_clean::recover_from_parts`] wall time as
//! the newest checkpoint ages (more tail frames to replay), and (c)
//! recovery versus re-encoding the final relations from `Value`s —
//! the cost a store without checkpoints pays on every restart:
//!
//! * `cargo run --release -p cfd-bench --bin durable_exp` — prints a
//!   table and writes `BENCH_durable.json` (`host_cores` recorded);
//!   `--verify-each` is the CI smoke mode (cross-checks the durable
//!   engines against the baseline after every batch).
//!
//! The [`replica`] module drives the replication experiment (ISSUE 7):
//! the durable workload replayed through a leader with a
//! [`cfd_clean::LogShipper`] attached and a live [`cfd_clean::Follower`]
//! pumped cooperatively, measuring (a) leader commit rate with shipping
//! on, (b) follower frame-apply throughput, and (c) catch-up time from
//! cursors `N` commits stale (tail-replay) plus the fresh-follower
//! snapshot path:
//!
//! * `cargo run --release -p cfd-bench --bin replica_exp` — prints a
//!   table and writes `BENCH_replica.json` (`host_cores` recorded);
//!   `--verify-each` is the CI smoke mode (cross-checks the live
//!   follower against the leader after every batch).
//!
//! The [`catalog`] module drives the stacked view-catalog experiment
//! (ISSUE 9): mixed update batches over the orders/customers store with
//! a three-level view-over-view DAG — a 2-atom join, an SPCU union of
//! two *overlapping* selections over it (derivation counts above 1 are
//! live), and a selection over that — registered through
//! [`cfd_clean::MultiStore::register_stacked_batch`] and maintained per
//! commit in topological order, versus a full bottom-up rebuild of the
//! stack (one exact [`cfd_relalg::eval::eval_spcu`] pass per level in
//! dependency order) after every batch:
//!
//! * `cargo run --release -p cfd-bench --bin catalog_exp` — prints a
//!   table and writes `BENCH_catalog.json` (`host_cores` recorded);
//!   `--verify-each` is the CI smoke mode (cross-checks every level
//!   against the rebuild after every batch).
//!
//! The [`planfix`] module drives the delta-join planner experiment:
//! maintenance of a skewed 3-atom path view by the width-bounded
//! factorized engine, swept over hot-key skews (per-row work stays
//! flat; the greedy binary plan it replaced climbed a cliff, and its
//! frozen numbers are in `BENCH_planfix.json` — see `docs/VIEWS.md`):
//!
//! * `cargo run --release -p cfd-bench --bin planfix_exp` — prints a
//!   table and writes `BENCH_planfix.json` (`host_cores` recorded);
//!   `--verify-each` is the CI smoke mode (verifies every batch
//!   against `eval_spc_nested` on a same-epoch snapshot, with
//!   `--budget-per-row` bounding the factorized engine's probe work).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod cind;
pub mod columnar;
pub mod durable;
pub mod incremental;
pub mod planfix;
pub mod replica;
pub mod sharded;
pub mod view;

use cfd_datagen::{
    gen_cfds, gen_schema, gen_spc_view, CfdGenConfig, SchemaGenConfig, ViewGenConfig,
};
use cfd_model::SourceCfd;
use cfd_propagation::cover::{prop_cfd_spc, CoverOptions};
use cfd_relalg::query::SpcQuery;
use cfd_relalg::schema::Catalog;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// One experimental configuration (a point on a figure's x-axis).
#[derive(Clone, Debug)]
pub struct PointConfig {
    /// Number of source CFDs (`|Σ|`).
    pub sigma: usize,
    /// Wildcard percentage (`var%`).
    pub var_pct: f64,
    /// Maximum LHS size (`LHS`).
    pub lhs: usize,
    /// Projection width (`|Y|`).
    pub y: usize,
    /// Selection conjuncts (`|F|`).
    pub f: usize,
    /// Product width (`|Ec|`).
    pub ec: usize,
}

impl Default for PointConfig {
    /// The paper's base configuration (used by Fig. 5 with varying |Σ|).
    fn default() -> Self {
        PointConfig {
            sigma: 2000,
            var_pct: 0.4,
            lhs: 9,
            y: 25,
            f: 10,
            ec: 4,
        }
    }
}

/// Measured outcome of one configuration (averaged over datasets × runs).
#[derive(Clone, Debug)]
pub struct PointResult {
    /// The configuration.
    pub config: PointConfig,
    /// Mean wall-clock time of `PropCFD_SPC`.
    pub runtime: Duration,
    /// Mean minimal-cover cardinality.
    pub cover_size: f64,
    /// Fraction of datasets whose view was provably always-empty.
    pub empty_fraction: f64,
}

/// Materialized workload for one dataset.
pub struct Workload {
    /// The source schema.
    pub catalog: Catalog,
    /// The source CFDs.
    pub sigma: Vec<SourceCfd>,
    /// The SPC view.
    pub view: SpcQuery,
}

/// Generate the workload for a configuration and seed (paper §5 setting:
/// 10 relations, 10–20 attributes, infinite domains).
pub fn make_workload(cfg: &PointConfig, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let catalog = gen_schema(&SchemaGenConfig::default(), &mut rng);
    let sigma = gen_cfds(
        &catalog,
        &CfdGenConfig {
            count: cfg.sigma,
            lhs_max: cfg.lhs,
            var_pct: cfg.var_pct,
            ..Default::default()
        },
        &mut rng,
    );
    let view = gen_spc_view(
        &catalog,
        &ViewGenConfig {
            y: cfg.y,
            f: cfg.f,
            ec: cfg.ec,
            const_range: 100_000,
        },
        &mut rng,
    );
    Workload {
        catalog,
        sigma,
        view,
    }
}

/// Run one configuration: `datasets` random workloads × `runs` repetitions,
/// averaging runtime and cover cardinality (the paper's protocol).
pub fn run_point(cfg: &PointConfig, datasets: usize, runs: usize) -> PointResult {
    run_point_with(cfg, datasets, runs, &CoverOptions::default())
}

/// [`run_point`] with explicit algorithm options (used by ablations).
pub fn run_point_with(
    cfg: &PointConfig,
    datasets: usize,
    runs: usize,
    opts: &CoverOptions,
) -> PointResult {
    let mut total = Duration::ZERO;
    let mut covers = 0usize;
    let mut empties = 0usize;
    for ds in 0..datasets {
        let w = make_workload(cfg, 0xC0FFEE + ds as u64);
        for _ in 0..runs {
            let t = Instant::now();
            let cover = prop_cfd_spc(&w.catalog, &w.sigma, &w.view, opts)
                .expect("generated workloads are valid");
            total += t.elapsed();
            covers += cover.cfds.len();
            if cover.always_empty {
                empties += 1;
            }
        }
    }
    let n = (datasets * runs) as u32;
    PointResult {
        config: cfg.clone(),
        runtime: total / n,
        cover_size: covers as f64 / n as f64,
        empty_fraction: empties as f64 / n as f64,
    }
}

/// Command-line helpers shared by the figure binaries.
pub mod cli {
    /// Parse `--datasets N` / `--runs N` (defaults 3 / 1).
    pub fn repeats() -> (usize, usize) {
        let args: Vec<String> = std::env::args().collect();
        let get = |name: &str, default: usize| {
            args.iter()
                .position(|a| a == name)
                .and_then(|i| args.get(i + 1))
                .and_then(|v| v.parse().ok())
                .unwrap_or(default)
        };
        (get("--datasets", 3), get("--runs", 1))
    }

    /// Print a figure header.
    pub fn header(title: &str, xlabel: &str) {
        println!("# {title}");
        println!(
            "{:>8} | {:>14} | {:>14} | {:>14} | {:>14}",
            xlabel, "t(var40%) s", "cover(var40%)", "t(var50%) s", "cover(var50%)"
        );
        println!("{}", "-".repeat(76));
    }

    /// Print one row of a figure (both var% series).
    pub fn row(x: impl std::fmt::Display, a: &super::PointResult, b: &super::PointResult) {
        println!(
            "{:>8} | {:>14.4} | {:>14.1} | {:>14.4} | {:>14.1}",
            x,
            a.runtime.as_secs_f64(),
            a.cover_size,
            b.runtime.as_secs_f64(),
            b.cover_size
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_point_smoke() {
        let cfg = PointConfig {
            sigma: 60,
            y: 10,
            f: 4,
            ec: 2,
            ..Default::default()
        };
        let r = run_point(&cfg, 1, 1);
        assert!(r.runtime > Duration::ZERO);
        assert!(r.empty_fraction <= 1.0);
    }

    #[test]
    fn workload_is_deterministic() {
        let cfg = PointConfig {
            sigma: 30,
            y: 8,
            f: 2,
            ec: 2,
            ..Default::default()
        };
        let a = make_workload(&cfg, 7);
        let b = make_workload(&cfg, 7);
        assert_eq!(a.sigma, b.sigma);
        assert_eq!(a.view, b.view);
    }
}
