//! Workload and measurement helpers for the delta-join planner
//! experiment: per-row maintenance work of the width-bounded factorized
//! engine on a skewed 3-atom view, as the hot-key skew grows.
//!
//! The `planfix_exp` binary (`cargo run --release -p cfd-bench --bin
//! planfix_exp`) replays batches of hot-key inserts and deletes through
//! a [`cfd_clean::MultiStore`] with a 3-atom path view registered.
//!
//! The view is `r0(a,b) ⋈_b r1(b,c) ⋈_c r2(c,d)` with a deliberately
//! skewed key: `r1` holds `skew` rows under the single hot key `b = 0`
//! (each with a distinct `c`), while `r2` matches only the 8 smallest
//! `c` values. Every batch inserts and deletes `r0` rows at the hot
//! key. The factorized plan intersects the candidate sets for the join
//! variable `c` (iterating the *smaller* side, `r2`'s 8 values) and
//! enumerates only surviving bindings, so per-batch work stays flat as
//! the skew grows. A greedy binary plan walks all `skew` hot `r1` rows
//! under *every* driver row before `r2` filters them — per-batch work
//! linear in the skew (the cliff). That plan is no longer in the tree;
//! its measurements are frozen in `BENCH_planfix.json`.
//!
//! The engine's probe-work counter ([`MaterializedView::probe_work`] —
//! trie rows touched plus derivations emitted) is reported per driver
//! row next to the wall time, making the asymptotics visible
//! independent of the clock. With `verify_each` (the CI smoke mode)
//! **every** batch is verified against
//! [`cfd_relalg::eval::eval_spc_nested`] on a same-epoch
//! [`cfd_clean::MultiSnapshot`], and an optional per-driver-row work
//! budget is asserted.
//!
//! [`MaterializedView::probe_work`]: cfd_clean::MaterializedView::probe_work

use cfd_clean::{MultiStore, RelationSpec, UpdateBatch, ViewSpec};
use cfd_relalg::domain::DomainKind;
use cfd_relalg::eval::eval_spc_nested;
use cfd_relalg::instance::{Database, Relation, Tuple};
use cfd_relalg::query::{ColRef, OutputCol, ProdCol, SelAtom, SpcQuery};
use cfd_relalg::schema::{Attribute, Catalog, RelId, RelationSchema};
use cfd_relalg::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// How many distinct `c` values `r2` joins (the flat per-row output).
const R2_KEYS: i64 = 8;
/// Cold `r1` rows (distinct keys outside the hot `b = 0`).
const R1_COLD: i64 = 64;

/// One measured replay at a fixed skew.
#[derive(Clone, Debug)]
pub struct PlanfixPoint {
    /// Hot rows in `r1` under the single hot join key (`skew`).
    pub skew: usize,
    /// Driver (`r0`) base size before any batch.
    pub base: usize,
    /// Driver rows touched per batch (inserts + deletes).
    pub batch: usize,
    /// Number of batches replayed.
    pub batches: usize,
    /// Mean per-batch wall time.
    pub factorized_per_batch: Duration,
    /// Mean probe work per driver row.
    pub factorized_work_per_row: f64,
    /// View rows after the last batch.
    pub final_view_rows: usize,
    /// Batches verified against the nested-loop reference.
    pub verified_batches: usize,
}

/// r0(a, b), r1(b, c), r2(c, d) — all Int.
fn catalog() -> Catalog {
    let mut c = Catalog::new();
    for (name, cols) in [("r0", ["a", "b"]), ("r1", ["b", "c"]), ("r2", ["c", "d"])] {
        c.add(
            RelationSchema::new(
                name,
                cols.iter()
                    .map(|a| Attribute::new(format!("{name}_{a}"), DomainKind::Int))
                    .collect(),
            )
            .expect("unique attrs"),
        )
        .expect("unique rels");
    }
    c
}

/// The 3-atom path view: `π(a,b,c,d) σ(r0.b = r1.b ∧ r1.c = r2.c)`.
fn path_view() -> SpcQuery {
    let col = |name: &str, atom: usize, attr: usize| OutputCol {
        name: name.into(),
        src: ColRef::Prod(ProdCol::new(atom, attr)),
    };
    SpcQuery {
        atoms: vec![RelId(0), RelId(1), RelId(2)],
        constants: vec![],
        selection: vec![
            SelAtom::Eq(ProdCol::new(0, 1), ProdCol::new(1, 0)),
            SelAtom::Eq(ProdCol::new(1, 1), ProdCol::new(2, 0)),
        ],
        output: vec![
            col("a", 0, 0),
            col("b", 0, 1),
            col("c", 1, 1),
            col("d", 2, 1),
        ],
    }
}

fn base_specs(base: usize, skew: usize) -> Vec<RelationSpec> {
    // r0: cold rows only — b ∈ 1..=5 joins cold r1 keys whose c values
    // sit above r2's range, so the seeded view is empty and every
    // derivation comes from the measured hot batches.
    let r0: Relation = (0..base as i64)
        .map(|i| vec![Value::int(i), Value::int(1 + i % 5)])
        .collect();
    // r1: `skew` hot rows under b = 0 with distinct c, plus cold rows.
    let r1: Relation = (0..skew as i64)
        .map(|c| vec![Value::int(0), Value::int(c)])
        .chain((0..R1_COLD).map(|i| vec![Value::int(1 + i), Value::int(skew as i64 + i)]))
        .collect();
    // r2: only the 8 smallest c values join.
    let r2: Relation = (0..R2_KEYS)
        .map(|c| vec![Value::int(c), Value::int(c % 7)])
        .collect();
    vec![
        RelationSpec::new("r0", vec![], r0),
        RelationSpec::new("r1", vec![], r1),
        RelationSpec::new("r2", vec![], r2),
    ]
}

fn verify(store: &MultiStore, v: usize, catalog: &Catalog, query: &SpcQuery) -> usize {
    let snap = store.snapshot();
    let mut db = Database::empty(catalog);
    for i in 0..3 {
        for t in snap.relation(RelId(i)).tuples() {
            db.insert(RelId(i), t.clone());
        }
    }
    let expected = eval_spc_nested(query, catalog, &db);
    assert_eq!(
        snap.view(v).relation,
        expected,
        "view diverged from the same-epoch nested-loop reference"
    );
    expected.len()
}

/// Replay `batches` batches of `batch` hot-key driver updates (3/4
/// inserts, 1/4 deletes of earlier hot inserts) through a store seeded
/// at the given `skew`, timing each apply (best of `runs`
/// identically-seeded replays, per-batch pointwise minima) and
/// differencing the view's probe-work counter. End states are always
/// verified against [`eval_spc_nested`] on a same-epoch snapshot;
/// `verify_each` checks every batch, and `budget_per_row` (CI) bounds
/// the per-driver-row work.
pub fn compare_planfix(
    base: usize,
    batch: usize,
    batches: usize,
    runs: usize,
    skew: usize,
    verify_each: bool,
    budget_per_row: Option<u64>,
) -> PlanfixPoint {
    let catalog = catalog();
    let query = path_view();
    let deletes_per_batch = batch / 4;
    let inserts_per_batch = batch - deletes_per_batch;

    let mut best = vec![Duration::MAX; batches];
    let mut work = 0u64;
    let mut rows_touched = 0u64;
    let mut final_view_rows = 0usize;
    let mut verified_batches = 0usize;
    for run in 0..runs.max(1) {
        let mut rng = StdRng::seed_from_u64(0xF1A + skew as u64);
        let mut store = MultiStore::new(base_specs(base, skew), vec![], 1).expect("valid specs");
        let v = store
            .register_view(ViewSpec::new("V", query.clone()))
            .expect("valid view");
        let count_work = run == 0;
        let mut hot_resident: Vec<Tuple> = Vec::new();
        let mut serial = base as i64;
        for (bi, best_bi) in best.iter_mut().enumerate() {
            let mut upd = UpdateBatch::default();
            for _ in 0..inserts_per_batch {
                let t = vec![Value::int(serial), Value::int(0)];
                serial += 1;
                hot_resident.push(t.clone());
                upd.inserts.push(t);
            }
            for _ in 0..deletes_per_batch {
                if hot_resident.len() <= upd.inserts.len() {
                    break;
                }
                let at = rng.gen_range(0..hot_resident.len() - upd.inserts.len());
                upd.deletes.push(hot_resident.swap_remove(at));
            }
            let delta_rows = (upd.inserts.len() + upd.deletes.len()) as u64;

            let w0 = store.view(v).probe_work();
            let t0 = Instant::now();
            store.apply(RelId(0), &upd);
            *best_bi = (*best_bi).min(t0.elapsed());
            if count_work {
                let dw = store.view(v).probe_work() - w0;
                work += dw;
                rows_touched += delta_rows;
                if let Some(budget) = budget_per_row {
                    assert!(
                        dw <= budget * delta_rows,
                        "probe work {dw} exceeds the {budget}/row budget \
                         for a {delta_rows}-row delta (skew {skew}, batch {bi})"
                    );
                }
            }
            if verify_each && run == 0 {
                verify(&store, v, &catalog, &query);
                verified_batches += 1;
            }
        }
        // End-state verification is unconditional.
        final_view_rows = verify(&store, v, &catalog, &query);
    }

    let rows = rows_touched.max(1) as f64;
    PlanfixPoint {
        skew,
        base,
        batch,
        batches,
        factorized_per_batch: best.iter().sum::<Duration>() / batches.max(1) as u32,
        factorized_work_per_row: work as f64 / rows,
        final_view_rows,
        verified_batches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_stays_in_sync_and_factorized_work_is_flat() {
        let a = compare_planfix(60, 40, 3, 1, 128, true, Some(400));
        let b = compare_planfix(60, 40, 3, 1, 1024, true, Some(400));
        assert!(a.final_view_rows > 0, "hot batches populate the view");
        assert_eq!(a.verified_batches, 3);
        // An 8× skew leaves the factorized plan's per-row work flat.
        assert!(
            b.factorized_work_per_row < a.factorized_work_per_row * 2.0,
            "factorized {} → {}",
            a.factorized_work_per_row,
            b.factorized_work_per_row
        );
    }
}
