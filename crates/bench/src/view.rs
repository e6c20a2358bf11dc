//! Workload and measurement helpers for the live materialized-view
//! experiment (ISSUE 5).
//!
//! The `view_exp` binary (`cargo run --release -p cfd-bench --bin
//! view_exp`) replays batches of mixed inserts and deletes over a
//! two-relation orders/customers store two ways:
//!
//! * through a [`cfd_clean::MultiStore`] with a registered 2-atom join
//!   view (`π(serial, cust, amt, tier) σ(orders.cust = customers.id)`),
//!   whose [`cfd_clean::MaterializedView`] maintains the contents with
//!   the telescoped delta-join rule and feeds the view's row delta into
//!   its own `DeltaDetector` — `O(|Δ⋈|)` per batch;
//! * by re-evaluating the full `SpcQuery` ([`eval_spc`], itself the
//!   factorized fast path — the *strong* baseline) over the mutated
//!   database and re-running [`detect_all`] on the result after every
//!   batch — what a batch engine pays per refresh.
//!
//! Both sides see identical batches. The workload keeps `dirty_rate` of
//! the order stream dangling (outside the view) and the same fraction
//! of the customer stream duplicating an existing id with a different
//! tier, which makes the *view* FD `cust → tier` conflict while no
//! source CFD exists at all — violations only the view side can see.
//! The maintained view and its violation state are verified against the
//! fresh evaluation at the end of every run, and per batch with
//! `verify_each` (the CI smoke mode).

use cfd_clean::{detect_all, MultiStore, RelationSpec, UpdateBatch, ViewSpec};
use cfd_model::Cfd;
use cfd_relalg::domain::DomainKind;
use cfd_relalg::eval::eval_spc;
use cfd_relalg::instance::{Database, Relation, Tuple};
use cfd_relalg::query::{ColRef, OutputCol, ProdCol, SelAtom, SpcQuery};
use cfd_relalg::schema::{Attribute, Catalog, RelId, RelationSchema};
use cfd_relalg::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// One measured incremental-vs-reevaluation comparison.
#[derive(Clone, Debug)]
pub struct ViewPoint {
    /// Orders base size (tuples before any batch).
    pub orders: usize,
    /// Customers base size.
    pub customers: usize,
    /// Fraction of dirty updates (dangling orders / duplicated ids).
    pub dirty_rate: f64,
    /// Updates per batch (mixed inserts/deletes across both relations).
    pub batch: usize,
    /// Number of batches replayed.
    pub batches: usize,
    /// Mean per-batch wall time of incremental maintenance + view-side
    /// detection ([`MultiStore::apply`] with the view registered).
    pub delta_per_batch: Duration,
    /// Mean per-batch wall time of the full re-evaluation + rescan.
    pub reeval_per_batch: Duration,
    /// View rows after the last batch (identical on both paths).
    pub final_view_rows: usize,
    /// View-CFD violations after the last batch (identical paths).
    pub final_violations: usize,
}

impl ViewPoint {
    /// `reeval / delta` — how many times cheaper a batch is
    /// incrementally.
    pub fn speedup(&self) -> f64 {
        self.reeval_per_batch.as_secs_f64() / self.delta_per_batch.as_secs_f64().max(1e-12)
    }
}

/// orders(cust, serial, amt) and customers(id, tier).
fn catalog() -> (Catalog, RelId, RelId) {
    let mut c = Catalog::new();
    let orders = c
        .add(
            RelationSchema::new(
                "orders",
                vec![
                    Attribute::new("cust", DomainKind::Int),
                    Attribute::new("serial", DomainKind::Int),
                    Attribute::new("amt", DomainKind::Int),
                ],
            )
            .expect("unique attrs"),
        )
        .expect("unique rels");
    let customers = c
        .add(
            RelationSchema::new(
                "customers",
                vec![
                    Attribute::new("id", DomainKind::Int),
                    Attribute::new("tier", DomainKind::Int),
                ],
            )
            .expect("unique attrs"),
        )
        .expect("unique rels");
    (c, orders, customers)
}

/// The 2-atom join view: `π(serial, cust, amt, tier)
/// σ(orders.cust = customers.id)(orders × customers)`.
fn join_view() -> SpcQuery {
    let col = |name: &str, atom: usize, attr: usize| OutputCol {
        name: name.into(),
        src: ColRef::Prod(ProdCol::new(atom, attr)),
    };
    SpcQuery {
        atoms: vec![RelId(0), RelId(1)],
        constants: vec![],
        selection: vec![SelAtom::Eq(ProdCol::new(0, 0), ProdCol::new(1, 0))],
        output: vec![
            col("serial", 0, 1),
            col("cust", 0, 0),
            col("amt", 0, 2),
            col("tier", 1, 1),
        ],
    }
}

/// The view-side Σ: `cust → tier` (position 1 → position 3). Holds
/// while customer ids are unique; duplicated ids with differing tiers
/// make the join fan out and break it — on the *view* only.
fn view_sigma() -> Vec<Cfd> {
    vec![Cfd::fd(&[1], 3).expect("valid FD")]
}

fn order_tuple(rng: &mut StdRng, n_cust: usize, serial: &mut i64, rate: f64) -> Tuple {
    let cust = if rng.gen_bool(rate) {
        // Dangling reference: joins nothing, stays outside the view.
        n_cust as i64 + rng.gen_range(0..1_000_000i64)
    } else {
        rng.gen_range(0..n_cust as i64)
    };
    let id = *serial;
    *serial += 1;
    vec![
        Value::int(cust),
        Value::int(id),
        Value::int(cust.rem_euclid(7)),
    ]
}

fn customer_tuple(id: i64, tier: i64) -> Tuple {
    vec![Value::int(id), Value::int(tier)]
}

/// Replay `batches` batches of `batch` mixed updates (≈70% on orders,
/// 30% on customers; half inserts, half deletes of residents) over an
/// `orders_n`-tuple base with `orders_n / 5` customers, timing the
/// multistore's incremental view maintenance + view-side detection
/// against full `SpcQuery` re-evaluation + `detect_all` rescan. Best
/// of `runs` identically-seeded replays (per-batch pointwise minima).
/// End states are always cross-verified; `verify_each` checks every
/// batch.
pub fn compare_view(
    orders_n: usize,
    batch: usize,
    batches: usize,
    runs: usize,
    dirty_rate: f64,
    shards: usize,
    verify_each: bool,
) -> ViewPoint {
    let (catalog, orders, customers) = catalog();
    let query = join_view();
    let sigma = view_sigma();
    let n_cust = (orders_n / 5).max(4);

    let mut best_delta = vec![Duration::MAX; batches];
    let mut best_reeval = vec![Duration::MAX; batches];
    let mut final_view_rows = 0usize;
    let mut final_violations = 0usize;
    for _ in 0..runs.max(1) {
        let mut rng = StdRng::seed_from_u64(0x51EE);
        let mut serial = orders_n as i64;
        let customers_base: Relation = (0..n_cust as i64)
            .map(|i| customer_tuple(i, i.rem_euclid(3)))
            .collect();
        let orders_base: Relation = {
            let mut s = 0i64;
            (0..orders_n)
                .map(|_| order_tuple(&mut rng, n_cust, &mut s, dirty_rate))
                .collect()
        };
        let mut store = MultiStore::new(
            vec![
                RelationSpec::new("orders", vec![], orders_base.clone()),
                RelationSpec::new("customers", vec![], customers_base.clone()),
            ],
            vec![],
            shards,
        )
        .expect("both relations exist");
        let mut spec = ViewSpec::new("V", query.clone());
        spec.sigma = sigma.clone();
        let v = store.register_view(spec).expect("valid view");

        // Value-level mirrors feed the re-evaluation side and supply
        // delete candidates (kept outside both timed regions).
        let mut mirror_orders: Vec<Tuple> = orders_base.tuples().cloned().collect();
        let mut mirror_cust: Vec<Tuple> = customers_base.tuples().cloned().collect();
        let mut fresh_cust = n_cust as i64;

        // One untimed warmup batch, as in the sibling experiments.
        for bi in 0..batches + 1 {
            let timed = bi > 0;
            let mut ord = UpdateBatch::default();
            let mut cus = UpdateBatch::default();
            for _ in 0..batch {
                if rng.gen_bool(0.7) {
                    if rng.gen_bool(0.5) && !mirror_orders.is_empty() {
                        let at = rng.gen_range(0..mirror_orders.len());
                        ord.deletes.push(mirror_orders.swap_remove(at));
                    } else {
                        ord.inserts
                            .push(order_tuple(&mut rng, n_cust, &mut serial, dirty_rate));
                    }
                } else if rng.gen_bool(0.5) && !mirror_cust.is_empty() {
                    let at = rng.gen_range(0..mirror_cust.len());
                    cus.deletes.push(mirror_cust.swap_remove(at));
                } else if rng.gen_bool(dirty_rate.min(1.0)) && !mirror_cust.is_empty() {
                    // A duplicated id with a different tier: the join
                    // fans out and the view FD cust → tier breaks.
                    let at = rng.gen_range(0..mirror_cust.len());
                    let id = match &mirror_cust[at][0] {
                        Value::Int(i) => *i,
                        _ => unreachable!("int ids"),
                    };
                    cus.inserts.push(customer_tuple(id, 7));
                } else {
                    fresh_cust += 1;
                    cus.inserts
                        .push(customer_tuple(fresh_cust, fresh_cust.rem_euclid(3)));
                }
            }
            // The store has set semantics; the mirrors must too. Orders
            // carry a fresh serial each (always new), but the
            // duplicated-id customer path can re-generate a resident
            // `(id, 7)` row — folding it twice would desynchronize the
            // mirror from the store on a later delete.
            mirror_orders.extend(ord.inserts.iter().cloned());
            for t in &cus.inserts {
                if !mirror_cust.contains(t) {
                    mirror_cust.push(t.clone());
                }
            }

            let t0 = Instant::now();
            if !ord.is_empty() {
                store.apply(orders, &ord);
            }
            if !cus.is_empty() {
                store.apply(customers, &cus);
            }
            if timed {
                best_delta[bi - 1] = best_delta[bi - 1].min(t0.elapsed());
            }

            // The re-evaluation side pays the full query + rescan per
            // batch; materializing the database is shared state both
            // engines would hold and stays untimed (as in the sibling
            // experiments).
            let mut db = Database::empty(&catalog);
            for t in &mirror_orders {
                db.insert(orders, t.clone());
            }
            for t in &mirror_cust {
                db.insert(customers, t.clone());
            }
            let t0 = Instant::now();
            let full = eval_spc(&query, &catalog, &db);
            let full_violations = detect_all(&full, &sigma);
            if timed {
                best_reeval[bi - 1] = best_reeval[bi - 1].min(t0.elapsed());
            }
            final_view_rows = full.len();
            final_violations = full_violations.len();
            if verify_each {
                assert_eq!(
                    store.view_relation(v),
                    full,
                    "maintained view diverged from the fresh evaluation mid-replay"
                );
                assert_eq!(
                    store.view_cfd_violations(v),
                    full_violations,
                    "maintained view violations diverged from detect_all mid-replay"
                );
            }
        }
        // End-state verification is unconditional.
        let mut db = Database::empty(&catalog);
        for t in &mirror_orders {
            db.insert(orders, t.clone());
        }
        for t in &mirror_cust {
            db.insert(customers, t.clone());
        }
        let full = eval_spc(&query, &catalog, &db);
        assert_eq!(
            store.view_relation(v),
            full,
            "maintained view end state diverged from the fresh evaluation"
        );
        assert_eq!(
            store.view_cfd_violations(v),
            detect_all(&full, &sigma),
            "maintained view violation end state diverged from detect_all"
        );
    }

    ViewPoint {
        orders: orders_n,
        customers: n_cust,
        dirty_rate,
        batch,
        batches,
        delta_per_batch: best_delta.iter().sum::<Duration>() / batches.max(1) as u32,
        reeval_per_batch: best_reeval.iter().sum::<Duration>() / batches.max(1) as u32,
        final_view_rows,
        final_violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_stays_in_sync_with_fresh_evaluation() {
        let p = compare_view(1500, 80, 3, 1, 0.02, 2, true);
        assert!(p.delta_per_batch > Duration::ZERO);
        assert!(p.reeval_per_batch > Duration::ZERO);
        assert!(p.final_view_rows > 0, "the join view is populated");
    }
}
