//! Workload and measurement helpers for the stacked view-catalog
//! experiment (ISSUE 9).
//!
//! The `catalog_exp` binary (`cargo run --release -p cfd-bench --bin
//! catalog_exp`) replays batches of mixed inserts and deletes over a
//! two-relation orders/customers store two ways:
//!
//! * through a [`cfd_clean::MultiStore`] with a three-level stacked-view
//!   DAG registered on its view catalog — `oc` (the 2-atom join), `hot`
//!   (an SPCU **union of two overlapping selections over `oc`**, so
//!   derivation counts above 1 are live) and `gold` (a selection over
//!   `hot`) — maintained per commit in topological order, each level
//!   consuming the upstream [`cfd_clean::ViewDelta`];
//! * by re-running the full bottom-up evaluation of the whole stack
//!   ([`eval_spcu`] once per view, in dependency order — a single exact
//!   pass, strictly cheaper than the Kleene oracle) after every batch —
//!   what a batch engine pays per refresh of a view tree.
//!
//! Both sides see identical batches. Every level is cross-checked
//! against the fresh bottom-up evaluation at the end of each run, and
//! per batch with `verify_each` (the CI smoke mode).

use cfd_clean::{MultiStore, RelationSpec, StackedViewSpec, UpdateBatch};
use cfd_relalg::domain::DomainKind;
use cfd_relalg::eval::{catalog_with_views, eval_spcu, eval_stacked};
use cfd_relalg::instance::{Database, Relation, Tuple};
use cfd_relalg::query::{ColRef, OutputCol, ProdCol, SelAtom, SpcQuery, SpcuQuery};
use cfd_relalg::schema::{Attribute, Catalog, RelId, RelationSchema};
use cfd_relalg::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// One measured incremental-vs-rebuild comparison over the stack.
#[derive(Clone, Debug)]
pub struct CatalogPoint {
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
    /// Mean per-batch wall time of the catalog's topological
    /// incremental maintenance of all three levels.
    pub delta_per_batch: Duration,
    /// Mean per-batch wall time of the full bottom-up re-evaluation.
    pub reeval_per_batch: Duration,
    /// Rows per view level after the last batch (identical paths).
    pub final_rows: Vec<usize>,
}

impl CatalogPoint {
    /// `reeval / delta` — how many times cheaper a batch is
    /// incrementally.
    pub fn speedup(&self) -> f64 {
        self.reeval_per_batch.as_secs_f64() / self.delta_per_batch.as_secs_f64().max(1e-12)
    }
}

/// orders(cust, serial, amt) and customers(id, tier).
fn base_catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add(
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
    c.add(
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
    c
}

fn col(name: &str, atom: usize, attr: usize) -> OutputCol {
    OutputCol {
        name: name.into(),
        src: ColRef::Prod(ProdCol::new(atom, attr)),
    }
}

/// Identity over node `node` (the 4-column view row), with an optional
/// constant selection on attribute `sel`.
fn over_view(node: usize, sel: Option<(usize, i64)>) -> SpcQuery {
    SpcQuery {
        atoms: vec![RelId(node)],
        constants: vec![],
        selection: sel
            .map(|(attr, v)| vec![SelAtom::EqConst(ProdCol::new(0, attr), Value::int(v))])
            .unwrap_or_default(),
        output: vec![
            col("serial", 0, 0),
            col("cust", 0, 1),
            col("amt", 0, 2),
            col("tier", 0, 3),
        ],
    }
}

/// The three-level stack: `oc` = orders ⋈ customers (nodes 0, 1),
/// `hot` = σ(tier=0)(oc) ∪ σ(amt=0)(oc) (node 2 twice — the branches
/// overlap, so union derivation counts are exercised), `gold` =
/// σ(tier=0)(hot) (node 3).
fn stack_specs() -> Vec<StackedViewSpec> {
    let join = SpcQuery {
        atoms: vec![RelId(0), RelId(1)],
        constants: vec![],
        selection: vec![SelAtom::Eq(ProdCol::new(0, 0), ProdCol::new(1, 0))],
        output: vec![
            col("serial", 0, 1),
            col("cust", 0, 0),
            col("amt", 0, 2),
            col("tier", 1, 1),
        ],
    };
    vec![
        StackedViewSpec::new("oc", vec![join]),
        StackedViewSpec::new(
            "hot",
            vec![over_view(2, Some((3, 0))), over_view(2, Some((2, 0)))],
        ),
        StackedViewSpec::new("gold", vec![over_view(3, Some((3, 0)))]),
    ]
}

fn order_tuple(rng: &mut StdRng, n_cust: usize, serial: &mut i64, rate: f64) -> Tuple {
    let cust = if rng.gen_bool(rate) {
        // Dangling reference: joins nothing, stays outside the stack.
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

/// One exact bottom-up pass over the stack: evaluate every view in
/// dependency order against the already-evaluated upstreams. A single
/// pass is exact on a DAG, so this is a *stronger* baseline than the
/// Kleene oracle [`cfd_relalg::eval::eval_stacked`] (which pays a
/// second verification pass).
fn bottom_up(ext: &Catalog, n_base: usize, queries: &[SpcuQuery], db: &Database) -> Vec<Relation> {
    let mut work = Database::empty(ext);
    for i in 0..n_base {
        *work.relation_mut(RelId(i)) = db.relation(RelId(i)).clone();
    }
    let mut out = Vec::with_capacity(queries.len());
    for (k, q) in queries.iter().enumerate() {
        let r = eval_spcu(q, ext, &work);
        *work.relation_mut(RelId(n_base + k)) = r.clone();
        out.push(r);
    }
    out
}

/// Replay `batches` batches of `batch` mixed updates (≈70% on orders,
/// 30% on customers; half inserts, half deletes of residents) over an
/// `orders_n`-tuple base with `orders_n / 5` customers, timing the
/// catalog's topological maintenance of the three-level stack against
/// the full bottom-up rebuild. Best of `runs` identically-seeded
/// replays (per-batch pointwise minima). End states are always
/// cross-verified level by level; `verify_each` checks every batch.
pub fn compare_catalog(
    orders_n: usize,
    batch: usize,
    batches: usize,
    runs: usize,
    dirty_rate: f64,
    shards: usize,
    verify_each: bool,
) -> CatalogPoint {
    let catalog = base_catalog();
    let specs = stack_specs();
    // The join level's schema is derivable from the base catalog; the
    // upper levels read view nodes, so build the extension one level at
    // a time.
    let mut ext = catalog.clone();
    let mut schemas: Vec<(String, cfd_relalg::ViewSchema)> = Vec::new();
    for s in &specs {
        let schema = s.branches[0].view_schema(&ext);
        schemas.push((s.name.clone(), schema));
        ext = catalog_with_views(&catalog, &schemas).unwrap();
    }
    let queries: Vec<SpcuQuery> = specs
        .iter()
        .map(|s| SpcuQuery::union(&ext, s.branches.clone()).unwrap())
        .collect();
    let n_cust = (orders_n / 5).max(4);
    let orders = RelId(0);
    let customers = RelId(1);

    let mut best_delta = vec![Duration::MAX; batches];
    let mut best_reeval = vec![Duration::MAX; batches];
    let mut final_rows = Vec::new();
    for _ in 0..runs.max(1) {
        let mut rng = StdRng::seed_from_u64(0xCA7A);
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
        let ids = store
            .register_stacked_batch(specs.clone())
            .expect("acyclic stack");

        // Value-level mirrors feed the rebuild side and supply delete
        // candidates (kept outside both timed regions).
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
                } else {
                    fresh_cust += 1;
                    cus.inserts
                        .push(customer_tuple(fresh_cust, fresh_cust.rem_euclid(3)));
                }
            }
            mirror_orders.extend(ord.inserts.iter().cloned());
            mirror_cust.extend(cus.inserts.iter().cloned());

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

            // The rebuild side pays one exact bottom-up pass over the
            // whole stack per batch; materializing the base database is
            // shared state both engines would hold and stays untimed
            // (as in the sibling experiments).
            let mut db = Database::empty(&ext);
            for t in &mirror_orders {
                db.insert(orders, t.clone());
            }
            for t in &mirror_cust {
                db.insert(customers, t.clone());
            }
            let t0 = Instant::now();
            let full = bottom_up(&ext, 2, &queries, &db);
            if timed {
                best_reeval[bi - 1] = best_reeval[bi - 1].min(t0.elapsed());
            }
            final_rows = full.iter().map(|r| r.len()).collect();
            if verify_each {
                for (k, fresh) in full.iter().enumerate() {
                    assert_eq!(
                        &store.view_relation(ids[k]),
                        fresh,
                        "maintained level {k} diverged from the bottom-up rebuild mid-replay"
                    );
                }
            }
        }
        // End-state verification is unconditional, level by level.
        let mut db = Database::empty(&ext);
        for t in &mirror_orders {
            db.insert(orders, t.clone());
        }
        for t in &mirror_cust {
            db.insert(customers, t.clone());
        }
        let full = bottom_up(&ext, 2, &queries, &db);
        for (k, fresh) in full.iter().enumerate() {
            assert_eq!(
                &store.view_relation(ids[k]),
                fresh,
                "maintained level {k} end state diverged from the bottom-up rebuild"
            );
        }
    }

    CatalogPoint {
        orders: orders_n,
        customers: n_cust,
        dirty_rate,
        batch,
        batches,
        delta_per_batch: best_delta.iter().sum::<Duration>() / batches.max(1) as u32,
        reeval_per_batch: best_reeval.iter().sum::<Duration>() / batches.max(1) as u32,
        final_rows,
    }
}

/// One measured run of the wide-catalog scenario (ISSUE 10): many
/// sibling selection views over one join, batches skewed so only a
/// couple of them can move per commit.
#[derive(Clone, Debug)]
pub struct WidePoint {
    /// Sibling views registered (one per region).
    pub views: usize,
    /// Orders base size.
    pub orders: usize,
    /// Customers base size.
    pub customers: usize,
    /// Updates per batch (orders only, hot regions only).
    pub batch: usize,
    /// Batches replayed.
    pub batches: usize,
    /// Mean per-batch wall time under the delta-aware scheduler.
    pub pruned_per_batch: Duration,
    /// Cumulative views refreshed across the replay.
    pub refreshed: u64,
    /// Cumulative views skipped across the replay.
    pub skipped: u64,
    /// Distinct shared-trie entries the store maintains.
    pub trie_entries: usize,
    /// References those entries serve (what N private engines would
    /// maintain).
    pub trie_refs: usize,
    /// Rows resident across all shared tries.
    pub trie_rows: usize,
    /// Total view rows after the last batch (all levels).
    pub final_rows_total: usize,
}

impl WidePoint {
    /// Fraction of view-refresh decisions that pruned away.
    pub fn skip_rate(&self) -> f64 {
        let total = self.refreshed + self.skipped;
        if total == 0 {
            0.0
        } else {
            self.skipped as f64 / total as f64
        }
    }

    /// References served without a private copy — `refs − entries`.
    pub fn shared_tries(&self) -> usize {
        self.trie_refs - self.trie_entries
    }
}

/// orders(okey, ckey, region, amt) and customers(ckey, tier).
fn wide_catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add(
        RelationSchema::new(
            "orders",
            vec![
                Attribute::new("okey", DomainKind::Int),
                Attribute::new("ckey", DomainKind::Int),
                Attribute::new("region", DomainKind::Int),
                Attribute::new("amt", DomainKind::Int),
            ],
        )
        .expect("unique attrs"),
    )
    .expect("unique rels");
    c.add(
        RelationSchema::new(
            "customers",
            vec![
                Attribute::new("ckey", DomainKind::Int),
                Attribute::new("tier", DomainKind::Int),
            ],
        )
        .expect("unique attrs"),
    )
    .expect("unique rels");
    c
}

/// View `i`: σ(region = i)(orders ⋈ customers). Every view carries the
/// same predicate-free customers atom, so the shared-trie store keeps
/// one customers trie for the whole catalog; the orders atoms differ in
/// their pushed-down region constant and stay private.
fn wide_view(region: i64) -> SpcQuery {
    SpcQuery {
        atoms: vec![RelId(0), RelId(1)],
        constants: vec![],
        selection: vec![
            SelAtom::Eq(ProdCol::new(0, 1), ProdCol::new(1, 0)),
            SelAtom::EqConst(ProdCol::new(0, 2), Value::int(region)),
        ],
        output: vec![
            col("okey", 0, 0),
            col("ckey", 0, 1),
            col("region", 0, 2),
            col("amt", 0, 3),
            col("tier", 1, 1),
        ],
    }
}

fn wide_order(serial: &mut i64, ckey: i64, region: i64) -> Tuple {
    let id = *serial;
    *serial += 1;
    vec![
        Value::int(id),
        Value::int(ckey),
        Value::int(region),
        Value::int(id.rem_euclid(100)),
    ]
}

/// The wide-catalog scenario: `views` sibling selection views (one per
/// region) over orders ⋈ customers, replayed under batches that only
/// ever touch **two** hot regions — so at most two views can move per
/// commit and the scheduler should skip the rest. `apply` is timed per
/// batch (best of `runs` pointwise). The store is verified against
/// [`eval_stacked`] after every batch when `verify_each` is set, and at
/// the end of every run. The refresh-everything walk this scheduler
/// replaced is no longer in the tree; its timing is frozen in
/// `BENCH_catalog.json` (`unpruned_s_per_batch`).
pub fn wide_catalog_scenario(
    views: usize,
    orders_n: usize,
    batch: usize,
    batches: usize,
    runs: usize,
    shards: usize,
    verify_each: bool,
) -> WidePoint {
    assert!(views >= 3, "the scenario needs cold regions to skip");
    let catalog = wide_catalog();
    let specs: Vec<StackedViewSpec> = (0..views)
        .map(|i| StackedViewSpec::new(format!("r{i:02}"), vec![wide_view(i as i64)]))
        .collect();
    // Every view reads only the two base relations, so the extended
    // catalog is buildable in one pass.
    let schemas: Vec<(String, cfd_relalg::ViewSchema)> = specs
        .iter()
        .map(|s| (s.name.clone(), s.branches[0].view_schema(&catalog)))
        .collect();
    let ext = catalog_with_views(&catalog, &schemas).unwrap();
    let queries: Vec<SpcuQuery> = specs
        .iter()
        .map(|s| SpcuQuery::union(&ext, s.branches.clone()).unwrap())
        .collect();
    let n_cust = (orders_n / 5).max(4);
    let orders = RelId(0);
    let customers = RelId(1);
    let hot = [1i64, views as i64 - 2];

    let mut best_pruned = vec![Duration::MAX; batches];
    let mut point: Option<WidePoint> = None;
    for _ in 0..runs.max(1) {
        let mut rng = StdRng::seed_from_u64(0xCA7A);
        let mut serial = orders_n as i64;
        let customers_base: Relation = (0..n_cust as i64)
            .map(|i| customer_tuple(i, i.rem_euclid(3)))
            .collect();
        let orders_base: Relation = {
            let mut s = 0i64;
            (0..orders_n)
                .map(|_| {
                    let ckey = rng.gen_range(0..n_cust as i64);
                    let region = rng.gen_range(0..views as i64);
                    wide_order(&mut s, ckey, region)
                })
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
        let ids = store
            .register_stacked_batch(specs.clone())
            .expect("flat catalog is acyclic");

        // Delete candidates must stay hot, or deletes would leak
        // relevance into cold views; the cold mirror only feeds the
        // rebuild side.
        let mut mirror_hot: Vec<Tuple> = Vec::new();
        let mut mirror_cold: Vec<Tuple> = Vec::new();
        for t in orders_base.tuples() {
            let Value::Int(r) = t[2] else { unreachable!() };
            if hot.contains(&r) {
                mirror_hot.push(t.clone());
            } else {
                mirror_cold.push(t.clone());
            }
        }

        // One untimed warmup batch, as in the sibling experiments.
        for bi in 0..batches + 1 {
            let timed = bi > 0;
            let mut ord = UpdateBatch::default();
            for _ in 0..batch {
                if rng.gen_bool(0.5) && !mirror_hot.is_empty() {
                    let at = rng.gen_range(0..mirror_hot.len());
                    ord.deletes.push(mirror_hot.swap_remove(at));
                } else {
                    let ckey = rng.gen_range(0..n_cust as i64);
                    let region = hot[rng.gen_range(0..hot.len())];
                    ord.inserts.push(wide_order(&mut serial, ckey, region));
                }
            }
            mirror_hot.extend(ord.inserts.iter().cloned());

            let t0 = Instant::now();
            store.apply(orders, &ord);
            if timed {
                best_pruned[bi - 1] = best_pruned[bi - 1].min(t0.elapsed());
            }

            if verify_each {
                let mut db = Database::empty(&ext);
                for t in mirror_hot.iter().chain(&mirror_cold) {
                    db.insert(orders, t.clone());
                }
                for t in customers_base.tuples() {
                    db.insert(customers, t.clone());
                }
                let full = eval_stacked(&ext, 2, &queries, &db);
                for (k, fresh) in full.iter().enumerate() {
                    assert_eq!(
                        &store.view_relation(ids[k]),
                        fresh,
                        "view {k} diverged from eval_stacked mid-replay"
                    );
                }
            }
        }
        // End-state verification is unconditional.
        let mut db = Database::empty(&ext);
        for t in mirror_hot.iter().chain(&mirror_cold) {
            db.insert(orders, t.clone());
        }
        for t in customers_base.tuples() {
            db.insert(customers, t.clone());
        }
        let full = eval_stacked(&ext, 2, &queries, &db);
        for (k, fresh) in full.iter().enumerate() {
            assert_eq!(
                &store.view_relation(ids[k]),
                fresh,
                "view {k} end state diverged from eval_stacked"
            );
        }

        let (refreshed, skipped) = store.total_refresh_counts();
        let (trie_entries, trie_refs, trie_rows) = store.shared_trie_stats();
        point = Some(WidePoint {
            views,
            orders: orders_n,
            customers: n_cust,
            batch,
            batches,
            pruned_per_batch: Duration::ZERO,
            refreshed,
            skipped,
            trie_entries,
            trie_refs,
            trie_rows,
            final_rows_total: full.iter().map(|r| r.len()).sum(),
        });
    }

    let mut p = point.expect("at least one run");
    p.pruned_per_batch = best_pruned.iter().sum::<Duration>() / batches.max(1) as u32;
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_stays_in_sync_with_bottom_up_rebuild() {
        let p = compare_catalog(1500, 80, 3, 1, 0.02, 2, true);
        assert!(p.delta_per_batch > Duration::ZERO);
        assert!(p.reeval_per_batch > Duration::ZERO);
        assert_eq!(p.final_rows.len(), 3);
        assert!(p.final_rows[0] > 0, "the join level is populated");
        assert!(
            p.final_rows[1] > 0,
            "the union level keeps overlapping derivations"
        );
    }

    #[test]
    fn wide_catalog_skips_cold_views_and_shares_the_customers_trie() {
        let p = wide_catalog_scenario(32, 1200, 60, 3, 1, 2, true);
        // Batches only touch two hot regions, so at least 30 of the 32
        // sibling views prune away every commit.
        assert!(
            p.skip_rate() >= 0.8,
            "skip rate {} below the wide-catalog floor",
            p.skip_rate()
        );
        assert!(p.refreshed > 0, "the hot views do refresh");
        // One predicate-free customers trie serves all 32 views; the
        // region-filtered orders tries stay private.
        assert_eq!(p.trie_entries, 33);
        assert_eq!(p.trie_refs, 64);
        assert_eq!(p.shared_tries(), 31);
        assert!(p.trie_rows > 0);
        assert!(p.final_rows_total > 0, "the stack is populated");
    }
}
