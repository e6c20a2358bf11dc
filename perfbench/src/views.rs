//! `views`: a view catalog over orders/customers under skewed batches.
//!
//! Four relations — `orders(okey, ckey, region, amt)`,
//! `customers(ckey, tier)`, and the two small path relations
//! `accounts(ckey, acct)` and `ledgers(acct, bal)` — with two source CFDs
//! and a catalog of three parts, registered in one batch:
//!
//! * the three-level stack `oc` (orders ⋈ customers) → `hot` (an
//!   overlapping union of two selections over `oc`) → `gold` (a selection
//!   over `hot`);
//! * 32 per-region selection views over orders ⋈ customers (sibling views
//!   share the customers trie);
//! * one 3-atom path view orders ⋈ accounts ⋈ ledgers over a hot join key:
//!   the hot customer has many accounts, of which only a few have a ledger.
//!
//! Every view carries a view FD. Batches are skewed: nine in ten order
//! rows fall in two hot regions and a quarter of inserted orders use the
//! hot key. Every eighth batch also changes a few customers. Reads take a
//! snapshot and read the rows and violations of a hot-region view.

use crate::report::Report;
use crate::trace::Tracer;
use crate::{
    commit_batch, render_batch, report_layers, sorted, timed, traced_batch, write_trace,
    CommitCounters, Config, OpTimes, Phase, Resident, SetupTimes, Stopwatch,
};
use cfd_clean::{detect_all, MultiDiffFilter, MultiStore, RelationSpec, StackedViewSpec};
use cfd_model::Cfd;
use cfd_relalg::domain::DomainKind;
use cfd_relalg::eval::{catalog_with_views, eval_stacked};
use cfd_relalg::instance::{Database, Relation, Tuple};
use cfd_relalg::query::{ColRef, OutputCol, ProdCol, SelAtom, SpcQuery, SpcuQuery};
use cfd_relalg::schema::{Attribute, Catalog, RelId, RelationSchema};
use cfd_relalg::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NAMES: [&str; 4] = ["orders", "customers", "accounts", "ledgers"];
const ORDERS: RelId = RelId(0);
const CUSTOMERS: RelId = RelId(1);
/// Regions, one selection view each.
const REGIONS: i64 = 32;
/// The two regions most rows fall in.
const HOT_REGIONS: [i64; 2] = [1, 30];
/// The hot customer key of the path view.
const HOT_KEY: i64 = 0;
/// Accounts of the hot customer.
const SKEW: i64 = 512;
/// Accounts with a ledger row.
const LEDGERS: i64 = 8;
/// Batches between oracle checks (the last batch is always checked).
const CHECK_EVERY: usize = 128;
/// Batches between customer changes.
const CUSTOMER_EVERY: usize = 8;
/// Store builds timed for `setup_s` (median CPU time reported).
const SETUPS: usize = 9;

/// Sizes and batch shape.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Live `orders` rows.
    pub orders: usize,
    /// Live `customers` rows.
    pub customers: usize,
    /// Unused `orders` keys.
    pub orders_free: usize,
    /// Order statements per batch (half inserts, half deletes).
    pub order_stmts: usize,
    /// Customer statements every eighth batch (half inserts, half deletes).
    pub customer_stmts: usize,
}

impl Shape {
    /// The benchmark's shape, or a small one for tests.
    pub fn new(small: bool) -> Shape {
        if small {
            Shape {
                orders: 1_500,
                customers: 300,
                orders_free: 300,
                order_stmts: 40,
                customer_stmts: 4,
            }
        } else {
            Shape {
                orders: 20_000,
                customers: 4_000,
                orders_free: 2_048,
                order_stmts: 100,
                customer_stmts: 4,
            }
        }
    }
}

fn order(okey: i64, ckey: i64, region: i64, dirty: bool) -> Tuple {
    let amt = okey.rem_euclid(7) + if dirty { 100 } else { 0 };
    vec![
        Value::int(okey),
        Value::int(ckey),
        Value::int(region),
        Value::int(amt),
    ]
}

fn customer(ckey: i64) -> Tuple {
    vec![Value::int(ckey), Value::int(ckey.rem_euclid(3))]
}

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    for (name, cols) in [
        ("orders", &["okey", "ckey", "region", "amt"][..]),
        ("customers", &["ckey", "tier"][..]),
        ("accounts", &["ckey", "acct"][..]),
        ("ledgers", &["acct", "bal"][..]),
    ] {
        c.add(
            RelationSchema::new(
                name,
                cols.iter()
                    .map(|a| Attribute::new(*a, DomainKind::Int))
                    .collect(),
            )
            .expect("unique attributes"),
        )
        .expect("unique relations");
    }
    c
}

fn col(name: &str, atom: usize, attr: usize) -> OutputCol {
    OutputCol {
        name: name.into(),
        src: ColRef::Prod(ProdCol::new(atom, attr)),
    }
}

fn fd(l: usize, r: usize) -> Vec<Cfd> {
    vec![Cfd::fd(&[l], r).expect("valid FD")]
}

/// Identity over a 4-column stack node with one constant selection.
fn over(node: usize, attr: usize, v: i64) -> SpcQuery {
    SpcQuery {
        atoms: vec![RelId(node)],
        constants: vec![],
        selection: vec![SelAtom::EqConst(ProdCol::new(0, attr), Value::int(v))],
        output: vec![
            col("okey", 0, 0),
            col("ckey", 0, 1),
            col("amt", 0, 2),
            col("tier", 0, 3),
        ],
    }
}

/// The catalog, in registration order (slot `k` is node `4 + k`).
fn view_specs() -> Vec<StackedViewSpec> {
    let n = NAMES.len();
    let oc = SpcQuery {
        atoms: vec![ORDERS, CUSTOMERS],
        constants: vec![],
        selection: vec![SelAtom::Eq(ProdCol::new(0, 1), ProdCol::new(1, 0))],
        output: vec![
            col("okey", 0, 0),
            col("ckey", 0, 1),
            col("amt", 0, 3),
            col("tier", 1, 1),
        ],
    };
    let mut specs = vec![
        StackedViewSpec::new("oc", vec![oc]),
        StackedViewSpec::new("hot", vec![over(n, 3, 0), over(n, 2, 0)]),
        StackedViewSpec::new("gold", vec![over(n + 1, 3, 0)]),
    ];
    for region in 0..REGIONS {
        specs.push(StackedViewSpec::new(
            format!("r{region:02}"),
            vec![SpcQuery {
                atoms: vec![ORDERS, CUSTOMERS],
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
            }],
        ));
    }
    specs.push(StackedViewSpec::new(
        "path",
        vec![SpcQuery {
            atoms: vec![ORDERS, RelId(2), RelId(3)],
            constants: vec![],
            selection: vec![
                SelAtom::Eq(ProdCol::new(0, 1), ProdCol::new(1, 0)),
                SelAtom::Eq(ProdCol::new(1, 1), ProdCol::new(2, 0)),
            ],
            output: vec![
                col("okey", 0, 0),
                col("ckey", 0, 1),
                col("acct", 1, 1),
                col("bal", 2, 1),
            ],
        }],
    ));
    // View FDs: okey → amt on the stack and the regions (broken by the
    // conflicting order rows), acct → bal on the path view.
    for (k, s) in specs.iter_mut().enumerate() {
        s.sigma = match k {
            0..=2 => fd(0, 2),
            k if k < 3 + REGIONS as usize => fd(0, 3),
            _ => fd(2, 3),
        };
    }
    specs
}

/// The view that reads serve: region 1, one of the hot regions.
const READ_VIEW: usize = 3 + HOT_REGIONS[0] as usize;

/// The extended catalog and the SPCU form of every view (oracle input).
fn extended(specs: &[StackedViewSpec]) -> (Catalog, Vec<SpcuQuery>) {
    let base = catalog();
    let mut ext = base.clone();
    let mut schemas = Vec::new();
    for s in specs {
        schemas.push((s.name.clone(), s.branches[0].view_schema(&ext)));
        ext = catalog_with_views(&base, &schemas).expect("distinct view names");
    }
    let queries = specs
        .iter()
        .map(|s| SpcuQuery::union(&ext, s.branches.clone()).expect("union-compatible"))
        .collect();
    (ext, queries)
}

/// The seeded batch generator (replayable from its seed).
pub struct Gen {
    rng: StdRng,
    shape: Shape,
    /// Orders in the hot regions, then the rest.
    orders: [Resident; 2],
    customers: Resident,
    batch: usize,
}

impl Gen {
    /// A generator and the base relations it starts from.
    pub fn new(seed: u64, shape: Shape) -> (Gen, Vec<Relation>) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0007_1E35);
        let n_cust = shape.customers as i64;
        let customers = Resident::new(
            (0..n_cust).map(customer).collect(),
            (n_cust..n_cust + 16).collect(),
        );
        // Hot-region and cold-region orders are modelled apart, with
        // disjoint free keys, so deletes can target the hot regions
        // without scanning and both sides keep their size.
        let n_ord = shape.orders as i64;
        let half = shape.orders_free as i64 / 2;
        let (hot, cold): (Vec<Tuple>, Vec<Tuple>) = (0..n_ord)
            .map(|o| {
                let ckey = if rng.gen_bool(0.01) {
                    HOT_KEY
                } else {
                    rng.gen_range(1..n_cust)
                };
                order(o, ckey, rng.gen_range(0..REGIONS), false)
            })
            .partition(|t| HOT_REGIONS.contains(&crate::int(&t[2])));
        let orders = [
            Resident::new(hot, (n_ord..n_ord + half).collect()),
            Resident::new(cold, (n_ord + half..n_ord + 2 * half).collect()),
        ];
        let accounts: Relation = (0..SKEW)
            .map(|a| vec![Value::int(HOT_KEY), Value::int(a)])
            .chain((1..64).map(|c| vec![Value::int(c), Value::int(100_000 + c)]))
            .collect();
        let ledgers: Relation = (0..LEDGERS)
            .map(|a| vec![Value::int(a), Value::int(a.rem_euclid(7))])
            .collect();
        let bases = vec![
            orders
                .iter()
                .flat_map(|o| o.rows().iter().cloned())
                .collect(),
            customers.rows().iter().cloned().collect(),
            accounts,
            ledgers,
        ];
        (
            Gen {
                rng,
                shape,
                orders,
                customers,
                batch: 0,
            },
            bases,
        )
    }

    /// The next batch as `.upd` text, plus its statement count.
    pub fn next_batch(&mut self) -> (String, usize) {
        let mut stmts: Vec<(&str, bool, Tuple)> = Vec::new();
        for i in 0..self.shape.order_stmts {
            // Nine in ten order rows fall in the hot regions.
            let side = usize::from(!self.rng.gen_bool(0.9));
            if i % 2 == 0 {
                if let Some(t) = self.orders[side].remove_random(&mut self.rng, |_| true) {
                    stmts.push((NAMES[0], true, t));
                }
                continue;
            }
            let region = if side == 0 {
                HOT_REGIONS[self.rng.gen_range(0..2usize)]
            } else {
                loop {
                    let r = self.rng.gen_range(0..REGIONS);
                    if !HOT_REGIONS.contains(&r) {
                        break r;
                    }
                }
            };
            let ckey = if self.rng.gen_bool(0.25) {
                HOT_KEY
            } else {
                self.customers
                    .pick(&mut self.rng)
                    .map_or(HOT_KEY, crate::key)
            };
            let t = if self.rng.gen_bool(0.01) {
                // A conflicting amount for a live order key.
                let Some(live) = self.orders[side].pick(&mut self.rng) else {
                    continue;
                };
                order(crate::key(live), ckey, crate::int(&live[2]), true)
            } else if let Some(okey) = self.orders[side].take_free(&mut self.rng) {
                order(okey, ckey, region, false)
            } else {
                continue;
            };
            if self.orders[side].insert(t.clone()) {
                stmts.push((NAMES[0], false, t));
            }
        }
        if self.batch % CUSTOMER_EVERY == CUSTOMER_EVERY - 1 {
            for i in 0..self.shape.customer_stmts {
                if i % 2 == 0 {
                    let t = self
                        .customers
                        .remove_random(&mut self.rng, |t| crate::key(t) != HOT_KEY);
                    if let Some(t) = t {
                        stmts.push((NAMES[1], true, t));
                    }
                } else if let Some(ckey) = self.customers.take_free(&mut self.rng) {
                    let t = customer(ckey);
                    self.customers.insert(t.clone());
                    stmts.push((NAMES[1], false, t));
                }
            }
        }
        for o in &mut self.orders {
            o.end_batch();
        }
        self.customers.end_batch();
        self.batch += 1;
        let n = stmts.len();
        (render_batch(&stmts), n)
    }
}

/// The store's relations: the bases with their source CFDs.
fn relation_specs(bases: &[Relation]) -> Vec<RelationSpec> {
    let sigma_orders = fd(0, 3);
    let sigma_customers = fd(0, 1);
    NAMES
        .iter()
        .zip(bases)
        .enumerate()
        .map(|(i, (n, b))| {
            let sigma = match i {
                0 => sigma_orders.clone(),
                1 => sigma_customers.clone(),
                _ => vec![],
            };
            RelationSpec::new(*n, sigma, b.clone())
        })
        .collect()
}

/// Build the store and register the catalog in one batch. Returns the
/// store with the view ids, and the registration time in ms.
fn build(
    specs: Vec<RelationSpec>,
    shards: usize,
) -> (Result<(MultiStore, Vec<usize>), String>, f64) {
    let views = view_specs();
    let mut store = match MultiStore::new(specs, vec![], shards) {
        Ok(s) => s,
        Err(e) => return (Err(e.to_string()), 0.0),
    };
    let (ids, d) = timed(|| store.register_stacked_batch(views));
    (
        ids.map(|ids| (store, ids)).map_err(|e| e.to_string()),
        d.as_secs_f64() * 1e3,
    )
}

/// Oracle: every view equals `eval_stacked` over the snapshot's relations,
/// and its view-FD violations equal `detect_all` on that relation.
fn check(
    store: &MultiStore,
    ids: &[usize],
    gen: &Gen,
    oracle: &(Catalog, Vec<SpcuQuery>),
    specs: &[StackedViewSpec],
    r: &mut Report,
) {
    let (ext, queries) = oracle;
    let snap = store.snapshot();
    let epoch = snap.epoch();
    let mut db = Database::empty(ext);
    for i in 0..NAMES.len() {
        let rel = snap.relation(RelId(i));
        for t in rel.tuples() {
            db.insert(RelId(i), t.clone());
        }
    }
    let orders: Relation = gen
        .orders
        .iter()
        .flat_map(|o| o.rows().iter().cloned())
        .collect();
    let customers: Relation = gen.customers.rows().iter().cloned().collect();
    for (rel, want) in [(ORDERS, orders), (CUSTOMERS, customers)] {
        r.check(db.relation(rel) == &want, || {
            format!("{rel:?} at epoch {epoch} differs from the update stream")
        });
    }
    let fresh = eval_stacked(ext, NAMES.len(), queries, &db);
    for (k, (id, spec)) in ids.iter().zip(specs).enumerate() {
        let v = snap.view(*id);
        r.check(v.relation == fresh[k], || {
            format!(
                "view {} at epoch {epoch}: {} rows vs eval_stacked {}",
                spec.name,
                v.relation.len(),
                fresh[k].len()
            )
        });
        let want = sorted(detect_all(&fresh[k], &spec.sigma));
        r.check(sorted(v.cfd.clone()) == want, || {
            format!("view {} FD violations at epoch {epoch}", spec.name)
        });
    }
}

fn probe_work(store: &MultiStore, ids: &[usize]) -> u64 {
    ids.iter().map(|i| store.view(*i).probe_work()).sum()
}

/// Run the workload.
pub fn run(cfg: &Config) -> Report {
    let shape = Shape::new(cfg.small);
    let mut r = Report::default();
    r.config("shards", cfg.shards);
    r.config("orders_rows", shape.orders);
    r.config("customers_rows", shape.customers);
    r.config("views", 3 + REGIONS + 1);
    r.config(
        "batch",
        format!(
            "{} orders statements (half deletes; 90% in 2 hot regions, 25% of inserts on the hot key, 1% conflicting), {} customers statements every {CUSTOMER_EVERY}th batch",
            shape.order_stmts, shape.customer_stmts
        ),
    );
    r.config(
        "reads",
        "1 per batch: snapshot, rows and violations of view r01",
    );
    r.config(
        "path_skew",
        format!("{SKEW} accounts on the hot key, {LEDGERS} with a ledger"),
    );

    let (mut gen, bases) = Gen::new(cfg.seed, shape);
    let specs = view_specs();
    let oracle = extended(&specs);
    let mut setups = SetupTimes::default();
    let mut register_ms = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        // At most one store alive: drop the previous build first.
        drop(built.take());
        // The base relations are copied for the store before the clock
        // starts: handing them over is input preparation.
        let rel_specs = relation_specs(&bases);
        let t0 = Stopwatch::start();
        let (b, reg) = build(rel_specs, cfg.shards);
        setups.push(t0.stop().cpu);
        register_ms.push(reg);
        built = Some(b);
    }
    drop(bases);
    let (mut store, ids) = match built.expect("at least one build") {
        Ok(b) => b,
        Err(e) => {
            r.check(false, || format!("store build failed: {e}"));
            return r;
        }
    };
    setups.report(&mut r);
    register_ms.sort_by(f64::total_cmp);
    r.set("catalog.register_ms", register_ms[register_ms.len() / 2]);
    let rx = store.subscribe(MultiDiffFilter::All, 64);
    check(&store, &ids, &gen, &oracle, &specs, &mut r);

    let mut tr = Tracer::new(cfg.trace);
    let mut phase = Phase::new(cfg);
    let mut times = OpTimes::default();
    let mut counts = CommitCounters::default();
    let mut work = 0u64;
    let mut op = 0u64;
    while phase.more() {
        let b = phase.rounds();
        let (text, n) = gen.next_batch();
        r.digest(text.as_bytes());
        let traced = traced_batch(b);
        let work0 = probe_work(&store, &ids);

        op += 1;
        tr.start_op(op, traced);
        let done = commit_batch(&mut store, &rx, &text, &NAMES, false, &mut tr);
        phase.spend(done.latency.wall);
        times.op(done.latency, traced);
        work += probe_work(&store, &ids) - work0;
        match done.commits {
            Ok(commits) => {
                r.check(true, String::new);
                counts.add(n, &commits);
            }
            Err(e) => r.check(false, || format!("batch {b}: {e}")),
        }

        // The read: snapshot (materializing moved views) → a hot view.
        op += 1;
        tr.start_op(op, traced);
        let t0 = Stopwatch::start();
        let root = tr.begin("op.read");
        let s = tr.begin("multistore.snapshot");
        let snap = store.snapshot();
        tr.end(s);
        let s = tr.begin("multistore.scan");
        let v = snap.view(ids[READ_VIEW]);
        let seen =
            v.relation.tuples().count() + v.cfd.iter().map(|x| x.tuples.len()).sum::<usize>();
        tr.end(s);
        let s = tr.begin("multistore.snapshot");
        drop(snap);
        tr.end(s);
        tr.end(root);
        let lat = t0.stop();
        phase.spend(lat.wall);
        times.read(lat);
        std::hint::black_box(seen);

        phase.next_round();
        if phase.rounds().is_multiple_of(CHECK_EVERY) || !phase.more() {
            check(&store, &ids, &gen, &oracle, &specs, &mut r);
        }
    }
    let shed = store.shed_sub_count();
    r.check(shed == 0, || format!("{shed} bus subscribers shed"));
    r.set("multistore.shed_subs", shed as f64);
    times.report(&mut r, &phase, counts.rows);
    counts.report(&mut r);
    r.set(
        "matview.probe_work_per_delta_row",
        work as f64 / counts.view_delta_rows.max(1) as f64,
    );
    r.count("probe_work", work);
    let rs = store.refresh_stats();
    r.set("catalog.trie_entries", rs.trie_entries as f64);
    r.set("catalog.tries_shared", rs.tries_shared as f64);
    r.set("catalog.trie_rows", rs.trie_rows as f64);
    let (entries, refs, rows) = store.shared_trie_stats();
    r.count("trie_entries", entries as u64);
    r.count("trie_refs", refs as u64);
    r.count("trie_rows", rows as u64);
    r.config(
        "samples",
        format!("{} batches, {} reads", times.op.len(), times.read.len()),
    );

    if tr.enabled() {
        let own = report_layers(
            &mut r,
            &tr,
            "op.commit",
            &[
                ("text.parse", "text.parse_ms"),
                ("multistore.apply", "multistore.apply_ms"),
                ("multistore.bus_recv", "multistore.bus_recv_ms"),
            ],
        );
        r.set("trace.unaccounted_ms", own);
        report_layers(
            &mut r,
            &tr,
            "op.read",
            &[
                ("multistore.snapshot", "multistore.snapshot_ms"),
                ("multistore.scan", "multistore.scan_ms"),
            ],
        );
        write_trace(cfg, &tr);
    }
    r
}
