//! `ingest`: source CFDs and CINDs on an in-memory `MultiStore`, no views.
//!
//! Two relations — a large `orders` base and a small `customers` one —
//! with 20 CFDs and 4 CINDs. Each batch of mixed inserts and deletes
//! arrives as `.upd` text: `parse_updates`, `apply_grouped`, then a bus
//! subscriber receives every commit. After each batch the same client
//! reads a pinned snapshot (violation sets of both relations, CIND
//! violations, and `scan_at` of `customers`). A second, long-lived pin is
//! renewed every 64 batches and holds GC back; `gc()` runs every 8
//! batches as part of the batch that triggers it (so one batch in eight
//! carries it, well inside the p95 tail rather than at its edge).

use crate::report::{Report, Samples};
use crate::trace::Tracer;
use crate::{
    commit_batch, int, parse_batch, render_batch, report_layers, sorted, timed, traced_batch,
    write_trace, CommitCounters, Config, OpTimes, Phase, Resident, SetupTimes, Stopwatch,
};
use cfd_cind::{Cind, CindViolation};
use cfd_clean::{detect_all, MultiDiffFilter, MultiStore, RelationSpec};
use cfd_model::{Cfd, Pattern};
use cfd_relalg::domain::DomainKind;
use cfd_relalg::instance::{Database, Relation, Tuple};
use cfd_relalg::schema::{Attribute, Catalog, RelId, RelationSchema};
use cfd_relalg::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::time::Duration;

const ORDERS: RelId = RelId(0);
const CUSTOMERS: RelId = RelId(1);
const NAMES: [&str; 2] = ["orders", "customers"];
const STATUS: [&str; 5] = ["open", "packed", "shipped", "billed", "closed"];
const REGIONS: [&str; 4] = ["emea", "apac", "amer", "latam"];
const CHANNELS: [&str; 3] = ["web", "phone", "store"];
/// Distinct zip codes (a zip group holds a handful of rows).
const ZIPS: i64 = 9_973;
/// Batches between `gc()` calls.
const GC_EVERY: usize = 8;
/// Batches a long-lived pin is held before it is renewed.
const PIN_EVERY: usize = 64;
/// Batches between oracle checks (the last batch is always checked).
const CHECK_EVERY: usize = 256;
/// Store builds timed for `setup_s` (median CPU time reported).
const SETUPS: usize = 9;

/// Sizes and batch shape.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Live `orders` rows.
    pub orders: usize,
    /// Live `customers` rows.
    pub customers: usize,
    /// Unused `orders` keys (bounds the key space).
    pub orders_free: usize,
    /// Unused `customers` keys.
    pub customers_free: usize,
    /// Order statements per batch (half inserts, half deletes).
    pub order_stmts: usize,
    /// Customer statements per batch (half inserts, half deletes).
    pub customer_stmts: usize,
    /// Share of inserts that duplicate a live key with a conflicting row.
    pub dirty: f64,
}

impl Shape {
    /// The benchmark's shape, or a small one for tests.
    pub fn new(small: bool) -> Shape {
        if small {
            Shape {
                orders: 2_000,
                customers: 200,
                orders_free: 400,
                customers_free: 8,
                order_stmts: 40,
                customer_stmts: 4,
                dirty: 0.02,
            }
        } else {
            Shape {
                orders: 40_000,
                customers: 4_000,
                orders_free: 4_096,
                customers_free: 64,
                order_stmts: 180,
                customer_stmts: 20,
                dirty: 0.02,
            }
        }
    }
}

fn zip_of(cid: i64) -> i64 {
    (cid * 37).rem_euclid(ZIPS)
}

fn priority(region: usize, channel: usize) -> i64 {
    ((region * 3 + channel) % 5) as i64
}

/// `orders(oid, cid, status, region, channel, priority, amount, zip)`;
/// `dirt` 1–3 makes the row conflict with the clean row of its key.
fn order(oid: i64, cid: i64, dirt: u8) -> Tuple {
    let zip = zip_of(cid);
    let region = zip.rem_euclid(4) as usize;
    let channel = (oid / 3).rem_euclid(3) as usize;
    let mut status = STATUS[oid.rem_euclid(5) as usize];
    let mut pr = priority(region, channel);
    let mut z = zip;
    match dirt {
        1 => status = "disputed",
        2 => pr += 1,
        3 => z = (zip + 1).rem_euclid(ZIPS),
        _ => {}
    }
    vec![
        Value::int(oid),
        Value::int(cid),
        Value::str(status),
        Value::str(REGIONS[region]),
        Value::str(CHANNELS[channel]),
        Value::int(pr),
        Value::int((oid * 13).rem_euclid(1000)),
        Value::int(z),
    ]
}

/// `customers(cid, tier, region, zip)`; a dirty row has a wrong zip.
fn customer(cid: i64, dirty: bool) -> Tuple {
    let zip = zip_of(cid);
    vec![
        Value::int(cid),
        Value::int(cid.rem_euclid(3)),
        Value::str(REGIONS[zip.rem_euclid(4) as usize]),
        Value::int(if dirty {
            (zip + 1).rem_euclid(ZIPS)
        } else {
            zip
        }),
    ]
}

fn catalog() -> Catalog {
    let attrs = |cols: &[(&str, DomainKind)]| {
        cols.iter()
            .map(|(n, d)| Attribute::new(*n, d.clone()))
            .collect::<Vec<_>>()
    };
    let (i, t) = (DomainKind::Int, DomainKind::Text);
    let mut c = Catalog::new();
    c.add(
        RelationSchema::new(
            "orders",
            attrs(&[
                ("oid", i.clone()),
                ("cid", i.clone()),
                ("status", t.clone()),
                ("region", t.clone()),
                ("channel", t.clone()),
                ("priority", i.clone()),
                ("amount", i.clone()),
                ("zip", i.clone()),
            ]),
        )
        .expect("unique attributes"),
    )
    .expect("unique relations");
    c.add(
        RelationSchema::new(
            "customers",
            attrs(&[
                ("cid", i.clone()),
                ("tier", i.clone()),
                ("region", t),
                ("zip", i),
            ]),
        )
        .expect("unique attributes"),
    )
    .expect("unique relations");
    c
}

fn s(v: &str) -> Pattern {
    Pattern::Const(Value::str(v))
}

/// 16 CFDs on `orders`, 4 on `customers`.
fn sigma() -> (Vec<Cfd>, Vec<Cfd>) {
    let fd = |l: &[usize], r: usize| Cfd::fd(l, r).expect("valid FD");
    let w = || Pattern::Wild;
    let orders = vec![
        fd(&[0], 2),
        fd(&[0], 1),
        fd(&[0], 6),
        fd(&[0], 4),
        fd(&[0], 7),
        fd(&[7], 3),
        fd(&[1], 7),
        fd(&[1], 3),
        fd(&[1, 4], 5),
        fd(&[7, 4], 5),
        Cfd::new(vec![(0, w()), (2, s("open"))], 6, w()).expect("valid"),
        Cfd::new(vec![(0, w()), (2, s("shipped"))], 1, w()).expect("valid"),
        Cfd::new(
            vec![(3, s("emea")), (4, s("web"))],
            5,
            Pattern::cst(priority(0, 0)),
        )
        .expect("valid"),
        Cfd::new(
            vec![(3, s("apac")), (4, s("phone"))],
            5,
            Pattern::cst(priority(1, 1)),
        )
        .expect("valid"),
        Cfd::new(vec![(4, s("web")), (7, w())], 3, w()).expect("valid"),
        Cfd::new(vec![(1, w()), (4, s("store"))], 7, w()).expect("valid"),
    ];
    let customers = vec![
        fd(&[0], 1),
        fd(&[0], 3),
        fd(&[3], 2),
        Cfd::new(vec![(0, w()), (1, Pattern::cst(0))], 2, w()).expect("valid"),
    ];
    (orders, customers)
}

fn cinds() -> Vec<Cind> {
    vec![
        Cind::ind(ORDERS, CUSTOMERS, vec![(1, 0)]).expect("valid"),
        Cind::new(
            ORDERS,
            CUSTOMERS,
            vec![(1, 0), (7, 3)],
            vec![(4, Value::str("web"))],
            vec![],
        )
        .expect("valid"),
        Cind::ind(ORDERS, CUSTOMERS, vec![(7, 3), (3, 2)]).expect("valid"),
        Cind::new(
            CUSTOMERS,
            ORDERS,
            vec![(0, 1)],
            vec![(1, Value::int(2))],
            vec![],
        )
        .expect("valid"),
    ]
}

/// The seeded batch generator. Its state depends only on the seed, so a
/// second generator with the same seed replays the same batches.
pub struct Gen {
    rng: StdRng,
    shape: Shape,
    orders: Resident,
    customers: Resident,
}

impl Gen {
    /// A generator and the base relations it starts from.
    pub fn new(seed: u64, shape: Shape) -> (Gen, Relation, Relation) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x001A_6E57);
        let n_cust = shape.customers as i64;
        let cust_rows: Vec<Tuple> = (0..n_cust)
            .map(|c| customer(c, rng.gen_bool(shape.dirty)))
            .collect();
        let customers = Resident::new(
            cust_rows,
            (n_cust..n_cust + shape.customers_free as i64).collect(),
        );
        let n_ord = shape.orders as i64;
        let ord_rows: Vec<Tuple> = (0..n_ord)
            .map(|o| {
                let dirt = if rng.gen_bool(shape.dirty) {
                    rng.gen_range(1..=3u8)
                } else {
                    0
                };
                order(o, rng.gen_range(0..n_cust), dirt)
            })
            .collect();
        let orders = Resident::new(
            ord_rows,
            (n_ord..n_ord + shape.orders_free as i64).collect(),
        );
        let ob: Relation = orders.rows().iter().cloned().collect();
        let cb: Relation = customers.rows().iter().cloned().collect();
        (
            Gen {
                rng,
                shape,
                orders,
                customers,
            },
            ob,
            cb,
        )
    }

    /// The next batch as `.upd` text, plus its statement count.
    pub fn next_batch(&mut self) -> (String, usize) {
        let mut stmts: Vec<(&str, bool, Tuple)> = Vec::new();
        for i in 0..self.shape.order_stmts {
            if i % 2 == 0 {
                if let Some(t) = self.orders.remove_random(&mut self.rng, |_| true) {
                    stmts.push((NAMES[0], true, t));
                }
            } else if self.rng.gen_bool(self.shape.dirty) {
                // Conflict with a live row of the same key.
                let Some(live) = self.orders.pick(&mut self.rng) else {
                    continue;
                };
                let (oid, cid) = (crate::key(live), int(&live[1]));
                let t = order(oid, cid, self.rng.gen_range(1..=3u8));
                if self.orders.insert(t.clone()) {
                    stmts.push((NAMES[0], false, t));
                }
            } else if let Some(oid) = self.orders.take_free(&mut self.rng) {
                let cid = self.customers.pick(&mut self.rng).map_or(0, crate::key);
                let t = order(oid, cid, 0);
                self.orders.insert(t.clone());
                stmts.push((NAMES[0], false, t));
            }
        }
        for i in 0..self.shape.customer_stmts {
            if i % 2 == 0 {
                if let Some(t) = self.customers.remove_random(&mut self.rng, |_| true) {
                    stmts.push((NAMES[1], true, t));
                }
            } else if let Some(cid) = self.customers.take_free(&mut self.rng) {
                let t = customer(cid, self.rng.gen_bool(self.shape.dirty));
                self.customers.insert(t.clone());
                stmts.push((NAMES[1], false, t));
            }
        }
        self.orders.end_batch();
        self.customers.end_batch();
        let n = stmts.len();
        (render_batch(&stmts), n)
    }
}

fn specs(ob: &Relation, cb: &Relation) -> Vec<RelationSpec> {
    let (so, sc) = sigma();
    vec![
        RelationSpec::new("orders", so, ob.clone()),
        RelationSpec::new("customers", sc, cb.clone()),
    ]
}

/// Oracle: the store's violation sets at the snapshot's epoch equal a
/// fresh columnar `detect_all` on `scan_at` and a CIND `satisfy` rescan,
/// and its relations equal the generator's model.
fn check(store: &MultiStore, gen: &Gen, cat: &Catalog, r: &mut Report) {
    let snap = store.snapshot();
    let epoch = snap.epoch();
    let mut db = Database::empty(cat);
    for (rel, model) in [(ORDERS, &gen.orders), (CUSTOMERS, &gen.customers)] {
        let Some(rows) = store.scan_at(rel, epoch) else {
            r.check(false, || format!("scan_at({rel:?}, {epoch}) unavailable"));
            continue;
        };
        // The model's rows are distinct, so equal counts and containment
        // mean equal sets. The oracle builds no second copy of the
        // relation: its copies would count in `peak_rss_mb`.
        let same =
            rows.len() == model.rows().len() && model.rows().iter().all(|t| rows.contains(t));
        r.check(same, || {
            format!("{rel:?} at epoch {epoch} differs from the update stream")
        });
        let fresh = sorted(detect_all(&rows, store.sigma(rel)));
        let live = sorted(snap.cfd_violations(rel).to_vec());
        r.check(fresh == live, || {
            format!(
                "{rel:?} CFD violations at epoch {epoch}: store {} vs rescan {}",
                live.len(),
                fresh.len()
            )
        });
        *db.relation_mut(rel) = rows;
    }
    let mut rescan = BTreeSet::new();
    for (ci, psi) in store.cind_sigma().iter().enumerate() {
        match cfd_cind::satisfy::all_violations(&db, psi) {
            Ok(ts) => rescan.extend(ts.into_iter().map(|tuple| CindViolation {
                cind_index: ci,
                tuple,
            })),
            Err(e) => r.check(false, || format!("CIND rescan failed: {e}")),
        }
    }
    let live: BTreeSet<CindViolation> = snap.cind_violations().iter().cloned().collect();
    r.check(live == rescan, || {
        format!(
            "CIND violations at epoch {epoch}: store {} vs rescan {}",
            live.len(),
            rescan.len()
        )
    });
}

/// Run the workload.
pub fn run(cfg: &Config) -> Report {
    let shape = Shape::new(cfg.small);
    let mut r = Report::default();
    r.config("shards", cfg.shards);
    r.config("orders_rows", shape.orders);
    r.config("customers_rows", shape.customers);
    r.config("cfds", 20);
    r.config("cinds", 4);
    r.config(
        "batch",
        format!(
            "{} orders + {} customers statements, half deletes, {}% conflicting inserts",
            shape.order_stmts,
            shape.customer_stmts,
            shape.dirty * 100.0
        ),
    );
    r.config(
        "reads",
        "1 per batch: snapshot, both violation sets, CIND set, scan_at(customers)",
    );
    r.config(
        "cadence",
        format!("gc every {GC_EVERY}, pin renewed every {PIN_EVERY}"),
    );

    // Set-up: build the store (median of several builds), subscribe. The
    // previous build is dropped first, so at most one store is alive.
    let (mut gen, ob, cb) = Gen::new(cfg.seed, shape);
    let cat = catalog();
    let mut setups = SetupTimes::default();
    let mut store = None;
    for _ in 0..SETUPS {
        drop(store.take());
        let sp = specs(&ob, &cb);
        let t = Stopwatch::start();
        let built = MultiStore::new(sp, cinds(), cfg.shards);
        setups.push(t.stop().cpu);
        store = Some(built);
    }
    drop((ob, cb));
    let mut store = match store.expect("at least one build") {
        Ok(s) => s,
        Err(e) => {
            r.check(false, || format!("store build failed: {e}"));
            return r;
        }
    };
    let rx = store.subscribe(MultiDiffFilter::All, 64);
    setups.report(&mut r);
    check(&store, &gen, &cat, &mut r);

    let mut tr = Tracer::new(cfg.trace);
    let mut phase = Phase::new(cfg);
    let mut times = OpTimes::default();
    let mut counts = CommitCounters::default();
    let mut long_pin = Some(store.snapshot());
    let mut gc_ms = Samples::default();
    let mut reclaimed = 0u64;
    let mut gc_calls = 0u64;
    let mut op = 0u64;
    while phase.more() {
        let b = phase.rounds();
        let (text, n) = gen.next_batch();
        r.digest(text.as_bytes());
        if b.is_multiple_of(PIN_EVERY) {
            drop(long_pin.take());
            long_pin = Some(store.snapshot());
        }
        let traced = traced_batch(b);

        // The batch: text in → last commit received (+ cadence gc).
        op += 1;
        tr.start_op(op, traced);
        let done = commit_batch(
            &mut store,
            &rx,
            &text,
            &NAMES,
            (b + 1).is_multiple_of(GC_EVERY),
            &mut tr,
        );
        phase.spend(done.latency.wall);
        times.op(done.latency, traced);
        if let Some((st, d)) = done.gc {
            gc_ms.push(d);
            reclaimed += st.reclaimed_rows as u64;
            gc_calls += 1;
        }
        match done.commits {
            Ok(commits) => {
                r.check(true, String::new);
                counts.add(n, &commits);
            }
            Err(e) => r.check(false, || format!("batch {b}: {e}")),
        }

        // The read: pin → violation sets and the small relation read.
        op += 1;
        tr.start_op(op, traced);
        let t0 = Stopwatch::start();
        let root = tr.begin("op.read");
        let s = tr.begin("multistore.snapshot");
        let snap = store.snapshot();
        tr.end(s);
        let s = tr.begin("multistore.scan");
        let mut seen = 0usize;
        for rel in [ORDERS, CUSTOMERS] {
            seen += snap
                .cfd_violations(rel)
                .iter()
                .map(|v| v.tuples.len())
                .sum::<usize>();
        }
        seen += snap.cind_violations().len();
        let small = store.scan_at(CUSTOMERS, snap.epoch());
        tr.end(s);
        let s = tr.begin("multistore.snapshot");
        drop(snap);
        tr.end(s);
        tr.end(root);
        let lat = t0.stop();
        phase.spend(lat.wall);
        times.read(lat);
        r.check(small.is_some(), || {
            format!("scan_at after batch {b} failed")
        });
        std::hint::black_box(seen);

        phase.next_round();
        if phase.rounds().is_multiple_of(CHECK_EVERY) || !phase.more() {
            check(&store, &gen, &cat, &mut r);
        }
    }
    drop(long_pin);
    let shed = store.shed_sub_count();
    r.check(shed == 0, || format!("{shed} bus subscribers shed"));
    r.set("multistore.shed_subs", shed as f64);
    times.report(&mut r, &phase, counts.rows);
    counts.report(&mut r);
    let batches = counts.batches.max(1) as f64;
    r.set("multistore.gc_reclaimed_rows", reclaimed as f64 / batches);
    r.set("multistore.gc_ms", gc_ms.mean());
    r.count("gc_reclaimed_rows", reclaimed);
    r.count("gc_calls", gc_calls);
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
        drop(store);
        reference_pass(cfg, shape, phase.rounds(), &tr, &mut r);
        write_trace(cfg, &tr);
    }
    r
}

/// The same batches again on a 1-shard store (traced run only): the
/// same-run reference for `sharded.parallel_speedup`. It renews a
/// long-lived pin and runs `gc()` on the timed phase's schedule, so both
/// stores carry the same dead versions.
fn reference_pass(cfg: &Config, shape: Shape, rounds: usize, tr: &Tracer, r: &mut Report) {
    let (mut gen, ob, cb) = Gen::new(cfg.seed, shape);
    let Ok(mut store) = MultiStore::new(specs(&ob, &cb), cinds(), 1) else {
        r.check(false, || "1-shard reference store failed to build".into());
        return;
    };
    let mut one = Duration::ZERO;
    let mut traced = 0u32;
    let mut long_pin = None;
    for b in 0..rounds {
        let (text, _) = gen.next_batch();
        if b.is_multiple_of(PIN_EVERY) {
            drop(long_pin.take());
            long_pin = Some(store.snapshot());
        }
        let Ok(stmts) = parse_batch(&text, &NAMES, &mut Tracer::new(false)) else {
            r.check(false, || format!("reference batch {b} did not parse"));
            return;
        };
        let (_, d) = timed(|| store.apply_grouped(&stmts));
        if crate::traced_batch(b) {
            one += d;
            traced += 1;
        }
        if (b + 1).is_multiple_of(GC_EVERY) {
            store.gc();
        }
    }
    drop(long_pin);
    let one_ms = one.as_secs_f64() * 1e3 / f64::from(traced.max(1));
    r.set("sharded.apply_ms_1shard", one_ms);
    let (per, _) = crate::trace::layer_means(tr.spans(), "op.commit");
    let many_ms = per.get("multistore.apply").copied().unwrap_or(0.0);
    if many_ms > 0.0 {
        r.set("sharded.parallel_speedup", one_ms / many_ms);
    }
}
