//! `durable_replica`: the WAL with fsync, checkpoints, and a log-shipped
//! follower.
//!
//! String-heavy `orders(oid, email, status, depot)` and
//! `lineitems(li, oid, note)` with three CFDs, two CINDs and one
//! source-level SPC view (`lineitems ⋈ orders` on open orders, the only
//! view kind the durable layer admits). `DurableMultiStore::open` runs on
//! a data directory on local disk with fsync `every-commit`; the client
//! calls `checkpoint()` every 64 batches. A `LogShipper` is attached and
//! one in-process `Follower` receives over `ChanShipIo`, both sides pumped
//! by the client thread after each acknowledged batch. Reads are served
//! from `Follower::snapshot()`. After the timed phase, fresh copies of the
//! data directory as the run left it are reopened to time recovery.

use crate::report::{median_s, Report, Samples};
use crate::trace::Tracer;
use crate::{
    parse_batch, recv_commits, render_batch, report_layers, sorted, timed, traced_batch,
    write_trace, CommitCounters, Config, OpTimes, Phase, Resident, SetupTimes, Stopwatch,
};
use cfd_cind::Cind;
use cfd_clean::replica::FollowerConn;
use cfd_clean::{
    ChanShipIo, DurableMultiStore, DurableOptions, Follower, FsyncPolicy, MultiDiffFilter,
    MultiSnapshot, MultiStore, RelationSpec, ShipError, ShipIo, ShipOptions, ShipServerConn,
    ViewSpec,
};
use cfd_model::Cfd;
use cfd_relalg::instance::{Relation, Tuple};
use cfd_relalg::query::{ColRef, OutputCol, ProdCol, SelAtom, SpcQuery};
use cfd_relalg::schema::RelId;
use cfd_relalg::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const NAMES: [&str; 2] = ["orders", "lineitems"];
const ORDERS: RelId = RelId(0);
const LINEITEMS: RelId = RelId(1);
const STATUS: [&str; 5] = ["open", "packed", "shipped", "billed", "closed"];
const REGIONS: [&str; 4] = ["emea", "apac", "amer", "latam"];
/// Batches between client `checkpoint()` calls.
const CHECKPOINT_EVERY: usize = 64;
/// Batches between oracle checks (the last batch is always checked).
const CHECK_EVERY: usize = 64;
/// Set-ups timed for `setup_s`, and reopens timed for `recover_s`.
const REPEATS: usize = 9;

/// Sizes and batch shape.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Live `orders` rows.
    pub orders: usize,
    /// Live `lineitems` rows.
    pub lineitems: usize,
    /// Statements per relation per batch (half inserts, half deletes).
    pub stmts: usize,
    /// Share of inserts that conflict (CFD) or dangle (CIND).
    pub dirty: f64,
}

impl Shape {
    /// The benchmark's shape, or a small one for tests.
    pub fn new(small: bool) -> Shape {
        if small {
            Shape {
                orders: 800,
                lineitems: 1_600,
                stmts: 20,
                dirty: 0.02,
            }
        } else {
            Shape {
                orders: 10_000,
                lineitems: 20_000,
                stmts: 50,
                dirty: 0.02,
            }
        }
    }
}

fn order(oid: i64, status: &str) -> Tuple {
    vec![
        Value::int(oid),
        Value::str(format!(
            "customer-{:06}@procurement.example-corp.test",
            oid.rem_euclid(9973)
        )),
        Value::str(status),
        Value::str(format!(
            "distribution-center-{}-{:03}",
            REGIONS[oid.rem_euclid(4) as usize],
            oid.rem_euclid(997)
        )),
    ]
}

fn lineitem(li: i64, oid: i64) -> Tuple {
    vec![
        Value::int(li),
        Value::int(oid),
        Value::str(format!(
            "fulfillment-{}-pipeline",
            STATUS[li.rem_euclid(5) as usize]
        )),
    ]
}

fn status_of(oid: i64) -> &'static str {
    STATUS[oid.rem_euclid(5) as usize]
}

fn sigma() -> (Vec<Cfd>, Vec<Cfd>) {
    let fd = |l: usize, r: usize| Cfd::fd(&[l], r).expect("valid FD");
    (vec![fd(0, 2), fd(0, 1)], vec![fd(0, 2)])
}

fn cinds() -> Vec<Cind> {
    vec![
        Cind::ind(LINEITEMS, ORDERS, vec![(1, 0)]).expect("valid"),
        Cind::new(
            ORDERS,
            LINEITEMS,
            vec![(0, 1)],
            vec![(2, Value::str("billed"))],
            vec![],
        )
        .expect("valid"),
    ]
}

/// `open_items(li, oid, email, depot)`: line items of open orders, with
/// the view FD `oid → email`.
fn view() -> ViewSpec {
    let col = |name: &str, atom: usize, attr: usize| OutputCol {
        name: name.into(),
        src: ColRef::Prod(ProdCol::new(atom, attr)),
    };
    let mut v = ViewSpec::new(
        "open_items",
        SpcQuery {
            atoms: vec![LINEITEMS, ORDERS],
            constants: vec![],
            selection: vec![
                SelAtom::Eq(ProdCol::new(0, 1), ProdCol::new(1, 0)),
                SelAtom::EqConst(ProdCol::new(1, 2), Value::str("open")),
            ],
            output: vec![
                col("li", 0, 0),
                col("oid", 0, 1),
                col("email", 1, 1),
                col("depot", 1, 3),
            ],
        },
    );
    v.sigma = vec![Cfd::fd(&[1], 2).expect("valid FD")];
    v
}

fn specs(bases: Option<(&Relation, &Relation)>) -> Vec<RelationSpec> {
    let (so, sl) = sigma();
    let (o, l) = bases.map_or((Relation::new(), Relation::new()), |(o, l)| {
        (o.clone(), l.clone())
    });
    vec![
        RelationSpec::new(NAMES[0], so, o),
        RelationSpec::new(NAMES[1], sl, l),
    ]
}

/// The seeded batch generator (replayable from its seed).
pub struct Gen {
    rng: StdRng,
    shape: Shape,
    orders: Resident,
    lineitems: Resident,
}

impl Gen {
    /// A generator and the base relations it starts from.
    pub fn new(seed: u64, shape: Shape) -> (Gen, Relation, Relation) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0D07_AB1E);
        let n_ord = shape.orders as i64;
        let orders = Resident::new(
            (0..n_ord).map(|o| order(o, status_of(o))).collect(),
            (n_ord..n_ord + n_ord / 8).collect(),
        );
        let n_li = shape.lineitems as i64;
        let lineitems = Resident::new(
            (0..n_li)
                .map(|l| lineitem(l, rng.gen_range(0..n_ord)))
                .collect(),
            (n_li..n_li + n_li / 8).collect(),
        );
        let ob = orders.rows().iter().cloned().collect();
        let lb = lineitems.rows().iter().cloned().collect();
        (
            Gen {
                rng,
                shape,
                orders,
                lineitems,
            },
            ob,
            lb,
        )
    }

    /// The next batch as `.upd` text, plus its statement count.
    pub fn next_batch(&mut self) -> (String, usize) {
        let mut stmts: Vec<(&str, bool, Tuple)> = Vec::new();
        for i in 0..self.shape.stmts {
            if i % 2 == 0 {
                if let Some(t) = self.orders.remove_random(&mut self.rng, |_| true) {
                    stmts.push((NAMES[0], true, t));
                }
                continue;
            }
            let t = if self.rng.gen_bool(self.shape.dirty) {
                // A second status for a live order.
                let Some(live) = self.orders.pick(&mut self.rng) else {
                    continue;
                };
                order(crate::key(live), "disputed")
            } else if let Some(oid) = self.orders.take_free(&mut self.rng) {
                order(oid, status_of(oid))
            } else {
                continue;
            };
            if self.orders.insert(t.clone()) {
                stmts.push((NAMES[0], false, t));
            }
        }
        for i in 0..self.shape.stmts {
            if i % 2 == 0 {
                if let Some(t) = self.lineitems.remove_random(&mut self.rng, |_| true) {
                    stmts.push((NAMES[1], true, t));
                }
                continue;
            }
            let Some(li) = self.lineitems.take_free(&mut self.rng) else {
                continue;
            };
            let oid = if self.rng.gen_bool(self.shape.dirty) {
                // Dangles: no order has this key.
                -1 - self.rng.gen_range(0..1_000i64)
            } else {
                self.orders.pick(&mut self.rng).map_or(0, crate::key)
            };
            let t = lineitem(li, oid);
            self.lineitems.insert(t.clone());
            stmts.push((NAMES[1], false, t));
        }
        self.orders.end_batch();
        self.lineitems.end_batch();
        let n = stmts.len();
        (render_batch(&stmts), n)
    }
}

/// Counts the bytes the leader's side of the link sends.
struct MeterIo {
    inner: ChanShipIo,
    sent: Arc<AtomicU64>,
}

impl ShipIo for MeterIo {
    fn send(&mut self, bytes: &[u8]) -> Result<(), ShipError> {
        self.sent.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.inner.send(bytes)
    }

    fn recv(&mut self) -> Result<Vec<u8>, ShipError> {
        self.inner.recv()
    }

    fn try_recv(&mut self) -> Result<Option<Vec<u8>>, ShipError> {
        self.inner.try_recv()
    }
}

/// Leader, follower and the link between them.
struct Cluster {
    leader: DurableMultiStore,
    follower: Follower,
    conn: FollowerConn,
    server: ShipServerConn,
    sent: Arc<AtomicU64>,
    rx: std::sync::mpsc::Receiver<Arc<cfd_clean::MultiCommit>>,
}

/// Pump both ends of the link until neither makes progress, as spans
/// `replica.ship_pump` and `replica.follower_pump`.
fn pump(c: &mut Cluster, tr: &mut Tracer) -> Result<(), String> {
    loop {
        let s = tr.begin("replica.ship_pump");
        let shipped = c.server.pump();
        tr.end(s);
        let s = tr.begin("replica.follower_pump");
        let applied = c.follower.pump(&mut c.conn);
        tr.end(s);
        let shipped = shipped.map_err(|e| format!("ship pump: {e}"))?;
        let applied = applied.map_err(|e| format!("follower pump: {e}"))?;
        if !shipped && applied == 0 {
            return Ok(());
        }
    }
}

/// Open a leader in `dir`, attach a shipper, and sync a fresh follower.
fn set_up(dir: &Path, leader: Vec<RelationSpec>, shards: usize) -> Result<Cluster, String> {
    let opts = DurableOptions {
        fsync: FsyncPolicy::EveryCommit,
        checkpoint_every: 0,
    };
    let (mut leader, _) = DurableMultiStore::open(dir, leader, cinds(), shards, vec![view()], opts)
        .map_err(|e| format!("open: {e}"))?;
    let shipper = leader.attach_shipper(ShipOptions::default());
    let mut follower = Follower::new(specs(None), cinds(), shards, vec![view()]);
    let (fio, sio) = ChanShipIo::pair();
    let sent = Arc::new(AtomicU64::new(0));
    let server = ShipServerConn::new(
        Box::new(MeterIo {
            inner: sio,
            sent: sent.clone(),
        }),
        shipper,
    );
    let conn = follower
        .begin(Box::new(fio))
        .map_err(|e| format!("follower hello: {e}"))?;
    let rx = leader.subscribe(MultiDiffFilter::All, 64);
    let mut c = Cluster {
        leader,
        follower,
        conn,
        server,
        sent,
        rx,
    };
    pump(&mut c, &mut Tracer::new(false))?;
    if c.follower.cursor() != c.leader.epoch() {
        return Err("follower did not sync at set-up".into());
    }
    Ok(c)
}

/// Bytes in the data directory's files with the given suffix.
fn dir_bytes(dir: &Path, suffix: &str) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.flatten()
                .filter(|e| e.file_name().to_string_lossy().ends_with(suffix))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Bytes of the newest checkpoint file.
fn newest_checkpoint_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.flatten()
                .filter(|e| e.file_name().to_string_lossy().ends_with(".ckpt"))
                .max_by_key(|e| e.file_name())
                .and_then(|e| e.metadata().ok())
                .map_or(0, |m| m.len())
        })
        .unwrap_or(0)
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for e in std::fs::read_dir(from)? {
        let e = e?;
        if e.file_type()?.is_file() {
            std::fs::copy(e.path(), to.join(e.file_name()))?;
        }
    }
    Ok(())
}

/// Everything a reader can observe, for equality checks.
fn state(s: &MultiSnapshot) -> impl PartialEq + std::fmt::Debug {
    let view = s.view(0);
    (
        s.epoch(),
        (0..2).map(|i| s.relation(RelId(i))).collect::<Vec<_>>(),
        (0..2)
            .map(|i| sorted(s.cfd_violations(RelId(i)).to_vec()))
            .collect::<Vec<_>>(),
        sorted(s.cind_violations().to_vec()),
        view.relation.clone(),
        sorted(view.cfd.clone()),
    )
}

/// Oracle: the follower equals the leader at its cursor, and the leader's
/// relations equal the update stream.
fn check(c: &Cluster, gen: &Gen, r: &mut Report) {
    let lead = c.leader.snapshot();
    let Some(foll) = c.follower.snapshot() else {
        r.check(false, || "follower has no state".into());
        return;
    };
    r.check(c.follower.cursor() == lead.epoch(), || {
        format!(
            "follower cursor {} behind leader {}",
            c.follower.cursor(),
            lead.epoch()
        )
    });
    r.check(state(&lead) == state(&foll), || {
        format!("follower differs from leader at epoch {}", lead.epoch())
    });
    for (rel, model) in [(ORDERS, &gen.orders), (LINEITEMS, &gen.lineitems)] {
        let want: Relation = model.rows().iter().cloned().collect();
        r.check(lead.relation(rel) == want, || {
            format!("{rel:?} differs from the update stream")
        });
    }
}

/// Run the workload.
pub fn run(cfg: &Config) -> Report {
    let shape = Shape::new(cfg.small);
    let mut r = Report::default();
    r.config("shards", cfg.shards);
    r.config("fsync", "every-commit");
    r.config("orders_rows", shape.orders);
    r.config("lineitems_rows", shape.lineitems);
    r.config(
        "batch",
        format!(
            "{0} orders + {0} lineitems statements, half deletes, {1}% conflicting or dangling inserts",
            shape.stmts,
            shape.dirty * 100.0
        ),
    );
    r.config(
        "reads",
        "1 per batch from Follower::snapshot(): violation sets and view rows",
    );
    r.config(
        "cadence",
        format!("checkpoint every {CHECKPOINT_EVERY} batches"),
    );

    let scratch = cfg.scratch_dir();
    let _ = std::fs::remove_dir_all(&scratch);
    let out = run_in(cfg, shape, &scratch, &mut r);
    let _ = std::fs::remove_dir_all(&scratch);
    if let Err(e) = out {
        r.check(false, || e);
    }
    r
}

fn run_in(cfg: &Config, shape: Shape, scratch: &Path, r: &mut Report) -> Result<(), String> {
    let (mut gen, ob, lb) = Gen::new(cfg.seed, shape);
    let mut setups = SetupTimes::default();
    let mut cluster = None;
    let mut dir = scratch.join("leader-0");
    for k in 0..REPEATS {
        drop(cluster.take());
        let d = scratch.join(format!("leader-{k}"));
        // Copying the base relations for the store is input preparation,
        // outside the clock.
        let sp = specs(Some((&ob, &lb)));
        let t = Stopwatch::start();
        let c = set_up(&d, sp, cfg.shards);
        setups.push(t.stop().cpu);
        cluster = Some(c?);
        if k > 0 {
            let _ = std::fs::remove_dir_all(&dir);
        }
        dir = d;
    }
    drop((ob, lb));
    let mut c = cluster.expect("at least one set-up");
    setups.report(r);
    check(&c, &gen, r);

    let mut tr = Tracer::new(cfg.trace);
    let mut phase = Phase::new(cfg);
    let mut times = OpTimes::default();
    let mut visible = Samples::default();
    let mut counts = CommitCounters::default();
    let mut ckpt_ms = Samples::default();
    let mut ckpt_bytes = 0u64;
    let mut log_bytes = 0u64;
    let mut logged_commits = 0u64;
    let mut behind_max = 0u64;
    let frames0 = c.follower.stats().frames_applied;
    let sent0 = c.sent.load(Ordering::Relaxed);
    let mut op = 0u64;
    while phase.more() {
        let b = phase.rounds();
        let (text, n) = gen.next_batch();
        r.digest(text.as_bytes());
        let traced = traced_batch(b);
        let wal0 = dir_bytes(&dir, ".log");

        // The batch: text in → fsynced and received (+ cadence checkpoint).
        op += 1;
        tr.start_op(op, traced);
        let t0 = Stopwatch::start();
        let root = tr.begin("op.commit");
        let commits = parse_batch(&text, &NAMES, &mut tr).and_then(|stmts| {
            let s = tr.begin("multistore.apply");
            let res = c.leader.apply_grouped(&stmts);
            tr.end(s);
            let commits = res.map_err(|e| format!("durable apply: {e}"))?;
            recv_commits(&c.rx, &commits, &mut tr).map(|_| commits)
        });
        let ckpt_due = (b + 1).is_multiple_of(CHECKPOINT_EVERY);
        let mut ckpt = None;
        if ckpt_due {
            let s = tr.begin("durable.checkpoint");
            let (res, d) = timed(|| c.leader.checkpoint());
            tr.end(s);
            ckpt = Some((res, d));
        }
        tr.end(root);
        let lat = t0.stop();

        // Replication: pump both sides until the follower shows the epoch.
        let root = tr.begin("op.replicate");
        let pumped = pump(&mut c, &mut tr);
        let s = tr.begin("multistore.snapshot");
        let seen = c.follower.snapshot().map(|s| s.epoch());
        tr.end(s);
        tr.end(root);
        let vis = t0.stop().wall;
        phase.spend(vis);
        // WAL growth of this batch; a checkpoint rotates the segment, so
        // batches that ran one are left out of the per-commit figure.
        let wal_grown = (!ckpt_due).then(|| dir_bytes(&dir, ".log").saturating_sub(wal0));
        times.op(lat, traced);
        visible.push(vis);
        behind_max = behind_max.max(c.follower.lag().frames_behind);

        // Bookkeeping outside the timed intervals.
        match commits {
            Ok(commits) => {
                r.check(true, String::new);
                if let Some(grown) = wal_grown {
                    log_bytes += grown;
                    logged_commits += commits.len() as u64;
                }
                counts.add(n, &commits);
            }
            Err(e) => r.check(false, || format!("batch {b}: {e}")),
        }
        if let Some((res, d)) = ckpt {
            ckpt_ms.push(d);
            ckpt_bytes += newest_checkpoint_bytes(&dir);
            r.check(res.is_ok(), || format!("checkpoint after batch {b} failed"));
        }
        r.check(pumped.is_ok() && seen == Some(c.leader.epoch()), || {
            format!("follower did not reach the leader after batch {b}: {pumped:?}")
        });

        // The read: a follower snapshot → violation sets and view rows.
        op += 1;
        tr.start_op(op, traced);
        let t0 = Stopwatch::start();
        let root = tr.begin("op.read");
        let s = tr.begin("multistore.snapshot");
        let snap = c.follower.snapshot();
        tr.end(s);
        let s = tr.begin("multistore.scan");
        let seen = snap.as_ref().map(|snap| {
            (0..2)
                .map(|i| snap.cfd_violations(RelId(i)).len())
                .sum::<usize>()
                + snap.cind_violations().len()
                + snap.view(0).relation.len()
                + snap.view(0).cfd.len()
        });
        tr.end(s);
        let s = tr.begin("multistore.snapshot");
        drop(snap);
        tr.end(s);
        tr.end(root);
        let lat = t0.stop();
        phase.spend(lat.wall);
        times.read(lat);
        r.check(seen.is_some(), || "follower snapshot missing".into());

        phase.next_round();
        if phase.rounds().is_multiple_of(CHECK_EVERY) || !phase.more() {
            check(&c, &gen, r);
        }
    }
    let shed = c.leader.shed_sub_count();
    r.check(shed == 0, || format!("{shed} bus subscribers shed"));
    r.set("multistore.shed_subs", shed as f64);
    let stats = c.follower.stats();
    r.check(stats.gaps == 0, || format!("{} follower gaps", stats.gaps));
    times.report(r, &phase, counts.rows);
    counts.report(r);
    r.set("workload.replica_visible_ms_p50", visible.pct(0.5));
    r.set("workload.replica_visible_ms_p95", visible.pct(0.95));
    r.set(
        "durable.log_bytes_per_commit",
        log_bytes as f64 / logged_commits.max(1) as f64,
    );
    r.set("durable.checkpoint_ms", ckpt_ms.mean());
    r.set(
        "durable.checkpoint_bytes",
        ckpt_bytes as f64 / ckpt_ms.len().max(1) as f64,
    );
    let frames = stats.frames_applied - frames0;
    let shipped = c.sent.load(Ordering::Relaxed) - sent0;
    r.set(
        "replica.ship_bytes_per_frame",
        shipped as f64 / frames.max(1) as f64,
    );
    r.set("replica.frames_behind_max", behind_max as f64);
    r.set("replica.gaps", stats.gaps as f64);
    r.count("log_bytes", log_bytes);
    r.count("checkpoint_bytes", ckpt_bytes);
    r.count("ship_bytes", shipped);
    r.count("frames_shipped", frames);
    r.config(
        "samples",
        format!("{} batches, {} reads", times.op.len(), times.read.len()),
    );

    // Recovery: reopen fresh copies of the directory as the run left it,
    // with the leader and follower dropped first (every commit is
    // fsynced, and dropping them writes nothing to the directory).
    let fin = c.leader.snapshot();
    let want = state(&fin);
    drop(fin);
    drop(c);
    let mut recovers = Vec::new();
    let mut replayed = 0u64;
    for k in 0..REPEATS {
        let copy = scratch.join(format!("recover-{k}"));
        copy_dir(&dir, &copy).map_err(|e| format!("copying the data directory: {e}"))?;
        let opts = DurableOptions {
            fsync: FsyncPolicy::EveryCommit,
            checkpoint_every: 0,
        };
        let (res, d) = timed(|| {
            DurableMultiStore::open(&copy, specs(None), cinds(), cfg.shards, vec![view()], opts)
        });
        recovers.push(d);
        match res {
            Ok((store, report)) => {
                replayed = report.frames_replayed as u64;
                r.check(state(&store.snapshot()) == want, || {
                    format!("recovered store {k} differs from the leader's final state")
                });
            }
            Err(e) => r.check(false, || format!("recovery {k} failed: {e}")),
        }
        let _ = std::fs::remove_dir_all(&copy);
    }
    r.set("workload.recover_s", median_s(&recovers));
    r.set("durable.recover_frames_replayed", replayed as f64);
    r.count("recover_frames_replayed", replayed);

    if tr.enabled() {
        let own = report_layers(
            r,
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
            r,
            &tr,
            "op.replicate",
            &[
                ("replica.ship_pump", "replica.ship_pump_ms"),
                ("replica.follower_pump", "replica.follower_pump_ms"),
            ],
        );
        report_layers(
            r,
            &tr,
            "op.read",
            &[
                ("multistore.snapshot", "multistore.snapshot_ms"),
                ("multistore.scan", "multistore.scan_ms"),
            ],
        );
        memory_reference(cfg, shape, phase.rounds(), &tr, r);
        write_trace(cfg, &tr);
    }
    Ok(())
}

/// The same batches again on an in-memory `MultiStore` with the same view
/// (traced run only): the same-run reference for `durable.log_ms`.
fn memory_reference(cfg: &Config, shape: Shape, rounds: usize, tr: &Tracer, r: &mut Report) {
    let (mut gen, ob, lb) = Gen::new(cfg.seed, shape);
    let Ok(mut store) = MultiStore::new(specs(Some((&ob, &lb))), cinds(), cfg.shards) else {
        r.check(false, || "in-memory reference store failed to build".into());
        return;
    };
    if store.register_view(view()).is_err() {
        r.check(false, || "in-memory reference view failed".into());
        return;
    }
    let mut mem = Duration::ZERO;
    let mut traced = 0u32;
    for b in 0..rounds {
        let (text, _) = gen.next_batch();
        let Ok(stmts) = parse_batch(&text, &NAMES, &mut Tracer::new(false)) else {
            r.check(false, || format!("reference batch {b} did not parse"));
            return;
        };
        let (_, d) = timed(|| store.apply_grouped(&stmts));
        if traced_batch(b) {
            mem += d;
            traced += 1;
        }
    }
    let mem_ms = mem.as_secs_f64() * 1e3 / f64::from(traced.max(1));
    let (per, _) = crate::trace::layer_means(tr.spans(), "op.commit");
    let durable_ms = per.get("multistore.apply").copied().unwrap_or(0.0);
    r.set("durable.log_ms", durable_ms - mem_ms);
}
