//! One benchmark for the whole stack.
//!
//! Four workloads drive the library crates through their public APIs from
//! one client thread in one process (a closed loop: the next batch is sent
//! only after the previous one is acknowledged), check every output
//! against an oracle outside the timed intervals, and report end-to-end
//! metrics (untraced run) or per-layer metrics (traced run). See
//! `README.md` in this directory for the workloads, the metric contract
//! and how a performance claim names its metric.

#![deny(unsafe_code)]

pub mod durable;
pub mod ingest;
pub mod propagate;
pub mod report;
pub mod trace;
pub mod views;

use cfd_clean::MultiCommit;
use cfd_relalg::instance::Tuple;
use cfd_relalg::schema::RelId;
use cfd_text::parser::{parse_updates, UpdateOp, UpdateStmt};
use report::{Report, Samples};
use std::path::PathBuf;
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Tracer;

/// The named workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Source CFDs and CINDs on an in-memory multistore, no views.
    Ingest,
    /// A view catalog over orders/customers under skewed batches.
    Views,
    /// WAL with fsync, checkpoints, and a log-shipped follower.
    DurableReplica,
    /// The paper's PropCFD_SPC experiment as a batch job.
    Propagate,
}

impl Workload {
    /// Every workload, in declaration order.
    pub const ALL: [Workload; 4] = [
        Workload::Ingest,
        Workload::Views,
        Workload::DurableReplica,
        Workload::Propagate,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::Views => "views",
            Workload::DurableReplica => "durable_replica",
            Workload::Propagate => "propagate",
        }
    }

    /// Parse a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One run's settings.
#[derive(Clone, Debug)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Program time to measure (timed operations and reads only).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced run.
    pub trace: bool,
    /// Run exactly this many batches (or instance-set passes) instead of
    /// filling `seconds` — work counters then repeat exactly.
    pub batches: Option<usize>,
    /// Small inputs (tests).
    pub small: bool,
    /// Shard count of every store (`nproc` by default).
    pub shards: usize,
    /// Where spans, layer tables, results and scratch data go.
    pub out_dir: PathBuf,
}

impl Config {
    /// Defaults for `workload` and `seed`: 20 s, untraced, `nproc` shards,
    /// output under `.bench_out`.
    pub fn new(workload: Workload, seed: u64) -> Config {
        Config {
            workload,
            seed,
            seconds: 20.0,
            trace: false,
            batches: None,
            small: false,
            shards: std::thread::available_parallelism().map_or(1, |n| n.get()),
            out_dir: PathBuf::from(".bench_out"),
        }
    }

    /// A scratch directory private to this process.
    pub fn scratch_dir(&self) -> PathBuf {
        self.out_dir.join(format!(
            "scratch-{}-{}-{}",
            self.workload.name(),
            self.seed,
            std::process::id()
        ))
    }
}

/// Run one workload.
pub fn run(cfg: &Config) -> Report {
    let cpu0 = report::cpu_ticks();
    let mut r = match cfg.workload {
        Workload::Ingest => ingest::run(cfg),
        Workload::Views => views::run(cfg),
        Workload::DurableReplica => durable::run(cfg),
        Workload::Propagate => propagate::run(cfg),
    };
    if let (Some((total0, steal0)), Some((total1, steal1))) = (cpu0, report::cpu_ticks()) {
        // Time the hypervisor gave this VM's CPUs to someone else: the
        // host's share of the noise in this run's timings.
        let share = (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64;
        r.config("host_steal_pct", format!("{:.1}", share * 100.0));
    }
    r.set("peak_rss_mb", report::peak_rss_mb());
    let ratio = r.failed as f64 / r.attempted.max(1) as f64;
    r.set("workload.failed_ratio", ratio);
    r
}

/// The timed phase: stops after `seconds` of measured program time, or
/// after a fixed number of rounds.
pub struct Phase {
    budget: Duration,
    fixed: Option<usize>,
    spent: Duration,
    rounds: usize,
}

impl Phase {
    /// The phase a config asks for.
    pub fn new(cfg: &Config) -> Phase {
        Phase {
            budget: Duration::from_secs_f64(cfg.seconds.max(0.0)),
            fixed: cfg.batches,
            spent: Duration::ZERO,
            rounds: 0,
        }
    }

    /// Another round?
    pub fn more(&self) -> bool {
        match self.fixed {
            Some(n) => self.rounds < n,
            None => self.spent < self.budget,
        }
    }

    /// Count measured program time.
    pub fn spend(&mut self, d: Duration) {
        self.spent += d;
    }

    /// Finish a round.
    pub fn next_round(&mut self) {
        self.rounds += 1;
    }

    /// Rounds completed.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Measured program time so far.
    pub fn spent(&self) -> Duration {
        self.spent
    }
}

/// Render one batch of `(relation name, is_delete, tuple)` statements as
/// `.upd` text ending in `commit;`.
pub fn render_batch(stmts: &[(&str, bool, Tuple)]) -> String {
    let batch: Vec<UpdateStmt> = stmts
        .iter()
        .map(|(rel, del, t)| UpdateStmt {
            relation: (*rel).to_string(),
            op: if *del {
                UpdateOp::Delete
            } else {
                UpdateOp::Insert
            },
            tuple: t.clone(),
        })
        .collect();
    cfd_text::pretty::render_updates(&[batch])
}

/// Resolve parsed statements against relation names (`names[i]` is
/// `RelId(i)`).
fn resolve(
    parsed: Vec<Vec<UpdateStmt>>,
    names: &[&str],
) -> Result<Vec<(RelId, bool, Tuple)>, String> {
    let mut out = Vec::new();
    for stmt in parsed.into_iter().flatten() {
        let rel = names
            .iter()
            .position(|n| *n == stmt.relation)
            .ok_or_else(|| format!("unknown relation {}", stmt.relation))?;
        out.push((RelId(rel), stmt.op == UpdateOp::Delete, stmt.tuple));
    }
    Ok(out)
}

/// Parse a batch's text (span `text.parse`) and resolve it.
pub fn parse_batch(
    text: &str,
    names: &[&str],
    tr: &mut Tracer,
) -> Result<Vec<(RelId, bool, Tuple)>, String> {
    let s = tr.begin("text.parse");
    let parsed = parse_updates(text);
    tr.end(s);
    resolve(parsed.map_err(|e| e.to_string())?, names)
}

/// Receive one bus message per commit (span `multistore.bus_recv`) and
/// check they are the commits `apply` returned, in order.
pub fn recv_commits(
    rx: &Receiver<Arc<MultiCommit>>,
    commits: &[Arc<MultiCommit>],
    tr: &mut Tracer,
) -> Result<(), String> {
    let s = tr.begin("multistore.bus_recv");
    let mut got = Vec::with_capacity(commits.len());
    for _ in commits {
        match rx.recv() {
            Ok(c) => got.push(c.epoch),
            Err(_) => break,
        }
    }
    tr.end(s);
    let want: Vec<u64> = commits.iter().map(|c| c.epoch).collect();
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "bus delivered epochs {got:?}, commits were {want:?}"
        ))
    }
}

/// Per-commit work counters every serving workload reports.
#[derive(Default)]
pub struct CommitCounters {
    /// Batches committed.
    pub batches: u64,
    /// Update rows handed to the store.
    pub rows: u64,
    /// Commits (one per relation a batch touches).
    pub commits: u64,
    /// CFD violations added plus retired.
    pub cfd_diff: u64,
    /// CIND violations added plus retired.
    pub cind_diff: u64,
    /// Views refreshed.
    pub refreshed: u64,
    /// Views skipped.
    pub skipped: u64,
    /// View rows added plus removed, over every view delta.
    pub view_delta_rows: u64,
}

impl CommitCounters {
    /// Fold one batch's commits.
    pub fn add(&mut self, rows: usize, commits: &[Arc<MultiCommit>]) {
        self.batches += 1;
        self.rows += rows as u64;
        for c in commits {
            self.commits += 1;
            self.cfd_diff += (c.cfd.added.len() + c.cfd.removed.len()) as u64;
            self.cind_diff += (c.cind.added.len() + c.cind.removed.len()) as u64;
            self.refreshed += c.refresh.refreshed as u64;
            self.skipped += c.refresh.skipped as u64;
            self.view_delta_rows += c
                .views
                .iter()
                .map(|v| (v.rows_added.len() + v.rows_removed.len()) as u64)
                .sum::<u64>();
        }
    }

    /// Report the per-batch means and the exact totals.
    pub fn report(&self, r: &mut Report) {
        let per = |x: u64| x as f64 / self.batches.max(1) as f64;
        r.set("multistore.cfd_diff_rows", per(self.cfd_diff));
        r.set("cind.diff_rows", per(self.cind_diff));
        r.set("catalog.refreshed", per(self.refreshed));
        r.set("catalog.skipped", per(self.skipped));
        let decisions = self.refreshed + self.skipped;
        if decisions > 0 {
            r.set("catalog.skip_rate", self.skipped as f64 / decisions as f64);
        }
        r.set("matview.delta_rows", per(self.view_delta_rows));
        r.count("batches", self.batches);
        r.count("rows", self.rows);
        r.count("commits", self.commits);
        r.count("cfd_diff_rows", self.cfd_diff);
        r.count("cind_diff_rows", self.cind_diff);
        r.count("refreshed", self.refreshed);
        r.count("skipped", self.skipped);
        r.count("view_delta_rows", self.view_delta_rows);
    }
}

/// Wall-clock and process CPU time of one interval.
#[derive(Clone, Copy, Debug, Default)]
pub struct Took {
    /// Elapsed wall-clock time.
    pub wall: Duration,
    /// CPU time of every thread of the process (threads that ended during
    /// the interval included).
    pub cpu: Duration,
}

/// Measures one interval on both clocks.
pub struct Stopwatch {
    wall: Instant,
    cpu: Duration,
}

impl Stopwatch {
    /// Start both clocks.
    pub fn start() -> Stopwatch {
        let cpu = report::process_cpu();
        Stopwatch {
            wall: Instant::now(),
            cpu,
        }
    }

    /// The interval so far.
    pub fn stop(&self) -> Took {
        let wall = self.wall.elapsed();
        Took {
            wall,
            cpu: report::process_cpu().saturating_sub(self.cpu),
        }
    }
}

/// Latencies of a workload's timed phase.
#[derive(Default)]
pub struct OpTimes {
    /// Wall-clock time per operation (batch, or propagation sweep).
    pub op: Samples,
    /// Process CPU time per operation.
    pub op_cpu: Samples,
    /// Wall-clock time per read (pin → read complete).
    pub read: Samples,
    /// Process CPU time per read.
    pub read_cpu: Samples,
    /// Which operations were traced (the traced run alternates).
    pub traced: Vec<bool>,
    /// CPU time of the calibration job run right after each operation.
    pub op_cal: Samples,
    /// CPU time of the calibration job run right after each read.
    pub read_cal: Samples,
}

/// CPU time, in milliseconds, that [`report::calibration_job`] takes on
/// the reference host (see `README.md`, "Host speed"). The end-to-end
/// times are scaled to this speed.
pub const CALIBRATION_REF_MS: f64 = 1.3;

/// Run the calibration job once and return its process CPU time.
pub fn calibrate() -> Duration {
    let t = Stopwatch::start();
    std::hint::black_box(report::calibration_job(std::hint::black_box(
        report::CALIBRATION_KEYS,
    )));
    t.stop().cpu
}

/// Each sample scaled to the reference host speed: `x / cal ×
/// CALIBRATION_REF_MS`, where `cal` is the calibration job timed right
/// after it (both in ms).
pub fn at_reference_speed(x: &Samples, cal: &Samples) -> Samples {
    Samples(
        x.0.iter()
            .zip(&cal.0)
            .map(|(x, c)| x / c * CALIBRATION_REF_MS)
            .collect(),
    )
}

/// Set-up times, each followed by calibration runs, for `setup_s`.
#[derive(Default)]
pub struct SetupTimes {
    cpu: Samples,
    cal: Samples,
}

impl SetupTimes {
    /// Record one set-up's CPU time, then time the calibration job
    /// `SETUP_CAL_RUNS` times and keep the median.
    pub fn push(&mut self, cpu: Duration) {
        const SETUP_CAL_RUNS: usize = 5;
        self.cpu.push(cpu);
        let cal = Samples(
            (0..SETUP_CAL_RUNS)
                .map(|_| calibrate().as_secs_f64() * 1e3)
                .collect(),
        );
        self.cal.0.push(cal.pct(0.5));
    }

    /// `setup_s`: the median set-up at the reference host speed, in
    /// seconds; `workload.setup_cpu_s`: the median as measured.
    pub fn report(&self, r: &mut Report) {
        r.set(
            "setup_s",
            at_reference_speed(&self.cpu, &self.cal).pct(0.5) / 1e3,
        );
        r.set("workload.setup_cpu_s", self.cpu.pct(0.5) / 1e3);
    }
}

impl OpTimes {
    /// Record one operation.
    pub fn op(&mut self, took: Took, traced: bool) {
        self.op.push(took.wall);
        self.op_cpu.push(took.cpu);
        self.traced.push(traced);
        self.op_cal.push(calibrate());
    }

    /// Record one read.
    pub fn read(&mut self, took: Took) {
        self.read.push(took.wall);
        self.read_cpu.push(took.cpu);
        self.read_cal.push(calibrate());
    }

    /// Report the CPU-time medians at the reference host speed
    /// (end-to-end) and as measured, the wall-clock percentiles,
    /// operations and update rows per second, and the tracing overhead
    /// (traced operations' median CPU time over untraced operations', both
    /// at the reference speed).
    pub fn report(&self, r: &mut Report, phase: &Phase, rows: u64) {
        let op = at_reference_speed(&self.op_cpu, &self.op_cal);
        r.set("op_cpu_ms_p50", op.pct(0.5));
        r.set(
            "read_cpu_ms_p50",
            at_reference_speed(&self.read_cpu, &self.read_cal).pct(0.5),
        );
        r.set("workload.op_cpu_ms_p50", self.op_cpu.pct(0.5));
        r.set("workload.read_cpu_ms_p50", self.read_cpu.pct(0.5));
        let mut cal = self.op_cal.clone();
        cal.0.extend_from_slice(&self.read_cal.0);
        r.config("calibration_ms_p50", cal.pct(0.5));
        r.set("workload.op_ms_p50", self.op.pct(0.5));
        r.set("workload.op_ms_p95", self.op.pct(0.95));
        r.set("workload.read_ms_p50", self.read.pct(0.5));
        r.set("workload.read_ms_p95", self.read.pct(0.95));
        let secs = phase.spent().as_secs_f64().max(1e-9);
        r.set("workload.ops_per_s", self.op.len() as f64 / secs);
        r.set("workload.update_rows_per_s", rows as f64 / secs);
        if self.traced.iter().any(|t| *t) {
            let pick = |want: bool| {
                Samples(
                    op.0.iter()
                        .zip(&self.traced)
                        .filter(|(_, t)| **t == want)
                        .map(|(s, _)| *s)
                        .collect(),
                )
            };
            let untraced = pick(false).pct(0.5);
            if untraced > 0.0 {
                r.set("trace.overhead_ratio", pick(true).pct(0.5) / untraced);
            }
        }
    }
}

/// Copy the mean self times of the named layers into the report.
pub fn report_layers(
    r: &mut Report,
    tr: &Tracer,
    root: &'static str,
    map: &[(&'static str, &'static str)],
) -> f64 {
    let (per, own) = trace::layer_means(tr.spans(), root);
    for (span, metric) in map {
        r.set(metric, per.get(span).copied().unwrap_or(0.0));
    }
    own
}

/// Write spans and the per-layer table of a traced run.
pub fn write_trace(cfg: &Config, tr: &Tracer) {
    if !tr.enabled() {
        return;
    }
    let stem = format!("{}-seed{}", cfg.workload.name(), cfg.seed);
    let _ = std::fs::create_dir_all(&cfg.out_dir);
    let _ = std::fs::write(
        cfg.out_dir.join(format!("{stem}-spans.jsonl")),
        trace::spans_jsonl(tr.spans()),
    );
    let _ = std::fs::write(
        cfg.out_dir.join(format!("{stem}-layers.txt")),
        trace::layer_table(tr.spans()),
    );
}

/// Time a closure.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed())
}

/// Sorted copy of a vector (oracle comparisons).
pub fn sorted<T: Ord>(mut v: Vec<T>) -> Vec<T> {
    v.sort();
    v
}

/// The generator's model of one relation's live rows, keyed by the
/// integer in column 0. Keys come from a bounded space: a delete returns
/// its key to the free list once no live row carries it, and an insert
/// takes a free key, so the set of distinct values (and the dictionary)
/// stops growing and a run's state does not drift with its length.
///
/// Rows inserted by the batch being generated stay pending until
/// [`Resident::end_batch`], so a batch never deletes a row it inserts (the
/// store applies a relation's deletes before its inserts).
pub struct Resident {
    rows: Vec<Tuple>,
    pending: Vec<Tuple>,
    refs: std::collections::HashMap<i64, u32>,
    free: Vec<i64>,
}

impl Resident {
    /// Rows `rows` live, keys `free` unused.
    pub fn new(rows: Vec<Tuple>, free: Vec<i64>) -> Resident {
        let mut refs = std::collections::HashMap::new();
        for t in &rows {
            *refs.entry(key(t)).or_insert(0) += 1;
        }
        Resident {
            rows,
            pending: Vec::new(),
            refs,
            free,
        }
    }

    /// Live rows (after [`Resident::end_batch`]).
    pub fn rows(&self) -> &[Tuple] {
        debug_assert!(self.pending.is_empty(), "batch still open");
        &self.rows
    }

    /// Take a random unused key.
    pub fn take_free(&mut self, rng: &mut impl rand::Rng) -> Option<i64> {
        if self.free.is_empty() {
            return None;
        }
        let at = rng.gen_range(0..self.free.len());
        Some(self.free.swap_remove(at))
    }

    /// A random live row.
    pub fn pick(&self, rng: &mut impl rand::Rng) -> Option<&Tuple> {
        if self.rows.is_empty() {
            None
        } else {
            Some(&self.rows[rng.gen_range(0..self.rows.len())])
        }
    }

    /// Add a live row (its key must be taken or already live). Returns
    /// `false` when the identical row is already live.
    pub fn insert(&mut self, t: Tuple) -> bool {
        if self.refs.contains_key(&key(&t)) && (self.rows.contains(&t) || self.pending.contains(&t))
        {
            return false;
        }
        *self.refs.entry(key(&t)).or_insert(0) += 1;
        self.pending.push(t);
        true
    }

    /// Make the batch's inserts live (deletable from the next batch on).
    pub fn end_batch(&mut self) {
        self.rows.append(&mut self.pending);
    }

    /// Remove a random live row satisfying `keep`, returning its key to
    /// the free list once no live row carries it.
    pub fn remove_random(
        &mut self,
        rng: &mut impl rand::Rng,
        keep: impl Fn(&Tuple) -> bool,
    ) -> Option<Tuple> {
        for _ in 0..16 {
            if self.rows.is_empty() {
                return None;
            }
            let at = rng.gen_range(0..self.rows.len());
            if !keep(&self.rows[at]) {
                continue;
            }
            let t = self.rows.swap_remove(at);
            let k = key(&t);
            let n = self.refs.get_mut(&k).expect("live key");
            *n -= 1;
            if *n == 0 {
                self.refs.remove(&k);
                self.free.push(k);
            }
            return Some(t);
        }
        None
    }
}

/// The integer key in column 0.
pub fn key(t: &Tuple) -> i64 {
    int(&t[0])
}

/// An integer value (the generators only put integers where this is
/// called).
pub fn int(v: &cfd_relalg::Value) -> i64 {
    match v {
        cfd_relalg::Value::Int(i) => *i,
        v => panic!("not an integer: {v:?}"),
    }
}

/// What one in-memory batch commit produced.
pub struct Committed {
    /// The commits `apply_grouped` returned, or why the batch failed.
    pub commits: Result<Vec<Arc<MultiCommit>>, String>,
    /// Text in → last commit received, cadence `gc()` included.
    pub latency: Took,
    /// The cadence `gc()`, if this batch ran it.
    pub gc: Option<(cfd_clean::GcStats, Duration)>,
}

/// One batch against an in-memory store, as a traced operation: parse,
/// `apply_grouped`, receive every commit from the bus, and `gc()` when
/// `gc_now`.
pub fn commit_batch(
    store: &mut cfd_clean::MultiStore,
    rx: &Receiver<Arc<MultiCommit>>,
    text: &str,
    names: &[&str],
    gc_now: bool,
    tr: &mut Tracer,
) -> Committed {
    let t0 = Stopwatch::start();
    let root = tr.begin("op.commit");
    let commits = parse_batch(text, names, tr).and_then(|stmts| {
        let s = tr.begin("multistore.apply");
        let commits = store.apply_grouped(&stmts);
        tr.end(s);
        recv_commits(rx, &commits, tr).map(|_| commits)
    });
    let gc = gc_now.then(|| {
        let s = tr.begin("multistore.gc");
        let r = timed(|| store.gc());
        tr.end(s);
        r
    });
    tr.end(root);
    Committed {
        commits,
        latency: t0.stop(),
        gc,
    }
}

/// Is batch `b` traced? The traced run alternates blocks of 16 batches,
/// so cadence work (every 8, 16 or 64 batches) lands in both halves
/// equally.
pub fn traced_batch(b: usize) -> bool {
    (b / 16).is_multiple_of(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_scale_by_their_own_calibration_run() {
        let x = Samples(vec![2.0, 4.0, 9.0]);
        let cal = Samples(vec![CALIBRATION_REF_MS, 2.0 * CALIBRATION_REF_MS, 3.0]);
        let scaled = at_reference_speed(&x, &cal);
        assert_eq!(scaled.0[0], 2.0);
        assert_eq!(scaled.0[1], 2.0);
        assert!((scaled.0[2] - 3.0 * CALIBRATION_REF_MS).abs() < 1e-12);
    }
}
