//! Metric names, units and directions (the benchmark's contract), the
//! per-run report, and the host/config fingerprint every result carries.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// A metric definition: name, unit, and whether higher or lower is better.
pub type MetricDef = (&'static str, &'static str, &'static str);

/// End-to-end metrics. Every workload reports every one of them, with the
/// workload's own unit of work as the operation (see `README.md`).
pub const END_TO_END: &[MetricDef] = &[
    ("op_cpu_ms_p50", "ms", "lower"),
    ("read_cpu_ms_p50", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// Per-layer metrics of the traced run. A workload that bypasses a layer
/// reports 0 for it; that zero is the prediction for the bypassing
/// workload.
pub const PER_LAYER: &[MetricDef] = &[
    ("text.parse_ms", "ms", "lower"),
    ("multistore.apply_ms", "ms", "lower"),
    ("multistore.bus_recv_ms", "ms", "lower"),
    ("multistore.snapshot_ms", "ms", "lower"),
    ("multistore.scan_ms", "ms", "lower"),
    ("multistore.gc_ms", "ms", "lower"),
    ("multistore.gc_reclaimed_rows", "count", "higher"),
    ("multistore.cfd_diff_rows", "count", "lower"),
    ("cind.diff_rows", "count", "lower"),
    ("multistore.shed_subs", "count", "lower"),
    ("sharded.apply_ms_1shard", "ms", "lower"),
    ("sharded.parallel_speedup", "ratio", "higher"),
    ("catalog.refreshed", "count", "lower"),
    ("catalog.skipped", "count", "higher"),
    ("catalog.skip_rate", "ratio", "higher"),
    ("catalog.trie_entries", "count", "lower"),
    ("catalog.tries_shared", "count", "higher"),
    ("catalog.trie_rows", "count", "lower"),
    ("catalog.register_ms", "ms", "lower"),
    ("matview.delta_rows", "count", "lower"),
    ("matview.probe_work_per_delta_row", "work/row", "lower"),
    ("durable.log_bytes_per_commit", "B", "lower"),
    ("durable.log_ms", "ms", "lower"),
    ("durable.checkpoint_ms", "ms", "lower"),
    ("durable.checkpoint_bytes", "B", "lower"),
    ("durable.recover_frames_replayed", "count", "lower"),
    ("replica.ship_pump_ms", "ms", "lower"),
    ("replica.ship_bytes_per_frame", "B", "lower"),
    ("replica.follower_pump_ms", "ms", "lower"),
    ("replica.frames_behind_max", "count", "lower"),
    ("replica.gaps", "count", "lower"),
    ("core.prop_cfd_spc_ms", "ms", "lower"),
    ("core.mincover_sigma_ms", "ms", "lower"),
    ("core.propagates_ms", "ms", "lower"),
    ("core.incomplete_covers", "count", "lower"),
    ("core.always_empty", "count", "lower"),
    ("trace.unaccounted_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("workload.op_cpu_ms_p50", "ms", "lower"),
    ("workload.read_cpu_ms_p50", "ms", "lower"),
    ("workload.setup_cpu_s", "s", "lower"),
    ("workload.op_ms_p50", "ms", "lower"),
    ("workload.op_ms_p95", "ms", "lower"),
    ("workload.read_ms_p50", "ms", "lower"),
    ("workload.read_ms_p95", "ms", "lower"),
    ("workload.ops_per_s", "1/s", "higher"),
    ("workload.update_rows_per_s", "rows/s", "higher"),
    ("workload.replica_visible_ms_p50", "ms", "lower"),
    ("workload.replica_visible_ms_p95", "ms", "lower"),
    ("workload.recover_s", "s", "lower"),
    ("workload.propagate_s", "s", "lower"),
    ("workload.cover_cfds", "count", "lower"),
    ("workload.failed_ratio", "ratio", "lower"),
];

/// Everything one run produced.
#[derive(Default)]
pub struct Report {
    /// Measured values by metric name (end-to-end and per-layer alike).
    pub values: BTreeMap<&'static str, f64>,
    /// Operations attempted (batches, reads, instances, oracle checks).
    pub attempted: u64,
    /// Operations that returned an error or failed their oracle check.
    pub failed: u64,
    /// One line per failure, for the log.
    pub failures: Vec<String>,
    /// Workload configuration for the fingerprint (sizes, batch shape, …).
    pub config: Vec<(&'static str, String)>,
    /// Work counters that must repeat exactly for a given seed and size.
    pub counters: BTreeMap<&'static str, u64>,
    /// Digest of every generated input (proves the seed reaches the
    /// generator).
    pub input_digest: u64,
}

impl Report {
    /// Record a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER)
                .any(|(n, _, _)| *n == name),
            "undeclared metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Record a configuration entry.
    pub fn config(&mut self, key: &'static str, value: impl ToString) {
        self.config.push((key, value.to_string()));
    }

    /// Add to a work counter.
    pub fn count(&mut self, name: &'static str, by: u64) {
        *self.counters.entry(name).or_default() += by;
    }

    /// One oracle or operation outcome.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Mix generated input into the digest.
    pub fn digest(&mut self, bytes: &[u8]) {
        // FNV-1a: stable across builds and platforms.
        let mut h = if self.input_digest == 0 {
            0xcbf2_9ce4_8422_2325
        } else {
            self.input_digest
        };
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        self.input_digest = h;
    }

    /// The final result line: `correct`, `attempted`, `failed` and the
    /// metrics of the given set, in declaration order. A per-layer metric
    /// the workload never touched reads 0; an end-to-end metric must have
    /// been measured.
    pub fn result_line(&self, defs: &[MetricDef], per_layer: bool) -> String {
        let mut m = String::new();
        for (i, (name, unit, _)) in defs.iter().enumerate() {
            let v = match self.values.get(name) {
                Some(v) => *v,
                None if per_layer => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(v)
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        )
    }
}

/// A JSON number with all its digits (non-finite values read as 0).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Latency samples in milliseconds.
#[derive(Default, Clone)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    /// Add one sample.
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e3);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Nearest-rank percentile (`q` in 0..=1); 0 for an empty set.
    pub fn pct(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
        v[rank - 1]
    }

    /// Arithmetic mean; 0 for an empty set.
    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.0.iter().sum::<f64>() / self.0.len() as f64
        }
    }
}

/// Median of a duration set, in seconds.
pub fn median_s(v: &[Duration]) -> f64 {
    let mut s: Vec<f64> = v.iter().map(Duration::as_secs_f64).collect();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        0.0
    } else if s.len() % 2 == 1 {
        s[s.len() / 2]
    } else {
        (s[s.len() / 2 - 1] + s[s.len() / 2]) / 2.0
    }
}

/// `VmHWM` of this process in MiB (0 when `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time used by this process so far: every thread, including threads
/// that have already exited (`CLOCK_PROCESS_CPUTIME_ID`).
#[allow(unsafe_code)]
pub fn process_cpu() -> Duration {
    use std::os::raw::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Keys the calibration job sorts and hashes.
pub const CALIBRATION_KEYS: usize = 16_384;

/// The calibration job: a fixed piece of work that calls no program code
/// (generate `n` pseudo-random keys, sort them, hash half of them into a
/// map and look every key up). Its CPU time follows how fast the host runs
/// this process at the moment, and nothing the program does changes it.
pub fn calibration_job(n: usize) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut v: Vec<u64> = (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    v.sort_unstable();
    let mut m = std::collections::HashMap::with_capacity(n / 2);
    for (i, k) in v.iter().enumerate().step_by(2) {
        m.insert(*k >> 3, i);
    }
    v.iter().filter(|k| m.contains_key(&(**k >> 3))).count() as u64
}

/// `(all, steal)` CPU ticks of the machine so far, from `/proc/stat`.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((ticks.iter().take(8).sum(), *ticks.get(7)?))
}

/// Host fingerprint: core count, CPU model, kernel, compiler, commit.
pub fn host_fingerprint() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let rustc = command_line("rustc", &["-V"]);
    let commit = std::env::var("GIT_COMMIT")
        .ok()
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| command_line("git", &["--git-dir", ".git", "rev-parse", "HEAD"]));
    vec![
        ("nproc", nproc.to_string()),
        ("cpu_model", cpu),
        ("kernel", kernel),
        ("rustc", rustc),
        ("git_commit", commit),
    ]
}

/// First line of a command's stdout, or `unknown` (the child is waited on).
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8(o.stdout)
                .ok()
                .map(|s| s.lines().next().unwrap_or("").trim().to_string())
        })
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// A JSON object from key/value string pairs.
pub fn json_object(pairs: &[(&str, String)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let s = Samples((1..=100).map(f64::from).collect());
        assert_eq!(s.pct(0.5), 50.0);
        assert_eq!(s.pct(0.95), 95.0);
        assert_eq!(s.pct(1.0), 100.0);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
