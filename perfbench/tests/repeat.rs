//! Work counters repeat exactly for a seed, and the seed reaches the
//! generator. Each workload runs at a small size for a fixed number of
//! batches (or instance-set passes), twice with one seed and once with
//! another.

use perfbench::report::Report;
use perfbench::{run, Config, Workload};
use std::path::PathBuf;

fn out_dir(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag)
}

fn small(w: Workload, seed: u64, rounds: usize, trace: bool) -> Report {
    let mut cfg = Config::new(w, seed);
    cfg.small = true;
    cfg.batches = Some(rounds);
    cfg.trace = trace;
    cfg.out_dir = out_dir(w.name());
    let r = run(&cfg);
    assert_eq!(r.failed, 0, "{}: {:?}", w.name(), r.failures);
    assert!(r.attempted > 0);
    r
}

fn repeats(w: Workload, rounds: usize, expect: &[&str]) {
    let a = small(w, 7, rounds, false);
    let b = small(w, 7, rounds, false);
    assert_eq!(a.counters, b.counters, "{}: counters differ", w.name());
    assert_eq!(a.input_digest, b.input_digest);
    for name in expect {
        assert!(
            a.counters.get(name).copied().unwrap_or(0) > 0,
            "{}: counter {name} is zero: {:?}",
            w.name(),
            a.counters
        );
    }
    let c = small(w, 8, rounds, false);
    assert_ne!(a.input_digest, c.input_digest, "{}: seed ignored", w.name());
}

#[test]
fn ingest_counters_repeat() {
    repeats(
        Workload::Ingest,
        40,
        &["rows", "cfd_diff_rows", "cind_diff_rows", "gc_calls"],
    );
}

#[test]
fn views_counters_repeat() {
    repeats(
        Workload::Views,
        40,
        &[
            "refreshed",
            "skipped",
            "view_delta_rows",
            "probe_work",
            "trie_entries",
            "trie_refs",
            "trie_rows",
        ],
    );
}

#[test]
fn durable_replica_counters_repeat() {
    repeats(
        Workload::DurableReplica,
        70,
        &[
            "log_bytes",
            "checkpoint_bytes",
            "ship_bytes",
            "frames_shipped",
            "cind_diff_rows",
        ],
    );
}

#[test]
fn propagate_counters_repeat() {
    repeats(Workload::Propagate, 2, &["cover_cfds", "instances"]);
}

#[test]
fn traced_run_writes_spans_and_layers() {
    for w in Workload::ALL {
        let r = small(w, 3, if w == Workload::Propagate { 2 } else { 34 }, true);
        assert!(
            r.values.contains_key("trace.overhead_ratio"),
            "{}",
            w.name()
        );
        assert!(
            r.values.contains_key("trace.unaccounted_ms"),
            "{}",
            w.name()
        );
        let stem = out_dir(w.name()).join(format!("{}-seed3", w.name()));
        for suffix in ["-spans.jsonl", "-layers.txt"] {
            let p = PathBuf::from(format!("{}{suffix}", stem.display()));
            let text = std::fs::read_to_string(&p).expect("trace output written");
            assert!(!text.is_empty(), "{} is empty", p.display());
        }
    }
}

#[test]
fn benchmark_json_declares_every_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    for w in Workload::ALL {
        assert!(text.contains(&format!("\"name\": \"{}\"", w.name())));
    }
    let defs = perfbench::report::END_TO_END
        .iter()
        .chain(perfbench::report::PER_LAYER);
    let mut n = Workload::ALL.len();
    for (name, unit, better) in defs {
        let entry =
            format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        n += 1;
    }
    assert_eq!(text.matches("\"name\":").count(), n, "undeclared entries");
}
