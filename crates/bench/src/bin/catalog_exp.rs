//! The stacked view-catalog experiment: per-batch cost of the
//! catalog's topological incremental maintenance of a three-level
//! view-over-view DAG (join → overlapping union → selection, behind
//! `cfd_clean::MultiStore::register_stacked_batch`) against a full
//! bottom-up rebuild of the stack (`cfd_relalg::eval::eval_spcu` once
//! per level, in dependency order), at the §1 maintained-store
//! dirtiness (0.5%) and the batch-cleaning rate (2%). Prints a table
//! and writes `BENCH_catalog.json`.
//!
//! ```text
//! cargo run --release -p cfd-bench --bin catalog_exp \
//!     [--base N] [--batch N] [--batches N] [--runs N] [--shards N]
//!     [--rates 0.005,0.02] [--verify-each] [--out PATH]
//!     [--views N] [--wide-orders N]
//!     [--assert-skip-rate F] [--assert-shared-tries]
//! ```
//!
//! Both paths see identical batches (including deletes on both join
//! sides); every level of the maintained stack is verified against the
//! fresh bottom-up rebuild at the end of every run, and after every
//! batch with `--verify-each` (the CI smoke mode).
//!
//! The run closes with the **wide-catalog** scenario (ISSUE 10):
//! `--views` sibling region-selection views over one orders ⋈
//! customers join, batches confined to two hot regions, replayed under
//! the delta-aware refresh scheduler. It records the per-batch time,
//! refreshed/skipped counts and shared-trie occupancy into the same
//! JSON (`"wide"`). The scenario sizes its base with `--wide-orders`
//! (default 20k), independent of `--base`: it measures how per-batch
//! cost scales with the *number of sibling views*, and past ~20k rows
//! the shard-level core apply starts to dominate the timing.
//! `--assert-skip-rate F` fails the process if the scheduler pruned
//! less than `F` of the refresh decisions, and `--assert-shared-tries`
//! if no trie is shared between views — the CI regression gates.
//!
//! The refresh-everything walk the scheduler replaced (no pruning,
//! private per-view atom states) is no longer in the tree. The
//! committed `BENCH_catalog.json` keeps its last measurement
//! (`unpruned_s_per_batch`, `speedup` under `"wide"`); rerunning this
//! binary writes the scheduler's side only.

use cfd_bench::catalog::{compare_catalog, wide_catalog_scenario};
use std::fmt::Write as _;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let num =
        |name: &str, default: usize| flag(name).and_then(|v| v.parse().ok()).unwrap_or(default);
    let base = num("--base", 100_000);
    let batch = num("--batch", 1_000);
    let batches = num("--batches", 10);
    let runs = num("--runs", 3);
    let shards = num("--shards", 2);
    let rates: Vec<f64> = flag("--rates")
        .unwrap_or_else(|| "0.005,0.02".into())
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect();
    let verify_each = args.iter().any(|a| a == "--verify-each");
    let out_path = flag("--out").unwrap_or_else(|| "BENCH_catalog.json".into());
    let wide_views = num("--views", 32);
    let wide_orders = num("--wide-orders", 20_000);
    let assert_skip_rate: Option<f64> = flag("--assert-skip-rate").and_then(|v| v.parse().ok());
    let assert_shared = args.iter().any(|a| a == "--assert-shared-tries");

    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut json = format!(
        "{{\n  \"experiment\": \"stacked_catalog_incremental\",\n  \"host_cores\": {threads},\n  \
         \"batch_size\": {batch},\n  \"batches\": {batches},\n  \"shards\": {shards},\n  \
         \"points\": [\n"
    );
    for (ri, &rate) in rates.iter().enumerate() {
        println!(
            "# topological stacked-view maintenance vs full bottom-up rebuild \
             ({base} orders + {} customers, join → union → selection stack, {batches} batches of \
             {batch} mixed updates, dirty rate {rate}, best of {runs}, {threads} core(s))",
            (base / 5).max(4)
        );
        println!("{:>28} | {:>16} | {:>10}", "engine", "s/batch", "speedup");
        println!("{}", "-".repeat(62));
        let p = compare_catalog(base, batch, batches, runs, rate, shards, verify_each);
        println!(
            "{:>28} | {:>16.6} | {:>10}",
            "bottom-up stack rebuild",
            p.reeval_per_batch.as_secs_f64(),
            "1.00x"
        );
        println!(
            "{:>28} | {:>16.6} | {:>9.1}x",
            "catalog topological deltas",
            p.delta_per_batch.as_secs_f64(),
            p.speedup()
        );
        println!(
            "final rows per level (oc, hot, gold): {:?} (verified against bottom-up rebuild)\n",
            p.final_rows
        );
        let _ = writeln!(
            json,
            "    {{\"dirty_rate\": {rate}, \"orders\": {}, \"customers\": {}, \
             \"delta_s_per_batch\": {:.6}, \"reeval_s_per_batch\": {:.6}, \
             \"speedup\": {:.2}, \"final_rows\": {:?}}}{}",
            p.orders,
            p.customers,
            p.delta_per_batch.as_secs_f64(),
            p.reeval_per_batch.as_secs_f64(),
            p.speedup(),
            p.final_rows,
            if ri + 1 < rates.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");

    // The wide catalog: many siblings, few of them movable per commit.
    let w = wide_catalog_scenario(
        wide_views,
        wide_orders,
        batch,
        batches,
        runs,
        shards,
        verify_each,
    );
    println!(
        "# wide catalog: {} region views over orders ⋈ customers ({} orders + {} customers), \
         batches confined to 2 hot regions ({batches} batches of {batch}, best of {runs})",
        w.views, w.orders, w.customers
    );
    println!("{:>28} | {:>16}", "scheduler", "s/batch");
    println!("{}", "-".repeat(49));
    println!(
        "{:>28} | {:>16.6}",
        "delta-aware pruning",
        w.pruned_per_batch.as_secs_f64()
    );
    println!(
        "refreshed {} / skipped {} ({:.1}% pruned); tries: {} entries serving {} references \
         ({} shared, {} rows); verified against eval_stacked\n",
        w.refreshed,
        w.skipped,
        w.skip_rate() * 100.0,
        w.trie_entries,
        w.trie_refs,
        w.shared_tries(),
        w.trie_rows
    );
    let _ = writeln!(
        json,
        "  \"wide\": {{\"views\": {}, \"orders\": {}, \"customers\": {}, \
         \"pruned_s_per_batch\": {:.6}, \
         \"refreshed\": {}, \"skipped\": {}, \"skip_rate\": {:.4}, \
         \"trie_entries\": {}, \"trie_refs\": {}, \"tries_shared\": {}, \"trie_rows\": {}}}",
        w.views,
        w.orders,
        w.customers,
        w.pruned_per_batch.as_secs_f64(),
        w.refreshed,
        w.skipped,
        w.skip_rate(),
        w.trie_entries,
        w.trie_refs,
        w.shared_tries(),
        w.trie_rows
    );
    json.push_str("}\n");
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("wrote {out_path}"),
        Err(e) => eprintln!("could not write {out_path}: {e}"),
    }
    if let Some(floor) = assert_skip_rate {
        assert!(
            w.skip_rate() >= floor,
            "wide-catalog skip rate {:.3} fell below the {floor} floor",
            w.skip_rate()
        );
    }
    if assert_shared {
        assert!(
            w.shared_tries() > 0,
            "no shared tries: every view kept a private copy of the customers atom"
        );
    }
}
