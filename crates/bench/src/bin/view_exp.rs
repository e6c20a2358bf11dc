//! The live materialized-view experiment: per-batch cost of the
//! multistore's incremental view maintenance + view-side detection
//! (`cfd_clean::MaterializedView` behind `cfd_clean::MultiStore`)
//! against full `SpcQuery` re-evaluation (`cfd_relalg::eval::eval_spc`,
//! itself the factorized fast path) + `detect_all` rescan, at the §1
//! maintained-store dirtiness (0.5%) and the batch-cleaning rate (2%).
//! Prints a table and writes `BENCH_view.json`.
//!
//! ```text
//! cargo run --release -p cfd-bench --bin view_exp \
//!     [--base N] [--batch N] [--batches N] [--runs N] [--shards N]
//!     [--rates 0.005,0.02] [--verify-each] [--out PATH]
//! ```
//!
//! Both paths see identical batches (including deletes on both join
//! sides); the maintained view and its violation state are verified
//! against the fresh evaluation at the end of every run, and after
//! every batch with `--verify-each` (the CI smoke mode).

use cfd_bench::view::compare_view;
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
    let out_path = flag("--out").unwrap_or_else(|| "BENCH_view.json".into());

    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut json = format!(
        "{{\n  \"experiment\": \"matview_incremental\",\n  \"host_cores\": {threads},\n  \
         \"batch_size\": {batch},\n  \"batches\": {batches},\n  \"shards\": {shards},\n  \
         \"points\": [\n"
    );
    for (ri, &rate) in rates.iter().enumerate() {
        println!(
            "# incremental view maintenance + view-side detection vs full re-evaluation + rescan \
             ({base} orders + {} customers, 2-atom join view, 1 view FD, {batches} batches of \
             {batch} mixed updates, dirty rate {rate}, best of {runs}, {threads} core(s))",
            (base / 5).max(4)
        );
        println!("{:>26} | {:>16} | {:>10}", "engine", "s/batch", "speedup");
        println!("{}", "-".repeat(60));
        let p = compare_view(base, batch, batches, runs, rate, shards, verify_each);
        println!(
            "{:>26} | {:>16.6} | {:>10}",
            "re-eval + detect_all",
            p.reeval_per_batch.as_secs_f64(),
            "1.00x"
        );
        println!(
            "{:>26} | {:>16.6} | {:>9.1}x",
            "multistore MaterializedView",
            p.delta_per_batch.as_secs_f64(),
            p.speedup()
        );
        println!(
            "final view rows: {} — view violations: {} (verified against fresh evaluation)\n",
            p.final_view_rows, p.final_violations
        );
        let _ = writeln!(
            json,
            "    {{\"dirty_rate\": {rate}, \"orders\": {}, \"customers\": {}, \
             \"delta_s_per_batch\": {:.6}, \"reeval_s_per_batch\": {:.6}, \
             \"speedup\": {:.2}, \"final_view_rows\": {}, \"final_violations\": {}}}{}",
            p.orders,
            p.customers,
            p.delta_per_batch.as_secs_f64(),
            p.reeval_per_batch.as_secs_f64(),
            p.speedup(),
            p.final_view_rows,
            p.final_violations,
            if ri + 1 < rates.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("wrote {out_path}"),
        Err(e) => eprintln!("could not write {out_path}: {e}"),
    }
}
