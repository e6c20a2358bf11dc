//! The delta-join planner experiment: per-batch cost and per-row probe
//! work of maintaining a skewed 3-atom path view with the width-bounded
//! factorized engine, at a sweep of hot-key skews. Prints a table and
//! writes `BENCH_planfix.json`.
//!
//! ```text
//! cargo run --release -p cfd-bench --bin planfix_exp \
//!     [--base N] [--batch N] [--batches N] [--runs N]
//!     [--skews 256,1024,4096] [--budget-per-row N]
//!     [--verify-each] [--out PATH]
//! ```
//!
//! End states are always verified against `eval_spc_nested` on a
//! same-epoch snapshot, and every batch is with `--verify-each` (the CI
//! smoke mode, which also asserts the per-driver-row probe-work budget
//! when `--budget-per-row` is given).
//!
//! The greedy binary join plan this engine replaced is no longer in
//! the tree. The committed `BENCH_planfix.json` keeps its last
//! measurements (`greedy_s_per_batch`, `greedy_work_per_row`,
//! `speedup`); rerunning this binary writes the factorized side only.

use cfd_bench::planfix::compare_planfix;
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
    let base = num("--base", 150);
    let batch = num("--batch", 200);
    let batches = num("--batches", 5);
    let runs = num("--runs", 3);
    let skews: Vec<usize> = flag("--skews")
        .unwrap_or_else(|| "256,1024,4096".into())
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect();
    let budget_per_row: Option<u64> = flag("--budget-per-row").and_then(|v| v.parse().ok());
    let verify_each = args.iter().any(|a| a == "--verify-each");
    let out_path = flag("--out").unwrap_or_else(|| "BENCH_planfix.json".into());

    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "# width-bounded factorized plan, 3-atom path view r0 ⋈ r1 ⋈ r2 ({base}-row driver \
         base, {batches} batches of {batch} hot-key updates, best of {runs}, {threads} core(s))"
    );
    println!(
        "{:>6} | {:>14} | {:>12} | {:>9}",
        "skew", "fact s/batch", "fact w/row", "verified"
    );
    println!("{}", "-".repeat(50));
    let mut json = format!(
        "{{\n  \"experiment\": \"planfix_factorized\",\n  \"host_cores\": {threads},\n  \
         \"base\": {base},\n  \"batch_size\": {batch},\n  \"batches\": {batches},\n  \
         \"points\": [\n"
    );
    for (si, &skew) in skews.iter().enumerate() {
        let p = compare_planfix(
            base,
            batch,
            batches,
            runs,
            skew,
            verify_each,
            budget_per_row,
        );
        println!(
            "{:>6} | {:>14.6} | {:>12.1} | {:>9}",
            skew,
            p.factorized_per_batch.as_secs_f64(),
            p.factorized_work_per_row,
            p.verified_batches
        );
        let _ = writeln!(
            json,
            "    {{\"skew\": {skew}, \"factorized_s_per_batch\": {:.6}, \
             \"factorized_work_per_row\": {:.1}, \
             \"final_view_rows\": {}, \"verified_batches\": {}}}{}",
            p.factorized_per_batch.as_secs_f64(),
            p.factorized_work_per_row,
            p.final_view_rows,
            p.verified_batches,
            if si + 1 < skews.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("wrote {out_path}"),
        Err(e) => eprintln!("could not write {out_path}: {e}"),
    }
}
