//! `cfdprop` — CFD propagation analysis from the command line.
//!
//! ```text
//! cfdprop check <file.cfd> [--setting infinite|general]
//!     Decide, for every `vcfd` in the file, whether it is propagated from
//!     the file's source CFDs via its view; print a witness summary when
//!     not.
//!
//! cfdprop cover <file.cfd> [--max-size N] [--view NAME]
//!     Compute a minimal propagation cover for each (SPC) view.
//!
//! cfdprop empty <file.cfd>
//!     Decide the emptiness problem for every view.
//!
//! cfdprop consistency <file.cfd>
//!     Check each relation's source CFDs for consistency.
//!
//! cfdprop gen [--relations N] [--cfds M] [--y N] [--f N] [--ec N] [--seed S]
//!     Emit a random workload document (paper §5 generators).
//!
//! cfdprop clean <file.cfd> [--repair] [--detector columnar|rowwise|delta]
//!     Detect violations of the file's source CFDs on its `row` data;
//!     with --repair, print a greedy minimal-change repair. Detection
//!     runs on the dictionary-encoded columnar engine unless
//!     `--detector rowwise` selects the row-wise reference or
//!     `--detector delta` routes through the incremental delta engine.
//!
//! cfdprop apply-updates <file.cfd> <file.upd>
//!     Replay an update script (batches of `insert R(...)` / `delete
//!     R(...)` statements separated by `commit;`) against the document's
//!     `row` data, reporting the violations each batch adds and retires
//!     via the incremental delta engine.
//!
//! cfdprop serve-updates <file.cfd> <file.upd> [--shards N] [--cfd I | --attr NAME]
//!     Replay an update script through the sharded live store
//!     (`cfd_clean::ShardedStore`) and stream every committed violation
//!     diff to stdout as JSON lines, in commit order, via the store's
//!     subscription bus — optionally filtered to one CFD index or to
//!     CFDs whose right-hand side is a named attribute.
//!
//! cfdprop serve-updates <file.cfd> <file.upd> --multi [--shards N] [--cind I | --rel NAME]
//!     The cross-relation mode: one `cfd_clean::MultiStore` holds every
//!     relation of the document behind one dictionary pool and one
//!     epoch clock, enforcing the document's CFDs per relation and its
//!     `cind` statements incrementally between relations. Each commit
//!     streams both violation classes; `--cind I` filters to one CIND,
//!     `--rel NAME` to one relation's CFD events plus every CIND
//!     touching it.
//!
//! cfdprop serve-updates <file.cfd> <file.upd> --view NAME [--shards N]
//!                       [--view-file FILE]
//!     The live-view mode (implies --multi): materialize the document's
//!     views on the multistore through the view catalog — every
//!     `stacked` statement (SPCU unions over relations *or other
//!     stacked views*, refreshed in topological order per commit) plus,
//!     when `--view` names a plain `view`, that one — maintain them
//!     incrementally with the delta-join rule while the script replays,
//!     and stream the named view's events — row deltas, the view's
//!     `vcfd` violation diffs, and its propagated view-to-source CIND
//!     diffs — as JSON lines, one per commit that moved the view.
//!     `--view-file FILE` extends the document with further statements
//!     (typically `stacked` definitions over its schemas and views)
//!     before serving.
//!
//! cfdprop serve-updates <file.cfd> <file.upd> --data-dir DIR [--fsync POLICY]
//!                       [--checkpoint-every N] [--loop N]
//!     Durable serving (implies --multi): every commit is appended to
//!     an epoch-keyed write-ahead log in DIR and the store checkpoints
//!     periodically, so a crash at any byte loses nothing past the
//!     fsync policy (`every-commit` | `every-N` | `os`). On start the
//!     directory is recovered — checkpoint plus log tail — before the
//!     script replays; `--loop N` replays the script N times. A closed
//!     stdout ends streaming gracefully (log synced, exit 0), never a
//!     panic mid-frame.
//!
//! cfdprop serve-updates <file.cfd> <file.upd> --data-dir DIR --listen SOCK
//!                       [--linger-ms N] [--pace-ms N]
//!     Durable serving plus log shipping: a `cfd_clean::LogShipper`
//!     serves the replication stream (checkpoint + WAL frames, cursor
//!     catch-up, heartbeats, shed-on-lag gaps) to any number of
//!     followers over the unix socket SOCK. `--linger-ms` keeps the
//!     leader listening that long after the script finishes before it
//!     announces the clean end of stream; `--pace-ms` sleeps between
//!     commits so crash harnesses overlap a live stream.
//!
//! cfdprop follow <file.cfd> --connect SOCK [--state-dir DIR] [--shards N]
//!                [--view NAME] [--verify] [--max-retries N] [--seed S]
//!     Run a read replica: connect to a leader's --listen socket, catch
//!     up (snapshot or tail replay, negotiated from the saved cursor),
//!     apply frames until the leader ends the stream, and print a
//!     summary. Faults are answered with jittered exponential backoff
//!     and cursor re-negotiation. `--state-dir` persists the replica
//!     across runs (kill -9 safe); `--verify` cross-checks the final
//!     replica state against a fresh rescan, exactly like `recover`.
//!
//! cfdprop recover <file.cfd> --data-dir DIR [--verify] [--shards N] [--view NAME]
//!     Recover a durable data directory and print a summary. --verify
//!     cross-checks every recovered violation set (CFD, CIND, and view
//!     state) against a fresh rescan of the recovered data, exiting
//!     nonzero on any divergence.
//!
//! cfdprop sql <file.cfd>
//!     Emit the SQL detection queries for every source CFD.
//!
//! cfdprop cind <file.cfd>
//!     Validate `cind` statements against `row` data (when present) and
//!     print the CINDs propagated to each SPC view.
//! ```

use cfd_propagation::cover::{
    prop_cfd_spc, prop_cfd_spc_general, prop_cfd_spcu_sound, CoverOptions, GeneralCoverOptions,
};
use cfd_propagation::emptiness::non_emptiness_witness;
use cfd_propagation::{propagates, Setting, Verdict};
use cfd_relalg::domain::DomainKind;
use cfd_text::Document;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn load(path: &str) -> Result<Document, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Document::parse(&src).map_err(|e| format!("{path}:{e}"))
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("check") => check(args),
        Some("cover") => cover(args),
        Some("empty") => empty(args),
        Some("consistency") => consistency(args),
        Some("gen") => gen(args),
        Some("clean") => clean(args),
        Some("apply-updates") => apply_updates(args),
        Some("serve-updates") => serve_updates(args),
        Some("follow") => follow(args),
        Some("recover") => recover(args),
        Some("sql") => sql(args),
        Some("cind") => cind(args),
        Some("--help") | Some("-h") | None => {
            print!("{}", HELP);
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand `{other}` (try --help)")),
    }
}

const HELP: &str = "\
cfdprop — propagating functional dependencies with conditions (VLDB 2008)

USAGE:
    cfdprop check <file.cfd> [--setting infinite|general]
    cfdprop cover <file.cfd> [--view NAME] [--max-size N] [--general]
    cfdprop empty <file.cfd>
    cfdprop consistency <file.cfd>
    cfdprop gen [--relations N] [--cfds M] [--y N] [--f N] [--ec N] [--seed S]
    cfdprop clean <file.cfd> [--repair] [--detector columnar|rowwise|delta]
    cfdprop apply-updates <file.cfd> <file.upd>
    cfdprop serve-updates <file.cfd> <file.upd> [--shards N] [--cfd I | --attr NAME]
    cfdprop serve-updates <file.cfd> <file.upd> --multi [--shards N] [--cind I | --rel NAME]
    cfdprop serve-updates <file.cfd> <file.upd> --view NAME [--shards N] [--view-file FILE]
    cfdprop serve-updates <file.cfd> <file.upd> --data-dir DIR [--fsync POLICY]
                          [--checkpoint-every N] [--loop N]
    cfdprop serve-updates <file.cfd> <file.upd> --data-dir DIR --listen SOCK
                          [--linger-ms MS] [--pace-ms MS]
    cfdprop follow <file.cfd> --connect SOCK [--state-dir DIR] [--shards N] [--view NAME]
                   [--verify] [--max-retries N] [--seed S]
    cfdprop recover <file.cfd> --data-dir DIR [--verify] [--shards N] [--view NAME]
    cfdprop sql <file.cfd>
    cfdprop cind <file.cfd>
";

fn setting_from(args: &[String], doc: &Document) -> Result<Setting, String> {
    match flag_value(args, "--setting").as_deref() {
        Some("infinite") => Ok(Setting::InfiniteDomain),
        Some("general") => Ok(Setting::General),
        Some(other) => Err(format!("unknown setting `{other}`")),
        None => Ok(Setting::for_catalog(&doc.catalog)),
    }
}

fn check(args: &[String]) -> Result<(), String> {
    let path = args.get(1).ok_or("usage: cfdprop check <file.cfd>")?;
    let doc = load(path)?;
    let setting = setting_from(args, &doc)?;
    let sigma = doc.sigma();
    if doc.view_cfds.is_empty() {
        return Err("no `vcfd` statements in the document".into());
    }
    let mut failures = 0;
    for vc in &doc.view_cfds {
        let view = doc
            .view(&vc.view)
            .ok_or_else(|| format!("unknown view `{}`", vc.view))?;
        let names = view.query.schema().names();
        let label = vc.name.clone().unwrap_or_else(|| "<unnamed>".into());
        let verdict = propagates(&doc.catalog, &sigma, &view.query, &vc.cfd, setting)
            .map_err(|e| e.to_string())?;
        match verdict {
            Verdict::Propagated => {
                println!(
                    "PROPAGATED      {label}: {} on {}",
                    body(&vc.cfd, &names),
                    vc.view
                );
            }
            Verdict::NotPropagated(w) => {
                failures += 1;
                println!(
                    "NOT PROPAGATED  {label}: {} on {}",
                    body(&vc.cfd, &names),
                    vc.view
                );
                println!(
                    "                counterexample source database with {} tuple(s):",
                    w.database.total_tuples()
                );
                for (rel, schema) in doc.catalog.relations() {
                    let r = w.database.relation(rel);
                    if !r.is_empty() {
                        let cols: Vec<String> =
                            schema.attributes.iter().map(|a| a.name.clone()).collect();
                        print!(
                            "{}",
                            cfd_relalg::instance::render_table(&schema.name, &cols, r)
                        );
                    }
                }
            }
        }
    }
    if failures > 0 {
        Err(format!("{failures} view CFD(s) not propagated"))
    } else {
        Ok(())
    }
}

fn body(cfd: &cfd_model::Cfd, names: &[String]) -> String {
    cfd_text::pretty::render_cfd_body(cfd, names)
}

fn cover(args: &[String]) -> Result<(), String> {
    let path = args.get(1).ok_or("usage: cfdprop cover <file.cfd>")?;
    let doc = load(path)?;
    let only = flag_value(args, "--view");
    let mut opts = CoverOptions::default();
    if let Some(n) = flag_value(args, "--max-size") {
        opts.rbr.max_size = Some(n.parse().map_err(|_| "--max-size expects a number")?);
    }
    let general = args.iter().any(|a| a == "--general");
    let sigma = doc.sigma();
    for view in &doc.views {
        if let Some(name) = &only {
            if &view.name != name {
                continue;
            }
        }
        let names = view.query.schema().names();
        if view.query.branches.len() != 1 {
            // Union view: the sound SPCU cover (§7 extension).
            let result = prop_cfd_spcu_sound(&doc.catalog, &sigma, &view.query, &opts)
                .map_err(|e| e.to_string())?;
            println!(
                "view {}: {} propagated CFD(s) [union: sound cover, possibly incomplete]{}",
                view.name,
                result.cfds.len(),
                if result.always_empty {
                    " [view is empty on every model of Σ]"
                } else {
                    ""
                },
            );
            for c in &result.cfds {
                println!("  {}{}", view.name, body(c, &names));
            }
            continue;
        }
        if general {
            let gopts = GeneralCoverOptions {
                cover: opts.clone(),
                ..Default::default()
            };
            let result =
                prop_cfd_spc_general(&doc.catalog, &sigma, &view.query.branches[0], &gopts)
                    .map_err(|e| e.to_string())?;
            println!(
                "view {}: {} propagated CFD(s) [general setting: sound cover]{}{}{}",
                view.name,
                result.cfds.len(),
                if result.always_empty {
                    " [view is empty on every model of Σ]"
                } else {
                    ""
                },
                if result.enumeration_truncated {
                    " [candidate enumeration truncated]"
                } else {
                    ""
                },
                if result.finite_domain_gains > 0 {
                    format!(" [{} finite-domain gain(s)]", result.finite_domain_gains)
                } else {
                    String::new()
                },
            );
            for c in &result.cfds {
                println!("  {}{}", view.name, body(c, &names));
            }
            continue;
        }
        let result = prop_cfd_spc(&doc.catalog, &sigma, &view.query.branches[0], &opts)
            .map_err(|e| e.to_string())?;
        println!(
            "view {}: {} propagated CFD(s){}{}",
            view.name,
            result.cfds.len(),
            if result.always_empty {
                " [view is empty on every model of Σ]"
            } else {
                ""
            },
            if result.complete {
                ""
            } else {
                " [truncated: sound subset]"
            },
        );
        for c in &result.cfds {
            println!("  {}{}", view.name, body(c, &names));
        }
    }
    Ok(())
}

/// Which detection engine `clean` runs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Detector {
    Columnar,
    Rowwise,
    Delta,
}

fn detector_from(args: &[String]) -> Result<Detector, String> {
    if !args.iter().any(|a| a == "--detector") {
        return Ok(Detector::Columnar);
    }
    match flag_value(args, "--detector").as_deref() {
        Some("columnar") => Ok(Detector::Columnar),
        Some("rowwise") => Ok(Detector::Rowwise),
        Some("delta") => Ok(Detector::Delta),
        Some(other) => Err(format!(
            "unknown detector `{other}` (columnar|rowwise|delta)"
        )),
        None => Err("--detector requires a value (columnar|rowwise|delta)".into()),
    }
}

/// `cfdprop clean <file.cfd> [--repair] [--detector columnar|rowwise|delta]`
/// — violation detection (and optional repair) of the document's source
/// CFDs on its `row` data.
///
/// Detection defaults to the dictionary-encoded columnar engine (`cargo
/// run -p cfd-bench --bin columnar_exp` for the measured speedup);
/// `--detector rowwise` forces the seed's row-wise hash grouping, and
/// `--detector delta` routes through the incremental delta engine
/// (`cfd_clean::DeltaDetector`) — all three report identical violations,
/// which makes the flag a cross-check on real documents.
fn clean(args: &[String]) -> Result<(), String> {
    let path = args
        .get(1)
        .ok_or("usage: cfdprop clean <file.cfd> [--repair] [--detector columnar|rowwise|delta]")?;
    let doc = load(path)?;
    let db = doc.database().map_err(|e| e.to_string())?;
    if db.total_tuples() == 0 {
        return Err("the document has no `row` data to clean".into());
    }
    let do_repair = args.iter().any(|a| a == "--repair");
    let detector = detector_from(args)?;
    let mut total = 0usize;
    // One dictionary across the document's relations: repairs reuse
    // interned codes instead of rebuilding a pool per relation.
    let mut repair_pool = cfd_relalg::ValuePool::new();
    for (rel, schema) in doc.catalog.relations() {
        let local: Vec<cfd_model::Cfd> = doc
            .sigma()
            .iter()
            .filter(|s| s.rel == rel)
            .map(|s| s.cfd.clone())
            .collect();
        if local.is_empty() {
            continue;
        }
        let names: Vec<String> = schema.attributes.iter().map(|a| a.name.clone()).collect();
        let violations = match detector {
            Detector::Rowwise => cfd_clean::detect_all_rowwise(db.relation(rel), &local),
            Detector::Columnar => cfd_clean::detect_all(db.relation(rel), &local),
            Detector::Delta => {
                cfd_clean::DeltaDetector::new(local.clone(), db.relation(rel)).current_violations()
            }
        };
        for v in &violations {
            println!(
                "{}: violates {}{}",
                schema.name,
                body(&local[v.cfd_index], &names),
                format_args!(" — {}", v.describe(&local[v.cfd_index], Some(&names)))
            );
            for t in &v.tuples {
                let cells: Vec<String> = t.iter().map(|x| x.to_string()).collect();
                println!("    ({})", cells.join(", "));
            }
        }
        total += violations.len();
        if do_repair && !violations.is_empty() {
            let outcome =
                cfd_clean::repair_with_pool(db.relation(rel), &local, 8, &mut repair_pool);
            println!(
                "{}: repair — {} cell change(s) in {} round(s), clean = {}",
                schema.name, outcome.cell_changes, outcome.rounds, outcome.clean
            );
            print!(
                "{}",
                cfd_relalg::instance::render_table(&schema.name, &names, &outcome.relation)
            );
        }
    }
    if total == 0 {
        println!("clean: no violations");
        Ok(())
    } else if do_repair {
        Ok(())
    } else {
        Err(format!("{total} violation(s) found"))
    }
}

/// `cfdprop apply-updates <file.cfd> <file.upd>` — replay an update
/// script against the document's data through the incremental delta
/// engine, reporting the violations each batch adds and retires.
///
/// The script is batches of `insert R(v, ...);` / `delete R(v, ...);`
/// statements, each batch terminated by `commit;`. Deletes within a batch
/// apply before its inserts; per-batch cost is `O(|Δ|·|Σ|)` expected —
/// the relation is never rescanned.
fn apply_updates(args: &[String]) -> Result<(), String> {
    let path = args
        .get(1)
        .ok_or("usage: cfdprop apply-updates <file.cfd> <file.upd>")?;
    let upd_path = args
        .get(2)
        .ok_or("usage: cfdprop apply-updates <file.cfd> <file.upd>")?;
    let doc = load(path)?;
    let db = doc.database().map_err(|e| e.to_string())?;
    let src = std::fs::read_to_string(upd_path).map_err(|e| format!("{upd_path}: {e}"))?;
    let batches = cfd_text::parser::parse_updates(&src).map_err(|e| format!("{upd_path}:{e}"))?;

    // One delta detector per relation that carries CFDs.
    let mut detectors: Vec<(cfd_relalg::schema::RelId, cfd_clean::DeltaDetector)> = Vec::new();
    for (rel, _) in doc.catalog.relations() {
        let local: Vec<cfd_model::Cfd> = doc
            .sigma()
            .iter()
            .filter(|s| s.rel == rel)
            .map(|s| s.cfd.clone())
            .collect();
        if !local.is_empty() {
            detectors.push((rel, cfd_clean::DeltaDetector::new(local, db.relation(rel))));
        }
    }

    let mut final_total = 0usize;
    for (b, batch) in batches.iter().enumerate() {
        // Split the batch per target relation, validating as we go.
        let mut per_rel: Vec<cfd_clean::UpdateBatch> = detectors
            .iter()
            .map(|_| cfd_clean::UpdateBatch::default())
            .collect();
        for stmt in batch {
            let rel = doc
                .catalog
                .rel_id(&stmt.relation)
                .ok_or_else(|| format!("update for unknown relation `{}`", stmt.relation))?;
            let schema = doc.catalog.schema(rel);
            if stmt.tuple.len() != schema.arity() {
                return Err(format!(
                    "update tuple for `{}` has arity {}, schema has {}",
                    stmt.relation,
                    stmt.tuple.len(),
                    schema.arity()
                ));
            }
            let Some(slot) = detectors.iter().position(|(r, _)| *r == rel) else {
                continue; // no CFDs on this relation: nothing to check
            };
            match stmt.op {
                cfd_text::UpdateOp::Insert => per_rel[slot].inserts.push(stmt.tuple.clone()),
                cfd_text::UpdateOp::Delete => per_rel[slot].deletes.push(stmt.tuple.clone()),
            }
        }
        let mut added = 0usize;
        let mut removed = 0usize;
        for ((rel, det), upd) in detectors.iter_mut().zip(per_rel) {
            if upd.is_empty() {
                continue;
            }
            let schema = doc.catalog.schema(*rel);
            let names: Vec<String> = schema.attributes.iter().map(|a| a.name.clone()).collect();
            let diff = det.apply(&upd);
            let sigma = det.sigma();
            for v in &diff.added {
                println!(
                    "batch {}: + {}: {}",
                    b + 1,
                    schema.name,
                    v.describe(&sigma[v.cfd_index], Some(&names))
                );
            }
            for v in &diff.removed {
                println!(
                    "batch {}: - {}: {}",
                    b + 1,
                    schema.name,
                    v.describe(&sigma[v.cfd_index], Some(&names))
                );
            }
            added += diff.added.len();
            removed += diff.removed.len();
        }
        println!(
            "batch {}: {} statement(s), {} violation(s) added, {} retired",
            b + 1,
            batch.len(),
            added,
            removed
        );
    }
    for (rel, det) in &detectors {
        final_total += det.current_violations().len();
        let schema = doc.catalog.schema(*rel);
        println!(
            "final {}: {} tuple(s), {} violation(s)",
            schema.name,
            det.live_len(),
            det.current_violations().len()
        );
    }
    if final_total > 0 {
        Err(format!("{final_total} violation(s) after replay"))
    } else {
        Ok(())
    }
}

/// `cfdprop serve-updates <file.cfd> <file.upd> [--shards N]
/// [--cfd I | --attr NAME]` — the serving mode: replay an update script
/// through the sharded live store and stream every committed
/// [`cfd_clean::ViolationDiff`] to stdout as JSON lines, in commit
/// order.
///
/// One [`cfd_clean::ShardedStore`] is built per relation that carries
/// CFDs; a writer thread replays that relation's batches while the main
/// thread drains the store's subscription bus — the shape a network
/// serving endpoint would use, demonstrated over stdout. `--cfd I`
/// filters to the `I`-th CFD of each relation (the order `clean`
/// reports); `--attr NAME` filters to CFDs whose right-hand side is the
/// named attribute (relations without that attribute stream nothing).
fn serve_updates(args: &[String]) -> Result<(), String> {
    const USAGE: &str = "usage: cfdprop serve-updates <file.cfd> <file.upd> \
         [--multi] [--shards N] [--view-file FILE] \
         [--cfd I | --attr NAME | --cind I | --rel NAME | --view NAME]";
    let path = args.get(1).ok_or(USAGE)?;
    let upd_path = args.get(2).ok_or(USAGE)?;
    let doc = load(path)?;
    let db = doc.database().map_err(|e| e.to_string())?;
    let src = std::fs::read_to_string(upd_path).map_err(|e| format!("{upd_path}: {e}"))?;
    let batches = cfd_text::parser::parse_updates(&src).map_err(|e| format!("{upd_path}:{e}"))?;
    let shards: usize = match flag_value(args, "--shards") {
        Some(v) => v.parse().map_err(|_| "--shards expects a number")?,
        None => 4,
    };
    let cfd_filter: Option<usize> = match flag_value(args, "--cfd") {
        Some(v) => Some(v.parse().map_err(|_| "--cfd expects a CFD index")?),
        None => None,
    };
    let attr_filter = flag_value(args, "--attr");
    if cfd_filter.is_some() && attr_filter.is_some() {
        return Err("--cfd and --attr are mutually exclusive".into());
    }

    // Validate the whole script up front — both modes share the rules
    // (every statement names a known relation and matches its arity),
    // including statements for relations the stores below never serve.
    for stmt in batches.iter().flatten() {
        let target = doc
            .catalog
            .rel_id(&stmt.relation)
            .ok_or_else(|| format!("update for unknown relation `{}`", stmt.relation))?;
        let arity = doc.catalog.schema(target).arity();
        if stmt.tuple.len() != arity {
            return Err(format!(
                "update tuple for `{}` has arity {}, schema has {}",
                stmt.relation,
                stmt.tuple.len(),
                arity
            ));
        }
    }

    // `--view`/`--view-file` materialize document views on the
    // multistore and `--data-dir` makes the multistore durable, so all
    // three imply the cross-relation mode.
    if args.iter().any(|a| a == "--multi")
        || flag_value(args, "--view").is_some()
        || flag_value(args, "--view-file").is_some()
        || flag_value(args, "--data-dir").is_some()
    {
        if cfd_filter.is_some() || attr_filter.is_some() {
            return Err(
                "--cfd/--attr select per-relation streams; with --multi use --cind, --rel or --view"
                    .into(),
            );
        }
        return serve_updates_multi(args, &doc, &db, &batches, shards);
    }
    if flag_value(args, "--cind").is_some() || flag_value(args, "--rel").is_some() {
        return Err("--cind/--rel select multistore streams; they require --multi".into());
    }

    let mut final_total = 0usize;
    for (rel, schema) in doc.catalog.relations() {
        let local: Vec<cfd_model::Cfd> = doc
            .sigma()
            .iter()
            .filter(|s| s.rel == rel)
            .map(|s| s.cfd.clone())
            .collect();
        if local.is_empty() {
            continue;
        }
        if let Some(i) = cfd_filter {
            if i >= local.len() {
                return Err(format!(
                    "--cfd {i} out of range: `{}` has {} CFD(s)",
                    schema.name,
                    local.len()
                ));
            }
        }
        let names: Vec<String> = schema.attributes.iter().map(|a| a.name.clone()).collect();
        let filter = match (&cfd_filter, &attr_filter) {
            (Some(i), _) => cfd_clean::DiffFilter::Cfd(*i),
            (_, Some(name)) => match names.iter().position(|n| n == name) {
                Some(a) => cfd_clean::DiffFilter::RhsAttr(a),
                None => continue, // this relation has no such attribute
            },
            _ => cfd_clean::DiffFilter::All,
        };

        // Split the script into this relation's batches (statements were
        // validated above).
        let mut per_batch: Vec<cfd_clean::UpdateBatch> = Vec::with_capacity(batches.len());
        for batch in &batches {
            let mut upd = cfd_clean::UpdateBatch::default();
            for stmt in batch {
                if doc.catalog.rel_id(&stmt.relation) != Some(rel) {
                    continue;
                }
                match stmt.op {
                    cfd_text::UpdateOp::Insert => upd.inserts.push(stmt.tuple.clone()),
                    cfd_text::UpdateOp::Delete => upd.deletes.push(stmt.tuple.clone()),
                }
            }
            per_batch.push(upd);
        }

        // Writer thread commits; this thread is the subscriber draining
        // the bounded bus in commit order. The queue is sized for the
        // whole script: the bus sheds (drops) a subscriber whose queue
        // is full at publish time rather than blocking the writer, and
        // a serving stream must never lose commits to its own burst.
        let mut store = cfd_clean::ShardedStore::new(local, db.relation(rel), shards);
        let rx = store.subscribe(filter, per_batch.len() + 1);
        let writer = std::thread::spawn(move || {
            for upd in &per_batch {
                store.apply(upd);
            }
            // Dropping the store closes the bus, ending the drain loop
            // below once the last commit is delivered.
            (
                store.epoch(),
                store.live_len(),
                store.current_violations().len(),
            )
        });
        let mut out = std::io::stdout().lock();
        use std::io::Write as _;
        for commit in rx {
            writeln!(out, "{}", commit_json(&schema.name, &commit)).map_err(|e| e.to_string())?;
        }
        let (epochs, live, remaining) = writer.join().map_err(|_| "writer thread panicked")?;
        writeln!(
            out,
            "{{\"relation\": {}, \"done\": true, \"epochs\": {epochs}, \"live_tuples\": {live}, \"violations\": {remaining}}}",
            json_str(&schema.name),
        )
        .map_err(|e| e.to_string())?;
        final_total += remaining;
    }
    if final_total > 0 {
        Err(format!("{final_total} violation(s) after replay"))
    } else {
        Ok(())
    }
}

/// The resolved multistore inputs: per-relation specs, Σ_CIND, the
/// stacked view specs to register through the view catalog (every
/// `stacked` statement of the document in slot order, plus — when
/// `--view` names a plain view — that view appended as a one-stack
/// union), and the slot index `--view` selects.
type MultiSetup = (
    Vec<cfd_clean::RelationSpec>,
    Vec<cfd_cind::Cind>,
    Vec<cfd_clean::StackedViewSpec>,
    Option<usize>,
);

/// One document view as a catalog spec: its union branches as written,
/// its `vcfd` statements as the view Σ, and the CINDs propagated to it
/// — per-branch source-level propagation intersected across branches
/// (the union satisfies an inclusion iff every branch does); a branch
/// over another view slot propagates nothing.
fn stacked_spec(
    doc: &cfd_text::Document,
    cinds: &[cfd_cind::Cind],
    n_base: usize,
    slot: usize,
    name: &str,
    query: &cfd_relalg::SpcuQuery,
) -> cfd_clean::StackedViewSpec {
    let view_rel = cfd_relalg::schema::RelId(n_base + slot);
    let all_source = query
        .branches
        .iter()
        .all(|b| b.atoms.iter().all(|a| a.0 < n_base));
    let opts = cfd_cind::implication::ImplicationOptions::default();
    let mut propagated = Vec::new();
    if all_source {
        let mut branches = query.branches.iter();
        if let Some(first) = branches.next() {
            propagated = cfd_cind::propagate_cinds(view_rel, first, cinds, &opts);
            for b in branches {
                let bc = cfd_cind::propagate_cinds(view_rel, b, cinds, &opts);
                propagated.retain(|c| bc.contains(c));
            }
        }
    }
    cfd_clean::StackedViewSpec {
        name: name.to_string(),
        branches: query.branches.clone(),
        sigma: doc.view_cfds_for(name),
        cinds: propagated,
        cycle: cfd_clean::CyclePolicy::Reject,
    }
}

/// The multistore inputs shared by `serve-updates --multi`, `recover`,
/// and `follow`: per-relation specs, Σ_CIND, and the view-catalog specs
/// with their propagated CINDs.
fn multi_setup(
    doc: &cfd_text::Document,
    db: &cfd_relalg::Database,
    view_name: Option<&str>,
) -> Result<MultiSetup, String> {
    let specs: Vec<cfd_clean::RelationSpec> = doc
        .catalog
        .relations()
        .map(|(rel, schema)| {
            cfd_clean::RelationSpec::new(
                schema.name.clone(),
                doc.sigma()
                    .iter()
                    .filter(|s| s.rel == rel)
                    .map(|s| s.cfd.clone())
                    .collect(),
                db.relation(rel).clone(),
            )
        })
        .collect();
    let cinds: Vec<cfd_cind::Cind> = doc.cinds.iter().map(|c| c.cind.clone()).collect();
    let n_base = specs.len();
    let mut views: Vec<cfd_clean::StackedViewSpec> = doc
        .stacked
        .iter()
        .enumerate()
        .map(|(k, s)| stacked_spec(doc, &cinds, n_base, k, &s.name, &s.query))
        .collect();
    let target = match view_name {
        Some(name) => {
            if let Some(k) = doc.stacked.iter().position(|s| s.name == name) {
                Some(k)
            } else if let Some(v) = doc.view(name) {
                let slot = views.len();
                views.push(stacked_spec(doc, &cinds, n_base, slot, name, &v.query));
                Some(slot)
            } else {
                return Err(format!("--view names unknown view `{name}`"));
            }
        }
        None => None,
    };
    Ok((specs, cinds, views, target))
}

/// Downgrade catalog specs to the single-branch [`cfd_clean::ViewSpec`]
/// form the durable and replica layers persist. The view catalog itself
/// (stacked DAGs, union views) is in-memory for now: `what` names the
/// flag that asked for durability so the error says what to drop.
fn spc_only_views(
    doc: &cfd_text::Document,
    views: Vec<cfd_clean::StackedViewSpec>,
    what: &str,
) -> Result<Vec<cfd_clean::ViewSpec>, String> {
    if !doc.stacked.is_empty() {
        return Err(format!(
            "{what}: `stacked` views are served in-memory only for now"
        ));
    }
    views
        .into_iter()
        .map(|s| {
            let mut branches = s.branches;
            if branches.len() != 1 {
                return Err(format!(
                    "{what}: union view `{}` is served in-memory only for now",
                    s.name
                ));
            }
            Ok(cfd_clean::ViewSpec {
                name: s.name,
                query: branches.remove(0),
                sigma: s.sigma,
                cinds: s.cinds,
            })
        })
        .collect()
}

/// What the replay writer thread reports when the script is done.
struct ReplaySummary {
    epochs: u64,
    cfd_total: usize,
    cind_total: usize,
    view_total: usize,
    last_checkpoint: Option<u64>,
    views: usize,
    refreshed_total: u64,
    skipped_total: u64,
    tries_total: usize,
    tries_shared: usize,
}

fn summarize(store: &cfd_clean::MultiStore, last_checkpoint: Option<u64>) -> ReplaySummary {
    let cfd_total: usize = (0..store.rel_count())
        .map(|i| store.cfd_violations(cfd_relalg::schema::RelId(i)).len())
        .sum();
    let view_total: usize = (0..store.view_count())
        .map(|i| store.view_cfd_violations(i).len() + store.view_cind_violations(i).len())
        .sum();
    let (refreshed_total, skipped_total) = store.total_refresh_counts();
    let (trie_entries, trie_refs, _) = store.shared_trie_stats();
    ReplaySummary {
        epochs: store.epoch(),
        cfd_total,
        cind_total: store.cind_violations().len(),
        view_total,
        last_checkpoint,
        views: store.view_count(),
        refreshed_total,
        skipped_total,
        tries_total: trie_refs,
        tries_shared: trie_refs - trie_entries,
    }
}

/// `cfdprop serve-updates … --multi` — the cross-relation serving mode:
/// one [`cfd_clean::MultiStore`] holds every relation of the document
/// (shared pool, one epoch clock), enforcing its CFDs per relation and
/// its `cind` statements incrementally across relations. A writer
/// thread replays the script (each batch grouped per target relation,
/// first-appearance order, one commit each) while this thread drains
/// the multistore bus and prints each commit — CFD and CIND diffs — as
/// one JSON line.
///
/// `--data-dir DIR` makes the store durable
/// ([`cfd_clean::DurableMultiStore`]): on start the directory is
/// recovered (checkpoint + log tail) or initialized, a recovery summary
/// is printed as the first JSON line, and every commit is logged under
/// `--fsync every-commit|every-N|os` (default every-commit) with a
/// checkpoint every `--checkpoint-every N` commits. `--loop N` replays
/// the script N times (epochs keep climbing), which gives crash tests a
/// long-lived writer to kill.
///
/// A closed stdout (the reader went away — SIGPIPE territory) is not an
/// error: the drain loop stops, the subscriber detaches, the writer
/// finishes and syncs the log, and the process exits 0.
fn serve_updates_multi(
    args: &[String],
    doc: &cfd_text::Document,
    db: &cfd_relalg::Database,
    batches: &[Vec<cfd_text::parser::UpdateStmt>],
    shards: usize,
) -> Result<(), String> {
    let view_name = flag_value(args, "--view");
    // `--view-file FILE` extends the document with further statements —
    // typically `stacked` definitions over its schemas and views — so a
    // DAG can be served without editing the source document.
    let extended = match flag_value(args, "--view-file") {
        Some(vf) => {
            let src = std::fs::read_to_string(&vf).map_err(|e| format!("{vf}: {e}"))?;
            let mut d = doc.clone();
            d.parse_into(&src).map_err(|e| format!("{vf}: {e}"))?;
            Some(d)
        }
        None => None,
    };
    let doc = extended.as_ref().unwrap_or(doc);
    let (specs, cinds, view_specs, view_target) = multi_setup(doc, db, view_name.as_deref())?;
    let filter = match (
        flag_value(args, "--cind"),
        flag_value(args, "--rel"),
        &view_name,
    ) {
        (Some(_), Some(_), _) | (Some(_), _, Some(_)) | (_, Some(_), Some(_)) => {
            return Err("--cind, --rel and --view are mutually exclusive".into())
        }
        (Some(i), None, None) => {
            let i: usize = i.parse().map_err(|_| "--cind expects a CIND index")?;
            if i >= cinds.len() {
                return Err(format!(
                    "--cind {i} out of range: the document has {} CIND(s)",
                    cinds.len()
                ));
            }
            cfd_clean::MultiDiffFilter::Cind(i)
        }
        (None, Some(name), None) => {
            let rel = doc
                .catalog
                .rel_id(&name)
                .ok_or_else(|| format!("--rel names unknown relation `{name}`"))?;
            cfd_clean::MultiDiffFilter::Rel(rel)
        }
        // Resolved to `View(index)` after the view registers below.
        (None, None, _) => cfd_clean::MultiDiffFilter::All,
    };
    let loops: usize = match flag_value(args, "--loop") {
        Some(v) => v.parse().map_err(|_| "--loop expects a repeat count")?,
        None => 1,
    };
    // `--listen SOCK` attaches a log shipper to the durable store and
    // serves the replication stream over a unix socket; `--linger-ms`
    // keeps the leader listening after the script so late followers can
    // catch up before the clean end of stream; `--pace-ms` spaces the
    // commits out so crash harnesses overlap a live stream.
    let listen_path = flag_value(args, "--listen");
    let linger_ms: u64 = match flag_value(args, "--linger-ms") {
        Some(v) => v.parse().map_err(|_| "--linger-ms expects milliseconds")?,
        None => 0,
    };
    let pace_ms: u64 = match flag_value(args, "--pace-ms") {
        Some(v) => v.parse().map_err(|_| "--pace-ms expects milliseconds")?,
        None => 0,
    };
    if listen_path.is_some() && flag_value(args, "--data-dir").is_none() {
        return Err("--listen requires --data-dir (the shipper serves the durable log)".into());
    }

    let names: Vec<String> = doc
        .catalog
        .relations()
        .map(|(_, s)| s.name.clone())
        .collect();
    let view_names: Vec<String> = view_specs.iter().map(|s| s.name.clone()).collect();

    // Grouping the script per commit is the store's job; here we only
    // translate statements to (relation, is_delete, tuple).
    let catalog = doc.catalog.clone();
    let script: Vec<Vec<(cfd_relalg::schema::RelId, bool, Vec<cfd_relalg::Value>)>> = batches
        .iter()
        .map(|batch| {
            batch
                .iter()
                .map(|stmt| {
                    (
                        catalog.rel_id(&stmt.relation).expect("validated above"),
                        stmt.op == cfd_text::UpdateOp::Delete,
                        stmt.tuple.clone(),
                    )
                })
                .collect()
        })
        .collect();

    let mut out = std::io::stdout().lock();
    use std::io::Write as _;

    // The bus sheds a subscriber whose queue is full at publish time
    // (the writer never blocks on a laggard), so the serving stream
    // sizes its queue for every commit the script can produce: each
    // batch commits at most once per statement's relation.
    let bus_capacity = loops
        .saturating_mul(script.iter().map(Vec::len).sum::<usize>())
        .saturating_add(1);

    // Build the store — durable when `--data-dir` is given — subscribe,
    // and hand it to the writer thread. Dropping the store at the end
    // of the writer closes the bus, ending the drain loop below. The
    // shipper (when `--listen` asked for one) outlives the store: it
    // holds the retained frames and checkpoint itself, so followers
    // connecting after the script finished are still served.
    let mut shipper: Option<cfd_clean::LogShipper> = None;
    let (rx, writer): (
        std::sync::mpsc::Receiver<std::sync::Arc<cfd_clean::MultiCommit>>,
        std::thread::JoinHandle<Result<ReplaySummary, String>>,
    ) = if let Some(dir) = flag_value(args, "--data-dir") {
        let fsync: cfd_clean::FsyncPolicy = match flag_value(args, "--fsync") {
            Some(v) => v.parse()?,
            None => cfd_clean::FsyncPolicy::EveryCommit,
        };
        let checkpoint_every: u64 = match flag_value(args, "--checkpoint-every") {
            Some(v) => v
                .parse()
                .map_err(|_| "--checkpoint-every expects a number")?,
            None => 0,
        };
        let durable_views = spc_only_views(doc, view_specs, "--data-dir")?;
        let (mut store, report) = cfd_clean::DurableMultiStore::open(
            std::path::Path::new(&dir),
            specs,
            cinds,
            shards,
            durable_views,
            cfd_clean::DurableOptions {
                fsync,
                checkpoint_every,
            },
        )
        .map_err(|e| e.to_string())?;
        let line = recovery_json(&report, store.store());
        if let Err(e) = writeln!(out, "{line}") {
            if e.kind() != std::io::ErrorKind::BrokenPipe {
                return Err(e.to_string());
            }
        }
        let filter = if store.view_count() > 0 {
            cfd_clean::MultiDiffFilter::View(0)
        } else {
            filter
        };
        let rx = store.subscribe(filter, bus_capacity);
        if let Some(sock) = &listen_path {
            shipper = Some(spawn_ship_listener(&mut store, sock)?);
        }
        let writer = std::thread::spawn(move || {
            for _ in 0..loops {
                for batch in &script {
                    store.apply_grouped(batch).map_err(|e| e.to_string())?;
                    if pace_ms > 0 {
                        std::thread::sleep(std::time::Duration::from_millis(pace_ms));
                    }
                }
            }
            // Make the tail durable even under `--fsync os`/every-N
            // before reporting back.
            store.sync().map_err(|e| e.to_string())?;
            Ok(summarize(
                store.store(),
                Some(store.last_checkpoint_epoch()),
            ))
        });
        (rx, writer)
    } else {
        let mut store =
            cfd_clean::MultiStore::new(specs, cinds, shards).map_err(|e| e.to_string())?;
        // Materialize every view of the document on the store through
        // the view catalog — one batch, refreshed in topological order
        // from then on — and filter the stream to the `--view` target's
        // events when one was named.
        let filter = if view_specs.is_empty() {
            filter
        } else {
            let ids = store
                .register_stacked_batch(view_specs)
                .map_err(|e| e.to_string())?;
            match view_target {
                Some(t) => cfd_clean::MultiDiffFilter::View(ids[t]),
                None => filter,
            }
        };
        let rx = store.subscribe(filter, bus_capacity);
        let writer = std::thread::spawn(move || {
            for _ in 0..loops {
                for batch in &script {
                    store.apply_grouped(batch);
                }
            }
            Ok(summarize(&store, None))
        });
        (rx, writer)
    };

    // Drain in commit order. A BrokenPipe means the consumer is gone:
    // detach (dropping `rx` unsubscribes at the writer's next publish),
    // let the writer finish and sync, and exit cleanly — a serving
    // process must not panic mid-frame because a reader hung up.
    let mut pipe_closed = false;
    for commit in &rx {
        // The view stream promises one line per commit that *moved* the
        // view; the bus itself delivers every commit (filtered), so the
        // quiet ones are dropped here.
        if view_target.is_some() && commit.views.is_empty() {
            continue;
        }
        if let Err(e) = writeln!(out, "{}", multi_commit_json(&names, &view_names, &commit)) {
            if e.kind() == std::io::ErrorKind::BrokenPipe {
                pipe_closed = true;
                break;
            }
            return Err(e.to_string());
        }
    }
    drop(rx);
    let summary = writer.join().map_err(|_| "writer thread panicked")??;
    if let Some(shipper) = shipper {
        // Late followers get the linger window to reconnect and drain
        // before the clean end of stream is announced; then a short
        // grace lets per-connection threads deliver their End frames.
        if linger_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(linger_ms));
        }
        shipper.finish();
        std::thread::sleep(std::time::Duration::from_millis(150));
        if let Some(sock) = &listen_path {
            let _ = std::fs::remove_file(sock);
        }
    }
    if pipe_closed {
        return Ok(());
    }
    let ckpt = match summary.last_checkpoint {
        Some(e) => format!(", \"last_checkpoint\": {e}"),
        None => String::new(),
    };
    let sched = if summary.views == 0 {
        String::new()
    } else {
        format!(
            ", \"views_refreshed\": {}, \"views_skipped\": {}, \"tries_total\": {}, \"tries_shared\": {}",
            summary.refreshed_total, summary.skipped_total, summary.tries_total, summary.tries_shared
        )
    };
    let line = format!(
        "{{\"done\": true, \"epochs\": {}, \"violations\": {}, \"cind_violations\": {}, \"view_violations\": {}{ckpt}{sched}}}",
        summary.epochs, summary.cfd_total, summary.cind_total, summary.view_total
    );
    if let Err(e) = writeln!(out, "{line}") {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            return Err(e.to_string());
        }
        return Ok(());
    }
    let total = summary.cfd_total + summary.cind_total + summary.view_total;
    if total > 0 {
        Err(format!("{total} violation(s) after replay"))
    } else {
        Ok(())
    }
}

/// Attach a [`cfd_clean::LogShipper`] to the durable store and serve it
/// over a unix socket: an accept loop hands each connection to a
/// [`cfd_clean::ShipServerConn`] on its own thread. Threads are
/// detached — connections die with the process, and a follower treats
/// that as any other transport fault (reconnect, renegotiate).
#[cfg(unix)]
fn spawn_ship_listener(
    store: &mut cfd_clean::DurableMultiStore,
    sock: &str,
) -> Result<cfd_clean::LogShipper, String> {
    let shipper = store.attach_shipper(cfd_clean::ShipOptions::default());
    // A stale socket file from a previous (killed) leader would make
    // bind fail; replacing it is the restart semantics we want.
    let _ = std::fs::remove_file(sock);
    let listener = std::os::unix::net::UnixListener::bind(sock)
        .map_err(|e| format!("--listen {sock}: {e}"))?;
    let accept_shipper = shipper.clone();
    std::thread::spawn(move || {
        while let Ok((stream, _)) = listener.accept() {
            let per_conn = accept_shipper.clone();
            std::thread::spawn(move || {
                let io = Box::new(cfd_clean::replica::StreamShipIo::new(stream));
                let _ = cfd_clean::ShipServerConn::new(io, per_conn).run();
            });
        }
    });
    Ok(shipper)
}

#[cfg(not(unix))]
fn spawn_ship_listener(
    _store: &mut cfd_clean::DurableMultiStore,
    _sock: &str,
) -> Result<cfd_clean::LogShipper, String> {
    Err("--listen requires a unix platform (unix-domain sockets)".into())
}

/// `cfdprop follow <file.cfd> --connect SOCK [--state-dir DIR]
/// [--shards N] [--view NAME] [--verify] [--max-retries N] [--seed S]`
/// — run a read replica against a `serve-updates --listen` leader:
/// catch up from the saved cursor (tail replay when the leader still
/// retains those frames, snapshot rebuild otherwise), apply frames to
/// the leader's clean end of stream, and print a summary JSON line.
/// Transport faults, sheds, and epoch gaps are retried with jittered
/// exponential backoff and cursor re-negotiation
/// ([`cfd_clean::follow_until_end`]). The schema flags must match the
/// leader (`--shards`, `--view`).
#[cfg(unix)]
fn follow(args: &[String]) -> Result<(), String> {
    const USAGE: &str = "usage: cfdprop follow <file.cfd> --connect SOCK [--state-dir DIR] \
         [--shards N] [--view NAME] [--verify] [--max-retries N] [--seed S]";
    let path = args.get(1).ok_or(USAGE)?;
    let sock = flag_value(args, "--connect").ok_or(USAGE)?;
    let doc = load(path)?;
    let db = doc.database().map_err(|e| e.to_string())?;
    let shards: usize = match flag_value(args, "--shards") {
        Some(v) => v.parse().map_err(|_| "--shards expects a number")?,
        None => 4,
    };
    let view_name = flag_value(args, "--view");
    let (specs, cinds, view_specs, _target) = multi_setup(&doc, &db, view_name.as_deref())?;
    let views: Vec<cfd_clean::ViewSpec> = spc_only_views(&doc, view_specs, "follow")?;
    let state_dir = flag_value(args, "--state-dir").map(std::path::PathBuf::from);
    let mut follower = match &state_dir {
        Some(dir) => cfd_clean::Follower::open(specs, cinds, shards, views, dir)
            .map_err(|e| format!("{}: {e}", dir.display()))?,
        None => cfd_clean::Follower::new(specs, cinds, shards, views),
    };
    let policy = cfd_clean::RetryPolicy {
        max_retries: match flag_value(args, "--max-retries") {
            Some(v) => v.parse().map_err(|_| "--max-retries expects a number")?,
            None => cfd_clean::RetryPolicy::default().max_retries,
        },
        ..Default::default()
    };
    let seed: u64 = match flag_value(args, "--seed") {
        Some(v) => v.parse().map_err(|_| "--seed expects a number")?,
        None => std::process::id() as u64,
    };
    let save_every: u64 = match flag_value(args, "--save-every") {
        Some(v) => v
            .parse()
            .map_err(|_| "--save-every expects a frame count")?,
        None => 0,
    };
    if save_every > 0 && state_dir.is_none() {
        return Err("--save-every requires --state-dir".into());
    }
    let connect = || -> Result<Box<dyn cfd_clean::ShipIo>, cfd_clean::ShipError> {
        std::os::unix::net::UnixStream::connect(&sock)
            .map(|s| {
                Box::new(cfd_clean::replica::StreamShipIo::new(s)) as Box<dyn cfd_clean::ShipIo>
            })
            .map_err(|e| cfd_clean::ShipError::Io(e.to_string()))
    };
    match (save_every, &state_dir) {
        (n, Some(dir)) if n > 0 => follow_saving(&mut follower, &sock, dir, n, &policy)?,
        _ => cfd_clean::follow_until_end(&mut follower, connect, &policy, seed)
            .map_err(|e| format!("follow: {e}"))?,
    }
    // Persist before reporting: a `--state-dir` replica that printed its
    // summary must be reopenable at that cursor.
    if let Some(dir) = &state_dir {
        follower
            .save_state(dir)
            .map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let lag = follower.lag();
    let stats = follower.stats();
    println!(
        "{{\"followed\": true, \"cursor\": {}, \"leader_epoch\": {}, \"frames_behind\": {}, \
         \"frames_applied\": {}, \"duplicates_skipped\": {}, \"snapshots_loaded\": {}, \
         \"gaps\": {}, \"connects\": {}}}",
        lag.cursor,
        lag.leader_epoch,
        lag.frames_behind,
        stats.frames_applied,
        stats.duplicates_skipped,
        stats.snapshots_loaded,
        stats.gaps,
        stats.connects,
    );
    if args.iter().any(|a| a == "--verify") {
        let store = follower
            .store()
            .ok_or("follow: nothing replicated, nothing to verify")?;
        verify_store(&doc, store)?;
    }
    Ok(())
}

#[cfg(not(unix))]
fn follow(_args: &[String]) -> Result<(), String> {
    Err("follow requires a unix platform (unix-domain sockets)".into())
}

/// `follow --save-every N`: like [`cfd_clean::follow_until_end`], but
/// persists the replica's state directory after every N applied frames
/// (or snapshot loads), so a kill -9 at any moment loses at most N
/// frames of catch-up work — the next run resumes from the saved cursor
/// instead of a full snapshot. Drives [`cfd_clean::Follower::pump`]
/// directly (the blocking `run` has no save hook); faults get a bounded
/// exponential backoff with re-negotiation, and progress resets the
/// attempt budget, mirroring `follow_until_end`.
#[cfg(unix)]
fn follow_saving(
    follower: &mut cfd_clean::Follower,
    sock: &str,
    dir: &std::path::Path,
    every: u64,
    policy: &cfd_clean::RetryPolicy,
) -> Result<(), String> {
    let mut attempt: u32 = 0;
    let mut unsaved: u64 = 0;
    let progress = |f: &cfd_clean::Follower| {
        let s = f.stats();
        s.frames_applied + s.snapshots_loaded
    };
    loop {
        let before = progress(follower);
        let result = (|| -> Result<(), String> {
            let stream =
                std::os::unix::net::UnixStream::connect(sock).map_err(|e| e.to_string())?;
            let mut conn = follower
                .begin(Box::new(cfd_clean::replica::StreamShipIo::new(stream)))
                .map_err(|e| e.to_string())?;
            loop {
                let n = follower.pump(&mut conn).map_err(|e| e.to_string())? as u64;
                if n > 0 {
                    unsaved += n;
                    if unsaved >= every {
                        follower.save_state(dir).map_err(|e| e.to_string())?;
                        unsaved = 0;
                    }
                }
                if conn.is_done() {
                    return Ok(());
                }
                if n == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            }
        })();
        match result {
            Ok(()) => return Ok(()),
            Err(e) => {
                if progress(follower) > before {
                    attempt = 0;
                } else if attempt >= policy.max_retries {
                    return Err(format!("follow: {e}"));
                } else {
                    attempt += 1;
                }
                let backoff = policy
                    .base_ms
                    .saturating_mul(1 << attempt.min(10))
                    .min(policy.max_ms);
                std::thread::sleep(std::time::Duration::from_millis(backoff));
            }
        }
    }
}

/// The recovery summary `serve-updates --data-dir` and `recover` print
/// as their first JSON line.
fn recovery_json(report: &cfd_clean::RecoveryReport, store: &cfd_clean::MultiStore) -> String {
    let live: usize = (0..store.rel_count())
        .map(|i| store.live_len(cfd_relalg::schema::RelId(i)))
        .sum();
    format!(
        "{{\"recovered\": true, \"checkpoint_epoch\": {}, \"epoch\": {}, \"frames_replayed\": {}, \"torn_tail\": {}, \"live_tuples\": {live}}}",
        report.checkpoint_epoch,
        report.recovered_epoch,
        report.frames_replayed,
        report.torn_tail.is_some(),
    )
}

/// `cfdprop recover <file.cfd> --data-dir DIR [--verify] [--shards N]
/// [--view NAME]` — recover a durable multistore data directory
/// (newest valid checkpoint + log-tail replay, tolerating a torn final
/// frame) and print a summary. With `--verify`, every recovered
/// violation set is cross-checked against a fresh rescan of the
/// recovered data — per-relation CFD violations against
/// [`cfd_clean::detect_all`], cross-relation CIND violations against
/// `cfd_cind::satisfy::all_violations`, the materialized view against a
/// from-scratch [`cfd_relalg::eval::eval_spc`] plus rescans of its own
/// Σ — and any divergence exits nonzero. The flags must match the
/// serving process (`--shards`, `--view`) so recovery rebuilds the same
/// compiled state.
fn recover(args: &[String]) -> Result<(), String> {
    const USAGE: &str =
        "usage: cfdprop recover <file.cfd> --data-dir DIR [--verify] [--shards N] [--view NAME]";
    let path = args.get(1).ok_or(USAGE)?;
    let dir = flag_value(args, "--data-dir").ok_or(USAGE)?;
    let dir = std::path::PathBuf::from(dir);
    let doc = load(path)?;
    let db = doc.database().map_err(|e| e.to_string())?;
    let shards: usize = match flag_value(args, "--shards") {
        Some(v) => v.parse().map_err(|_| "--shards expects a number")?,
        None => 4,
    };
    let view_name = flag_value(args, "--view");
    let (specs, cinds, view_specs, _target) = multi_setup(&doc, &db, view_name.as_deref())?;
    let views = spc_only_views(&doc, view_specs, "recover")?;

    // `recover` recovers; it must not silently initialize a fresh store
    // when pointed at the wrong directory.
    let has_checkpoint = std::fs::read_dir(&dir)
        .map(|entries| {
            entries.flatten().any(|e| {
                e.file_name()
                    .to_str()
                    .is_some_and(|n| n.starts_with("ckpt-") && n.ends_with(".ckpt"))
            })
        })
        .unwrap_or(false);
    if !has_checkpoint {
        return Err(format!("{}: no checkpoint to recover from", dir.display()));
    }

    let (store, report) = cfd_clean::DurableMultiStore::open(
        &dir,
        specs,
        cinds,
        shards,
        views,
        cfd_clean::DurableOptions {
            fsync: cfd_clean::FsyncPolicy::Os,
            checkpoint_every: 0,
        },
    )
    .map_err(|e| e.to_string())?;
    println!("{}", recovery_json(&report, store.store()));
    if args.iter().any(|a| a == "--verify") {
        verify_store(&doc, store.store())?;
    }
    Ok(())
}

/// Cross-check a store's maintained incremental state against fresh
/// rescans of its own data: per-relation CFD violations against
/// [`cfd_clean::detect_all`], cross-relation CIND violations against
/// `cfd_cind::satisfy::all_violations`, each materialized view against
/// a from-scratch [`cfd_relalg::eval::eval_spc`] plus rescans of its
/// own Σ. Shared by `recover --verify` (the recovered leader state) and
/// `follow --verify` (the replica state): both must be indistinguishable
/// from a store that computed everything from scratch. Violation lists
/// are compared as sorted sets — insertion order is an engine artifact,
/// membership is the claim. Prints the verified line on success; any
/// divergence is an error.
fn verify_store(doc: &Document, store: &cfd_clean::MultiStore) -> Result<(), String> {
    let mut divergences = 0usize;
    let mut fresh_db = cfd_relalg::Database::empty(&doc.catalog);
    for i in 0..store.rel_count() {
        let rel = cfd_relalg::schema::RelId(i);
        for t in store.relation(rel).tuples() {
            fresh_db.insert(rel, t.clone());
        }
    }
    for i in 0..store.rel_count() {
        let rel = cfd_relalg::schema::RelId(i);
        let mut maintained = store.cfd_violations(rel);
        maintained.sort();
        let mut rescan = cfd_clean::detect_all(fresh_db.relation(rel), store.sigma(rel));
        rescan.sort();
        if maintained != rescan {
            divergences += 1;
            eprintln!(
                "verify: relation {} CFD violations diverge (recovered {}, rescan {})",
                doc.catalog.schema(rel).name,
                maintained.len(),
                rescan.len()
            );
        }
    }
    let mut maintained_cind = store.cind_violations();
    maintained_cind.sort();
    let mut rescan_cind: Vec<cfd_cind::delta::CindViolation> = Vec::new();
    for (ci, psi) in store.cind_sigma().iter().enumerate() {
        for t in cfd_cind::satisfy::all_violations(&fresh_db, psi).map_err(|e| e.to_string())? {
            rescan_cind.push(cfd_cind::delta::CindViolation {
                cind_index: ci,
                tuple: t,
            });
        }
    }
    rescan_cind.sort();
    if maintained_cind != rescan_cind {
        divergences += 1;
        eprintln!(
            "verify: CIND violations diverge (recovered {}, rescan {})",
            maintained_cind.len(),
            rescan_cind.len()
        );
    }
    for v in 0..store.view_count() {
        let view = store.view(v);
        let recovered = store.view_relation(v);
        // Union of fresh per-branch evaluations. The durable and replica
        // paths admit source-level views only (`spc_only_views`), so the
        // base catalog resolves every atom.
        let fresh: cfd_relalg::Relation = view
            .branch_queries()
            .flat_map(|q| {
                cfd_relalg::eval::eval_spc(q, &doc.catalog, &fresh_db)
                    .tuples()
                    .cloned()
                    .collect::<Vec<_>>()
            })
            .collect();
        if recovered != fresh {
            divergences += 1;
            eprintln!(
                "verify: view {} contents diverge (recovered {} row(s), fresh eval {})",
                view.name(),
                recovered.len(),
                fresh.len()
            );
        }
        let mut maintained = store.view_cfd_violations(v);
        maintained.sort();
        let mut rescan = cfd_clean::detect_all(&recovered, view.sigma());
        rescan.sort();
        if maintained != rescan {
            divergences += 1;
            eprintln!("verify: view {} CFD violations diverge", view.name());
        }
        // The view's propagated CINDs, checked off the definition: every
        // in-scope view tuple needs a witness in the target relation.
        let mut maintained_vc = store.view_cind_violations(v);
        maintained_vc.sort();
        let mut rescan_vc: Vec<cfd_cind::delta::CindViolation> = Vec::new();
        for (ci, psi) in view.cinds().iter().enumerate() {
            for t in recovered.tuples() {
                if !psi.lhs_condition().iter().all(|(a, c)| &t[*a] == c) {
                    continue;
                }
                let target = store.relation(psi.rhs_rel());
                let witnessed = target.tuples().any(|u| {
                    psi.rhs_pattern().iter().all(|(a, c)| &u[*a] == c)
                        && psi.columns().iter().all(|(x, y)| t[*x] == u[*y])
                });
                if !witnessed {
                    rescan_vc.push(cfd_cind::delta::CindViolation {
                        cind_index: ci,
                        tuple: t.clone(),
                    });
                }
            }
        }
        rescan_vc.sort();
        if maintained_vc != rescan_vc {
            divergences += 1;
            eprintln!("verify: view {} CIND violations diverge", view.name());
        }
    }
    if divergences > 0 {
        Err(format!(
            "verify: {divergences} divergence(s) between recovered state and rescan"
        ))
    } else {
        println!("{{\"verified\": true, \"divergences\": 0}}");
        Ok(())
    }
}

/// One multistore commit as a JSON line: the target relation's CFD
/// diff, the cross-relation CIND diff, and — when the commit moved a
/// materialized view — each view's row delta and violation diffs.
fn multi_commit_json(
    names: &[String],
    view_names: &[String],
    commit: &cfd_clean::MultiCommit,
) -> String {
    let list = |vs: &[cfd_clean::Violation]| -> String {
        let items: Vec<String> = vs.iter().map(violation_json).collect();
        format!("[{}]", items.join(", "))
    };
    let cind_list = |vs: &[cfd_cind::CindViolation]| -> String {
        let items: Vec<String> = vs
            .iter()
            .map(|v| {
                let cells: Vec<String> = v.tuple.iter().map(json_value).collect();
                format!(
                    "{{\"cind\": {}, \"tuple\": [{}]}}",
                    v.cind_index,
                    cells.join(", ")
                )
            })
            .collect();
        format!("[{}]", items.join(", "))
    };
    let rows = |ts: &[Vec<cfd_relalg::Value>]| -> String {
        let items: Vec<String> = ts
            .iter()
            .map(|t| {
                let cells: Vec<String> = t.iter().map(json_value).collect();
                format!("[{}]", cells.join(", "))
            })
            .collect();
        format!("[{}]", items.join(", "))
    };
    let views = if commit.views.is_empty() {
        String::new()
    } else {
        let items: Vec<String> = commit
            .views
            .iter()
            .map(|vd| {
                format!(
                    "{{\"view\": {}, \"rows_added\": {}, \"rows_removed\": {}, \"added\": {}, \"removed\": {}, \"cind_added\": {}, \"cind_removed\": {}}}",
                    json_str(&view_names[vd.view]),
                    rows(&vd.rows_added),
                    rows(&vd.rows_removed),
                    list(&vd.cfd.added),
                    list(&vd.cfd.removed),
                    cind_list(&vd.cind.added),
                    cind_list(&vd.cind.removed)
                )
            })
            .collect();
        format!(", \"views\": [{}]", items.join(", "))
    };
    // The scheduler's verdict for this commit — only meaningful (and
    // only emitted) when the store carries live views.
    let refresh = if commit.refresh.refreshed + commit.refresh.skipped == 0 {
        String::new()
    } else {
        format!(
            ", \"refresh\": {{\"refreshed\": {}, \"skipped\": {}, \"tries_total\": {}, \"tries_shared\": {}, \"trie_rows\": {}}}",
            commit.refresh.refreshed,
            commit.refresh.skipped,
            commit.refresh.tries_total,
            commit.refresh.tries_shared,
            commit.refresh.trie_rows
        )
    };
    format!(
        "{{\"relation\": {}, \"epoch\": {}, \"added\": {}, \"removed\": {}, \"cind_added\": {}, \"cind_removed\": {}{}{}}}",
        json_str(&names[commit.rel.0]),
        commit.epoch,
        list(&commit.cfd.added),
        list(&commit.cfd.removed),
        cind_list(&commit.cind.added),
        cind_list(&commit.cind.removed),
        refresh,
        views
    )
}

/// One committed diff as a JSON line.
fn commit_json(relation: &str, commit: &cfd_clean::Commit) -> String {
    let list = |vs: &[cfd_clean::Violation]| -> String {
        let items: Vec<String> = vs.iter().map(violation_json).collect();
        format!("[{}]", items.join(", "))
    };
    format!(
        "{{\"relation\": {}, \"epoch\": {}, \"added\": {}, \"removed\": {}}}",
        json_str(relation),
        commit.epoch,
        list(&commit.diff.added),
        list(&commit.diff.removed)
    )
}

fn violation_json(v: &cfd_clean::Violation) -> String {
    use cfd_clean::ViolationKind;
    let tuples: Vec<String> = v
        .tuples
        .iter()
        .map(|t| {
            let cells: Vec<String> = t.iter().map(json_value).collect();
            format!("[{}]", cells.join(", "))
        })
        .collect();
    let kind = match &v.kind {
        ViolationKind::ConstantClash { expected, found } => format!(
            "\"kind\": \"constant_clash\", \"expected\": {}, \"found\": {}",
            json_value(expected),
            json_value(found)
        ),
        ViolationKind::PairConflict { values } => {
            let vs: Vec<String> = values.iter().map(json_value).collect();
            format!(
                "\"kind\": \"pair_conflict\", \"values\": [{}]",
                vs.join(", ")
            )
        }
        ViolationKind::AttrEqClash { left, right } => format!(
            "\"kind\": \"attr_eq_clash\", \"left\": {}, \"right\": {}",
            json_value(left),
            json_value(right)
        ),
    };
    format!(
        "{{\"cfd\": {}, {}, \"tuples\": [{}]}}",
        v.cfd_index,
        kind,
        tuples.join(", ")
    )
}

fn json_value(v: &cfd_relalg::Value) -> String {
    match v {
        cfd_relalg::Value::Int(i) => i.to_string(),
        cfd_relalg::Value::Str(s) => json_str(s),
        cfd_relalg::Value::Bool(b) => b.to_string(),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `cfdprop sql <file.cfd>` — detection SQL for every source CFD.
fn sql(args: &[String]) -> Result<(), String> {
    let path = args.get(1).ok_or("usage: cfdprop sql <file.cfd>")?;
    let doc = load(path)?;
    for (rel, schema) in doc.catalog.relations() {
        for s in doc.sigma().iter().filter(|s| s.rel == rel) {
            for q in cfd_clean::detection_sql(schema, &s.cfd) {
                println!("{q};");
            }
        }
    }
    Ok(())
}

/// `cfdprop cind <file.cfd>` — validate CINDs on `row` data and print the
/// CINDs propagated to each SPC view.
fn cind(args: &[String]) -> Result<(), String> {
    let path = args.get(1).ok_or("usage: cfdprop cind <file.cfd>")?;
    let doc = load(path)?;
    if doc.cinds.is_empty() {
        return Err("no `cind` statements in the document".into());
    }
    let sigma: Vec<cfd_cind::Cind> = doc.cinds.iter().map(|n| n.cind.clone()).collect();

    // Validate against data when the document carries rows.
    let mut violated = 0usize;
    if !doc.rows.is_empty() {
        let db = doc.database().map_err(|e| e.to_string())?;
        for named in &doc.cinds {
            let label = named.name.clone().unwrap_or_else(|| "<unnamed>".into());
            match cfd_cind::find_violation(&db, &named.cind).map_err(|e| e.to_string())? {
                Some(t) => {
                    violated += 1;
                    let cells: Vec<String> = t.iter().map(|v| v.to_string()).collect();
                    println!(
                        "VIOLATED  {label}: {} — no witness for ({})",
                        cfd_text::pretty::render_cind(&named.cind, &doc.catalog),
                        cells.join(", ")
                    );
                }
                None => println!(
                    "SATISFIED {label}: {}",
                    cfd_text::pretty::render_cind(&named.cind, &doc.catalog)
                ),
            }
        }
    }

    // Propagate through each single-branch SPC view.
    for view in &doc.views {
        if view.query.branches.len() != 1 {
            println!(
                "view {}: skipped (CIND propagation handles SPC views)",
                view.name
            );
            continue;
        }
        let mut extended = doc.catalog.clone();
        let v = cfd_cind::register_view(&mut extended, &view.name, &view.query.branches[0])
            .map_err(|e| e.to_string())?;
        let props = cfd_cind::propagate_cinds(
            v,
            &view.query.branches[0],
            &sigma,
            &cfd_cind::implication::ImplicationOptions::default(),
        );
        println!("view {}: {} propagated CIND(s)", view.name, props.len());
        for c in &props {
            println!("  {}", cfd_text::pretty::render_cind(c, &extended));
        }
    }
    if violated > 0 {
        Err(format!("{violated} CIND(s) violated by the data"))
    } else {
        Ok(())
    }
}

fn empty(args: &[String]) -> Result<(), String> {
    let path = args.get(1).ok_or("usage: cfdprop empty <file.cfd>")?;
    let doc = load(path)?;
    let setting = Setting::for_catalog(&doc.catalog);
    let sigma = doc.sigma();
    for view in &doc.views {
        let witness = non_emptiness_witness(&doc.catalog, &sigma, &view.query, setting)
            .map_err(|e| e.to_string())?;
        match witness {
            None => println!("view {}: ALWAYS EMPTY under the source CFDs", view.name),
            Some(db) => println!(
                "view {}: realizable (witness source database with {} tuple(s))",
                view.name,
                db.total_tuples()
            ),
        }
    }
    Ok(())
}

fn consistency(args: &[String]) -> Result<(), String> {
    let path = args.get(1).ok_or("usage: cfdprop consistency <file.cfd>")?;
    let doc = load(path)?;
    let mut bad = 0;
    for (rel, schema) in doc.catalog.relations() {
        let local: Vec<cfd_model::Cfd> = doc
            .sigma()
            .iter()
            .filter(|s| s.rel == rel)
            .map(|s| s.cfd.clone())
            .collect();
        let domains: Vec<DomainKind> = schema.attributes.iter().map(|a| a.domain.clone()).collect();
        let ok = cfd_model::implication::is_consistent_general(&local, &domains);
        println!(
            "{}: {} CFD(s), {}",
            schema.name,
            local.len(),
            if ok {
                "consistent"
            } else {
                "INCONSISTENT (no nonempty instance)"
            }
        );
        if !ok {
            bad += 1;
        }
    }
    if bad > 0 {
        Err(format!("{bad} relation(s) with inconsistent CFDs"))
    } else {
        Ok(())
    }
}

fn gen(args: &[String]) -> Result<(), String> {
    use cfd_datagen::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let get = |name: &str, default: usize| -> Result<usize, String> {
        match flag_value(args, name) {
            Some(v) => v.parse().map_err(|_| format!("{name} expects a number")),
            None => Ok(default),
        }
    };
    let seed = get("--seed", 42)? as u64;
    let mut rng = StdRng::seed_from_u64(seed);
    let catalog = gen_schema(
        &SchemaGenConfig {
            relations: get("--relations", 10)?,
            ..Default::default()
        },
        &mut rng,
    );
    let sigma = gen_cfds(
        &catalog,
        &CfdGenConfig {
            count: get("--cfds", 50)?,
            ..Default::default()
        },
        &mut rng,
    );
    let view = gen_spc_view(
        &catalog,
        &ViewGenConfig {
            y: get("--y", 10)?,
            f: get("--f", 4)?,
            ec: get("--ec", 2)?,
            const_range: 100_000,
        },
        &mut rng,
    );
    // Print as a document: schemas + cfds + a reconstructed view text.
    for (_, schema) in catalog.relations() {
        let attrs: Vec<String> = schema
            .attributes
            .iter()
            .map(|a| format!("{}: {}", a.name, cfd_text::pretty::render_domain(&a.domain)))
            .collect();
        println!("schema {}({});", schema.name, attrs.join(", "));
    }
    for s in &sigma {
        let schema = catalog.schema(s.rel);
        let names: Vec<String> = schema.attributes.iter().map(|a| a.name.clone()).collect();
        println!("cfd {}{};", schema.name, body(&s.cfd, &names));
    }
    // Reconstruct a textual view: product of renamed atoms, then select,
    // then project (columns named t{atom}_{attr} to keep them unique).
    let mut expr = String::new();
    for (j, rel) in view.atoms.iter().enumerate() {
        let schema = catalog.schema(*rel);
        let renames: Vec<String> = schema
            .attributes
            .iter()
            .map(|a| format!("{} -> t{j}_{}", a.name, a.name))
            .collect();
        let piece = format!("rename({}, {})", schema.name, renames.join(", "));
        expr = if j == 0 {
            piece
        } else {
            format!("product({expr}, {piece})")
        };
    }
    let mut conds = Vec::new();
    for s in &view.selection {
        match s {
            cfd_relalg::query::SelAtom::Eq(a, b) => {
                conds.push(format!(
                    "{} = {}",
                    colname(&catalog, &view, *a),
                    colname(&catalog, &view, *b)
                ));
            }
            cfd_relalg::query::SelAtom::EqConst(a, v) => {
                conds.push(format!(
                    "{} = {}",
                    colname(&catalog, &view, *a),
                    cfd_text::pretty::render_value(v)
                ));
            }
        }
    }
    if !conds.is_empty() {
        expr = format!("select({expr}, {})", conds.join(", "));
    }
    let proj: Vec<String> = view
        .output
        .iter()
        .map(|o| match o.src {
            cfd_relalg::query::ColRef::Prod(c) => colname(&catalog, &view, c),
            cfd_relalg::query::ColRef::Const(_) => unreachable!("generator emits no constants"),
        })
        .collect();
    expr = format!("project({expr}, {})", proj.join(", "));
    println!("view V = {expr};");
    Ok(())
}

fn colname(
    catalog: &cfd_relalg::Catalog,
    view: &cfd_relalg::SpcQuery,
    c: cfd_relalg::query::ProdCol,
) -> String {
    let schema = catalog.schema(view.atoms[c.atom]);
    format!("t{}_{}", c.atom, schema.attributes[c.attr].name)
}
