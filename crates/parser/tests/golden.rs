//! Golden-file round-trip tests (ISSUE 3): every fixture under
//! `testdata/` must parse, pretty-print, and re-parse to an equal AST —
//! documents (`*.cfd`) through [`cfd_text::render`], update scripts
//! (`*.upd`, the PR 2 format) through [`cfd_text::render_updates`].
//!
//! New fixtures are picked up automatically; a fixture that parses but
//! does not survive the round trip is a pretty-printer bug by
//! definition.

use cfd_text::parser::{parse_updates, Document};
use cfd_text::{render, render_updates};
use std::path::PathBuf;

/// Every fixture in `testdata/` with the given extension.
fn fixtures(ext: &str) -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../testdata");
    let mut out: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("testdata dir {}: {e}", dir.display()))
        .filter_map(|entry| {
            let path = entry.expect("readable dir entry").path();
            (path.extension().and_then(|x| x.to_str()) == Some(ext)).then_some(path)
        })
        .collect();
    out.sort();
    out
}

/// The parts of a parsed document the round trip must preserve.
fn assert_documents_equal(path: &std::path::Path, a: &Document, b: &Document) {
    let at = |what: &str| format!("{}: {what} changed across the round trip", path.display());
    assert_eq!(a.catalog, b.catalog, "{}", at("catalog"));
    assert_eq!(a.sigma(), b.sigma(), "{}", at("source CFDs"));
    assert_eq!(a.views.len(), b.views.len(), "{}", at("view count"));
    for (va, vb) in a.views.iter().zip(&b.views) {
        assert_eq!(va.name, vb.name, "{}", at("view name"));
        assert_eq!(va.query, vb.query, "{}", at("normalized view query"));
    }
    assert_eq!(a.stacked.len(), b.stacked.len(), "{}", at("stacked count"));
    for (sa, sb) in a.stacked.iter().zip(&b.stacked) {
        assert_eq!(sa.name, sb.name, "{}", at("stacked view name"));
        assert_eq!(sa.query, sb.query, "{}", at("normalized stacked query"));
    }
    let cfds = |d: &Document| -> Vec<_> { d.view_cfds.iter().map(|v| v.cfd.clone()).collect() };
    assert_eq!(cfds(a), cfds(b), "{}", at("view CFDs"));
    let cinds = |d: &Document| -> Vec<_> { d.cinds.iter().map(|c| c.cind.clone()).collect() };
    assert_eq!(cinds(a), cinds(b), "{}", at("CINDs"));
    assert_eq!(a.rows, b.rows, "{}", at("row data"));
}

#[test]
fn every_cfd_fixture_round_trips() {
    let files = fixtures("cfd");
    assert!(!files.is_empty(), "no .cfd fixtures found");
    for path in files {
        let src = std::fs::read_to_string(&path).expect("fixture is readable");
        let doc = Document::parse(&src)
            .unwrap_or_else(|e| panic!("{}: fixture no longer parses: {e}", path.display()));
        let text = render(&doc);
        let doc2 = Document::parse(&text).unwrap_or_else(|e| {
            panic!(
                "{}: pretty-printed form no longer parses: {e}\n{text}",
                path.display()
            )
        });
        assert_documents_equal(&path, &doc, &doc2);
        // The printer is a fixed point: rendering the re-parse changes
        // nothing (catches nondeterministic output orders).
        assert_eq!(
            text,
            render(&doc2),
            "{}: pretty-printer is not idempotent",
            path.display()
        );
    }
}

#[test]
fn every_upd_fixture_round_trips() {
    let files = fixtures("upd");
    assert!(!files.is_empty(), "no .upd fixtures found");
    for path in files {
        let src = std::fs::read_to_string(&path).expect("fixture is readable");
        let batches = parse_updates(&src)
            .unwrap_or_else(|e| panic!("{}: fixture no longer parses: {e}", path.display()));
        assert!(
            !batches.is_empty(),
            "{}: empty update script makes a vacuous fixture",
            path.display()
        );
        let text = render_updates(&batches);
        let batches2 = parse_updates(&text).unwrap_or_else(|e| {
            panic!(
                "{}: pretty-printed form no longer parses: {e}\n{text}",
                path.display()
            )
        });
        assert_eq!(
            batches,
            batches2,
            "{}: update batches changed across the round trip",
            path.display()
        );
        assert_eq!(
            text,
            render_updates(&batches2),
            "{}: update printer is not idempotent",
            path.display()
        );
    }
}

/// The update fixture is not just syntax: replayed against its document
/// through the sharded store, it must clean the §1 running example.
#[test]
fn cust_updates_fixture_cleans_the_running_example() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../testdata");
    let doc = Document::parse(
        &std::fs::read_to_string(dir.join("dirty_customers.cfd")).expect("fixture"),
    )
    .expect("document parses");
    let batches =
        parse_updates(&std::fs::read_to_string(dir.join("cust_updates.upd")).expect("fixture"))
            .expect("script parses");
    let db = doc.database().expect("rows load");
    let rel = doc.catalog.rel_id("cust").expect("cust exists");
    let sigma: Vec<cfd_model::Cfd> = doc.sigma().iter().map(|s| s.cfd.clone()).collect();
    let mut store = cfd_clean::ShardedStore::new(sigma, db.relation(rel), 2);
    assert!(!store.current_violations().is_empty(), "starts dirty");
    for batch in &batches {
        let mut upd = cfd_clean::UpdateBatch::default();
        for stmt in batch {
            match stmt.op {
                cfd_text::UpdateOp::Insert => upd.inserts.push(stmt.tuple.clone()),
                cfd_text::UpdateOp::Delete => upd.deletes.push(stmt.tuple.clone()),
            }
        }
        store.apply(&upd);
    }
    assert!(
        store.current_violations().is_empty(),
        "the script cleans every violation"
    );
    let last = store
        .violations_at(store.epoch())
        .zip(store.violations_at(store.epoch() - 1));
    assert!(last.is_some(), "history retained for the whole replay");
}

/// The stacked fixture is not just syntax either (ISSUE 9): registered
/// through the view catalog and replayed commit by commit, the three
/// maintained levels of the ALLO → OC → GOLD stack must equal a fresh
/// bottom-up [`eval_stacked`] of the whole DAG after every batch.
#[test]
fn stacked_views_fixture_maintains_the_dag() {
    use cfd_clean::{CyclePolicy, MultiStore, RelationSpec, StackedViewSpec};
    use cfd_relalg::eval::eval_stacked;
    use cfd_relalg::instance::Tuple;
    use cfd_relalg::schema::RelId;
    use std::collections::BTreeSet;

    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../testdata");
    let doc =
        Document::parse(&std::fs::read_to_string(dir.join("stacked_views.cfd")).expect("fixture"))
            .expect("document parses");
    let batches =
        parse_updates(&std::fs::read_to_string(dir.join("stacked_views.upd")).expect("fixture"))
            .expect("script parses");
    assert_eq!(
        doc.stacked.len(),
        3,
        "fixture carries the three-level stack"
    );

    let db = doc.database().expect("rows load");
    let specs: Vec<RelationSpec> = doc
        .catalog
        .relations()
        .map(|(rel, schema)| {
            RelationSpec::new(
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
    let n_base = specs.len();
    let cinds: Vec<cfd_cind::Cind> = doc.cinds.iter().map(|c| c.cind.clone()).collect();
    let mut store = MultiStore::new(specs, cinds, 2).expect("catalog relations");
    let ids = store
        .register_stacked_batch(
            doc.stacked
                .iter()
                .map(|s| StackedViewSpec {
                    name: s.name.clone(),
                    branches: s.query.branches.clone(),
                    sigma: Vec::new(),
                    cinds: Vec::new(),
                    cycle: CyclePolicy::Reject,
                })
                .collect(),
        )
        .expect("the fixture's stack registers");

    let ext = doc.extended_catalog().expect("extended catalog");
    let queries: Vec<_> = doc.stacked.iter().map(|s| s.query.clone()).collect();
    let mut mirror: Vec<BTreeSet<Tuple>> = (0..n_base)
        .map(|i| db.relation(RelId(i)).tuples().cloned().collect())
        .collect();
    let check = |store: &MultiStore, mirror: &[BTreeSet<Tuple>], when: &str| {
        let mut fresh_db = cfd_relalg::Database::empty(&doc.catalog);
        for (i, rows) in mirror.iter().enumerate() {
            for t in rows {
                fresh_db.insert(RelId(i), t.clone());
            }
        }
        let fresh = eval_stacked(&ext, n_base, &queries, &fresh_db);
        for (k, &id) in ids.iter().enumerate() {
            assert_eq!(
                store.view_relation(id),
                fresh[k],
                "{when}: maintained `{}` ≠ fresh bottom-up evaluation",
                doc.stacked[k].name
            );
        }
    };
    check(&store, &mirror, "after seeding");
    assert!(
        !store.view_relation(ids[2]).is_empty(),
        "GOLD starts non-empty (ann is gold)"
    );

    for (b, batch) in batches.iter().enumerate() {
        let stmts: Vec<(RelId, bool, Tuple)> = batch
            .iter()
            .map(|stmt| {
                (
                    store.rel_id(&stmt.relation).expect("known relation"),
                    stmt.op == cfd_text::UpdateOp::Delete,
                    stmt.tuple.clone(),
                )
            })
            .collect();
        for (rel, is_delete, tuple) in &stmts {
            if *is_delete {
                mirror[rel.0].remove(tuple);
            }
        }
        for (rel, is_delete, tuple) in &stmts {
            if !*is_delete {
                mirror[rel.0].insert(tuple.clone());
            }
        }
        store.apply_grouped(&stmts);
        check(&store, &mirror, &format!("after batch {}", b + 1));
    }
    let gold = store.view_relation(ids[2]);
    assert!(
        !gold.is_empty()
            && gold
                .tuples()
                .all(|t| *t != doc.rows[0].1 && t[1] != cfd_relalg::Value::str("ann")),
        "by the end GOLD holds only bob's promoted order: {gold:?}"
    );
}

/// The multi-relation fixture is not just syntax either (ISSUE 4):
/// replayed through the cross-relation `MultiStore`, the script must
/// clean both violation classes — the CFD conflicts within each
/// relation and the CIND violations between them.
#[test]
fn orders_lineitems_fixture_cleans_both_violation_classes() {
    use cfd_relalg::schema::RelId;

    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../testdata");
    let doc = Document::parse(
        &std::fs::read_to_string(dir.join("orders_lineitems.cfd")).expect("fixture"),
    )
    .expect("document parses");
    let batches =
        parse_updates(&std::fs::read_to_string(dir.join("orders_lineitems.upd")).expect("fixture"))
            .expect("script parses");
    assert!(
        batches.iter().any(|b| b
            .iter()
            .map(|s| &s.relation)
            .collect::<std::collections::BTreeSet<_>>()
            .len()
            > 1
            || b.iter().any(|s| s.relation == "lineitems")),
        "the fixture actually exercises the multi-relation dialect"
    );

    let db = doc.database().expect("rows load");
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
    assert_eq!(cinds.len(), 2, "fixture carries both CIND directions");
    let mut store = cfd_clean::MultiStore::new(specs, cinds, 2).expect("catalog relations");

    let dirty_cfd: usize = (0..store.rel_count())
        .map(|i| store.cfd_violations(RelId(i)).len())
        .sum();
    assert!(dirty_cfd > 0, "starts CFD-dirty");
    assert!(
        store.cind_violations().len() >= 2,
        "starts CIND-dirty in both directions: {:?}",
        store.cind_violations()
    );

    for batch in &batches {
        // The dialect's grouping rule (one commit per target relation,
        // first-appearance order) is the store's own — the same path
        // `cfdprop serve-updates --multi` drives.
        let stmts: Vec<(RelId, bool, Vec<cfd_relalg::Value>)> = batch
            .iter()
            .map(|stmt| {
                (
                    store
                        .rel_id(&stmt.relation)
                        .expect("fixture names known relations"),
                    stmt.op == cfd_text::UpdateOp::Delete,
                    stmt.tuple.clone(),
                )
            })
            .collect();
        store.apply_grouped(&stmts);
    }
    let remaining: usize = (0..store.rel_count())
        .map(|i| store.cfd_violations(RelId(i)).len())
        .sum();
    assert_eq!(remaining, 0, "the script cleans every CFD violation");
    assert!(
        store.cind_violations().is_empty(),
        "the script cleans every CIND violation: {:?}",
        store.cind_violations()
    );
}
