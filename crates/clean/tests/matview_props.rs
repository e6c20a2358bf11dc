//! The differential harness for live materialized SPC views (ISSUE 5).
//!
//! Random multi-relation schemas, source CFDs/CINDs, base instances,
//! random SPC views (`cfd-datagen`'s §5 view generator: 2–3 atoms,
//! joins, constant selections, random projections) and random update
//! batches *including deletes* are replayed through a
//! [`MultiStore`] with a registered [`cfd_clean::ViewSpec`], and after
//! **every** commit:
//!
//! 1. the incrementally maintained view contents must equal a fresh
//!    [`eval_spc`] evaluation of the query on a **same-epoch
//!    [`MultiSnapshot`]** (sources and view pinned at one cut);
//! 2. the view-CFD violation diffs streamed in each commit's
//!    [`ViewDelta`] must *replay*: folding them over the seeded state
//!    lands exactly on a fresh [`detect_all`] of the materialized view
//!    (which must also equal the maintained detector state);
//! 3. the view-CIND state (the always-true view-to-source set plus
//!    whatever [`cfd_cind::propagate_cinds`] composed from random
//!    source CINDs) must equal a fresh nested-loop reference over the
//!    materialized view and sources, and its diffs must replay too.
//!
//! The deterministic driver covers `N_rel ∈ {2, 3}` × `shards ∈ {1, 4}`
//! × 12 seeds, each 6 batches deep.

use cfd_cind::delta::CindViolation;
use cfd_cind::implication::ImplicationOptions;
use cfd_cind::{propagate_cinds, Cind};
use cfd_clean::{
    detect_all, MultiStore, RelationSpec, UpdateBatch, ViewSpec, Violation, ViolationDiff,
};
use cfd_datagen::cfd_gen::random_value;
use cfd_datagen::{
    gen_cfds, gen_cinds, gen_schema, gen_spc_view, CfdGenConfig, CindGenConfig, SchemaGenConfig,
    ViewGenConfig,
};
use cfd_model::Cfd;
use cfd_relalg::eval::eval_spc;
use cfd_relalg::instance::{Database, Relation, Tuple};
use cfd_relalg::query::SpcQuery;
use cfd_relalg::schema::{Catalog, RelId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

struct Workload {
    catalog: Catalog,
    specs: Vec<RelationSpec>,
    source_cinds: Vec<Cind>,
    query: SpcQuery,
    view_sigma: Vec<Cfd>,
    view_cinds: Vec<Cind>,
    view_rel: RelId,
}

fn random_tuple(catalog: &Catalog, rel: RelId, rng: &mut StdRng) -> Tuple {
    catalog
        .schema(rel)
        .attributes
        .iter()
        .map(|a| random_value(&a.domain, 4, rng))
        .collect()
}

fn make_workload(n_rel: usize, seed: u64) -> (Workload, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let catalog = gen_schema(
        &SchemaGenConfig {
            relations: n_rel,
            min_arity: 2,
            max_arity: 3,
            finite_ratio: 0.0,
        },
        &mut rng,
    );
    let sigma = gen_cfds(
        &catalog,
        &CfdGenConfig {
            count: n_rel,
            lhs_max: 2,
            var_pct: 0.5,
            const_range: 4,
            ensure_consistent: true,
            allow_unconditional_constants: true,
        },
        &mut rng,
    );
    let source_cinds = gen_cinds(
        &catalog,
        &CindGenConfig {
            count: 2,
            max_cols: 2,
            cond_pct: 0.3,
            pat_pct: 0.3,
            const_range: 4,
        },
        &mut rng,
    );
    // A random SPC view: 2–3 atoms, joins and constant selections from
    // the same tiny value space the data is drawn from, so both
    // actually select.
    let query = gen_spc_view(
        &catalog,
        &ViewGenConfig {
            y: 4,
            f: rng.gen_range(1..4),
            ec: rng.gen_range(2..=3.min(n_rel + 1)),
            const_range: 4,
        },
        &mut rng,
    );
    // CFDs enforced on the view: plain FDs over output positions (what
    // a propagation cover typically contains).
    let arity = query.output.len();
    let mut view_sigma = Vec::new();
    if arity >= 2 {
        view_sigma.push(Cfd::fd(&[0], 1).unwrap());
    }
    if arity >= 3 {
        view_sigma.push(Cfd::fd(&[1], 2).unwrap());
    }
    // The composed view-to-target CINDs from the random source Σ_CIND.
    let view_rel = RelId(n_rel);
    let view_cinds = propagate_cinds(
        view_rel,
        &query,
        &source_cinds,
        &ImplicationOptions::default(),
    );
    let specs = catalog
        .relations()
        .map(|(rel, schema)| {
            let base: Relation = (0..rng.gen_range(0..8))
                .map(|_| random_tuple(&catalog, rel, &mut rng))
                .collect();
            RelationSpec::new(
                schema.name.clone(),
                sigma
                    .iter()
                    .filter(|s| s.rel == rel)
                    .map(|s| s.cfd.clone())
                    .collect(),
                base,
            )
        })
        .collect();
    (
        Workload {
            catalog,
            specs,
            source_cinds,
            query,
            view_sigma,
            view_cinds,
            view_rel,
        },
        rng,
    )
}

fn random_batch(
    catalog: &Catalog,
    rel: RelId,
    mirror: &BTreeSet<Tuple>,
    rng: &mut StdRng,
) -> UpdateBatch {
    let mut upd = UpdateBatch::default();
    for _ in 0..rng.gen_range(0..5) {
        upd.inserts.push(random_tuple(catalog, rel, rng));
    }
    let residents: Vec<&Tuple> = mirror.iter().collect();
    for _ in 0..rng.gen_range(0..4) {
        if rng.gen_bool(0.6) && !residents.is_empty() {
            upd.deletes
                .push(residents[rng.gen_range(0..residents.len())].clone());
        } else {
            upd.deletes.push(random_tuple(catalog, rel, rng));
        }
    }
    upd
}

/// Fold one commit's view-CFD diff into the replayed violation state
/// (multiset semantics via exact-match removal; `Violation` has no
/// total order, so removal is by equality search).
fn replay_cfd_diff(state: &mut Vec<Violation>, diff: &ViolationDiff) {
    for v in &diff.removed {
        let at = state
            .iter()
            .position(|x| x == v)
            .expect("diff retired a violation absent from the replayed state");
        state.swap_remove(at);
    }
    for v in &diff.added {
        assert!(
            !state.contains(v),
            "diff added a violation already in the replayed state"
        );
        state.push(v.clone());
    }
}

/// Two violation lists as multisets (order-insensitive).
fn same_violations(a: &[Violation], b: &[Violation]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut rest: Vec<&Violation> = b.iter().collect();
    for v in a {
        match rest.iter().position(|x| *x == v) {
            Some(at) => {
                rest.swap_remove(at);
            }
            None => return false,
        }
    }
    true
}

/// The nested-loop view-CIND reference: for every view tuple in scope
/// of a maintained CIND, scan the source relation for a witness.
fn view_cind_reference(
    view: &Relation,
    sources: &[Relation],
    cinds: &[Cind],
) -> BTreeSet<CindViolation> {
    let mut out = BTreeSet::new();
    for (ci, psi) in cinds.iter().enumerate() {
        for t in view.tuples() {
            if !psi.lhs_condition().iter().all(|(a, v)| &t[*a] == v) {
                continue;
            }
            let rhs = &sources[psi.rhs_rel().0];
            let witnessed = rhs.tuples().any(|u| {
                psi.rhs_pattern().iter().all(|(a, v)| &u[*a] == v)
                    && psi.columns().iter().all(|(x, y)| t[*x] == u[*y])
            });
            if !witnessed {
                out.insert(CindViolation {
                    cind_index: ci,
                    tuple: t.clone(),
                });
            }
        }
    }
    out
}

fn run_one(n_rel: usize, shards: usize, seed: u64) {
    let (w, mut rng) = make_workload(n_rel, seed);
    let ctx = |extra: &str| format!("n_rel {n_rel}, shards {shards}, seed {seed}: {extra}");
    let mut store =
        MultiStore::new(w.specs.clone(), w.source_cinds.clone(), shards).expect("valid workload");
    let mut spec = ViewSpec::new("V", w.query.clone());
    spec.sigma = w.view_sigma.clone();
    spec.cinds = w.view_cinds.clone();
    let v = store.register_view(spec).expect("valid view");
    assert_eq!(store.view(v).view_rel(), w.view_rel);

    // Value-level mirrors drive delete candidates and the references.
    let mut mirror: Vec<BTreeSet<Tuple>> = w
        .specs
        .iter()
        .map(|s| s.base.tuples().cloned().collect())
        .collect();

    // Seed-state checks, then the replayed states start here.
    let fresh = |store: &MultiStore| -> (Relation, Vec<Relation>) {
        let snap = store.snapshot();
        let mut db = Database::empty(&w.catalog);
        let mut sources = Vec::with_capacity(n_rel);
        for i in 0..n_rel {
            let rel = snap.relation(RelId(i));
            for t in rel.tuples() {
                db.insert(RelId(i), t.clone());
            }
            sources.push(rel);
        }
        let expected = eval_spc(&w.query, &w.catalog, &db);
        assert_eq!(
            snap.view(v).relation,
            expected,
            "{}",
            ctx("pinned view ≠ same-epoch fresh evaluation")
        );
        (expected, sources)
    };
    let (view0, sources0) = fresh(&store);
    let mut replayed_cfd: Vec<Violation> = store.view_cfd_violations(v);
    assert!(
        same_violations(&replayed_cfd, &detect_all(&view0, store.view(v).sigma())),
        "{}",
        ctx("seeded view-CFD state ≠ detect_all")
    );
    let mut replayed_cind: BTreeSet<CindViolation> =
        store.view_cind_violations(v).into_iter().collect();
    assert_eq!(
        replayed_cind,
        view_cind_reference(&view0, &sources0, store.view(v).cinds()),
        "{}",
        ctx("seeded view-CIND state ≠ nested-loop reference")
    );

    for _ in 0..6 {
        let rel = RelId(rng.gen_range(0..n_rel));
        let batch = random_batch(&w.catalog, rel, &mirror[rel.0], &mut rng);
        for t in &batch.deletes {
            mirror[rel.0].remove(t);
        }
        for t in &batch.inserts {
            mirror[rel.0].insert(t.clone());
        }
        let commit = store.apply(rel, &batch);

        // 1. Same-epoch snapshot: maintained view ≡ fresh evaluation.
        let (view_now, sources_now) = fresh(&store);
        for (i, m) in mirror.iter().enumerate() {
            let expected: Relation = m.iter().cloned().collect();
            assert_eq!(
                store.relation(RelId(i)),
                expected,
                "{}",
                ctx("store relation ≠ mirror")
            );
            let _ = &sources_now[i];
        }

        // 2. The view-CFD diff replays onto detect_all of the fresh view.
        for vd in &commit.views {
            assert_eq!(vd.view, v);
            replay_cfd_diff(&mut replayed_cfd, &vd.cfd);
            for x in &vd.cind.removed {
                assert!(
                    replayed_cind.remove(x),
                    "{}",
                    ctx("cind replay: bad retire")
                );
            }
            for x in &vd.cind.added {
                assert!(
                    replayed_cind.insert(x.clone()),
                    "{}",
                    ctx("cind replay: double add")
                );
            }
        }
        let fresh_cfd = detect_all(&view_now, store.view(v).sigma());
        assert!(
            same_violations(&replayed_cfd, &fresh_cfd),
            "{}",
            ctx("replayed view-CFD diffs ≠ fresh detect_all")
        );
        assert!(
            same_violations(&store.view_cfd_violations(v), &fresh_cfd),
            "{}",
            ctx("maintained view-CFD state ≠ fresh detect_all")
        );

        // 3. The view-CIND state matches the nested-loop reference.
        let expected_cind = view_cind_reference(&view_now, &sources_now, store.view(v).cinds());
        assert_eq!(
            store
                .view_cind_violations(v)
                .into_iter()
                .collect::<BTreeSet<_>>(),
            expected_cind,
            "{}",
            ctx("maintained view-CIND state ≠ nested-loop reference")
        );
        assert_eq!(
            replayed_cind,
            expected_cind,
            "{}",
            ctx("replayed view-CIND diffs ≠ nested-loop reference")
        );

        // 4. The running violation count equals the materialized sets.
        let materialized = (0..n_rel)
            .map(|i| store.cfd_violations(RelId(i)).len())
            .sum::<usize>()
            + store.cind_violations().len()
            + fresh_cfd.len()
            + expected_cind.len();
        assert_eq!(
            store.violation_count(),
            materialized,
            "{}",
            ctx("violation_count ≠ materialized lengths")
        );
    }
}

#[test]
fn incremental_views_match_fresh_evaluation_under_random_batches() {
    for n_rel in [2usize, 3] {
        for shards in [1usize, 4] {
            for seed in 0..12u64 {
                run_one(
                    n_rel,
                    shards,
                    1000 * n_rel as u64 + 10 * shards as u64 + seed,
                );
            }
        }
    }
}

/// A registered view seeds correctly from a *non-empty, already
/// updated* store: registration after commits must equal registration
/// before them.
#[test]
fn late_registration_equals_early_registration() {
    for seed in 0..6u64 {
        let (w, mut rng) = make_workload(2, 777 + seed);
        let mut early = MultiStore::new(w.specs.clone(), w.source_cinds.clone(), 2).unwrap();
        let mut spec = ViewSpec::new("V", w.query.clone());
        spec.sigma = w.view_sigma.clone();
        spec.cinds = w.view_cinds.clone();
        let ve = early.register_view(spec.clone()).unwrap();
        let mut late = MultiStore::new(w.specs.clone(), w.source_cinds.clone(), 2).unwrap();
        let mut mirror: Vec<BTreeSet<Tuple>> = w
            .specs
            .iter()
            .map(|s| s.base.tuples().cloned().collect())
            .collect();
        for _ in 0..4 {
            let rel = RelId(rng.gen_range(0..2));
            let batch = random_batch(&w.catalog, rel, &mirror[rel.0], &mut rng);
            for t in &batch.deletes {
                mirror[rel.0].remove(t);
            }
            for t in &batch.inserts {
                mirror[rel.0].insert(t.clone());
            }
            early.apply(rel, &batch);
            late.apply(rel, &batch);
        }
        let vl = late.register_view(spec).unwrap();
        assert_eq!(early.view_relation(ve), late.view_relation(vl));
        assert!(same_violations(
            &early.view_cfd_violations(ve),
            &late.view_cfd_violations(vl)
        ));
        assert_eq!(
            early.view_cind_violations(ve),
            late.view_cind_violations(vl)
        );
    }
}
