//! The differential harness for the stacked-view catalog (ISSUE 9).
//!
//! Random view-over-view DAGs — SPCU unions whose branches read base
//! relations *and earlier views* — are registered on a [`MultiStore`]
//! and driven with random update batches **including deletes**. After
//! every commit the maintained contents of *every* view must equal the
//! bottom-up [`eval_stacked`] oracle on a same-epoch
//! [`cfd_clean::MultiSnapshot`], both through the live accessors and
//! through the pinned snapshot. The driver covers `shards ∈ {1, 4}` ×
//! 12 seeds (DAG shapes vary with the seed: 2–3 base relations, 3–5
//! views, fan-in ≤ 3 branches, ≤ 2 atoms per branch, depth ≤ 3 with
//! shared subviews).
//!
//! On top of the per-commit equivalence, the suite pins down the
//! catalog's lifecycle semantics:
//!
//! * late registration ≡ early registration (a DAG registered after
//!   commits seeds to exactly the state maintained from the start);
//! * `RESTRICT` drops refuse while live dependents exist and succeed
//!   in reverse topological order, with maintenance continuing over
//!   the tombstoned slots;
//! * duplicate names are typed errors, and a dropped name can be
//!   reused;
//! * self-loops and 2-cycles are rejected (and the failed batch rolls
//!   back completely) unless **every** member opts into
//!   [`CyclePolicy::Monotone`], in which case the component is
//!   maintained to the least fixed point — equal to naive Kleene
//!   iteration — under inserts (semi-naive growth) and deletes
//!   (delete-and-rederive);
//! * a diamond with a shared subview refreshes each view exactly once
//!   per commit, in topological order;
//! * `replace_view` is atomic: pinned snapshots keep the old cut,
//!   failures (arity change under dependents, introduced cycles)
//!   leave the old definition live.

use cfd_cind::Cind;
use cfd_clean::{
    CatalogError, CyclePolicy, MultiStore, RelationSpec, StackedViewSpec, UpdateBatch,
};
use cfd_datagen::cfd_gen::random_value;
use cfd_relalg::eval::{catalog_with_views, eval_stacked};
use cfd_relalg::query::{ColRef, OutputCol, ProdCol, SelAtom};
use cfd_relalg::{
    Attribute, Catalog, Database, DomainKind, RelId, Relation, RelationSchema, SpcQuery, SpcuQuery,
    Tuple, Value, ViewSchema,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// A random view-over-view workload: the base catalog, its extension
/// with one node per view slot, the specs the store registers, and the
/// same queries in the oracle's [`SpcuQuery`] form.
struct Dag {
    catalog: Catalog,
    ext: Catalog,
    specs: Vec<RelationSpec>,
    views: Vec<StackedViewSpec>,
    queries: Vec<SpcuQuery>,
    n_base: usize,
}

/// All columns are `Int` drawn from `0..4` so joins and constant
/// selections actually select, and so cross-branch union compatibility
/// reduces to forcing the canonical output names `c0..`.
fn int_attrs(arity: usize) -> Vec<Attribute> {
    (0..arity)
        .map(|i| Attribute::new(format!("a{i}"), DomainKind::Int))
        .collect()
}

fn canonical_names(arity: usize) -> Vec<(String, DomainKind)> {
    (0..arity)
        .map(|i| (format!("c{i}"), DomainKind::Int))
        .collect()
}

fn random_tuple(arity: usize, rng: &mut StdRng) -> Tuple {
    (0..arity)
        .map(|_| random_value(&DomainKind::Int, 4, rng))
        .collect()
}

/// One SPC branch over the extended node space. `pool` holds the
/// candidate atom nodes (already biased toward views), `arities` the
/// arity of every node, and the output is renamed to `c0..c{arity-1}`
/// so every branch of a view is union-compatible by construction.
fn random_branch(
    pool: &[usize],
    arities: &[usize],
    out_arity: usize,
    rng: &mut StdRng,
) -> SpcQuery {
    let n_atoms = rng.gen_range(1..=2usize);
    let atoms: Vec<RelId> = (0..n_atoms)
        .map(|_| RelId(pool[rng.gen_range(0..pool.len())]))
        .collect();
    let cols: Vec<ProdCol> = atoms
        .iter()
        .enumerate()
        .flat_map(|(i, r)| (0..arities[r.0]).map(move |a| ProdCol::new(i, a)))
        .collect();
    let mut selection = Vec::new();
    if n_atoms == 2 && rng.gen_bool(0.8) {
        selection.push(SelAtom::Eq(
            ProdCol::new(0, rng.gen_range(0..arities[atoms[0].0])),
            ProdCol::new(1, rng.gen_range(0..arities[atoms[1].0])),
        ));
    }
    if rng.gen_bool(0.3) {
        selection.push(SelAtom::EqConst(
            cols[rng.gen_range(0..cols.len())],
            Value::int(rng.gen_range(0..4)),
        ));
    }
    let output = (0..out_arity)
        .map(|i| OutputCol {
            name: format!("c{i}"),
            src: ColRef::Prod(cols[rng.gen_range(0..cols.len())]),
        })
        .collect();
    SpcQuery {
        atoms,
        constants: vec![],
        selection,
        output,
    }
}

fn make_dag(n_base: usize, n_views: usize, seed: u64) -> (Dag, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut catalog = Catalog::new();
    let mut arities = Vec::new();
    for i in 0..n_base {
        let arity = rng.gen_range(2..=3usize);
        catalog
            .add(RelationSchema::new(format!("r{i}"), int_attrs(arity)).unwrap())
            .unwrap();
        arities.push(arity);
    }
    // depth 0 = base; a view's depth is 1 + max over its atoms, capped
    // at 3 by only offering nodes of depth ≤ 2 as candidate atoms.
    let mut depth = vec![0usize; n_base];
    let mut views = Vec::new();
    let mut schemas = Vec::new();
    for k in 0..n_views {
        let arity = rng.gen_range(2..=3usize);
        // Candidate pool: every node of depth ≤ 2, with view nodes
        // repeated so stacking (and shared subviews) actually happens.
        let mut pool: Vec<usize> = (0..arities.len()).filter(|&n| depth[n] <= 2).collect();
        let stacked: Vec<usize> = pool.iter().copied().filter(|&n| n >= n_base).collect();
        for _ in 0..3 {
            pool.extend(&stacked);
        }
        let n_branches = rng.gen_range(1..=3usize);
        let branches: Vec<SpcQuery> = (0..n_branches)
            .map(|_| random_branch(&pool, &arities, arity, &mut rng))
            .collect();
        let d = branches
            .iter()
            .flat_map(|b| b.atoms.iter().map(|a| depth[a.0]))
            .max()
            .unwrap()
            + 1;
        views.push(StackedViewSpec::new(format!("v{k}"), branches));
        schemas.push((
            format!("v{k}"),
            ViewSchema {
                columns: canonical_names(arity),
            },
        ));
        arities.push(arity);
        depth.push(d);
    }
    let ext = catalog_with_views(&catalog, &schemas).unwrap();
    let queries: Vec<SpcuQuery> = views
        .iter()
        .map(|v| SpcuQuery::union(&ext, v.branches.clone()).unwrap())
        .collect();
    let specs = (0..n_base)
        .map(|i| {
            let base: Relation = (0..rng.gen_range(0..8))
                .map(|_| random_tuple(arities[i], &mut rng))
                .collect();
            RelationSpec::new(format!("r{i}"), Vec::new(), base)
        })
        .collect();
    (
        Dag {
            catalog,
            ext,
            specs,
            views,
            queries,
            n_base,
        },
        rng,
    )
}

fn random_batch(arity: usize, mirror: &BTreeSet<Tuple>, rng: &mut StdRng) -> UpdateBatch {
    let mut upd = UpdateBatch::default();
    for _ in 0..rng.gen_range(0..5) {
        upd.inserts.push(random_tuple(arity, rng));
    }
    let residents: Vec<&Tuple> = mirror.iter().collect();
    for _ in 0..rng.gen_range(0..4) {
        if rng.gen_bool(0.6) && !residents.is_empty() {
            upd.deletes
                .push(residents[rng.gen_range(0..residents.len())].clone());
        } else {
            upd.deletes.push(random_tuple(arity, rng));
        }
    }
    upd
}

/// Same-epoch differential check: rebuild a [`Database`] from one
/// pinned snapshot and compare every *live* view — through the
/// snapshot and through the store — against the bottom-up oracle.
/// Dropped slots must be absent from the snapshot.
fn check_against_oracle(store: &MultiStore, dag: &Dag, live: &[bool], ctx: &str) {
    let snap = store.snapshot();
    let mut db = Database::empty(&dag.ext);
    for i in 0..dag.n_base {
        for t in snap.relation(RelId(i)).tuples() {
            db.insert(RelId(i), t.clone());
        }
    }
    let fresh = eval_stacked(&dag.ext, dag.n_base, &dag.queries, &db);
    for (k, expected) in fresh.iter().enumerate() {
        if !live[k] {
            assert!(
                snap.view_opt(k).is_none(),
                "{ctx}: dropped slot {k} still pinned"
            );
            continue;
        }
        assert_eq!(
            &snap.view(k).relation,
            expected,
            "{ctx}: pinned view v{k} ≠ same-epoch fresh evaluation"
        );
        assert_eq!(
            &store.view_relation(k),
            expected,
            "{ctx}: maintained view v{k} ≠ fresh evaluation"
        );
    }
    // The running counts agree with the materialized sets.
    let materialized = (0..dag.n_base)
        .map(|i| store.cfd_violations(RelId(i)).len())
        .sum::<usize>()
        + store.cind_violations().len()
        + (0..live.len())
            .filter(|&k| live[k])
            .map(|k| store.view_cfd_violations(k).len() + store.view_cind_violations(k).len())
            .sum::<usize>();
    assert_eq!(
        store.violation_count(),
        materialized,
        "{ctx}: violation_count ≠ materialized lengths"
    );
}

/// Does view `j` read slot `k` directly?
fn reads(views: &[StackedViewSpec], n_base: usize, j: usize, k: usize) -> bool {
    views[j]
        .branches
        .iter()
        .any(|b| b.atoms.contains(&RelId(n_base + k)))
}

fn run_one(n_base: usize, n_views: usize, shards: usize, seed: u64) {
    let (dag, mut rng) = make_dag(n_base, n_views, seed);
    let ctx = |extra: &str| {
        format!("n_base {n_base}, n_views {n_views}, shards {shards}, seed {seed}: {extra}")
    };
    let mut store = MultiStore::new(dag.specs.clone(), Vec::new(), shards).expect("valid bases");
    let ids = store
        .register_stacked_batch(dag.views.clone())
        .expect("acyclic DAG registers");
    assert_eq!(ids, (0..n_views).collect::<Vec<_>>(), "{}", ctx("slot ids"));
    for (k, id) in ids.iter().enumerate() {
        assert_eq!(store.view_name(*id), format!("v{k}"));
        assert_eq!(store.view_id(&format!("v{k}")), Some(*id));
    }
    let mut live = vec![true; n_views];
    let mut mirror: Vec<BTreeSet<Tuple>> = dag
        .specs
        .iter()
        .map(|s| s.base.tuples().cloned().collect())
        .collect();
    check_against_oracle(&store, &dag, &live, &ctx("seed state"));

    for round in 0..6 {
        let rel = RelId(rng.gen_range(0..n_base));
        let arity = dag.catalog.schema(rel).arity();
        let batch = random_batch(arity, &mirror[rel.0], &mut rng);
        for t in &batch.deletes {
            mirror[rel.0].remove(t);
        }
        for t in &batch.inserts {
            mirror[rel.0].insert(t.clone());
        }
        let commit = store.apply(rel, &batch);
        // Refresh-scheduler accounting: every live view is either
        // refreshed or provably skipped, never silently dropped. The
        // oracle check below then proves the skips sound — skipped
        // views must *still* equal the fresh evaluation.
        assert_eq!(
            commit.refresh.refreshed + commit.refresh.skipped,
            live.iter().filter(|&&l| l).count(),
            "{}",
            ctx("refresh + skip counts must cover every live view")
        );
        // Topological refresh emits each view at most once, in slot
        // order (registration order is a topological order here).
        let emitted: Vec<usize> = commit.views.iter().map(|vd| vd.view).collect();
        assert!(
            emitted.windows(2).all(|w| w[0] < w[1]),
            "{}",
            ctx("view deltas out of topological order")
        );
        for (i, m) in mirror.iter().enumerate() {
            let expected: Relation = m.iter().cloned().collect();
            assert_eq!(
                store.relation(RelId(i)),
                expected,
                "{}",
                ctx("store relation ≠ mirror")
            );
        }
        check_against_oracle(&store, &dag, &live, &ctx(&format!("after commit {round}")));
    }

    // RESTRICT: while a live dependent reads a view it refuses to drop.
    let depended: Option<usize> =
        (0..n_views).find(|&k| (k + 1..n_views).any(|j| reads(&dag.views, n_base, j, k)));
    if let Some(k) = depended {
        match store.drop_view(&format!("v{k}")) {
            Err(CatalogError::HasDependents { view, dependents }) => {
                assert_eq!(view, format!("v{k}"));
                assert!(!dependents.is_empty());
            }
            other => panic!(
                "{}",
                ctx(&format!("expected RESTRICT refusal, got {other:?}"))
            ),
        }
    }
    // Reverse registration order is a valid drop order (dependencies
    // only point at earlier slots); maintenance keeps serving the
    // survivors over the tombstones.
    for k in (0..n_views).rev() {
        assert_eq!(store.drop_view(&format!("v{k}")), Ok(k), "{}", ctx("drop"));
        live[k] = false;
        let rel = RelId(rng.gen_range(0..n_base));
        let arity = dag.catalog.schema(rel).arity();
        let batch = random_batch(arity, &mirror[rel.0], &mut rng);
        for t in &batch.deletes {
            mirror[rel.0].remove(t);
        }
        for t in &batch.inserts {
            mirror[rel.0].insert(t.clone());
        }
        let commit = store.apply(rel, &batch);
        assert_eq!(
            commit.refresh.refreshed + commit.refresh.skipped,
            live.iter().filter(|&&l| l).count(),
            "{}",
            ctx("refresh accounting over tombstoned slots")
        );
        check_against_oracle(&store, &dag, &live, &ctx(&format!("after dropping v{k}")));
    }
}

#[test]
fn stacked_dags_match_fresh_evaluation_under_random_batches() {
    for shards in [1usize, 4] {
        for seed in 0..12u64 {
            let n_base = 2 + (seed % 2) as usize;
            let n_views = 3 + (seed % 3) as usize;
            run_one(n_base, n_views, shards, 9000 + 10 * shards as u64 + seed);
        }
    }
}

/// A DAG registered on an already-updated store seeds to exactly the
/// state an identical DAG maintained from the start has reached.
#[test]
fn late_registration_equals_early_registration() {
    for seed in 0..6u64 {
        let (dag, mut rng) = make_dag(2, 4, 4200 + seed);
        let mut early = MultiStore::new(dag.specs.clone(), Vec::new(), 2).unwrap();
        early.register_stacked_batch(dag.views.clone()).unwrap();
        let mut late = MultiStore::new(dag.specs.clone(), Vec::new(), 2).unwrap();
        let mut mirror: Vec<BTreeSet<Tuple>> = dag
            .specs
            .iter()
            .map(|s| s.base.tuples().cloned().collect())
            .collect();
        for _ in 0..4 {
            let rel = RelId(rng.gen_range(0..2));
            let arity = dag.catalog.schema(rel).arity();
            let batch = random_batch(arity, &mirror[rel.0], &mut rng);
            for t in &batch.deletes {
                mirror[rel.0].remove(t);
            }
            for t in &batch.inserts {
                mirror[rel.0].insert(t.clone());
            }
            early.apply(rel, &batch);
            late.apply(rel, &batch);
        }
        late.register_stacked_batch(dag.views.clone()).unwrap();
        let live = vec![true; 4];
        for k in 0..4 {
            assert_eq!(
                early.view_relation(k),
                late.view_relation(k),
                "seed {seed}: late registration diverged on v{k}"
            );
        }
        check_against_oracle(&early, &dag, &live, &format!("seed {seed}: early"));
        check_against_oracle(&late, &dag, &live, &format!("seed {seed}: late"));
    }
}

/// Deterministic two-relation base used by the lifecycle unit tests:
/// `e(a0, a1)` seeded with a small edge list.
fn edge_store(edges: &[(i64, i64)], shards: usize) -> (Catalog, MultiStore) {
    let mut catalog = Catalog::new();
    catalog
        .add(RelationSchema::new("e", int_attrs(2)).unwrap())
        .unwrap();
    let base: Relation = edges
        .iter()
        .map(|(x, y)| vec![Value::int(*x), Value::int(*y)])
        .collect();
    let store = MultiStore::new(
        vec![RelationSpec::new("e", Vec::new(), base)],
        Vec::new(),
        shards,
    )
    .unwrap();
    (catalog, store)
}

/// `πc0,c1(e)` — the identity branch over the edge relation, renamed
/// to the canonical output columns.
fn edge_identity() -> SpcQuery {
    SpcQuery {
        atoms: vec![RelId(0)],
        constants: vec![],
        selection: vec![],
        output: vec![
            OutputCol {
                name: "c0".into(),
                src: ColRef::Prod(ProdCol::new(0, 0)),
            },
            OutputCol {
                name: "c1".into(),
                src: ColRef::Prod(ProdCol::new(0, 1)),
            },
        ],
    }
}

/// `πe.a0,v.c1(σe.a1=v.c0(e × node))` — one join step through `node`.
fn edge_step(node: usize) -> SpcQuery {
    SpcQuery {
        atoms: vec![RelId(0), RelId(node)],
        constants: vec![],
        selection: vec![SelAtom::Eq(ProdCol::new(0, 1), ProdCol::new(1, 0))],
        output: vec![
            OutputCol {
                name: "c0".into(),
                src: ColRef::Prod(ProdCol::new(0, 0)),
            },
            OutputCol {
                name: "c1".into(),
                src: ColRef::Prod(ProdCol::new(1, 1)),
            },
        ],
    }
}

#[test]
fn duplicate_names_are_typed_errors_and_dropped_names_are_reusable() {
    let (_catalog, mut store) = edge_store(&[(1, 2)], 1);
    store
        .register_stacked(StackedViewSpec::new("tc", vec![edge_identity()]))
        .unwrap();
    // A live name cannot be registered again ...
    assert_eq!(
        store.register_stacked(StackedViewSpec::new("tc", vec![edge_identity()])),
        Err(CatalogError::DuplicateName("tc".into()))
    );
    // ... nor twice within one batch (atomically: nothing sticks).
    assert_eq!(
        store.register_stacked_batch(vec![
            StackedViewSpec::new("w", vec![edge_identity()]),
            StackedViewSpec::new("w", vec![edge_identity()]),
        ]),
        Err(CatalogError::DuplicateName("w".into()))
    );
    assert_eq!(store.view_count(), 1);
    assert_eq!(store.view_id("w"), None);
    // Dropping frees the name; the replacement gets a fresh slot.
    assert_eq!(store.drop_view("tc"), Ok(0));
    let slot = store
        .register_stacked(StackedViewSpec::new("tc", vec![edge_identity()]))
        .unwrap();
    assert_eq!(slot, 1);
    assert_eq!(store.view_id("tc"), Some(1));
}

#[test]
fn union_incompatible_branches_are_rejected() {
    let (_catalog, mut store) = edge_store(&[(1, 2)], 1);
    let mut renamed = edge_identity();
    renamed.output[1].name = "other".into();
    assert_eq!(
        store.register_stacked(StackedViewSpec::new("u", vec![edge_identity(), renamed])),
        Err(CatalogError::UnionIncompatible { view: "u".into() })
    );
    assert_eq!(store.view_count(), 0);
}

#[test]
fn self_loops_and_two_cycles_are_rejected_and_rolled_back() {
    let (_catalog, mut store) = edge_store(&[(1, 2), (2, 3)], 1);
    // Self-loop under the default Reject policy. Node 1 = slot 0.
    assert_eq!(
        store.register_stacked(StackedViewSpec::new(
            "tc",
            vec![edge_identity(), edge_step(1)]
        )),
        Err(CatalogError::Cycle {
            names: vec!["tc".into()]
        })
    );
    assert_eq!(store.view_count(), 0, "failed batch rolled back");
    // A 2-cycle across one batch (forward references are legal in a
    // batch, so only the cycle check can refuse it).
    let two_cycle = vec![
        StackedViewSpec::new("a", vec![edge_step(2)]),
        StackedViewSpec::new("b", vec![edge_step(1)]),
    ];
    assert_eq!(
        store.register_stacked_batch(two_cycle.clone()),
        Err(CatalogError::Cycle {
            names: vec!["a".into(), "b".into()]
        })
    );
    // Monotone is an opt-in for *every* member of the component.
    let mut half = two_cycle.clone();
    half[0] = half[0].clone().with_cycle(CyclePolicy::Monotone);
    assert_eq!(
        store.register_stacked_batch(half),
        Err(CatalogError::Cycle {
            names: vec!["a".into(), "b".into()]
        })
    );
    assert_eq!(store.view_count(), 0);
    // The store still works after the failures.
    let slot = store
        .register_stacked(StackedViewSpec::new("ok", vec![edge_identity()]))
        .unwrap();
    assert_eq!(store.view_relation(slot).len(), 2);
}

/// Transitive closure as a monotone self-loop: `tc = e ∪ π(e ⋈ tc)`.
/// The catalog seeds and maintains it to the least fixed point, which
/// must match naive Kleene iteration ([`eval_stacked`]) under inserts
/// (semi-naive growth) and deletes (delete-and-rederive).
#[test]
fn monotone_self_loop_reaches_the_naive_fixed_point() {
    for shards in [1usize, 4] {
        let (catalog, mut store) = edge_store(&[(1, 2), (2, 3), (3, 4)], shards);
        let spec = StackedViewSpec::new("tc", vec![edge_identity(), edge_step(1)])
            .with_cycle(CyclePolicy::Monotone);
        let ext = catalog_with_views(
            &catalog,
            &[(
                "tc".into(),
                ViewSchema {
                    columns: canonical_names(2),
                },
            )],
        )
        .unwrap();
        let queries = vec![SpcuQuery::union(&ext, spec.branches.clone()).unwrap()];
        let slot = store.register_stacked(spec).unwrap();
        let oracle = |store: &MultiStore, what: &str| {
            let snap = store.snapshot();
            let mut db = Database::empty(&ext);
            for t in snap.relation(RelId(0)).tuples() {
                db.insert(RelId(0), t.clone());
            }
            let fresh = eval_stacked(&ext, 1, &queries, &db);
            assert_eq!(
                snap.view(slot).relation,
                fresh[0],
                "shards {shards}: {what}: pinned tc ≠ Kleene fixed point"
            );
            assert_eq!(
                store.view_relation(slot),
                fresh[0],
                "shards {shards}: {what}: maintained tc ≠ Kleene fixed point"
            );
            fresh[0].clone()
        };
        let seeded = oracle(&store, "seed");
        // The closure of the 1→2→3→4 path: all 6 ordered pairs.
        assert_eq!(seeded.len(), 6);
        // Insert-only: a new edge joins 4 back onto the path's tail.
        let mut grow = UpdateBatch::default();
        grow.inserts.push(vec![Value::int(4), Value::int(5)]);
        store.apply(RelId(0), &grow);
        assert_eq!(oracle(&store, "after insert").len(), 10);
        // Delete a bridge edge: everything derived *through* 2→3 must
        // be rederived away, nothing else.
        let mut cut = UpdateBatch::default();
        cut.deletes.push(vec![Value::int(2), Value::int(3)]);
        store.apply(RelId(0), &cut);
        let after = oracle(&store, "after bridge delete");
        assert_eq!(after.len(), 4, "1→2 plus the 3→4→5 tail closure");
        // Mixed batch: retract the first edge and splice a shortcut.
        let mut mixed = UpdateBatch::default();
        mixed.deletes.push(vec![Value::int(1), Value::int(2)]);
        mixed.inserts.push(vec![Value::int(1), Value::int(4)]);
        store.apply(RelId(0), &mixed);
        oracle(&store, "after mixed batch");
    }
}

/// Diamond with a shared subview: `base → v0 → {v1, v2} → v3`. The
/// shared upstream's delta must fan out to both middle views and merge
/// in the union sink exactly once per commit.
#[test]
fn diamond_with_shared_subview_refreshes_once_per_commit() {
    let (catalog, mut store) = edge_store(&[(1, 1), (1, 2), (2, 2)], 2);
    let mut left = edge_identity();
    left.atoms = vec![RelId(1)]; // over v0
    left.selection = vec![SelAtom::EqConst(ProdCol::new(0, 0), Value::int(1))];
    let mut right = edge_identity();
    right.atoms = vec![RelId(1)];
    right.selection = vec![SelAtom::EqConst(ProdCol::new(0, 1), Value::int(2))];
    let mut sink_l = edge_identity();
    sink_l.atoms = vec![RelId(2)]; // over v1
    let mut sink_r = edge_identity();
    sink_r.atoms = vec![RelId(3)]; // over v2
    let specs = vec![
        StackedViewSpec::new("v0", vec![edge_identity()]),
        StackedViewSpec::new("v1", vec![left]),
        StackedViewSpec::new("v2", vec![right]),
        StackedViewSpec::new("v3", vec![sink_l, sink_r]),
    ];
    let ext = catalog_with_views(
        &catalog,
        &(0..4)
            .map(|k| {
                (
                    format!("v{k}"),
                    ViewSchema {
                        columns: canonical_names(2),
                    },
                )
            })
            .collect::<Vec<_>>(),
    )
    .unwrap();
    let queries: Vec<SpcuQuery> = specs
        .iter()
        .map(|s| SpcuQuery::union(&ext, s.branches.clone()).unwrap())
        .collect();
    store.register_stacked_batch(specs).unwrap();
    let check = |store: &MultiStore, what: &str| {
        let snap = store.snapshot();
        let mut db = Database::empty(&ext);
        for t in snap.relation(RelId(0)).tuples() {
            db.insert(RelId(0), t.clone());
        }
        let fresh = eval_stacked(&ext, 1, &queries, &db);
        for (k, expected) in fresh.iter().enumerate() {
            assert_eq!(&store.view_relation(k), expected, "{what}: v{k}");
        }
    };
    check(&store, "seed");
    // (1, 2) sits in both middle views; its deletion must cancel both
    // derivations of the sink row in one refresh.
    let mut batch = UpdateBatch::default();
    batch.deletes.push(vec![Value::int(1), Value::int(2)]);
    batch.inserts.push(vec![Value::int(2), Value::int(1)]);
    let commit = store.apply(RelId(0), &batch);
    let emitted: Vec<usize> = commit.views.iter().map(|vd| vd.view).collect();
    let mut unique = emitted.clone();
    unique.dedup();
    assert_eq!(emitted, unique, "each view refreshes exactly once");
    assert!(
        emitted.windows(2).all(|w| w[0] < w[1]),
        "refresh order is topological"
    );
    check(&store, "after delete+insert");
    let sink = store.view_id("v3").unwrap();
    assert!(commit.views.iter().any(|vd| vd.view == sink
        && vd
            .rows_removed
            .contains(&vec![Value::int(1), Value::int(2)])));
}

/// `replace_view` swaps the definition atomically: pinned snapshots
/// keep the old cut, downstream views recompute, and every failure
/// mode leaves the old definition live.
#[test]
fn replace_view_is_atomic_under_pinned_snapshots() {
    let (catalog, mut store) = edge_store(&[(1, 2), (2, 3), (1, 3)], 2);
    store
        .register_stacked(StackedViewSpec::new("v0", vec![edge_identity()]))
        .unwrap();
    let mut dep = edge_identity();
    dep.atoms = vec![RelId(1)];
    dep.selection = vec![SelAtom::EqConst(ProdCol::new(0, 0), Value::int(1))];
    store
        .register_stacked(StackedViewSpec::new("v1", vec![dep]))
        .unwrap();
    assert_eq!(store.view_relation(1).len(), 2);
    let pinned = store.snapshot();

    // Arity change under a live dependent is refused.
    let mut narrow = edge_identity();
    narrow.output.truncate(1);
    assert_eq!(
        store.replace_view(StackedViewSpec::new("v0", vec![narrow])),
        Err(CatalogError::ReplaceIncompatible { view: "v0".into() })
    );
    // Replacement may not introduce a cycle (v0 reading v1);
    // replacement rejects all cycles and reports the replaced view.
    assert_eq!(
        store.replace_view(StackedViewSpec::new("v0", vec![edge_step(2)])),
        Err(CatalogError::Cycle {
            names: vec!["v0".into()]
        })
    );
    // Only live views can be replaced.
    assert_eq!(
        store.replace_view(StackedViewSpec::new("nope", vec![edge_identity()])),
        Err(CatalogError::UnknownView("nope".into()))
    );
    assert_eq!(store.view_relation(0).len(), 3, "failures left v0 intact");

    // A compatible replacement: v0 becomes σ_{a1=3}(e); v1 follows.
    let mut filtered = edge_identity();
    filtered.selection = vec![SelAtom::EqConst(ProdCol::new(0, 1), Value::int(3))];
    let deltas = store
        .replace_view(StackedViewSpec::new("v0", vec![filtered.clone()]))
        .unwrap();
    // The returned deltas carry the downstream propagation: v1 loses
    // (1, 2) because the replaced v0 no longer derives it.
    assert!(deltas
        .iter()
        .any(|d| d.view == 1 && d.rows_removed.contains(&vec![Value::int(1), Value::int(2)])));
    let ext = catalog_with_views(
        &catalog,
        &(0..2)
            .map(|k| {
                (
                    format!("v{k}"),
                    ViewSchema {
                        columns: canonical_names(2),
                    },
                )
            })
            .collect::<Vec<_>>(),
    )
    .unwrap();
    let mut dep_q = edge_identity();
    dep_q.atoms = vec![RelId(1)];
    dep_q.selection = vec![SelAtom::EqConst(ProdCol::new(0, 0), Value::int(1))];
    let queries = vec![
        SpcuQuery::union(&ext, vec![filtered]).unwrap(),
        SpcuQuery::union(&ext, vec![dep_q]).unwrap(),
    ];
    let snap = store.snapshot();
    let mut db = Database::empty(&ext);
    for t in snap.relation(RelId(0)).tuples() {
        db.insert(RelId(0), t.clone());
    }
    let fresh = eval_stacked(&ext, 1, &queries, &db);
    assert_eq!(store.view_relation(0), fresh[0]);
    assert_eq!(store.view_relation(1), fresh[1], "dependent recomputed");
    // The pre-replace snapshot still serves the old definitions.
    assert_eq!(pinned.view(0).relation.len(), 3);
    assert_eq!(pinned.view(1).relation.len(), 2);
    // Maintenance continues under the new definition.
    let mut batch = UpdateBatch::default();
    batch.inserts.push(vec![Value::int(1), Value::int(3)]);
    batch.inserts.push(vec![Value::int(4), Value::int(3)]);
    store.apply(RelId(0), &batch);
    let snap2 = store.snapshot();
    let mut db2 = Database::empty(&ext);
    for t in snap2.relation(RelId(0)).tuples() {
        db2.insert(RelId(0), t.clone());
    }
    let fresh2 = eval_stacked(&ext, 1, &queries, &db2);
    assert_eq!(store.view_relation(0), fresh2[0]);
    assert_eq!(store.view_relation(1), fresh2[1]);
}

/// The delta-aware scheduler (ISSUE 10): a commit whose rows pass no
/// view's pushed-down predicates refreshes **zero** views, a commit
/// matching one selection refreshes exactly that view, and turning
/// pruning off restores the coarse refresh-everything walk.
#[test]
fn irrelevant_commits_refresh_zero_views() {
    let (_catalog, mut store) = edge_store(&[(1, 2), (2, 3)], 2);
    // Four sibling views over `e`, each pinned to a distinct constant.
    for k in 0..4i64 {
        let mut q = edge_identity();
        q.selection = vec![SelAtom::EqConst(ProdCol::new(0, 0), Value::int(10 + k))];
        store
            .register_stacked(StackedViewSpec::new(format!("s{k}"), vec![q]))
            .unwrap();
    }
    // No row has a0 ∈ {10..13}: every view skips, nothing is emitted.
    let mut miss = UpdateBatch::default();
    miss.inserts.push(vec![Value::int(5), Value::int(5)]);
    let commit = store.apply(RelId(0), &miss);
    assert_eq!(
        (commit.refresh.refreshed, commit.refresh.skipped),
        (0, 4),
        "a commit matching no view refreshes no view"
    );
    assert!(commit.views.is_empty());
    // a0 = 11 passes exactly s1's predicate.
    let mut hit = UpdateBatch::default();
    hit.inserts.push(vec![Value::int(11), Value::int(0)]);
    let commit = store.apply(RelId(0), &hit);
    assert_eq!((commit.refresh.refreshed, commit.refresh.skipped), (1, 3));
    assert_eq!(commit.views.len(), 1);
    assert_eq!(commit.views[0].rows_added.len(), 1);
    // The store-side accessors agree with the published commit.
    assert_eq!(store.refresh_stats(), commit.refresh);
    assert_eq!(store.total_refresh_counts(), (1, 7));
    // Pruning off: the coarse walk refreshes everything that reads the
    // node, even though nothing can move.
    store.set_refresh_pruning(false);
    let mut miss2 = UpdateBatch::default();
    miss2.inserts.push(vec![Value::int(6), Value::int(6)]);
    let commit = store.apply(RelId(0), &miss2);
    assert_eq!(
        (commit.refresh.refreshed, commit.refresh.skipped),
        (4, 0),
        "the unpruned baseline refreshes every reader"
    );
    assert!(commit.views.is_empty(), "refreshed four views for nothing");
}

/// Skipping propagates down the dependency cone: when the top of a
/// chain proves its delta empty, the views stacked on it skip too —
/// they can only move through a delta the skipped view never emitted.
#[test]
fn skips_silence_the_downstream_cone() {
    let (_catalog, mut store) = edge_store(&[(7, 1)], 2);
    let mut head = edge_identity();
    head.selection = vec![SelAtom::EqConst(ProdCol::new(0, 0), Value::int(7))];
    let mut mid = edge_identity();
    mid.atoms = vec![RelId(1)]; // over the head view
    let mut tail = edge_identity();
    tail.atoms = vec![RelId(2)]; // over the middle view
    store
        .register_stacked_batch(vec![
            StackedViewSpec::new("head", vec![head]),
            StackedViewSpec::new("mid", vec![mid]),
            StackedViewSpec::new("tail", vec![tail]),
        ])
        .unwrap();
    // a0 = 5 misses the head's predicate; the whole chain skips.
    let mut miss = UpdateBatch::default();
    miss.inserts.push(vec![Value::int(5), Value::int(5)]);
    let commit = store.apply(RelId(0), &miss);
    assert_eq!((commit.refresh.refreshed, commit.refresh.skipped), (0, 3));
    // a0 = 7 hits: the delta flows through all three.
    let mut hit = UpdateBatch::default();
    hit.inserts.push(vec![Value::int(7), Value::int(9)]);
    let commit = store.apply(RelId(0), &hit);
    assert_eq!((commit.refresh.refreshed, commit.refresh.skipped), (3, 0));
    assert_eq!(commit.views.len(), 3);
    assert_eq!(store.view_relation(2).len(), 2);
}

/// ISSUE 10 satellite: a registration batch whose k-th view fails to
/// build must roll back the shared-trie references the earlier views
/// of the batch already acquired — entry count, reference count, and
/// resident rows all return to their pre-batch values, and the same
/// shapes register cleanly afterwards.
#[test]
fn failed_batch_build_reclaims_shared_trie_state() {
    let (_catalog, mut store) = edge_store(&[(1, 2), (2, 3)], 2);
    store
        .register_stacked(StackedViewSpec::new("keep", vec![edge_identity()]))
        .unwrap();
    let before = store.shared_trie_stats();
    assert_eq!(before, (1, 1, 2), "one entry, one reference, two rows");
    // The second view of the batch carries an extra CIND whose LHS is
    // not the view itself: `admit` only validates branch atoms and
    // CIND RHS nodes, so the batch is admitted — and then the build of
    // that view fails *after* the first view already acquired its
    // shared-trie references.
    let bogus = Cind::ind(RelId(0), RelId(0), vec![(0, 0)]).unwrap();
    let mut selective = edge_identity();
    selective.selection = vec![SelAtom::EqConst(ProdCol::new(0, 0), Value::int(1))];
    let err = store.register_stacked_batch(vec![
        StackedViewSpec::new("w0", vec![edge_identity(), selective.clone()]),
        StackedViewSpec::new("w1", vec![edge_identity()]).with_cinds(vec![bogus]),
    ]);
    assert!(
        matches!(err, Err(CatalogError::Cind(_))),
        "bogus-LHS extra CIND passes admit but fails the build: {err:?}"
    );
    assert_eq!(store.view_count(), 1, "batch rolled back");
    assert_eq!(
        store.shared_trie_stats(),
        before,
        "rollback reclaimed every shared-trie reference the batch took"
    );
    // The same shapes register cleanly afterwards; w0's identity
    // branch rides the surviving entry, the selective branch gets its
    // own.
    store
        .register_stacked_batch(vec![
            StackedViewSpec::new("w0", vec![edge_identity(), selective]),
            StackedViewSpec::new("w1", vec![edge_identity()]),
        ])
        .unwrap();
    let (entries, refs, _rows) = store.shared_trie_stats();
    assert_eq!(entries, 2, "identity key shared, selective key private");
    assert_eq!(refs, 4, "keep + w0×2 + w1");
    // Dropping releases: w1 rides the shared identity entry, so only
    // its reference goes; dropping w0 then retires the selective entry.
    store.drop_view("w1").unwrap();
    assert_eq!(store.shared_trie_stats().1, 3);
    store.drop_view("w0").unwrap();
    assert_eq!(store.shared_trie_stats(), before);
}
