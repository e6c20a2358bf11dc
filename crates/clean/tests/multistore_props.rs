//! The differential fuzz harness for the cross-relation live store
//! (ISSUE 4, archetype headline).
//!
//! Random schemas, Σ (CFDs per relation + Σ_CIND across relations), base
//! instances, and update-batch interleavings — all drawn from
//! `cfd-datagen` — are replayed through a [`MultiStore`], and after
//! *every* commit three independent answers must coincide exactly:
//!
//! 1. the maintained state (`CindDelta` behind
//!    [`MultiStore::cind_violations`], plus the per-relation CFD state);
//! 2. a fresh [`cfd_cind::satisfy::all_violations`] rescan of the
//!    materialized database (`O(|R1| + |R2|)` per CIND, the batch
//!    reference);
//! 3. a quadratic nested-loop reference straight off the CIND
//!    definition — no indexes, no codes, nothing shared with the
//!    engines under test.
//!
//! On top, the committed diff stream must *replay*: folding every
//! [`MultiCommit`]'s CIND diff into the seed violation set lands exactly
//! on the final state. The deterministic driver covers `N_rel ∈ {2, 3}`
//! × `shards ∈ {1, 4}` × 50 seeds = **200 randomized interleavings**
//! (the ISSUE 4 acceptance floor), each 6 batches deep.
//!
//! The metamorphic suite (satellite): applying a batch and then its
//! exact inverse returns every violation set to its pre-batch state, and
//! splitting one batch into k sub-batches reaches the same end state
//! with diffs that concatenate-replay to it.

use cfd_cind::delta::CindViolation;
use cfd_cind::Cind;
use cfd_clean::{
    detect_all, MultiCommit, MultiSnapshot, MultiStore, RelationSpec, UpdateBatch, Violation,
};
use cfd_datagen::cfd_gen::random_value;
use cfd_datagen::{gen_cfds, gen_cinds, gen_schema, CfdGenConfig, CindGenConfig, SchemaGenConfig};
use cfd_relalg::instance::{Database, Relation, Tuple};
use cfd_relalg::schema::{Catalog, RelId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// One generated multi-relation workload.
struct Workload {
    catalog: Catalog,
    specs: Vec<RelationSpec>,
    cinds: Vec<Cind>,
}

/// A value-level mirror of the store: one tuple set per relation.
type Mirror = Vec<BTreeSet<Tuple>>;

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
    // Tight constant range so conditions, patterns, and FD groups all
    // actually collide on random data.
    let sigma = gen_cfds(
        &catalog,
        &CfdGenConfig {
            count: n_rel * 2,
            lhs_max: 2,
            var_pct: 0.5,
            const_range: 4,
            ensure_consistent: true,
            allow_unconditional_constants: true,
        },
        &mut rng,
    );
    let cinds = gen_cinds(
        &catalog,
        &CindGenConfig {
            count: 3,
            max_cols: 2,
            cond_pct: 0.4,
            pat_pct: 0.4,
            const_range: 4,
        },
        &mut rng,
    );
    let specs = catalog
        .relations()
        .map(|(rel, schema)| {
            let base: Relation = (0..rng.gen_range(0..6))
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
            cinds,
        },
        rng,
    )
}

fn random_tuple(catalog: &Catalog, rel: RelId, rng: &mut StdRng) -> Tuple {
    catalog
        .schema(rel)
        .attributes
        .iter()
        .map(|a| random_value(&a.domain, 4, rng))
        .collect()
}

/// A random mixed batch for one relation: inserts from the tiny value
/// space, deletes drawn half from residents (so they usually hit) and
/// half blind.
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
        if rng.gen_bool(0.5) && !residents.is_empty() {
            upd.deletes
                .push(residents[rng.gen_range(0..residents.len())].clone());
        } else {
            upd.deletes.push(random_tuple(catalog, rel, rng));
        }
    }
    upd
}

/// Fold one batch into the value-level mirror (deletes first — the
/// engines' batch semantics).
fn fold(mirror: &mut BTreeSet<Tuple>, batch: &UpdateBatch) {
    for t in &batch.deletes {
        mirror.remove(t);
    }
    for t in &batch.inserts {
        mirror.insert(t.clone());
    }
}

/// Reference 3 — the nested-loop CIND check, straight off the
/// definition: for every in-scope LHS tuple, scan the whole RHS relation
/// for a witness. `O(|R1|·|R2|)` per CIND; shares nothing with the
/// engines under test.
fn nested_loop_reference(mirror: &Mirror, cinds: &[Cind]) -> BTreeSet<CindViolation> {
    let mut out = BTreeSet::new();
    for (ci, psi) in cinds.iter().enumerate() {
        for t in &mirror[psi.lhs_rel().0] {
            if !psi.lhs_condition().iter().all(|(a, v)| &t[*a] == v) {
                continue;
            }
            let witnessed = mirror[psi.rhs_rel().0].iter().any(|u| {
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

/// Reference 2 — a fresh batch-mode rescan through
/// `cfd_cind::satisfy::all_violations` over the materialized database.
fn rescan_reference(catalog: &Catalog, mirror: &Mirror, cinds: &[Cind]) -> BTreeSet<CindViolation> {
    let mut db = Database::empty(catalog);
    for (i, rel) in mirror.iter().enumerate() {
        for t in rel {
            db.insert(RelId(i), t.clone());
        }
    }
    let mut out = BTreeSet::new();
    for (ci, psi) in cinds.iter().enumerate() {
        for t in cfd_cind::satisfy::all_violations(&db, psi).expect("known relations") {
            out.insert(CindViolation {
                cind_index: ci,
                tuple: t,
            });
        }
    }
    out
}

/// Check the store against both references and the value-level mirror,
/// CFD and CIND sides both.
fn assert_in_sync(store: &MultiStore, catalog: &Catalog, mirror: &Mirror, ctx: &str) {
    for (i, rel_mirror) in mirror.iter().enumerate() {
        let rel = RelId(i);
        let expected: Relation = rel_mirror.iter().cloned().collect();
        assert_eq!(
            store.relation(rel),
            expected,
            "{ctx}: relation {i} diverged"
        );
        assert_eq!(
            store.cfd_violations(rel),
            detect_all(&expected, store.sigma(rel)),
            "{ctx}: CFD state of relation {i} diverged from the rescan"
        );
    }
    let maintained: BTreeSet<CindViolation> = store.cind_violations().into_iter().collect();
    let rescan = rescan_reference(catalog, mirror, store.cind_sigma());
    let nested = nested_loop_reference(mirror, store.cind_sigma());
    assert_eq!(
        maintained, rescan,
        "{ctx}: CindDelta diverged from the satisfy rescan"
    );
    assert_eq!(
        rescan, nested,
        "{ctx}: satisfy rescan diverged from the nested-loop reference"
    );
}

/// The headline: 50 seeds × N_rel ∈ {2, 3} × shards ∈ {1, 4} = 200
/// randomized batch interleavings, every commit cross-checked against
/// both references, every diff stream replayed.
#[test]
fn differential_fuzz_delta_equals_rescan_equals_nested_loop() {
    let mut interleavings = 0usize;
    let mut cadences = Coverage::default();
    for seed in 0..50u64 {
        for n_rel in [2usize, 3] {
            for shards in [1usize, 4] {
                let (w, mut rng) = make_workload(n_rel, seed * 31 + n_rel as u64);
                let mut store = MultiStore::new(w.specs.clone(), w.cinds.clone(), shards)
                    .expect("generated CINDs name catalog relations");
                let mut mirror: Mirror = w
                    .specs
                    .iter()
                    .map(|s| s.base.tuples().cloned().collect())
                    .collect();
                assert_in_sync(&store, &w.catalog, &mirror, "seed state");

                // Replay the diff stream on the side: it must land on
                // the final state.
                let mut replayed: BTreeSet<CindViolation> =
                    store.cind_violations().into_iter().collect();
                // Snapshots on their own random cadence (a separate rng,
                // so the interleaving itself is unchanged).
                let mut reads = Reads::new(seed * 4 + n_rel as u64 * 2 + shards as u64);
                for b in 0..6 {
                    let rel = RelId(rng.gen_range(0..n_rel));
                    let batch = random_batch(&w.catalog, rel, &mirror[rel.0], &mut rng);
                    let commit = store.apply(rel, &batch);
                    fold(&mut mirror[rel.0], &batch);
                    let ctx = format!("seed {seed}, n_rel {n_rel}, shards {shards}, batch {b}");
                    assert_in_sync(&store, &w.catalog, &mirror, &ctx);
                    reads.after_commit(&mut store, &commit, &ctx);
                    for v in &commit.cind.removed {
                        assert!(replayed.remove(v), "{ctx}: stream retired absent violation");
                    }
                    for v in &commit.cind.added {
                        assert!(
                            replayed.insert(v.clone()),
                            "{ctx}: stream added present violation"
                        );
                    }
                }
                let current: BTreeSet<CindViolation> =
                    store.cind_violations().into_iter().collect();
                assert_eq!(replayed, current, "diff stream replay diverged");
                reads.check_held();
                cadences.add(&reads);
                interleavings += 1;
            }
        }
    }
    assert!(interleavings >= 200, "acceptance floor: {interleavings}");
    cadences.assert_covered();
}

/// How [`Reads`] takes snapshots.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Cadence {
    /// After every commit, dropped at once: the shared tip is folded in
    /// place.
    EveryCommit,
    /// Only once the CIND diff rows committed since the last snapshot
    /// outnumber its CIND set — the store's retention bound — so the
    /// next read rebuilds instead of folding.
    PastRetention,
    /// At random, held across later commits and `gc()`: folds copy the
    /// shared tip, and held snapshots must keep their captured state.
    Held,
}

/// A snapshot and the state it captured.
type HeldSnap = (MultiSnapshot, Vec<Vec<Violation>>, Vec<CindViolation>);

/// Takes snapshots of one interleaving on a random cadence and checks
/// each against a fresh materialization at its epoch.
struct Reads {
    rng: StdRng,
    cadence: Cadence,
    /// CIND diff rows committed since the last snapshot, and the size of
    /// that snapshot's CIND set.
    since: usize,
    last_len: usize,
    held: Vec<HeldSnap>,
    /// Snapshots taken, and those taken past the retention bound.
    taken: usize,
    past_bound: usize,
}

impl Reads {
    fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(0x5AA9 ^ seed);
        let cadence =
            [Cadence::EveryCommit, Cadence::PastRetention, Cadence::Held][rng.gen_range(0..3usize)];
        Reads {
            rng,
            cadence,
            since: 0,
            last_len: 0,
            held: Vec::new(),
            taken: 0,
            past_bound: 0,
        }
    }

    fn after_commit(&mut self, store: &mut MultiStore, commit: &MultiCommit, ctx: &str) {
        self.since += commit.cind.added.len() + commit.cind.removed.len();
        let past = self.since > self.last_len;
        let take = match self.cadence {
            Cadence::EveryCommit => true,
            Cadence::PastRetention => past,
            Cadence::Held => self.rng.gen_bool(0.5),
        };
        if take {
            let snap = store.snapshot();
            let cfd: Vec<Vec<Violation>> = (0..store.rel_count())
                .map(|i| store.cfd_violations(RelId(i)))
                .collect();
            let cind = store.cind_violations();
            for (i, fresh) in cfd.iter().enumerate() {
                assert_eq!(
                    snap.cfd_violations(RelId(i)),
                    fresh.as_slice(),
                    "{ctx}: snapshot CFD set of relation {i} is not the fresh one"
                );
            }
            assert_eq!(
                snap.cind_violations(),
                cind.as_slice(),
                "{ctx}: snapshot CIND set is not the fresh one"
            );
            self.taken += 1;
            self.past_bound += usize::from(past && self.since > 0);
            self.since = 0;
            self.last_len = cind.len();
            if self.cadence == Cadence::Held {
                self.held.push((snap, cfd, cind));
            }
        }
        if self.rng.gen_bool(0.3) {
            store.gc();
        }
    }

    fn check_held(&self) {
        for (snap, cfd, cind) in &self.held {
            for (i, captured) in cfd.iter().enumerate() {
                assert_eq!(
                    snap.cfd_violations(RelId(i)),
                    captured.as_slice(),
                    "held snapshot at epoch {}: CFD set of relation {i} moved",
                    snap.epoch()
                );
            }
            assert_eq!(
                snap.cind_violations(),
                cind.as_slice(),
                "held snapshot at epoch {}: CIND set moved",
                snap.epoch()
            );
        }
    }
}

/// What the snapshot cadences of a whole run exercised.
#[derive(Default)]
struct Coverage {
    /// Snapshots taken per cadence, in [`Cadence`] order.
    taken: [usize; 3],
    /// Snapshots taken after the retention bound was passed.
    past_bound: usize,
    /// Held snapshots still alive at the end of their interleaving.
    held: usize,
}

impl Coverage {
    fn add(&mut self, r: &Reads) {
        self.taken[r.cadence as usize] += r.taken;
        self.past_bound += r.past_bound;
        self.held += r.held.len();
    }

    fn assert_covered(&self) {
        assert!(
            self.taken.iter().all(|&n| n > 0) && self.past_bound > 0 && self.held > 0,
            "a snapshot cadence went unexercised: taken {:?}, past the bound {}, held {}",
            self.taken,
            self.past_bound,
            self.held
        );
    }
}

/// Metamorphic (satellite): applying a batch and then its exact inverse
/// returns every violation set — CFD on every relation and CIND — to
/// its pre-batch state.
#[test]
fn metamorphic_inverse_restores_the_violation_state() {
    for seed in 0..40u64 {
        let n_rel = 2 + (seed as usize % 2);
        let (w, mut rng) = make_workload(n_rel, 7000 + seed);
        let mut store = MultiStore::new(w.specs.clone(), w.cinds.clone(), 1 + (seed as usize % 4))
            .expect("valid");
        // Warm the store with a couple of batches first.
        let mut mirror: Mirror = w
            .specs
            .iter()
            .map(|s| s.base.tuples().cloned().collect())
            .collect();
        for _ in 0..2 {
            let rel = RelId(rng.gen_range(0..n_rel));
            let batch = random_batch(&w.catalog, rel, &mirror[rel.0], &mut rng);
            store.apply(rel, &batch);
            fold(&mut mirror[rel.0], &batch);
        }
        let rel = RelId(rng.gen_range(0..n_rel));
        let pre_rel = store.relation(rel);
        let pre_cfd: Vec<Vec<_>> = (0..n_rel).map(|i| store.cfd_violations(RelId(i))).collect();
        let pre_cind = store.cind_violations();

        let batch = random_batch(&w.catalog, rel, &mirror[rel.0], &mut rng);
        let forward = store.apply(rel, &batch);
        let post_rel = store.relation(rel);
        // The exact inverse of what was *applied*: re-insert what
        // vanished, delete what appeared.
        let inverse = UpdateBatch::new(
            pre_rel
                .tuples()
                .filter(|t| !post_rel.contains(t))
                .cloned()
                .collect(),
            post_rel
                .tuples()
                .filter(|t| !pre_rel.contains(t))
                .cloned()
                .collect(),
        );
        let backward = store.apply(rel, &inverse);
        assert_eq!(
            store.relation(rel),
            pre_rel,
            "seed {seed}: relation restored"
        );
        for (i, cfd) in pre_cfd.iter().enumerate() {
            assert_eq!(
                &store.cfd_violations(RelId(i)),
                cfd,
                "seed {seed}: CFD violations of relation {i} restored"
            );
        }
        assert_eq!(
            store.cind_violations(),
            pre_cind,
            "seed {seed}: CIND violations restored"
        );
        // And the two diffs are exact mirrors of each other.
        let sort = |mut v: Vec<CindViolation>| {
            v.sort();
            v
        };
        assert_eq!(
            sort(forward.cind.added.clone()),
            sort(backward.cind.removed.clone()),
            "seed {seed}: inverse retires exactly what the batch added"
        );
        assert_eq!(
            sort(forward.cind.removed.clone()),
            sort(backward.cind.added.clone()),
            "seed {seed}: inverse re-adds exactly what the batch retired"
        );
    }
}

/// Metamorphic (satellite): splitting one batch (with disjoint insert
/// and delete sets) into k sub-batches reaches the same end state, and
/// the concatenation of the sub-batch diffs replays to it.
#[test]
fn metamorphic_batch_split_commutes() {
    for seed in 0..40u64 {
        let n_rel = 2 + (seed as usize % 2);
        let (w, mut rng) = make_workload(n_rel, 9000 + seed);
        let rel = RelId(rng.gen_range(0..n_rel));
        let mirror: BTreeSet<Tuple> = w.specs[rel.0].base.tuples().cloned().collect();
        let mut batch = random_batch(&w.catalog, rel, &mirror, &mut rng);
        // Disjoint inserts/deletes: with overlap, sub-batch boundaries
        // change delete-before-insert resolution and the property is
        // not expected to hold.
        let inserted: BTreeSet<&Tuple> = batch.inserts.iter().collect();
        batch.deletes = batch
            .deletes
            .iter()
            .filter(|t| !inserted.contains(t))
            .cloned()
            .collect();

        let mut whole = MultiStore::new(w.specs.clone(), w.cinds.clone(), 2).expect("valid");
        let mut split = MultiStore::new(w.specs.clone(), w.cinds.clone(), 2).expect("valid");
        let seed_cind = whole.cind_violations();
        whole.apply(rel, &batch);

        // k sub-batches: deal the statements round-robin.
        let k = 1 + (rng.gen_range(0..3) as usize);
        let mut subs = vec![UpdateBatch::default(); k + 1];
        for (i, t) in batch.deletes.iter().enumerate() {
            subs[i % (k + 1)].deletes.push(t.clone());
        }
        for (i, t) in batch.inserts.iter().enumerate() {
            subs[i % (k + 1)].inserts.push(t.clone());
        }
        let mut replayed: BTreeSet<CindViolation> = seed_cind.into_iter().collect();
        for sub in &subs {
            let c = split.apply(rel, sub);
            for v in &c.cind.removed {
                assert!(
                    replayed.remove(v),
                    "seed {seed}: split stream retired absent"
                );
            }
            for v in &c.cind.added {
                assert!(
                    replayed.insert(v.clone()),
                    "seed {seed}: split stream added present"
                );
            }
        }
        assert_eq!(
            whole.relation(rel),
            split.relation(rel),
            "seed {seed}: end relations agree"
        );
        for i in 0..n_rel {
            assert_eq!(
                whole.cfd_violations(RelId(i)),
                split.cfd_violations(RelId(i)),
                "seed {seed}: end CFD states agree"
            );
        }
        assert_eq!(
            whole.cind_violations(),
            split.cind_violations(),
            "seed {seed}: end CIND states agree"
        );
        let end: BTreeSet<CindViolation> = split.cind_violations().into_iter().collect();
        assert_eq!(replayed, end, "seed {seed}: concatenated diffs replay");
    }
}

/// A cross-relation snapshot pinned mid-replay keeps answering with the
/// exact cut it captured — relations, CFD violations, and CIND
/// violations — while the writer keeps committing to *all* relations
/// (the "snapshot pinned mid-writer-storm" clause of the tentpole).
#[test]
fn pinned_snapshots_survive_the_writer_storm() {
    for seed in 0..10u64 {
        let (w, mut rng) = make_workload(2, 11_000 + seed);
        let mut store = MultiStore::new(w.specs.clone(), w.cinds.clone(), 4).expect("valid");
        let mut mirror: Mirror = w
            .specs
            .iter()
            .map(|s| s.base.tuples().cloned().collect())
            .collect();
        let mut pinned = Vec::new();
        for b in 0..12 {
            let rel = RelId(rng.gen_range(0..2));
            let batch = random_batch(&w.catalog, rel, &mirror[rel.0], &mut rng);
            store.apply(rel, &batch);
            fold(&mut mirror[rel.0], &batch);
            if b % 4 == 0 {
                let snap = store.snapshot();
                let expect_rels: Vec<Relation> = (0..2).map(|i| store.relation(RelId(i))).collect();
                let expect_cind = store.cind_violations();
                pinned.push((snap, expect_rels, expect_cind));
                store.gc();
            }
        }
        for (snap, rels, cind) in &pinned {
            for (i, rel) in rels.iter().enumerate() {
                assert_eq!(
                    &snap.relation(RelId(i)),
                    rel,
                    "seed {seed}: pinned relation {i} at epoch {}",
                    snap.epoch()
                );
                // The snapshot's CFD state is internally consistent
                // with its own relation — no torn cross-field reads.
                assert_eq!(
                    snap.cfd_violations(RelId(i)),
                    detect_all(rel, store.sigma(RelId(i))),
                    "seed {seed}: torn CFD read at epoch {}",
                    snap.epoch()
                );
            }
            assert_eq!(
                snap.cind_violations(),
                cind.as_slice(),
                "seed {seed}: pinned CIND state at epoch {}",
                snap.epoch()
            );
            // CIND consistency of the *pair*: recomputing from the
            // snapshot's own relations reproduces its CIND set.
            let cut: Mirror = (0..2)
                .map(|i| snap.relation(RelId(i)).tuples().cloned().collect())
                .collect();
            let fresh = nested_loop_reference(&cut, store.cind_sigma());
            let held: BTreeSet<CindViolation> = snap.cind_violations().iter().cloned().collect();
            assert_eq!(held, fresh, "seed {seed}: torn cross-relation read");
        }
    }
}

/// Regression (shed-on-lag): the multi-relation bus inherits the
/// sharded bus's contract — a subscriber whose queue is full at publish
/// time is dropped, never waited on. The writer here is the test thread
/// itself, so the old blocking semantics would deadlock rather than
/// fail an assertion.
#[test]
fn stalled_multistore_subscriber_is_shed_and_never_stalls_the_writer() {
    let (w, mut rng) = make_workload(2, 0xBEEF);
    let mut store = MultiStore::new(w.specs.clone(), w.cinds.clone(), 2).expect("valid workload");
    let laggard = store.subscribe(cfd_clean::MultiDiffFilter::All, 1);
    let mut mirror: Mirror = vec![BTreeSet::new(); 2];
    for i in 0..48u64 {
        let rel = RelId((i % 2) as usize);
        let batch = random_batch(&w.catalog, rel, &mirror[rel.0], &mut rng);
        fold(&mut mirror[rel.0], &batch);
        store.apply(rel, &batch);
    }
    assert_eq!(store.shed_sub_count(), 1, "laggard shed exactly once");
    let first = laggard.recv().expect("buffered commit survives the shed");
    assert_eq!(first.epoch, 1);
    assert!(
        laggard.recv().is_err(),
        "shed subscriber observes disconnect as its gap signal"
    );
    // A fresh subscriber attached after the shed gets a live stream.
    let fresh = store.subscribe(cfd_clean::MultiDiffFilter::All, 4);
    let rel = RelId(0);
    let batch = random_batch(&w.catalog, rel, &mirror[0], &mut rng);
    store.apply(rel, &batch);
    let c = fresh.try_recv().expect("fresh subscriber sees new commits");
    assert_eq!(c.epoch, 49);
    assert_eq!(store.shed_sub_count(), 1, "no further sheds");
}
