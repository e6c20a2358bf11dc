//! Property tests for the sharded live store (ISSUE 3).
//!
//! The headline equivalence: for any random Σ, base relation, and
//! interleaving of update batches, and for any shard count N, the
//! [`ShardedStore`] must agree *exactly* with both the single-store
//! [`DeltaDetector`] and a fresh columnar [`cfd_clean::detect_all`]
//! rescan of the final relation — batch for batch on the diffs, and at
//! the end on the violation set and the relation itself. On top, the
//! diff bus must be a faithful replication stream: replaying the
//! committed diffs reconstructs the violation state, and the per-CFD
//! filtered streams merged back together are the full stream.

use cfd_clean::{
    detect_all, DeltaDetector, DiffFilter, ShardedStore, Snapshot, UpdateBatch, Violation,
};
use cfd_model::cfd::Cfd;
use cfd_model::pattern::Pattern;
use cfd_relalg::instance::{Relation, Tuple};
use cfd_relalg::Value;
use proptest::prelude::*;
use std::collections::BTreeSet;

const ARITY: usize = 3;

/// The shard counts every property is checked at (1 = degenerate, 2 =
/// smallest real split, 7 = odd and larger than most test batches so
/// routing scatters hard).
const SHARD_COUNTS: [usize; 3] = [1, 2, 7];

/// Values from a tiny pool so collisions (and violations) are likely.
fn value_strategy() -> impl Strategy<Value = Value> {
    (0i64..4).prop_map(Value::int)
}

fn tuple_strategy() -> impl Strategy<Value = Tuple> {
    proptest::collection::vec(value_strategy(), ARITY)
}

fn batch_strategy() -> impl Strategy<Value = UpdateBatch> {
    (
        proptest::collection::vec(tuple_strategy(), 0..6),
        proptest::collection::vec(tuple_strategy(), 0..6),
    )
        .prop_map(|(inserts, deletes)| UpdateBatch::new(inserts, deletes))
}

/// A random normal-form CFD over `ARITY` attributes (plain, conditional,
/// constant-RHS, or the attribute-equality form) — the same shape space
/// as the delta engine's property suite.
fn cfd_strategy() -> impl Strategy<Value = Cfd> {
    let cell = prop_oneof![
        3 => Just(Pattern::Wild),
        2 => (0i64..4).prop_map(Pattern::cst),
    ];
    let lhs = proptest::collection::btree_set(0usize..ARITY, 1..ARITY);
    let shaped = (
        lhs,
        proptest::collection::vec(cell, ARITY),
        0usize..ARITY,
        prop_oneof![
            3 => Just(Pattern::Wild),
            2 => (0i64..4).prop_map(Pattern::cst),
        ],
    )
        .prop_filter_map("valid cfd", |(lhs, cells, rhs, rhs_p)| {
            let lhs_cells: Vec<(usize, Pattern)> = lhs
                .iter()
                .enumerate()
                .map(|(i, a)| (*a, cells[i].clone()))
                .collect();
            Cfd::new(lhs_cells, rhs, rhs_p).ok()
        });
    prop_oneof![
        6 => shaped,
        1 => (0usize..ARITY, 0usize..ARITY)
            .prop_filter_map("distinct attrs", |(a, b)| if a == b { None } else { Cfd::attr_eq(a, b).ok() }),
    ]
}

proptest! {
    /// sharded(N) ≡ DeltaDetector ≡ fresh columnar detect_all, for
    /// N ∈ {1, 2, 7}: identical per-batch diffs, identical final
    /// violation sets, identical final relations.
    #[test]
    fn sharded_equals_delta_equals_rescan(
        base in proptest::collection::vec(tuple_strategy(), 0..8),
        batches in proptest::collection::vec(batch_strategy(), 0..6),
        sigma in proptest::collection::vec(cfd_strategy(), 1..4),
    ) {
        let base: Relation = base.into_iter().collect();
        let mut det = DeltaDetector::new(sigma.clone(), &base);
        let mut stores: Vec<ShardedStore> = SHARD_COUNTS
            .iter()
            .map(|&n| ShardedStore::new(sigma.clone(), &base, n))
            .collect();
        for store in &stores {
            prop_assert_eq!(
                store.current_violations(),
                det.current_violations(),
                "seed state diverged at {} shard(s)",
                store.shard_count()
            );
        }
        for b in &batches {
            let expected = det.apply(b);
            for store in &mut stores {
                let commit = store.apply(b);
                prop_assert_eq!(
                    &commit.diff,
                    &expected,
                    "diff diverged at {} shard(s)",
                    store.shard_count()
                );
            }
        }
        let fresh = detect_all(&det.relation(), &sigma);
        prop_assert_eq!(det.current_violations(), fresh.clone());
        for store in &stores {
            prop_assert_eq!(store.current_violations(), fresh.clone());
            prop_assert_eq!(store.relation(), det.relation());
        }
    }

    /// The bus is a faithful replication stream: replaying every
    /// committed diff from the seed violations lands exactly on the
    /// final state, and the per-CFD filtered streams merged across
    /// subscribers reconstruct the unfiltered stream.
    #[test]
    fn diff_streams_replay_to_the_same_violation_set(
        base in proptest::collection::vec(tuple_strategy(), 0..8),
        batches in proptest::collection::vec(batch_strategy(), 1..6),
        sigma in proptest::collection::vec(cfd_strategy(), 1..4),
        n in prop_oneof![Just(1usize), Just(2), Just(7)],
    ) {
        let base: Relation = base.into_iter().collect();
        let cap = batches.len() + 1;
        let mut store = ShardedStore::new(sigma.clone(), &base, n);
        let all = store.subscribe(DiffFilter::All, cap);
        let per_cfd: Vec<_> = (0..sigma.len())
            .map(|i| store.subscribe(DiffFilter::Cfd(i), cap))
            .collect();
        let mut state: BTreeSet<Violation> =
            store.current_violations().into_iter().collect();
        for b in &batches {
            store.apply(b);
        }
        for (k, _) in batches.iter().enumerate() {
            let commit = all.try_recv().expect("one commit per batch");
            prop_assert_eq!(commit.epoch, k as u64 + 1, "commit order");
            for v in &commit.diff.removed {
                prop_assert!(state.remove(v), "stream retired an absent violation");
            }
            for v in &commit.diff.added {
                prop_assert!(state.insert(v.clone()), "stream added a present violation");
            }
            // The filtered streams partition the full diff by CFD.
            let mut merged_added: Vec<Violation> = Vec::new();
            let mut merged_removed: Vec<Violation> = Vec::new();
            for rx in &per_cfd {
                let filtered = rx.try_recv().expect("every subscriber sees every commit");
                prop_assert_eq!(filtered.epoch, commit.epoch);
                merged_added.extend(filtered.diff.added.iter().cloned());
                merged_removed.extend(filtered.diff.removed.iter().cloned());
            }
            merged_added.sort();
            merged_removed.sort();
            let mut want_added = commit.diff.added.clone();
            let mut want_removed = commit.diff.removed.clone();
            want_added.sort();
            want_removed.sort();
            prop_assert_eq!(merged_added, want_added, "per-CFD streams must merge to the full stream");
            prop_assert_eq!(merged_removed, want_removed);
        }
        let current: BTreeSet<Violation> =
            store.current_violations().into_iter().collect();
        prop_assert_eq!(state, current, "replayed stream diverged from the store");
    }

    /// GC at arbitrary points is invisible to the answers the store
    /// gives about the present.
    #[test]
    fn gc_preserves_equivalence(
        base in proptest::collection::vec(tuple_strategy(), 0..8),
        batches in proptest::collection::vec(batch_strategy(), 0..5),
        sigma in proptest::collection::vec(cfd_strategy(), 1..3),
        n in prop_oneof![Just(1usize), Just(2), Just(7)],
    ) {
        let base: Relation = base.into_iter().collect();
        let mut plain = ShardedStore::new(sigma.clone(), &base, n);
        let mut collected = ShardedStore::new(sigma, &base, n);
        for b in &batches {
            let c1 = plain.apply(b);
            let c2 = collected.apply(b);
            collected.gc();
            prop_assert_eq!(&c1.diff, &c2.diff, "diffs must not depend on GC");
        }
        prop_assert_eq!(plain.current_violations(), collected.current_violations());
        prop_assert_eq!(plain.relation(), collected.relation());
        prop_assert_eq!(collected.retained_commits(), 0, "nothing pinned: all commits folded");
    }

    /// A snapshot's violations equal a fresh materialization at its
    /// epoch, exactly and in order, whatever the read cadence: after
    /// every commit, after skipped commits, or held across later
    /// commits and `gc()` — a held snapshot keeps answering with what
    /// it captured. The per-batch actions are drawn independently:
    /// `read` 0 skips, 1 reads and drops, 2 reads and holds.
    #[test]
    fn snapshots_equal_fresh_materialization(
        base in proptest::collection::vec(tuple_strategy(), 0..8),
        batches in proptest::collection::vec(batch_strategy(), 1..8),
        sigma in proptest::collection::vec(cfd_strategy(), 1..4),
        n in prop_oneof![Just(1usize), Just(2), Just(7)],
        reads in proptest::collection::vec((0u8..3, any::<bool>()), 8),
    ) {
        let base: Relation = base.into_iter().collect();
        let mut store = ShardedStore::new(sigma, &base, n);
        let mut held: Vec<(Snapshot, Vec<Violation>)> = Vec::new();
        for (b, &(read, gc)) in batches.iter().zip(&reads) {
            store.apply(b);
            if read > 0 {
                let snap = store.snapshot();
                let fresh = store.current_violations();
                prop_assert_eq!(snap.violations(), fresh.as_slice(), "epoch {}", snap.epoch());
                if read == 2 {
                    held.push((snap, fresh));
                }
            }
            if gc {
                store.gc();
            }
        }
        for (snap, captured) in &held {
            prop_assert_eq!(
                snap.violations(),
                captured.as_slice(),
                "held snapshot at epoch {} moved",
                snap.epoch()
            );
        }
    }

    /// `violations_at` / `scan_at` reconstruct every retained epoch
    /// exactly as it was committed.
    #[test]
    fn historical_reads_match_recorded_states(
        base in proptest::collection::vec(tuple_strategy(), 0..6),
        batches in proptest::collection::vec(batch_strategy(), 0..5),
        sigma in proptest::collection::vec(cfd_strategy(), 1..3),
        n in prop_oneof![Just(1usize), Just(2), Just(7)],
    ) {
        let base: Relation = base.into_iter().collect();
        let mut store = ShardedStore::new(sigma, &base, n);
        let mut history: Vec<(u64, Vec<Violation>, Relation)> =
            vec![(0, store.current_violations(), store.relation())];
        for b in &batches {
            let c = store.apply(b);
            history.push((c.epoch, store.current_violations(), store.relation()));
        }
        for (epoch, violations, relation) in &history {
            prop_assert_eq!(
                store.violations_at(*epoch).expect("epoch not GC'd"),
                violations.clone(),
                "violations_at({}) diverged",
                epoch
            );
            prop_assert_eq!(
                store.scan_at(*epoch).expect("epoch not GC'd"),
                relation.clone(),
                "scan_at({}) diverged",
                epoch
            );
        }
        prop_assert!(store.violations_at(store.epoch() + 1).is_none());
    }
}

/// Regression (shed-on-lag): a subscriber that never drains its bounded
/// queue must never stall or error the writer. Publishing into a full
/// queue drops the subscriber instead — counted once, observed by the
/// receiver as a disconnect after the buffered commits — and the store
/// keeps serving fresh subscribers. Before this semantics the writer
/// blocked on the laggard, which (single-threaded here) would deadlock
/// this very test.
#[test]
fn stalled_subscriber_is_shed_and_never_stalls_the_writer() {
    let sigma = vec![Cfd::attr_eq(0, 1).expect("valid attr-eq CFD")];
    let base: Relation = Vec::<Tuple>::new().into_iter().collect();
    let mut store = ShardedStore::new(sigma, &base, 2);
    // A deliberately slow consumer: queue of one, never drained.
    let laggard = store.subscribe(DiffFilter::All, 1);
    for i in 0..64i64 {
        let t: Tuple = vec![Value::int(i % 4), Value::int((i + 1) % 4), Value::int(0)];
        store.apply(&UpdateBatch::new(vec![t], vec![]));
    }
    assert_eq!(store.shed_sub_count(), 1, "laggard shed exactly once");
    // The commit buffered before the shed survives; the disconnect
    // after it is the laggard's gap signal.
    let first = laggard.recv().expect("buffered commit survives the shed");
    assert_eq!(first.epoch, 1);
    assert!(
        laggard.recv().is_err(),
        "shed subscriber observes disconnect as its gap signal"
    );
    // The bus itself is still live for new subscribers.
    let fresh = store.subscribe(DiffFilter::All, 4);
    let t: Tuple = vec![Value::int(3), Value::int(2), Value::int(1)];
    store.apply(&UpdateBatch::new(vec![t], vec![]));
    let c = fresh.try_recv().expect("fresh subscriber sees new commits");
    assert_eq!(c.epoch, 65);
    assert_eq!(store.shed_sub_count(), 1, "no further sheds");
}
