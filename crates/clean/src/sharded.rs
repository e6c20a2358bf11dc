//! The sharded live store: parallel incremental detection, snapshot
//! isolation, and a committed-diff subscription bus.
//!
//! [`crate::delta::DeltaDetector`] is a fast single-writer library; this
//! module is the step toward a *serving system*: a [`ShardedStore`]
//! partitions the live relation across `N` shards, applies each update
//! batch with rayon, lets reader threads scan epoch-consistent snapshots
//! while the writer keeps committing, and streams every committed
//! [`ViolationDiff`] to subscribers in commit order.
//!
//! # Why two shard roles
//!
//! Hash-partitioning *rows* alone cannot answer CFD checks locally: a
//! wildcard-RHS CFD's violation is a property of an LHS *group*, and two
//! rows of one group land on different row-shards. A per-shard
//! `DeltaDetector` would silently miss every cross-shard conflict. The
//! store therefore splits the work the way a distributed GROUP BY does:
//!
//! 1. **Storage shards** own disjoint row sets (routed by a hash of the
//!    row's code vector — the shared [`SharedPool`] makes codes
//!    canonical). Each shard keeps its rows in a [`VersionedRows`]
//!    (dictionary columns + per-row birth/death epochs: the per-shard
//!    tombstones) plus the membership index that implements set
//!    semantics. Phase A of a batch — membership resolution, appends,
//!    death stamps, and all memoryless (per-row) CFD checks — runs on
//!    all storage shards in parallel.
//! 2. **Group-owner shards** own disjoint slices of *group space*: for
//!    each LHS-sharing unit of Σ, a group lives wholly on the owner
//!    shard its LHS key hashes to. Phase B (cheap, sequential) routes
//!    each applied row change to the owner of every group it touches —
//!    the "shuffle". Phase C updates the owned group states (member
//!    sets, per-CFD RHS code multisets, epoch-stamped before/after
//!    diffing exactly as in the delta engine) on all owner shards in
//!    parallel.
//!
//! Because every group is wholly owned, concatenating the per-shard
//! diffs *is* the exact global diff — the N-shard ≡ 1-shard ≡ full
//! rescan equivalence the property suite
//! (`crates/clean/tests/sharded_props.rs`) enforces.
//!
//! # The epoch / snapshot protocol
//!
//! * The store commits batches at epochs `1, 2, …`; epoch `0` is the
//!   seeded base state. Each commit produces an [`Arc<Commit>`] holding
//!   the epoch and the exact [`ViolationDiff`].
//! * A row appended at epoch `b` with death epoch `d` (or
//!   [`cfd_relalg::versioned::LIVE`])
//!   exists at exactly the epochs `b <= e < d`. Appends never move rows;
//!   deletes write one stamp. [`ShardedStore::scan_at`] and
//!   [`ShardedStore::violations_at`] answer for any epoch not yet
//!   garbage-collected.
//! * [`ShardedStore::snapshot`] pins the current epoch in a shared pin
//!   registry and captures, per shard, an immutable chunked view of the
//!   columns and epoch stamps (the arc-swapped per-shard version
//!   vector: O(len / chunk) pointer copies, no data copy) plus the
//!   violation set at the pinned epoch. The [`Snapshot`] owns
//!   everything it needs — readers never lock, never block the writer,
//!   and can outlive any number of later commits. Writer mutations
//!   copy-on-write only the chunks a live view still shares.
//! * The violation set is a shared, immutable `Arc<Vec<Violation>>`
//!   *tip*, cached by the store and handed to every snapshot taken at
//!   the same epoch. The next snapshot brings the tip forward from the
//!   commit records `gc` keeps anyway: the diffs of all the commits
//!   since net out into one, which is folded in one pass. For `Δ` diff
//!   entries and `V` violations a read costs `O(Δ · log(Δ + V))`
//!   comparisons and `V` moves of the violation structs (no violation
//!   is cloned), however many commits it spans — not a deep copy of all
//!   `V` violations with their tuples. The fold works in place when no live
//!   snapshot shares the tip; when one does, the fold copies the tip
//!   once and the held snapshot keeps the old one, so a snapshot held
//!   across commits costs one copy per renewal, never one per read. A
//!   tip that `gc` folded past restarts from the floor. The tip retains
//!   nothing beyond itself: the writer never touches it.
//! * [`ShardedStore::gc`] advances the history floor to the oldest
//!   pinned epoch (or the current epoch when nothing is pinned): commit
//!   records at or below the floor fold into the floor violation set,
//!   and rows dead at or below the floor are physically reclaimed (row
//!   remaps patch the owner-shard member references). Superseded chunk
//!   versions are freed by the last [`Snapshot`] that drops. While a
//!   snapshot pins an old epoch, `gc` keeps everything that epoch can
//!   still observe.
//!
//! # The diff bus
//!
//! [`ShardedStore::subscribe`] registers a bounded channel, optionally
//! filtered by CFD index or by RHS attribute. Every commit is delivered
//! to every live subscriber in commit order. The writer never blocks on
//! a laggard: a subscriber whose queue is full at publish time is shed
//! (dropped and counted) and observes the disconnect as its gap signal
//! — resubscribe and re-sync from a snapshot, exactly the rewind
//! discipline the replication layer's followers use. A dropped receiver
//! unsubscribes on the next commit. `cfdprop serve-updates` wires this
//! to a JSON-lines stream.

use crate::delta::{cancel_common, UpdateBatch, ViolationDiff};
use crate::groupstate::GroupState;
use crate::violations::{sort_violations, violation_order, Violation, ViolationKind};
use cfd_model::cfd::Cfd;
use cfd_model::columnar::{CodeCell, CodedCfd, GroupKey, GroupMap};
use cfd_relalg::instance::{Relation, Tuple};
use cfd_relalg::pool::{Code, ValuePool};
use cfd_relalg::versioned::{PoolView, RowsView, SharedPool, VersionedRows};
use rayon::prelude::*;
use rustc_hash::{FxHashMap, FxHasher};
use std::cmp::Ordering;
use std::collections::{BTreeMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Mutex};

/// Below this much `|Δ| × |Σ|` work the parallel phases stay sequential
/// (thread spawns would dominate), mirroring the delta engine.
const PARALLEL_CUTOFF: usize = 1 << 14;

/// One committed batch: the epoch it created and the exact violation
/// diff it caused (possibly empty). Shared by the commit log, snapshots,
/// and every bus subscriber.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Commit {
    /// The epoch this commit created (`1` for the first batch).
    pub epoch: u64,
    /// Violations added and retired by the batch.
    pub diff: ViolationDiff,
}

/// What a bus subscriber wants to see of each committed diff.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiffFilter {
    /// Every violation.
    All,
    /// Only violations of the CFD at this index in Σ.
    Cfd(usize),
    /// Only violations of CFDs whose right-hand-side attribute is this
    /// column.
    RhsAttr(usize),
}

impl DiffFilter {
    /// Does `v` (a violation of `sigma[v.cfd_index]`) pass the filter?
    fn admits(&self, v: &Violation, sigma: &[Cfd]) -> bool {
        match self {
            DiffFilter::All => true,
            DiffFilter::Cfd(i) => v.cfd_index == *i,
            DiffFilter::RhsAttr(a) => sigma[v.cfd_index].rhs_attr() == *a,
        }
    }

    /// The filtered view of `diff` (both lists keep their order).
    fn apply(&self, diff: &ViolationDiff, sigma: &[Cfd]) -> ViolationDiff {
        if matches!(self, DiffFilter::All) {
            return diff.clone();
        }
        ViolationDiff {
            added: diff
                .added
                .iter()
                .filter(|v| self.admits(v, sigma))
                .cloned()
                .collect(),
            removed: diff
                .removed
                .iter()
                .filter(|v| self.admits(v, sigma))
                .cloned()
                .collect(),
        }
    }
}

/// What one [`ShardedStore::gc`] call did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcStats {
    /// The horizon the floor advanced to (min pinned epoch, or the
    /// current epoch when nothing was pinned).
    pub horizon: u64,
    /// Commit records folded into the floor and dropped.
    pub pruned_commits: usize,
    /// Dead rows physically reclaimed across all shards.
    pub reclaimed_rows: usize,
}

/// A packed `(shard, local row)` member reference.
#[inline]
fn pack_ref(shard: usize, row: u32) -> u64 {
    ((shard as u64) << 32) | row as u64
}

#[inline]
fn ref_shard(rf: u64) -> usize {
    (rf >> 32) as usize
}

#[inline]
fn ref_row(rf: u64) -> u32 {
    rf as u32
}

/// Route a code row to its storage shard.
fn route_row(codes: &[Code], n: usize) -> usize {
    let mut h = FxHasher::default();
    codes.hash(&mut h);
    (h.finish() % n as u64) as usize
}

/// Route a wild unit's LHS key to its group-owner shard.
fn route_key(w: usize, key: &GroupKey, n: usize) -> usize {
    let mut h = FxHasher::default();
    w.hash(&mut h);
    key.hash(&mut h);
    (h.finish() % n as u64) as usize
}

/// One storage shard: the rows it owns plus the membership index that
/// implements set semantics and resolves deletes to local rows.
#[derive(Debug, Default)]
struct StorageShard {
    rows: VersionedRows,
    row_of: FxHashMap<Box<[Code]>, u32>,
}

/// One wildcard-RHS unit of Σ: the LHS-sharing CFDs and their RHS
/// attributes (hoisted once at construction).
#[derive(Clone, Debug)]
struct WildUnit {
    cfds: Vec<usize>,
    rhs_attrs: Vec<usize>,
    lhs_len: usize,
}

/// One group-owner shard: for every wild unit, the slice of group space
/// whose LHS keys hash here.
#[derive(Debug, Default)]
struct OwnerShard {
    units: Vec<OwnerUnit>,
}

#[derive(Debug)]
struct OwnerUnit {
    key_gid: GroupMap<u32>,
    groups: Vec<GroupState<u64>>,
}

/// One row change applied by a storage shard, as the shuffle sees it.
#[derive(Debug)]
struct AppliedRec {
    rf: u64,
    codes: Box<[Code]>,
}

/// The RHS codes of one routed row for one unit's CFDs, inline up to
/// four (units sharing an LHS across more than four CFDs are rare) so
/// the shuffle allocates nothing per record on realistic Σ.
#[derive(Debug)]
enum SmallCodes {
    Inline { len: u8, buf: [Code; 4] },
    Heap(Vec<Code>),
}

impl SmallCodes {
    fn gather(attrs: &[usize], codes: &[Code]) -> SmallCodes {
        if attrs.len() <= 4 {
            let mut buf = [0; 4];
            for (slot, &a) in buf.iter_mut().zip(attrs) {
                *slot = codes[a];
            }
            SmallCodes::Inline {
                len: attrs.len() as u8,
                buf,
            }
        } else {
            SmallCodes::Heap(attrs.iter().map(|&a| codes[a]).collect())
        }
    }

    fn as_slice(&self) -> &[Code] {
        match self {
            SmallCodes::Inline { len, buf } => &buf[..*len as usize],
            SmallCodes::Heap(v) => v,
        }
    }
}

/// A row change routed to a group-owner shard for one wild unit: the
/// group key, the member reference, and the row's RHS code per CFD of
/// the unit.
#[derive(Debug)]
struct WildRec {
    key: GroupKey,
    rf: u64,
    rhs: SmallCodes,
}

/// Per-owner inbox of one batch (the shuffle output).
#[derive(Debug)]
struct OwnerWork {
    /// Per wild unit: deletes, then inserts (deletes always apply
    /// first, preserving the delta engine's batch semantics).
    dels: Vec<Vec<WildRec>>,
    ins: Vec<Vec<WildRec>>,
}

impl OwnerWork {
    fn new(units: usize) -> Self {
        OwnerWork {
            dels: (0..units).map(|_| Vec::new()).collect(),
            ins: (0..units).map(|_| Vec::new()).collect(),
        }
    }

    fn len(&self) -> usize {
        self.dels.iter().map(Vec::len).sum::<usize>() + self.ins.iter().map(Vec::len).sum::<usize>()
    }
}

/// A conflicted-group snapshot at the code level: the distinct RHS codes
/// and the (sorted) member references of one CFD's violation.
#[derive(Clone, Debug)]
struct CodedSnap {
    cfd_index: usize,
    values: Vec<Code>,
    members: Vec<u64>,
}

/// A bus subscriber.
struct BusSub {
    filter: DiffFilter,
    tx: SyncSender<Arc<Commit>>,
}

/// A [`Violation`] ordered by [`violation_order`] (the `detect_all`
/// output order), so the store's live violation set can be a B-tree:
/// applying a batch's diff costs `O(|diff|·log V)` comparisons instead
/// of a full `O(V)` merge walk per commit.
#[derive(Clone, Debug, PartialEq, Eq)]
struct OrderedViolation(Violation);

impl Ord for OrderedViolation {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        violation_order(&self.0, &other.0)
    }
}

impl PartialOrd for OrderedViolation {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The violation set as of `epoch`, shared with every snapshot taken
/// there. The next snapshot brings it forward from the retained commits.
struct Tip {
    epoch: u64,
    set: Arc<Vec<Violation>>,
}

/// The row changes one committed batch actually applied, after set
/// semantics resolved them: code rows of the deletes that hit residents
/// and the inserts that were new. This is the store's hand-off to
/// cross-relation consumers (the multistore's CIND engine) — exactly the
/// delta, never the raw batch.
#[derive(Debug, Default)]
pub(crate) struct AppliedRows {
    pub(crate) deletes: Vec<Box<[Code]>>,
    pub(crate) inserts: Vec<Box<[Code]>>,
}

/// The engine of a sharded live store, with the dictionary pool
/// *externalized*: every method that encodes or decodes takes the pool
/// as a parameter. [`ShardedStore`] pairs one core with its own pool
/// (the single-relation API); `crate::multistore::MultiStore` drives
/// many cores through one shared pool and one epoch clock, which is
/// what makes codes comparable across relations.
pub(crate) struct StoreCore {
    sigma: Vec<Cfd>,
    /// Σ compiled against the shared pool (every pattern constant is
    /// interned at construction, so codes stay valid as the pool grows).
    coded: Vec<CodedCfd>,
    shards: Vec<StorageShard>,
    owners: Vec<OwnerShard>,
    wild_units: Vec<WildUnit>,
    /// Memoryless (constant-RHS / attribute-equality) CFD indices,
    /// checked per row by the storage shards.
    per_row: Vec<usize>,
    /// Relation arity; 0 until the first tuple fixes it.
    arity: usize,
    /// Last committed epoch (0 = seeded base state).
    epoch: u64,
    /// Violations holding now, ordered as `detect_all` reports them.
    current: std::collections::BTreeSet<OrderedViolation>,
    /// Violations at `floor_epoch` (the oldest reconstructable state).
    floor: Arc<Vec<Violation>>,
    floor_epoch: u64,
    /// Commits above the floor, oldest first.
    commits: VecDeque<Arc<Commit>>,
    /// The violation set the last snapshot shared (see
    /// [`StoreCore::snapshot`]); interior-mutable so `snapshot` keeps
    /// its `&self` contract (the writer never takes the lock).
    tip: Mutex<Option<Tip>>,
    /// Pinned epochs → pin counts, shared with every [`Snapshot`].
    pins: Arc<Mutex<BTreeMap<u64, usize>>>,
    subs: Vec<BusSub>,
    /// Subscribers dropped because their queue was full at publish
    /// time (shed-on-lag; the writer never blocks on a laggard).
    shed_subs: u64,
}

impl StoreCore {
    /// Build an `n_shards`-way core enforcing `sigma`, seeded with the
    /// tuples of `base`, interning through the caller's `pool`.
    pub(crate) fn new(
        sigma: Vec<Cfd>,
        base: &Relation,
        n_shards: usize,
        pool: &mut SharedPool,
    ) -> Self {
        let mut store = StoreCore::empty(sigma, n_shards, pool);
        // Seed rows at epoch 0 (no diff bookkeeping).
        for t in base.tuples() {
            if store.arity == 0 {
                store.arity = t.len();
            }
            let codes = pool.intern_row(t);
            store.seed_code_row(&codes);
        }
        store.finish_seed(pool);
        store
    }

    /// Build an `n_shards`-way core enforcing `sigma`, seeded directly
    /// from already-encoded rows whose codes are valid in `pool` — the
    /// recovery fast path: a checkpoint restores the dictionary once and
    /// streams code rows here, skipping the per-occurrence value hashing
    /// a tuple-level reseed would pay.
    pub(crate) fn from_code_rows<'a>(
        sigma: Vec<Cfd>,
        rows: impl IntoIterator<Item = &'a [Code]>,
        n_shards: usize,
        pool: &mut SharedPool,
    ) -> Self {
        let mut store = StoreCore::empty(sigma, n_shards, pool);
        for codes in rows {
            if store.arity == 0 {
                store.arity = codes.len();
            }
            store.seed_code_row(codes);
        }
        store.finish_seed(pool);
        store
    }

    /// The shared skeleton of [`StoreCore::new`] and
    /// [`StoreCore::from_code_rows`]: compile Σ against the pool and lay
    /// out empty shards. Callers seed rows with
    /// [`StoreCore::seed_code_row`] and must finish with
    /// [`StoreCore::finish_seed`].
    fn empty(sigma: Vec<Cfd>, n_shards: usize, pool: &mut SharedPool) -> Self {
        let n = n_shards.max(1);
        // Intern every pattern constant into the shared pool and into a
        // scratch classic pool tracking the same code assignment: codes
        // are dense and append-only, so replaying the pool's value table
        // into the scratch pool reproduces the assignment exactly and
        // compiling against the scratch pool yields code cells valid for
        // the shared pool (`CodeCell::Absent` never occurs for constants
        // interned here). Starting from the pool's *current* contents
        // (not empty) is what lets many cores share one pool. A Σ with
        // no constant patterns compiles against an empty scratch pool —
        // skipping the O(|pool|) replay, which matters when a multistore
        // seeds many relations (each later core would otherwise re-hash
        // everything the earlier ones interned).
        let has_consts = sigma.iter().any(|cfd| {
            cfd.lhs().iter().any(|(_, p)| p.as_const().is_some())
                || cfd.rhs_pattern().as_const().is_some()
        });
        let mut scratch = if has_consts {
            let mut scratch = ValuePool::with_capacity(pool.len());
            for code in 0..pool.len() as Code {
                scratch.intern(pool.value(code));
            }
            scratch
        } else {
            ValuePool::new()
        };
        for cfd in &sigma {
            for (_, p) in cfd.lhs() {
                if let Some(v) = p.as_const() {
                    pool.intern(v);
                    scratch.intern(v);
                }
            }
            if let Some(v) = cfd.rhs_pattern().as_const() {
                pool.intern(v);
                scratch.intern(v);
            }
        }
        let coded: Vec<CodedCfd> = sigma
            .iter()
            .map(|c| CodedCfd::compile(c, &scratch))
            .collect();

        // Shard Σ into units exactly as the delta engine does: one fused
        // memoryless unit, one wild unit per distinct compiled LHS.
        let mut wild_units: Vec<WildUnit> = Vec::new();
        let mut per_row: Vec<usize> = Vec::new();
        let mut unit_of_lhs: FxHashMap<Vec<(usize, CodeCell)>, usize> = FxHashMap::default();
        for (i, c) in coded.iter().enumerate() {
            if c.attr_eq().is_some() || c.rhs() != CodeCell::Wild {
                per_row.push(i);
            } else {
                let unit = *unit_of_lhs.entry(c.lhs().to_vec()).or_insert_with(|| {
                    wild_units.push(WildUnit {
                        cfds: Vec::new(),
                        rhs_attrs: Vec::new(),
                        lhs_len: c.lhs().len(),
                    });
                    wild_units.len() - 1
                });
                wild_units[unit].cfds.push(i);
                wild_units[unit].rhs_attrs.push(c.rhs_attr());
            }
        }

        StoreCore {
            owners: (0..n)
                .map(|_| OwnerShard {
                    units: wild_units
                        .iter()
                        .map(|u| OwnerUnit {
                            key_gid: GroupMap::new(u.lhs_len),
                            groups: Vec::new(),
                        })
                        .collect(),
                })
                .collect(),
            shards: (0..n).map(|_| StorageShard::default()).collect(),
            wild_units,
            per_row,
            sigma,
            coded,
            arity: 0,
            epoch: 0,
            current: std::collections::BTreeSet::new(),
            floor: Arc::new(Vec::new()),
            floor_epoch: 0,
            commits: VecDeque::new(),
            tip: Mutex::new(None),
            pins: Arc::new(Mutex::new(BTreeMap::new())),
            subs: Vec::new(),
            shed_subs: 0,
        }
    }

    /// Seed one code row at epoch 0 (no diff bookkeeping): route it to
    /// its storage shard and admit it to every group it belongs to.
    fn seed_code_row(&mut self, codes: &[Code]) {
        let n = self.shards.len();
        let s = route_row(codes, n);
        let shard = &mut self.shards[s];
        let row = shard.rows.append_row(codes, 0);
        shard.row_of.insert(codes.to_vec().into_boxed_slice(), row);
        let rf = pack_ref(s, row);
        for (w, wu) in self.wild_units.iter().enumerate() {
            let lead = &self.coded[wu.cfds[0]];
            if !lead.lhs_matches_codes(codes) {
                continue;
            }
            let key = lead.key_of_codes(codes);
            let o = route_key(w, &key, n);
            let unit = &mut self.owners[o].units[w];
            let next = unit.groups.len() as u32;
            let gid = *unit.key_gid.entry_or_insert_with(key, || next);
            if gid == next {
                unit.groups.push(GroupState::new(wu.cfds.len()));
            }
            let state = &mut unit.groups[gid as usize];
            state.rows.push(rf);
            for (k, &a) in wu.rhs_attrs.iter().enumerate() {
                if state.rhs_mut(k).bump(codes[a]) {
                    state.conflicts += 1;
                }
            }
        }
    }

    /// Compute the initial violation state from the seeded rows — the
    /// closing step of every seeding constructor.
    fn finish_seed(&mut self, pool: &SharedPool) {
        let store = self;
        // Initial violation state, in detect_all order.
        let mut current: Vec<Violation> = Vec::new();
        for shard in &store.shards {
            for row in 0..shard.rows.len() as u32 {
                let codes: Vec<Code> = shard.rows.row_codes(row).collect();
                for &i in &store.per_row {
                    current.extend(per_row_clash(
                        &store.coded[i],
                        &store.sigma,
                        pool,
                        i,
                        &codes,
                    ));
                }
            }
        }
        for owner in &store.owners {
            for (w, unit) in owner.units.iter().enumerate() {
                for state in &unit.groups {
                    if let Some(snaps) = snapshot_owner(state, &store.wild_units[w]) {
                        for snap in snaps.into_iter().flatten() {
                            current.push(materialize_snap(&snap, &store.shards, pool));
                        }
                    }
                }
            }
        }
        sort_violations(&mut current);
        store.floor = Arc::new(current.clone());
        store.current = current.into_iter().map(OrderedViolation).collect();
    }

    /// The CFDs being enforced.
    pub fn sigma(&self) -> &[Cfd] {
        &self.sigma
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The last committed epoch (0 until the first batch).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Relation arity (0 while the store is still empty).
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The oldest epoch still reconstructable (advanced by
    /// [`ShardedStore::gc`]).
    pub fn floor_epoch(&self) -> u64 {
        self.floor_epoch
    }

    /// Commit records currently retained for historical reads.
    pub fn retained_commits(&self) -> usize {
        self.commits.len()
    }

    /// Number of live tuples across all shards.
    pub fn live_len(&self) -> usize {
        self.shards.iter().map(|s| s.rows.live_len()).sum()
    }

    /// Visit every *currently live* row's code vector. Seed-time helper
    /// for cross-relation consumers (the multistore feeds its CIND
    /// engine from here instead of re-hashing the base tuples through
    /// the pool).
    pub fn for_each_live_code_row(&self, mut f: impl FnMut(&[Code])) {
        let mut buf: Vec<Code> = Vec::new();
        for shard in &self.shards {
            for row in 0..shard.rows.len() as u32 {
                if shard.rows.is_live_now(row) {
                    buf.clear();
                    buf.extend(shard.rows.row_codes(row));
                    f(&buf);
                }
            }
        }
    }

    /// Is the store empty (no live tuples)?
    pub fn is_empty(&self) -> bool {
        self.live_len() == 0
    }

    /// All violations currently holding, in
    /// [`crate::violations::detect_all`] order.
    pub fn current_violations(&self) -> Vec<Violation> {
        self.current.iter().map(|v| v.0.clone()).collect()
    }

    /// Number of violations currently holding, without materializing
    /// them.
    pub fn violation_count(&self) -> usize {
        self.current.len()
    }

    /// Materialize the current live relation (reporting boundary).
    pub fn relation(&self, pool: &SharedPool) -> Relation {
        self.scan_at(self.epoch, pool)
            .expect("the current epoch is never below the GC floor")
    }

    /// The live relation as of `epoch`, or `None` when the epoch has
    /// been garbage-collected (or never existed yet).
    pub fn scan_at(&self, epoch: u64, pool: &SharedPool) -> Option<Relation> {
        if epoch < self.floor_epoch || epoch > self.epoch {
            return None;
        }
        let view = pool.view();
        let mut out: Vec<Tuple> = Vec::new();
        for shard in &self.shards {
            let rows = shard.rows.view();
            for row in 0..rows.len() as u32 {
                if rows.live_at(row, epoch) {
                    out.push(rows.decode_row(row, &view));
                }
            }
        }
        Some(out.into_iter().collect())
    }

    /// The violation set as of `epoch`, or `None` when the epoch has
    /// been garbage-collected (or never existed yet). Reconstructed from
    /// the floor state plus the retained commit diffs.
    pub fn violations_at(&self, epoch: u64) -> Option<Vec<Violation>> {
        if epoch < self.floor_epoch || epoch > self.epoch {
            return None;
        }
        let mut state = Arc::clone(&self.floor);
        let upto = self.commits.partition_point(|c| c.epoch <= epoch);
        fold_commits(&mut state, self.commits.range(..upto));
        Some(Arc::unwrap_or_clone(state))
    }

    /// Subscribe to every future commit through a bounded channel of
    /// `capacity` diffs, filtered by `filter`. Delivery is in commit
    /// order. The writer never blocks on a subscriber: a queue that is
    /// full at publish time **sheds** the subscriber — it is dropped,
    /// the shed is counted ([`StoreCore::shed_sub_count`]), and the
    /// receiver observes the disconnect as its gap signal (resubscribe
    /// and re-sync from a snapshot, as the replication layer's
    /// followers do). Dropping the receiver unsubscribes at the next
    /// commit.
    ///
    /// Size `capacity` for every commit that may land before the next
    /// drain, or drain from another thread (as `cfdprop serve-updates`
    /// does) to keep the queue shallow.
    pub fn subscribe(&mut self, filter: DiffFilter, capacity: usize) -> Receiver<Arc<Commit>> {
        let (tx, rx) = std::sync::mpsc::sync_channel(capacity.max(1));
        self.subs.push(BusSub { filter, tx });
        rx
    }

    /// Subscribers shed so far for lagging (full queue at publish).
    pub fn shed_sub_count(&self) -> u64 {
        self.shed_subs
    }

    /// Advance the core's clock to `epoch` without committing anything:
    /// the multistore calls this on every *other* relation's core when
    /// one relation commits, so that cross-relation reads (`scan_at`,
    /// `snapshot`) at the new global epoch answer instead of refusing.
    /// Historical reconstruction is unaffected — epochs with no commit
    /// record simply reuse the last committed state.
    pub fn advance_to(&mut self, epoch: u64) {
        debug_assert!(epoch >= self.epoch, "the epoch clock never runs back");
        self.epoch = self.epoch.max(epoch);
    }

    /// Pin the current epoch and capture an immutable [`Snapshot`] of
    /// it: O(total chunks) pointer copies for the rows, and the shared
    /// violation tip brought forward by the diffs committed since the
    /// last snapshot (see [`StoreCore::tip`] and the
    /// [module docs](self)).
    pub fn snapshot(&self, pool: &SharedPool) -> Snapshot {
        *self
            .pins
            .lock()
            .expect("pin registry")
            .entry(self.epoch)
            .or_insert(0) += 1;
        Snapshot {
            epoch: self.epoch,
            arity: self.arity,
            shards: self.shards.iter().map(|s| s.rows.view()).collect(),
            pool: pool.view(),
            violations: self.tip(),
            pins: Arc::clone(&self.pins),
        }
    }

    /// The violation set at the current epoch, shared with the last
    /// snapshot's. The cached tip folds in the diffs of all the commits
    /// after it in one pass — in place, unless a live snapshot still
    /// shares it, in which case it is copied once. A tip that
    /// [`StoreCore::gc`] has folded past restarts from the floor.
    fn tip(&self) -> Arc<Vec<Violation>> {
        let mut tip = self.tip.lock().expect("snapshot tip");
        let (from, mut set) = match tip.take() {
            Some(t) if t.epoch >= self.floor_epoch => (t.epoch, t.set),
            _ => (self.floor_epoch, Arc::clone(&self.floor)),
        };
        let after = self.commits.partition_point(|c| c.epoch <= from);
        fold_commits(&mut set, self.commits.range(after..));
        *tip = Some(Tip {
            epoch: self.epoch,
            set: Arc::clone(&set),
        });
        set
    }

    /// Apply one batch of updates (deletes first, then inserts), commit
    /// it at `epoch` (strictly above the core's clock — the single-store
    /// wrapper passes `epoch() + 1`, the multistore its global clock),
    /// publish the diff to every subscriber, and return the commit plus
    /// the row changes actually applied. Exact-diff semantics match
    /// [`crate::delta::DeltaDetector::apply`].
    pub fn apply_at(
        &mut self,
        batch: &UpdateBatch,
        epoch: u64,
        pool: &mut SharedPool,
    ) -> (Arc<Commit>, AppliedRows) {
        assert!(epoch > self.epoch, "commit epochs are strictly increasing");
        let n = self.shards.len();
        // Phase 0 — resolve and route. Inserts intern through the shared
        // pool (the only mutation the pool ever sees); deletes that name
        // a never-interned value cannot be resident and are dropped here.
        let mut del_b: Vec<Vec<Box<[Code]>>> = (0..n).map(|_| Vec::new()).collect();
        for t in &batch.deletes {
            self.check_arity(t);
            if let Some(codes) = pool.lookup_row(t) {
                del_b[route_row(&codes, n)].push(codes.into_boxed_slice());
            }
        }
        let mut ins_b: Vec<Vec<Box<[Code]>>> = (0..n).map(|_| Vec::new()).collect();
        for t in &batch.inserts {
            self.check_arity(t);
            if self.arity == 0 {
                self.arity = t.len();
            }
            let codes = pool.intern_row(t);
            ins_b[route_row(&codes, n)].push(codes.into_boxed_slice());
        }
        self.epoch = epoch;
        let work: usize = (del_b.iter().map(Vec::len).sum::<usize>()
            + ins_b.iter().map(Vec::len).sum::<usize>())
        .saturating_mul(self.coded.len());

        // Phase A — storage shards in parallel: membership, appends,
        // death stamps, and the memoryless per-row CFD diffs.
        struct ShardTask {
            shard: StorageShard,
            dels: Vec<Box<[Code]>>,
            ins: Vec<Box<[Code]>>,
            out: ShardOut,
        }
        #[derive(Default)]
        struct ShardOut {
            applied_dels: Vec<AppliedRec>,
            applied_ins: Vec<AppliedRec>,
            removed: Vec<Violation>,
            added: Vec<Violation>,
        }
        let mut tasks: Vec<ShardTask> = std::mem::take(&mut self.shards)
            .into_iter()
            .zip(del_b.into_iter().zip(ins_b))
            .map(|(shard, (dels, ins))| ShardTask {
                shard,
                dels,
                ins,
                out: ShardOut::default(),
            })
            .collect();
        {
            let (pool, coded, sigma, per_row) = (&*pool, &self.coded, &self.sigma, &self.per_row);
            let run = |(s, t): &mut (usize, ShardTask)| {
                let s = *s;
                for codes in t.dels.drain(..) {
                    let Some(row) = t.shard.row_of.remove(&codes) else {
                        continue; // not resident
                    };
                    t.shard.rows.kill_row(row, epoch);
                    let rec = AppliedRec {
                        rf: pack_ref(s, row),
                        codes,
                    };
                    for &i in per_row {
                        t.out
                            .removed
                            .extend(per_row_clash(&coded[i], sigma, pool, i, &rec.codes));
                    }
                    t.out.applied_dels.push(rec);
                }
                for codes in t.ins.drain(..) {
                    if t.shard.row_of.contains_key(&codes) {
                        continue; // set semantics
                    }
                    let row = t.shard.rows.append_row(&codes, epoch);
                    t.shard.row_of.insert(codes.clone(), row);
                    let rec = AppliedRec {
                        rf: pack_ref(s, row),
                        codes,
                    };
                    for &i in per_row {
                        t.out
                            .added
                            .extend(per_row_clash(&coded[i], sigma, pool, i, &rec.codes));
                    }
                    t.out.applied_ins.push(rec);
                }
            };
            let mut indexed: Vec<(usize, ShardTask)> = tasks.drain(..).enumerate().collect();
            if work < PARALLEL_CUTOFF || indexed.len() < 2 {
                indexed.iter_mut().for_each(run);
            } else {
                let _: Vec<()> = indexed.par_iter_mut().map(run).collect();
            }
            tasks = indexed.into_iter().map(|(_, t)| t).collect();
        }
        self.shards = tasks
            .iter_mut()
            .map(|t| std::mem::take(&mut t.shard))
            .collect();
        let outs: Vec<ShardOut> = tasks.into_iter().map(|t| t.out).collect();

        // Phase B — the shuffle: route every applied row change to the
        // owner shard of each group it touches.
        let mut owner_work: Vec<OwnerWork> = (0..n)
            .map(|_| OwnerWork::new(self.wild_units.len()))
            .collect();
        let route_wild = |rec: &AppliedRec, is_del: bool, owner_work: &mut Vec<OwnerWork>| {
            for (w, wu) in self.wild_units.iter().enumerate() {
                let lead = &self.coded[wu.cfds[0]];
                if !lead.lhs_matches_codes(&rec.codes) {
                    continue;
                }
                let key = lead.key_of_codes(&rec.codes);
                let o = route_key(w, &key, n);
                let wr = WildRec {
                    key,
                    rf: rec.rf,
                    rhs: SmallCodes::gather(&wu.rhs_attrs, &rec.codes),
                };
                if is_del {
                    owner_work[o].dels[w].push(wr);
                } else {
                    owner_work[o].ins[w].push(wr);
                }
            }
        };
        for out in &outs {
            for rec in &out.applied_dels {
                route_wild(rec, true, &mut owner_work);
            }
        }
        for out in &outs {
            for rec in &out.applied_ins {
                route_wild(rec, false, &mut owner_work);
            }
        }

        // Phase C — owner shards in parallel: group-state maintenance
        // and the epoch-stamped before/after diffing.
        let mut ow: Vec<(OwnerShard, OwnerWork, Vec<Violation>, Vec<Violation>)> =
            std::mem::take(&mut self.owners)
                .into_iter()
                .zip(owner_work)
                .map(|(o, w)| (o, w, Vec::new(), Vec::new()))
                .collect();
        {
            let (shards, pool, wild_units) = (&self.shards, &*pool, &self.wild_units);
            let owner_load: usize = ow.iter().map(|(_, w, _, _)| w.len()).sum();
            let run = |(owner, work, removed, added): &mut (
                OwnerShard,
                OwnerWork,
                Vec<Violation>,
                Vec<Violation>,
            )| {
                for (w, unit) in owner.units.iter_mut().enumerate() {
                    process_owner_unit(
                        unit,
                        &wild_units[w],
                        &work.dels[w],
                        &work.ins[w],
                        epoch,
                        shards,
                        pool,
                        removed,
                        added,
                    );
                }
            };
            if owner_load.saturating_mul(self.coded.len()) < PARALLEL_CUTOFF || ow.len() < 2 {
                ow.iter_mut().for_each(run);
            } else {
                let _: Vec<()> = ow.par_iter_mut().map(run).collect();
            }
        }
        let mut removed: Vec<Violation> = Vec::new();
        let mut added: Vec<Violation> = Vec::new();
        let mut applied = AppliedRows::default();
        for out in outs {
            removed.extend(out.removed);
            added.extend(out.added);
            applied
                .deletes
                .extend(out.applied_dels.into_iter().map(|r| r.codes));
            applied
                .inserts
                .extend(out.applied_ins.into_iter().map(|r| r.codes));
        }
        self.owners = ow
            .into_iter()
            .map(|(owner, _, rm, ad)| {
                removed.extend(rm);
                added.extend(ad);
                owner
            })
            .collect();

        // Merge, cancel verbatim churn, commit, publish.
        cancel_common(&mut removed, &mut added);
        let diff = ViolationDiff { added, removed };
        for v in &diff.removed {
            assert!(
                self.current.remove(&OrderedViolation(v.clone())),
                "diff retired a violation not in the live set"
            );
        }
        for v in &diff.added {
            self.current.insert(OrderedViolation(v.clone()));
        }
        let commit = Arc::new(Commit { epoch, diff });
        self.commits.push_back(Arc::clone(&commit));
        self.publish(&commit);
        // Reclaim automatically once dead rows dominate some shard (the
        // same policy the delta engine uses, bounded by pinned epochs).
        if self
            .shards
            .iter()
            .any(|s| s.rows.dead_len() > 1024 && s.rows.dead_len() * 2 > s.rows.len())
        {
            self.gc();
        }
        (commit, applied)
    }

    /// Advance the history floor to the oldest pinned epoch (or the
    /// current epoch) and reclaim everything below it: commit records
    /// fold into the floor violation set, rows dead at or below the
    /// horizon are physically dropped, and owner-shard member
    /// references are remapped. See the [module docs](self).
    pub fn gc(&mut self) -> GcStats {
        let horizon = self
            .pins
            .lock()
            .expect("pin registry")
            .keys()
            .next()
            .copied()
            .unwrap_or(self.epoch)
            .min(self.epoch);
        let mut stats = GcStats {
            horizon,
            ..GcStats::default()
        };
        // Fold commits at or below the horizon into the floor.
        if horizon > self.floor_epoch {
            let upto = self.commits.partition_point(|c| c.epoch <= horizon);
            fold_commits(&mut self.floor, self.commits.range(..upto));
            self.commits.drain(..upto);
            stats.pruned_commits += upto;
            self.floor_epoch = horizon;
        }
        // Physically reclaim rows no retained epoch can see. Views held
        // by snapshots keep the old chunks alive until they drop.
        for s in 0..self.shards.len() {
            let shard = &mut self.shards[s];
            // A dead row is reclaimable once no retained epoch can see
            // it: dead at or before the horizon. (A row merely *unborn*
            // at the horizon is still visible at later retained epochs.)
            let reclaim: Vec<bool> = (0..shard.rows.len() as u32)
                .map(|row| shard.rows.death_epoch(row) <= horizon)
                .collect();
            if !reclaim.iter().any(|&r| r) {
                continue;
            }
            let remap = shard.rows.compact(|row| reclaim[row as usize]);
            stats.reclaimed_rows += remap
                .iter()
                .filter(|&&m| m == cfd_relalg::columnar::DELETED_ROW)
                .count();
            for v in shard.row_of.values_mut() {
                *v = remap[*v as usize];
            }
            for owner in &mut self.owners {
                for unit in &mut owner.units {
                    for state in &mut unit.groups {
                        for rf in state.rows.as_mut_slice() {
                            if ref_shard(*rf) == s {
                                *rf = pack_ref(s, remap[ref_row(*rf) as usize]);
                            }
                        }
                    }
                }
            }
        }
        stats
    }

    fn publish(&mut self, commit: &Arc<Commit>) {
        let sigma = &self.sigma;
        let mut shed = 0;
        self.subs.retain(|sub| {
            let msg = match sub.filter {
                DiffFilter::All => Arc::clone(commit),
                _ => Arc::new(Commit {
                    epoch: commit.epoch,
                    diff: sub.filter.apply(&commit.diff, sigma),
                }),
            };
            // Never block the writer on a laggard: a full queue sheds
            // the subscriber (it observes the disconnect as its gap
            // signal and must re-sync from a snapshot).
            match sub.tx.try_send(msg) {
                Ok(()) => true,
                Err(std::sync::mpsc::TrySendError::Full(_)) => {
                    shed += 1;
                    false
                }
                Err(std::sync::mpsc::TrySendError::Disconnected(_)) => false,
            }
        });
        self.shed_subs += shed;
    }

    fn check_arity(&self, t: &Tuple) {
        assert!(
            self.arity == 0 || t.len() == self.arity,
            "tuple arity {} does not match the relation arity {}",
            t.len(),
            self.arity
        );
    }
}

/// The sharded live store over one relation: a `StoreCore` engine paired
/// with its own dictionary pool. See the [module docs](self) for the
/// architecture and the epoch/snapshot protocol. Multi-relation serving
/// (one pool, one epoch clock, CIND maintenance across relations) lives
/// in [`crate::multistore::MultiStore`], which drives the same core.
pub struct ShardedStore {
    pool: SharedPool,
    core: StoreCore,
}

impl ShardedStore {
    /// Build an `n_shards`-way store enforcing `sigma`, seeded with the
    /// tuples of `base` (which may be dirty — ask
    /// [`ShardedStore::current_violations`]).
    pub fn new(sigma: Vec<Cfd>, base: &Relation, n_shards: usize) -> Self {
        let mut pool = SharedPool::new();
        let core = StoreCore::new(sigma, base, n_shards, &mut pool);
        ShardedStore { pool, core }
    }

    /// The CFDs being enforced.
    pub fn sigma(&self) -> &[Cfd] {
        self.core.sigma()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.core.shard_count()
    }

    /// The last committed epoch (0 until the first batch).
    pub fn epoch(&self) -> u64 {
        self.core.epoch()
    }

    /// The oldest epoch still reconstructable (advanced by
    /// [`ShardedStore::gc`]).
    pub fn floor_epoch(&self) -> u64 {
        self.core.floor_epoch()
    }

    /// Commit records currently retained for historical reads.
    pub fn retained_commits(&self) -> usize {
        self.core.retained_commits()
    }

    /// Number of live tuples across all shards.
    pub fn live_len(&self) -> usize {
        self.core.live_len()
    }

    /// Is the store empty (no live tuples)?
    pub fn is_empty(&self) -> bool {
        self.core.is_empty()
    }

    /// All violations currently holding, in
    /// [`crate::violations::detect_all`] order.
    pub fn current_violations(&self) -> Vec<Violation> {
        self.core.current_violations()
    }

    /// Materialize the current live relation (reporting boundary).
    pub fn relation(&self) -> Relation {
        self.core.relation(&self.pool)
    }

    /// The live relation as of `epoch`, or `None` when the epoch has
    /// been garbage-collected (or never existed yet).
    pub fn scan_at(&self, epoch: u64) -> Option<Relation> {
        self.core.scan_at(epoch, &self.pool)
    }

    /// The violation set as of `epoch`, or `None` when the epoch has
    /// been garbage-collected (or never existed yet). Reconstructed from
    /// the floor state plus the retained commit diffs.
    pub fn violations_at(&self, epoch: u64) -> Option<Vec<Violation>> {
        self.core.violations_at(epoch)
    }

    /// Subscribe to every future commit through a bounded channel of
    /// `capacity` diffs, filtered by `filter`. Delivery is in commit
    /// order. The writer never blocks on a subscriber: a queue that is
    /// full at publish time **sheds** the subscriber — it is dropped,
    /// the shed is counted ([`ShardedStore::shed_sub_count`]), and the
    /// receiver observes the disconnect as its gap signal (resubscribe
    /// and re-sync from a snapshot). Dropping the receiver
    /// unsubscribes at the next commit.
    ///
    /// Size `capacity` for every commit that may land before the next
    /// drain, or drain from another thread (as `cfdprop serve-updates`
    /// does) to keep the queue shallow.
    pub fn subscribe(&mut self, filter: DiffFilter, capacity: usize) -> Receiver<Arc<Commit>> {
        self.core.subscribe(filter, capacity)
    }

    /// Subscribers shed so far for lagging (full queue at publish).
    pub fn shed_sub_count(&self) -> u64 {
        self.core.shed_sub_count()
    }

    /// Pin the current epoch and capture an immutable [`Snapshot`] of
    /// it: O(total chunks) pointer copies for the rows — no row data is
    /// copied — and the shared violation tip, brought forward by the
    /// diffs committed since the last snapshot (see the
    /// [module docs](self) for when that copies).
    pub fn snapshot(&self) -> Snapshot {
        self.core.snapshot(&self.pool)
    }

    /// Apply one batch of updates (deletes first, then inserts), commit
    /// the next epoch, publish the diff to every subscriber, and return
    /// the commit. Exact-diff semantics match
    /// [`crate::delta::DeltaDetector::apply`].
    pub fn apply(&mut self, batch: &UpdateBatch) -> Arc<Commit> {
        let epoch = self.core.epoch() + 1;
        self.core.apply_at(batch, epoch, &mut self.pool).0
    }

    /// Advance the history floor to the oldest pinned epoch (or the
    /// current epoch) and reclaim everything below it: commit records
    /// fold into the floor violation set, rows dead at or below the
    /// horizon are physically dropped, and owner-shard member
    /// references are remapped. See the [module docs](self).
    pub fn gc(&mut self) -> GcStats {
        self.core.gc()
    }
}

/// An epoch-pinned, self-contained view of the store: immutable chunk
/// views of every shard, a pool view, and the violation set at the
/// pinned epoch. `Send + Sync`; never blocks the writer; unpins on drop.
pub struct Snapshot {
    epoch: u64,
    arity: usize,
    shards: Vec<RowsView>,
    pool: PoolView,
    violations: Arc<Vec<Violation>>,
    pins: Arc<Mutex<BTreeMap<u64, usize>>>,
}

impl Snapshot {
    /// The pinned epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Relation arity at the pinned epoch (0 if it was still empty).
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The violations holding at the pinned epoch, in
    /// [`crate::violations::detect_all`] order. Borrowed from the
    /// snapshot's immutable state — repeated calls allocate nothing.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Number of live tuples at the pinned epoch.
    pub fn live_len(&self) -> usize {
        self.shards
            .iter()
            .map(|rows| {
                (0..rows.len() as u32)
                    .filter(|&r| rows.live_at(r, self.epoch))
                    .count()
            })
            .sum()
    }

    /// Materialize the live relation at the pinned epoch.
    pub fn relation(&self) -> Relation {
        let mut out: Vec<Tuple> = Vec::new();
        for rows in &self.shards {
            for row in 0..rows.len() as u32 {
                if rows.live_at(row, self.epoch) {
                    out.push(rows.decode_row(row, &self.pool));
                }
            }
        }
        out.into_iter().collect()
    }
}

impl Clone for Snapshot {
    fn clone(&self) -> Self {
        *self
            .pins
            .lock()
            .expect("pin registry")
            .entry(self.epoch)
            .or_insert(0) += 1;
        Snapshot {
            epoch: self.epoch,
            arity: self.arity,
            shards: self.shards.clone(),
            pool: self.pool.clone(),
            violations: Arc::clone(&self.violations),
            pins: Arc::clone(&self.pins),
        }
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        let mut pins = self.pins.lock().expect("pin registry");
        if let Some(count) = pins.get_mut(&self.epoch) {
            *count -= 1;
            if *count == 0 {
                pins.remove(&self.epoch);
            }
        }
    }
}

/// The memoryless verdict of one CFD on one code row (mirrors the delta
/// engine's fused per-row unit).
fn per_row_clash(
    coded: &CodedCfd,
    sigma: &[Cfd],
    pool: &SharedPool,
    cfd_index: usize,
    codes: &[Code],
) -> Option<Violation> {
    let decode = || codes.iter().map(|&c| pool.value(c).clone()).collect();
    if let Some((a, b)) = coded.attr_eq() {
        return (codes[a] != codes[b]).then(|| Violation {
            cfd_index,
            kind: ViolationKind::AttrEqClash {
                left: pool.value(codes[a]).clone(),
                right: pool.value(codes[b]).clone(),
            },
            tuples: vec![decode()],
        });
    }
    if !coded.lhs_matches_codes(codes) {
        return None;
    }
    let found = codes[coded.rhs_attr()];
    let violates = match coded.rhs() {
        CodeCell::Const(expected) => found != expected,
        CodeCell::Absent => true,
        CodeCell::Wild => unreachable!("per-row units hold no wild-RHS CFD"),
    };
    violates.then(|| Violation {
        cfd_index,
        kind: ViolationKind::ConstantClash {
            expected: sigma[cfd_index]
                .rhs_pattern()
                .as_const()
                .expect("constant-RHS CFD")
                .clone(),
            found: pool.value(found).clone(),
        },
        tuples: vec![decode()],
    })
}

/// The current per-CFD conflict snapshot of one owned group (`None`
/// when no CFD of the unit conflicts here — the common case).
fn snapshot_owner(state: &GroupState<u64>, wu: &WildUnit) -> Option<Vec<Option<CodedSnap>>> {
    if !state.any_conflict() {
        return None;
    }
    let mut members: Vec<u64> = state.rows.as_slice().to_vec();
    members.sort_unstable();
    Some(
        wu.cfds
            .iter()
            .enumerate()
            .map(|(k, &i)| {
                state.rhs(k).conflicted().then(|| CodedSnap {
                    cfd_index: i,
                    values: state.rhs(k).codes(),
                    members: members.clone(),
                })
            })
            .collect(),
    )
}

/// Decode one conflicted-group snapshot at the reporting boundary.
fn materialize_snap(snap: &CodedSnap, shards: &[StorageShard], pool: &SharedPool) -> Violation {
    let mut values: Vec<_> = snap.values.iter().map(|&c| pool.value(c).clone()).collect();
    values.sort();
    let mut tuples: Vec<Tuple> = snap
        .members
        .iter()
        .map(|&rf| {
            shards[ref_shard(rf)]
                .rows
                .row_codes(ref_row(rf))
                .map(|c| pool.value(c).clone())
                .collect()
        })
        .collect();
    tuples.sort();
    Violation {
        cfd_index: snap.cfd_index,
        kind: ViolationKind::PairConflict { values },
        tuples,
    }
}

/// Apply one unit's routed deletes and inserts on one owner shard,
/// appending the materialized violations the unit retired and added —
/// the same epoch-stamped before/after discipline as the delta engine's
/// `process_unit`.
#[allow(clippy::too_many_arguments)]
fn process_owner_unit(
    unit: &mut OwnerUnit,
    wu: &WildUnit,
    dels: &[WildRec],
    ins: &[WildRec],
    epoch: u64,
    shards: &[StorageShard],
    pool: &SharedPool,
    removed: &mut Vec<Violation>,
    added: &mut Vec<Violation>,
) {
    if dels.is_empty() && ins.is_empty() {
        return;
    }
    let mut before: Vec<(u32, Vec<Option<CodedSnap>>)> = Vec::new();
    let mut conflicted_after: Vec<u32> = Vec::new();
    for rec in dels {
        let gid = *unit
            .key_gid
            .get(&rec.key)
            .expect("deleted row was admitted to its group");
        let state = &mut unit.groups[gid as usize];
        if state.stamp != epoch {
            state.stamp = epoch;
            if let Some(snap) = snapshot_owner(state, wu) {
                before.push((gid, snap));
            }
        }
        state.rows.remove(rec.rf);
        for (k, &code) in rec.rhs.as_slice().iter().enumerate() {
            if state.rhs_mut(k).drop_one(code) {
                state.conflicts -= 1;
            }
        }
        if state.any_conflict() {
            conflicted_after.push(gid);
        }
    }
    for rec in ins {
        let next = unit.groups.len() as u32;
        let gid = *unit.key_gid.entry_or_insert_with(rec.key.clone(), || next);
        if gid == next {
            unit.groups.push(GroupState::new(wu.cfds.len()));
        }
        let state = &mut unit.groups[gid as usize];
        if state.stamp != epoch {
            state.stamp = epoch;
            if let Some(snap) = snapshot_owner(state, wu) {
                before.push((gid, snap));
            }
        }
        state.rows.push(rec.rf);
        for (k, &code) in rec.rhs.as_slice().iter().enumerate() {
            if state.rhs_mut(k).bump(code) {
                state.conflicts += 1;
            }
        }
        if state.any_conflict() {
            conflicted_after.push(gid);
        }
    }
    // Diff every candidate group once (`stamp_emit` dedups): the
    // comparison is on materialized violations, so verbatim churn
    // cancels naturally.
    let none = || vec![None; wu.cfds.len()];
    for (gid, before_vs) in before {
        let state = &mut unit.groups[gid as usize];
        state.stamp_emit = epoch;
        let after_vs = snapshot_owner(state, wu).unwrap_or_else(none);
        for (b, a) in before_vs.into_iter().zip(after_vs) {
            let b = b.map(|s| materialize_snap(&s, shards, pool));
            let a = a.map(|s| materialize_snap(&s, shards, pool));
            match (b, a) {
                (Some(b), Some(a)) if b == a => {}
                (b, a) => {
                    removed.extend(b);
                    added.extend(a);
                }
            }
        }
    }
    for gid in conflicted_after {
        let state = &mut unit.groups[gid as usize];
        if state.stamp_emit == epoch {
            continue; // diffed above (or a duplicate entry)
        }
        state.stamp_emit = epoch;
        if let Some(after_vs) = snapshot_owner(state, wu) {
            added.extend(
                after_vs
                    .into_iter()
                    .flatten()
                    .map(|s| materialize_snap(&s, shards, pool)),
            );
        }
    }
}

/// Fold the diffs of a run of commits, oldest first, into a shared,
/// sorted violation set (see [`fold_diffs`]).
fn fold_commits<'a>(set: &mut Arc<Vec<Violation>>, commits: impl Iterator<Item = &'a Arc<Commit>>) {
    fold_diffs(
        set,
        commits.map(|c| (c.diff.removed.as_slice(), c.diff.added.as_slice())),
        violation_order,
    );
}

/// Fold a run of `(removed, added)` diffs, oldest first, into a shared,
/// sorted set in one pass: the diffs first net out into one — an
/// element's changes alternate, so its first change says whether it was
/// in the set before the run and its last whether it is after — and the
/// net diff is then folded once. For `Δ` diff entries and a set of `V`
/// a fold costs `O(Δ · log(Δ + V))` comparisons plus one move per
/// element of the set, however many commits the run spans. The set is
/// copied first only when the net diff is non-empty and someone else
/// still shares it.
pub(crate) fn fold_diffs<'a, T: Clone + 'a>(
    set: &mut Arc<Vec<T>>,
    diffs: impl IntoIterator<Item = (&'a [T], &'a [T])>,
    cmp: impl Fn(&T, &T) -> Ordering,
) {
    let mut changes: Vec<(&T, bool)> = Vec::new();
    for (removed, added) in diffs {
        changes.extend(removed.iter().map(|v| (v, false)));
        changes.extend(added.iter().map(|v| (v, true)));
    }
    // Stable, so each element's changes stay in commit order.
    changes.sort_by(|a, b| cmp(a.0, b.0));
    let (mut removed, mut added) = (Vec::new(), Vec::new());
    for run in changes.chunk_by(|a, b| cmp(a.0, b.0) == Ordering::Equal) {
        match (run[0], run[run.len() - 1].1) {
            ((v, false), false) => removed.push(v),
            ((v, true), true) => added.push(v),
            _ => {}
        }
    }
    if !removed.is_empty() || !added.is_empty() {
        fold_sorted(Arc::make_mut(set), removed, added.into_iter().cloned(), cmp);
    }
}

/// Fold a sorted diff into a sorted set: drop each of `removed` (each
/// must be present) and weave in each of `added` (each must be absent;
/// the two lists are disjoint). Each diff entry finds its place by a
/// galloping search from the previous one, and the untouched runs
/// between entries move over in bulk, so a fold costs
/// `O(|diff| · log(|set| / |diff|))` comparisons and one move per
/// element — no element of the set is cloned, and `added` is moved in.
fn fold_sorted<'a, T: 'a>(
    set: &mut Vec<T>,
    removed: impl IntoIterator<Item = &'a T>,
    added: impl IntoIterator<Item = T>,
    cmp: impl Fn(&T, &T) -> Ordering,
) {
    let mut rest = std::mem::take(set).into_iter();
    let mut ad = added.into_iter().peekable();
    let mut out = Vec::with_capacity(rest.len() + ad.size_hint().0);
    let mut rm = removed.into_iter().peekable();
    loop {
        let removal_first = match (rm.peek(), ad.peek()) {
            (None, None) => break,
            (Some(r), Some(a)) => cmp(a, r) != Ordering::Less,
            (r, _) => r.is_some(),
        };
        if removal_first {
            let Some(r) = rm.next() else { break };
            let run = gallop(rest.as_slice(), |v| cmp(v, r) == Ordering::Less);
            out.extend(rest.by_ref().take(run));
            let gone = rest.next();
            debug_assert!(
                gone.is_some_and(|g| cmp(&g, r) == Ordering::Equal),
                "diff removed an element not in the set"
            );
        } else {
            let Some(a) = ad.next() else { break };
            let run = gallop(rest.as_slice(), |v| cmp(v, &a) == Ordering::Less);
            out.extend(rest.by_ref().take(run));
            out.push(a);
        }
    }
    out.extend(rest);
    *set = out;
}

/// The length of the prefix of `s` on which `below` holds (`below` must
/// hold on a prefix only), found by doubling then bisecting: `O(log p)`
/// probes for an answer `p`.
fn gallop<T>(s: &[T], below: impl Fn(&T) -> bool) -> usize {
    let mut hi = 1;
    while hi <= s.len() && below(&s[hi - 1]) {
        hi *= 2;
    }
    let lo = hi / 2;
    let end = (hi - 1).min(s.len());
    lo + s[lo..end].partition_point(below)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect_all;
    use cfd_model::pattern::Pattern;
    use cfd_relalg::Value;
    use std::collections::BTreeSet;

    fn tup(vs: &[i64]) -> Tuple {
        vs.iter().map(|v| Value::int(*v)).collect()
    }

    fn base(rows: &[&[i64]]) -> Relation {
        rows.iter().map(|r| tup(r)).collect()
    }

    /// The store agrees with a fresh full rescan of its own relation.
    fn assert_in_sync(store: &ShardedStore) {
        assert_eq!(
            store.current_violations(),
            detect_all(&store.relation(), store.sigma()),
            "sharded state diverged from the full rescan"
        );
    }

    #[test]
    fn insert_adds_and_delete_retires_across_shard_counts() {
        for n in [1, 2, 7] {
            let sigma = vec![Cfd::fd(&[0], 1).unwrap()];
            let mut store = ShardedStore::new(sigma, &base(&[&[1, 2], &[2, 5]]), n);
            let c = store.apply(&UpdateBatch::inserts(vec![tup(&[1, 3])]));
            assert_eq!(c.epoch, 1);
            assert_eq!(c.diff.added.len(), 1, "n = {n}");
            assert!(c.diff.removed.is_empty());
            assert_in_sync(&store);
            let c = store.apply(&UpdateBatch::deletes(vec![tup(&[1, 3])]));
            assert_eq!(c.diff.removed.len(), 1);
            assert!(store.current_violations().is_empty());
            assert_in_sync(&store);
        }
    }

    #[test]
    fn cross_shard_groups_are_detected() {
        // Many tuples in one LHS group: wherever the row hash scatters
        // them, the group owner sees them all.
        let sigma = vec![Cfd::fd(&[0], 1).unwrap()];
        let mut store = ShardedStore::new(sigma.clone(), &Relation::new(), 4);
        let inserts: Vec<Tuple> = (0..16).map(|i| tup(&[7, i])).collect();
        let c = store.apply(&UpdateBatch::inserts(inserts));
        assert_eq!(c.diff.added.len(), 1, "one big group violation");
        assert_eq!(c.diff.added[0].tuples.len(), 16);
        assert_in_sync(&store);
    }

    #[test]
    fn matches_delta_detector_on_mixed_batches() {
        use crate::delta::DeltaDetector;
        let sigma = vec![
            Cfd::fd(&[0], 1).unwrap(),
            Cfd::fd(&[0], 2).unwrap(),
            Cfd::attr_eq(1, 2).unwrap(),
            Cfd::new(vec![(0, Pattern::cst(1))], 2, Pattern::cst(9)).unwrap(),
        ];
        let seed = base(&[&[1, 2, 3], &[1, 2, 4], &[2, 5, 5]]);
        let mut det = DeltaDetector::new(sigma.clone(), &seed);
        let mut store = ShardedStore::new(sigma, &seed, 3);
        assert_eq!(store.current_violations(), det.current_violations());
        let batches = [
            UpdateBatch::inserts(vec![tup(&[1, 9, 9]), tup(&[3, 3, 3])]),
            UpdateBatch::new(vec![tup(&[1, 2, 3])], vec![tup(&[1, 2, 3])]),
            UpdateBatch::deletes(vec![tup(&[1, 2, 4]), tup(&[9, 9, 9])]),
            UpdateBatch::inserts(vec![tup(&[2, 5, 6]), tup(&[2, 5, 6])]),
        ];
        for b in &batches {
            let d1 = det.apply(b);
            let c = store.apply(b);
            assert_eq!(c.diff, d1, "diffs must agree batch for batch");
            assert_eq!(store.current_violations(), det.current_violations());
        }
        assert_eq!(store.relation(), det.relation());
    }

    #[test]
    fn snapshots_pin_epochs_and_survive_later_batches() {
        let sigma = vec![Cfd::fd(&[0], 1).unwrap()];
        let mut store = ShardedStore::new(sigma, &base(&[&[1, 2]]), 2);
        let s0 = store.snapshot();
        store.apply(&UpdateBatch::inserts(vec![tup(&[1, 3])]));
        let s1 = store.snapshot();
        store.apply(&UpdateBatch::deletes(vec![tup(&[1, 2]), tup(&[1, 3])]));
        assert_eq!(s0.epoch(), 0);
        assert_eq!(s0.relation(), base(&[&[1, 2]]));
        assert!(s0.violations().is_empty());
        assert_eq!(s1.relation(), base(&[&[1, 2], &[1, 3]]));
        assert_eq!(s1.violations().len(), 1);
        assert!(store.current_violations().is_empty());
        assert_eq!(store.live_len(), 0);
        // Historical reads through the store agree with the snapshots.
        assert_eq!(store.violations_at(1).unwrap(), s1.violations());
        assert_eq!(store.scan_at(0).unwrap(), s0.relation());
    }

    #[test]
    fn fold_diffs_equals_applying_each_diff_in_turn() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        for case in 0..500 {
            let span = [4, 64, 4096][case % 3];
            let mut want: BTreeSet<u32> = (0..rng.gen_range(0..200))
                .map(|_| rng.gen_range(0..span))
                .collect();
            let start: Vec<u32> = want.iter().copied().collect();
            // A run of diffs, each valid against the set it follows, so
            // elements get removed, re-added and removed again.
            let mut diffs: Vec<(Vec<u32>, Vec<u32>)> = Vec::new();
            for _ in 0..rng.gen_range(0..6) {
                let removed: Vec<u32> =
                    want.iter().copied().filter(|_| rng.gen_bool(0.2)).collect();
                let added: BTreeSet<u32> = (0..rng.gen_range(0..40))
                    .map(|_| rng.gen_range(0..span))
                    .filter(|v| !want.contains(v))
                    .collect();
                for v in &removed {
                    want.remove(v);
                }
                want.extend(&added);
                diffs.push((removed, added.into_iter().collect()));
            }
            let mut folded = Arc::new(start.clone());
            let held = Arc::clone(&folded);
            fold_diffs(
                &mut folded,
                diffs.iter().map(|(r, a)| (r.as_slice(), a.as_slice())),
                u32::cmp,
            );
            assert_eq!(*folded, want.into_iter().collect::<Vec<_>>(), "case {case}");
            assert_eq!(*held, start, "a shared set is copied, not changed");
        }
    }

    #[test]
    fn snapshots_share_one_tip_and_held_ones_keep_theirs() {
        let sigma = vec![Cfd::fd(&[0], 1).unwrap()];
        let rows: Vec<&[i64]> = vec![&[1, 2], &[1, 3], &[2, 4], &[2, 5]];
        let mut store = ShardedStore::new(sigma, &base(&rows), 2);
        let a = store.snapshot();
        let b = store.snapshot();
        assert!(
            std::ptr::eq(a.violations(), b.violations()),
            "no commit in between: one shared set, no copy"
        );
        store.apply(&UpdateBatch::inserts(vec![tup(&[3, 6]), tup(&[3, 7])]));
        let c = store.snapshot();
        assert_eq!(c.violations(), store.current_violations().as_slice());
        assert_eq!(a.violations().len(), 2, "held snapshot keeps its epoch");
        drop((a, b));
        store.apply(&UpdateBatch::deletes(vec![tup(&[1, 2])]));
        drop(c);
        let d = store.snapshot();
        assert_eq!(d.violations(), store.current_violations().as_slice());
        assert_eq!(d.violations().len(), 2);
    }

    #[test]
    fn gc_respects_pins_and_reclaims_after_drop() {
        let sigma = vec![Cfd::fd(&[0], 1).unwrap()];
        let mut store = ShardedStore::new(sigma, &Relation::new(), 2);
        for i in 0..8i64 {
            store.apply(&UpdateBatch::inserts(vec![tup(&[i, i])]));
        }
        let snap = store.snapshot(); // pins epoch 8
        for i in 0..8i64 {
            store.apply(&UpdateBatch::deletes(vec![tup(&[i, i])]));
        }
        let stats = store.gc();
        assert_eq!(stats.horizon, 8, "pinned epoch bounds the horizon");
        assert_eq!(stats.reclaimed_rows, 0, "snapshot still sees the rows");
        assert_eq!(store.floor_epoch(), 8);
        assert_eq!(store.retained_commits(), 8, "post-pin commits retained");
        assert_eq!(snap.live_len(), 8);
        drop(snap);
        let stats = store.gc();
        assert_eq!(stats.horizon, 16);
        assert_eq!(stats.reclaimed_rows, 8, "all rows reclaimable now");
        assert_eq!(store.retained_commits(), 0);
        assert_in_sync(&store);
        // The store still works after physical reclamation.
        let c = store.apply(&UpdateBatch::inserts(vec![tup(&[1, 2]), tup(&[1, 3])]));
        assert_eq!(c.diff.added.len(), 1);
        assert_in_sync(&store);
    }

    #[test]
    fn bus_delivers_filtered_commits_in_order() {
        let sigma = vec![Cfd::fd(&[0], 1).unwrap(), Cfd::fd(&[1], 2).unwrap()];
        let mut store = ShardedStore::new(sigma, &Relation::new(), 2);
        let all = store.subscribe(DiffFilter::All, 16);
        let only1 = store.subscribe(DiffFilter::Cfd(1), 16);
        let attr2 = store.subscribe(DiffFilter::RhsAttr(2), 16);
        store.apply(&UpdateBatch::inserts(vec![
            tup(&[1, 2, 3]),
            tup(&[1, 2, 4]),
        ]));
        store.apply(&UpdateBatch::inserts(vec![tup(&[1, 3, 5])]));
        let c1 = all.recv().unwrap();
        let c2 = all.recv().unwrap();
        assert_eq!((c1.epoch, c2.epoch), (1, 2));
        assert_eq!(c1.diff.added.len(), 1, "cfd 1 violated by batch 1");
        assert_eq!(c2.diff.added.len(), 1, "cfd 0 violated by batch 2");
        let f1 = only1.recv().unwrap();
        let f2 = only1.recv().unwrap();
        assert_eq!(f1.diff.added.len(), 1);
        assert!(f2.diff.is_empty(), "commit 2 has no cfd-1 violations");
        // RhsAttr(2) matches cfd 1 (rhs attribute 2) only.
        assert_eq!(attr2.recv().unwrap().diff, f1.diff);
        drop(only1);
        // Deleting (1,2,4) retires the cfd-1 conflict entirely and
        // shrinks the cfd-0 group violation (retire + re-add).
        store.apply(&UpdateBatch::deletes(vec![tup(&[1, 2, 4])]));
        let c3 = all.recv().unwrap();
        assert_eq!(c3.diff.removed.len(), 2);
        assert_eq!(c3.diff.added.len(), 1);
    }

    #[test]
    fn empty_batches_commit_empty_diffs() {
        let sigma = vec![Cfd::fd(&[0], 1).unwrap()];
        let mut store = ShardedStore::new(sigma, &base(&[&[1, 2]]), 2);
        let c = store.apply(&UpdateBatch::default());
        assert!(c.diff.is_empty());
        assert_eq!(store.epoch(), 1);
        let c = store.apply(&UpdateBatch::deletes(vec![tup(&[9, 9])]));
        assert!(c.diff.is_empty(), "deleting an absent tuple is a no-op");
        assert_in_sync(&store);
    }
}
