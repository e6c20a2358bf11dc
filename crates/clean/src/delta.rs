//! Persistent delta-based violation detection.
//!
//! [`crate::violations::detect_all`] answers "what does Σ say about this
//! snapshot" by rescanning the whole relation — `O(|r|·|Σ|)` per call. The
//! paper's headline applications (§1: cleaning a warehouse, maintaining an
//! integrated view) are *update-driven*: the relation changes by small
//! batches of inserts and deletes, and re-paying the full scan per batch
//! wastes almost all of it. [`DeltaDetector`] is the incremental engine:
//! Σ is compiled once, per-CFD group indexes are built once over the
//! mutable columnar store ([`cfd_relalg::columnar::ColumnarRelation`]),
//! and every [`DeltaDetector::apply`] call answers in `O(|Δ|·|Σ|)`
//! expected time with the exact [`ViolationDiff`] the batch caused.
//!
//! # Index invariants
//!
//! The detector shards Σ into *units*, the same LHS-sharing batching the
//! full scan uses ([`crate::violations::detect_all`]):
//!
//! * one fused memoryless unit for all constant-RHS and
//!   attribute-equality CFDs (whether a row violates them depends on
//!   that row alone, so one sweep of the batch covers every one);
//! * one indexed unit per distinct compiled LHS signature of the
//!   wildcard-RHS CFDs. The unit's index maps each LHS group (dense gid,
//!   resolved by [`cfd_model::columnar::GroupKey`] hash on insert and by the detector's
//!   row-major gid matrix on delete) to the group's live member rows
//!   plus, per CFD in the unit, the multiset of RHS codes present (as
//!   `(code, count)` pairs — a clean group has exactly one, stored
//!   inline). A group violates a CFD exactly when its distinct-RHS count
//!   is ≥ 2, which the index answers without touching the relation.
//!
//! Units are independent, so a batch's index maintenance fans out across
//! threads (rayon `par_iter_mut`) once `|Δ|·|Σ|` is large enough to
//! amortize the spawns.
//!
//! # Diff semantics
//!
//! A batch applies its deletes first (tuples absent from the relation are
//! ignored), then its inserts (tuples already present are ignored — set
//! semantics; this also collapses duplicates *within* the batch, which is
//! what makes the diff independent of the batch's internal order). The
//! returned [`ViolationDiff`] is the exact set difference between the
//! violations of the relation before and after the batch: `added` are
//! violations that now hold and did not before, `removed` the reverse,
//! both sorted like [`crate::violations::detect_all`] output (by CFD
//! index, then tuples). Replaying every diff from an empty set therefore
//! reproduces [`DeltaDetector::current_violations`] — the invariant the
//! property suite (`crates/clean/tests/delta_props.rs`) enforces against
//! both the full columnar rescan and the quadratic §2.1 reference.
//!
//! Tombstoned rows are compacted away automatically once they outnumber
//! the live rows ([`ColumnarRelation::needs_compaction`]); physical row
//! ids are remapped in place, so the indexes survive compaction without a
//! rebuild.
//!
//! ```
//! use cfd_clean::delta::{DeltaDetector, UpdateBatch};
//! use cfd_model::Cfd;
//! use cfd_relalg::{Relation, Value};
//!
//! let sigma = vec![Cfd::fd(&[0], 1).unwrap()];
//! let base: Relation = [vec![Value::int(1), Value::int(2)]].into_iter().collect();
//! let mut det = DeltaDetector::new(sigma, &base);
//! assert!(det.current_violations().is_empty());
//!
//! // Inserting (1, 3) conflicts with the resident (1, 2) …
//! let diff = det.apply(&UpdateBatch::inserts(vec![vec![Value::int(1), Value::int(3)]]));
//! assert_eq!(diff.added.len(), 1);
//! assert!(diff.removed.is_empty());
//!
//! // … and deleting (1, 2) retires that violation again.
//! let diff = det.apply(&UpdateBatch::deletes(vec![vec![Value::int(1), Value::int(2)]]));
//! assert!(diff.added.is_empty());
//! assert_eq!(diff.removed.len(), 1);
//! assert!(det.current_violations().is_empty());
//! ```

use crate::groupstate::GroupState;
use crate::violations::{
    detect_all_coded, materialize, sort_violations, CodedViolation, CodedViolationKind, Violation,
};
use cfd_model::cfd::Cfd;
use cfd_model::columnar::{CodeCell, CodedCfd, GroupMap};
use cfd_relalg::columnar::ColumnarRelation;
use cfd_relalg::instance::{Relation, Tuple};
use cfd_relalg::pool::{Code, ValuePool};
use rayon::prelude::*;
use rustc_hash::FxHashMap;

/// Below this much `|Δ| × |Σ|` work the per-unit maintenance stays
/// sequential (thread spawns would dominate).
const PARALLEL_CUTOFF: usize = 1 << 14;

/// One batch of updates: deletes are applied first, then inserts. Tuples
/// deleted but not present, or inserted but already present, are ignored
/// (set semantics), so the resulting [`ViolationDiff`] does not depend on
/// the order of tuples within the batch.
#[derive(Clone, Debug, Default)]
pub struct UpdateBatch {
    /// Tuples to insert.
    pub inserts: Vec<Tuple>,
    /// Tuples to delete.
    pub deletes: Vec<Tuple>,
}

impl UpdateBatch {
    /// A batch of both inserts and deletes.
    pub fn new(inserts: Vec<Tuple>, deletes: Vec<Tuple>) -> Self {
        UpdateBatch { inserts, deletes }
    }

    /// An insert-only batch.
    pub fn inserts(inserts: Vec<Tuple>) -> Self {
        UpdateBatch {
            inserts,
            deletes: Vec::new(),
        }
    }

    /// A delete-only batch.
    pub fn deletes(deletes: Vec<Tuple>) -> Self {
        UpdateBatch {
            inserts: Vec::new(),
            deletes,
        }
    }

    /// Is the batch empty?
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }
}

/// The violations a batch added and retired, each sorted by CFD index and
/// then by the participating tuples (deterministic and independent of the
/// batch's internal tuple order).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ViolationDiff {
    /// Violations that hold after the batch but did not before.
    pub added: Vec<Violation>,
    /// Violations that held before the batch but no longer do.
    pub removed: Vec<Violation>,
}

impl ViolationDiff {
    /// Did the batch change the violation set at all?
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

/// Sentinel gid for rows outside a unit's premise scope (mirrors
/// [`cfd_model::columnar::NO_GROUP`]).
const NO_GROUP: u32 = u32::MAX;

/// One detection shard: a memoryless CFD or a set of LHS-sharing
/// wildcard-RHS CFDs with their group index.
///
/// The wild index is *dense*: groups get stable dense gids, the
/// detector-level gid matrix maps each physical row to its gid per wild
/// unit (or [`NO_GROUP`]), and the `GroupKey` hash is paid only when an
/// insert has to resolve (or mint) a gid — deletes go straight through
/// the matrix with no key computation at all. Empty groups keep their gid
/// (a later insert of the same key reuses it), so gids never move.
#[derive(Clone, Debug)]
enum DetectorUnit {
    /// All memoryless CFDs (attribute-equality and constant-RHS forms)
    /// fused into one unit: whether a row violates them depends on that
    /// row alone, so one scan of the batch covers every one of them.
    PerRow { cfds: Vec<usize> },
    /// Wildcard-RHS CFDs sharing one compiled LHS signature, with the
    /// LHS-group index they share.
    Wild {
        cfds: Vec<usize>,
        /// Ordinal of this unit among the wild units (its column in the
        /// detector's gid matrix).
        w: usize,
        /// LHS key → dense gid (insert path only), shape-specialized so
        /// packed keys probe a machine-word map.
        key_gid: GroupMap<u32>,
        /// Group state, indexed by gid.
        groups: Vec<GroupState<u32>>,
    },
}

/// One side of a resolved batch: the physical rows touched plus their
/// code rows in a single flat buffer (`codes[i*arity..(i+1)*arity]`
/// belongs to `rows[i]`), so the per-unit sweeps read sequential memory.
struct Delta {
    rows: Vec<u32>,
    codes: Vec<Code>,
    arity: usize,
}

impl Delta {
    fn with_capacity(n: usize, arity: usize) -> Delta {
        Delta {
            rows: Vec::with_capacity(n),
            codes: Vec::with_capacity(n * arity),
            arity,
        }
    }

    fn codes_at(&self, i: usize) -> &[Code] {
        &self.codes[i * self.arity..(i + 1) * self.arity]
    }

    fn iter(&self) -> impl Iterator<Item = (u32, &[Code])> {
        self.rows
            .iter()
            .copied()
            .zip(self.codes.chunks_exact(self.arity))
    }
}

/// The coded diff one unit contributes for one batch, plus (for wild
/// units) the gid each inserted row landed in — written back into the
/// detector's gid matrix after the parallel phase.
#[derive(Debug, Default)]
struct UnitDiff {
    removed: Vec<Violation>,
    added: Vec<Violation>,
    /// For wild units: gid per entry of `ins`, in order ([`NO_GROUP`]
    /// for out-of-scope rows). Empty for memoryless units.
    ins_gids: Vec<u32>,
}

/// A persistent incremental violation detector over one relation.
///
/// See the [module docs](self) for the index and diff invariants.
#[derive(Clone, Debug)]
pub struct DeltaDetector {
    sigma: Vec<Cfd>,
    /// Σ compiled against `pool`. Every pattern constant is interned at
    /// construction, so compiled codes stay valid as the pool grows and
    /// [`CodeCell::Absent`] never occurs.
    coded: Vec<CodedCfd>,
    pool: ValuePool,
    rel: ColumnarRelation,
    /// Live tuples by value — the set-semantics membership index and the
    /// delete → physical row resolver. Keyed by the tuple itself so a
    /// delete resolves with one hash of the tuple instead of one pool
    /// probe per attribute (its codes are then read off the store).
    row_of: FxHashMap<Tuple, u32>,
    units: Vec<DetectorUnit>,
    /// For each wildcard-RHS CFD: `(unit index, slot within the unit)`.
    wild_slot: Vec<Option<(usize, usize)>>,
    /// Row-major gid matrix: `wild_gids[row * wild_stride + w]` is the
    /// gid of physical row `row` in wild unit `w` ([`NO_GROUP`] when out
    /// of scope). One matrix instead of one array per unit, so resolving
    /// a deleted row's gid across *all* units is a single cache line.
    wild_gids: Vec<u32>,
    /// Number of wild units (the matrix stride).
    wild_stride: usize,
    /// Relation arity; 0 until the first tuple fixes it.
    arity: usize,
    /// Batch counter driving the group-state stamps (0 is never live).
    epoch: u64,
    /// Violations holding now: counted once when seeded, then moved by
    /// every committed diff.
    violations: usize,
}

impl DeltaDetector {
    /// Build a detector enforcing `sigma`, seeded with the tuples of
    /// `base` (which may be dirty — seeding reports nothing; ask
    /// [`DeltaDetector::current_violations`]).
    pub fn new(sigma: Vec<Cfd>, base: &Relation) -> Self {
        let mut pool = ValuePool::new();
        for cfd in &sigma {
            for (_, p) in cfd.lhs() {
                if let Some(v) = p.as_const() {
                    pool.intern(v);
                }
            }
            if let Some(v) = cfd.rhs_pattern().as_const() {
                pool.intern(v);
            }
        }
        let rel = ColumnarRelation::from_relation(base, &mut pool);
        let coded: Vec<CodedCfd> = sigma.iter().map(|c| CodedCfd::compile(c, &pool)).collect();

        // Shard Σ into units: all memoryless CFDs fused into one unit,
        // LHS-sharing wildcard CFDs batched together.
        let mut units: Vec<DetectorUnit> = Vec::new();
        let mut wild_slot: Vec<Option<(usize, usize)>> = vec![None; coded.len()];
        let mut wild_stride = 0usize;
        let mut per_row: Vec<usize> = Vec::new();
        let mut unit_of_lhs: FxHashMap<Vec<(usize, CodeCell)>, usize> = FxHashMap::default();
        for (i, c) in coded.iter().enumerate() {
            if c.attr_eq().is_some() || c.rhs() != CodeCell::Wild {
                per_row.push(i);
            } else {
                let unit = *unit_of_lhs.entry(c.lhs().to_vec()).or_insert_with(|| {
                    units.push(DetectorUnit::Wild {
                        cfds: Vec::new(),
                        w: wild_stride,
                        key_gid: GroupMap::new(c.lhs().len()),
                        groups: Vec::new(),
                    });
                    wild_stride += 1;
                    units.len() - 1
                });
                if let DetectorUnit::Wild { cfds, .. } = &mut units[unit] {
                    wild_slot[i] = Some((unit, cfds.len()));
                    cfds.push(i);
                }
            }
        }
        if !per_row.is_empty() {
            units.push(DetectorUnit::PerRow { cfds: per_row });
        }

        let mut det = DeltaDetector {
            arity: if rel.is_empty() { 0 } else { rel.arity() },
            row_of: FxHashMap::with_capacity_and_hasher(rel.len(), Default::default()),
            wild_gids: vec![NO_GROUP; rel.len() * wild_stride],
            wild_stride,
            sigma,
            coded,
            pool,
            rel,
            units,
            wild_slot,
            epoch: 0,
            violations: 0,
        };

        // Seed the membership and group indexes from the base rows (the
        // set iterates in sorted order — the same order the store was
        // encoded in, so row `i` is the `i`-th tuple).
        for (row, t) in base.tuples().enumerate() {
            let codes: Vec<Code> = det.rel.row_codes(row).collect();
            for unit in &mut det.units {
                if let DetectorUnit::Wild {
                    cfds,
                    w,
                    key_gid,
                    groups,
                } = unit
                {
                    det.wild_gids[row * wild_stride + *w] =
                        wild_admit(cfds, key_gid, groups, &det.coded, row as u32, &codes);
                }
            }
            det.row_of.insert(t.clone(), row as u32);
        }
        det.violations = detect_all_coded(&det.rel, &det.coded).len();
        det
    }

    /// The CFDs being enforced.
    pub fn sigma(&self) -> &[Cfd] {
        &self.sigma
    }

    /// The number of batches applied so far — the epoch stamp the next
    /// committed diff would carry. Epoch `0` is the seeded base state;
    /// every [`DeltaDetector::apply`] advances it by one. Exported so
    /// layers above (the sharded store's commit log, diff subscribers)
    /// can stamp diffs consistently with the engine's own bookkeeping.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of live tuples in the store.
    pub fn live_len(&self) -> usize {
        self.rel.live_len()
    }

    /// Is the store empty (no live tuples)?
    pub fn is_empty(&self) -> bool {
        self.live_len() == 0
    }

    /// Materialize the current live relation (reporting boundary).
    pub fn relation(&self) -> Relation {
        self.rel.to_relation(&self.pool)
    }

    /// Number of violations currently holding, without materializing
    /// them: a running count moved by every diff.
    pub fn violation_count(&self) -> usize {
        self.violations
    }

    /// All violations currently holding, in [`crate::detect_all`] order
    /// (by CFD index, then tuples). A full `O(|r|·|Σ|)` pass — the
    /// reporting endpoint, not the per-batch path.
    pub fn current_violations(&self) -> Vec<Violation> {
        let mut out: Vec<Violation> = detect_all_coded(&self.rel, &self.coded)
            .into_iter()
            .map(|v| self.materialize_sorted(v))
            .collect();
        sort_violations(&mut out);
        out
    }

    /// Apply one batch of updates (deletes first, then inserts) and
    /// return the exact violation diff it caused, in `O(|Δ|·|Σ|)`
    /// expected time.
    pub fn apply(&mut self, batch: &UpdateBatch) -> ViolationDiff {
        // Phase 1: resolve the batch against the store. Deletes tombstone
        // their row; inserts intern incrementally and append. Both dedup
        // through `row_of`, so the per-unit phase sees each logical
        // change exactly once. The resolved code rows land in one flat
        // buffer per list — the per-unit loops sweep them sequentially
        // instead of chasing one heap allocation per tuple.
        let mut dels = Delta::with_capacity(batch.deletes.len(), self.arity.max(1));
        for t in &batch.deletes {
            self.check_arity(t);
            let Some(row) = self.row_of.remove(t.as_slice()) else {
                continue; // not resident
            };
            dels.rows.push(row);
            dels.codes.extend(self.rel.row_codes(row as usize));
            self.rel.delete_row(row as usize);
        }
        let mut ins = Delta::with_capacity(batch.inserts.len(), self.arity.max(1));
        for t in &batch.inserts {
            self.check_arity(t);
            if self.arity == 0 {
                self.arity = t.len();
                ins.arity = t.len().max(1);
            }
            match self.row_of.entry(t.clone()) {
                std::collections::hash_map::Entry::Occupied(_) => continue,
                std::collections::hash_map::Entry::Vacant(e) => {
                    let at = ins.codes.len();
                    for v in t {
                        let c = self.pool.intern(v);
                        ins.codes.push(c);
                    }
                    let row = self.rel.append_row(&ins.codes[at..]) as u32;
                    e.insert(row);
                    ins.rows.push(row);
                }
            }
        }

        // Phase 2a: resolve every deleted row's gid across all wild units
        // in one sequential sweep of the gid matrix — one cache line per
        // deleted row instead of one cold array access per unit.
        let stride = self.wild_stride;
        let mut del_gids: Vec<Vec<(usize, u32)>> = vec![Vec::new(); stride];
        for (di, row) in dels.rows.iter().enumerate() {
            let at = *row as usize * stride;
            for (w, slot) in self.wild_gids[at..at + stride].iter_mut().enumerate() {
                if *slot != NO_GROUP {
                    del_gids[w].push((di, *slot));
                    *slot = NO_GROUP;
                }
            }
        }

        // Phase 2b: per-unit index maintenance and diffing, fanned out
        // across threads when the batch is large enough.
        self.epoch += 1; // 0 is never a live epoch, and u64 cannot recur
        let epoch = self.epoch;
        let (rel, pool, sigma, coded) = (&self.rel, &self.pool, &self.sigma, &self.coded);
        let work = (dels.rows.len() + ins.rows.len()).saturating_mul(coded.len());
        let run = |unit: &mut DetectorUnit| {
            process_unit(unit, rel, pool, sigma, coded, &dels, &ins, &del_gids, epoch)
        };
        let diffs: Vec<UnitDiff> = if work < PARALLEL_CUTOFF {
            self.units.iter_mut().map(run).collect()
        } else {
            self.units.par_iter_mut().map(run).collect()
        };

        // Phase 3: write the inserted rows' gids back into the matrix,
        // then merge unit diffs, cancel verbatim churn (a tuple deleted
        // and re-inserted in one batch changes nothing), and sort (one
        // pass — `cancel_common` leaves both lists in output order).
        self.wild_gids.resize(self.rel.len() * stride, NO_GROUP);
        let mut removed: Vec<Violation> = Vec::new();
        let mut added: Vec<Violation> = Vec::new();
        for (unit, d) in self.units.iter().zip(diffs) {
            if let DetectorUnit::Wild { w, .. } = unit {
                for (row, gid) in ins.rows.iter().zip(d.ins_gids) {
                    self.wild_gids[*row as usize * stride + *w] = gid;
                }
            }
            removed.extend(d.removed);
            added.extend(d.added);
        }
        cancel_common(&mut removed, &mut added);
        self.violations = self.violations + added.len() - removed.len();
        // Phase 4: reclaim tombstones once they dominate the store.
        if self.rel.needs_compaction() {
            self.compact_now();
        }
        ViolationDiff { added, removed }
    }

    /// The CFD indices inserting `t` *alone* would violate (empty means
    /// the insertion is safe). Lookup-only: neither the pool nor the
    /// store changes.
    pub fn check_insert(&self, t: &Tuple) -> Vec<usize> {
        self.check_arity(t);
        // A value the pool has never seen (`None`) differs from every
        // resident value, which every arm below exploits.
        let codes: Vec<Option<Code>> = t.iter().map(|v| self.pool.lookup(v)).collect();
        let mut bad = Vec::new();
        for (i, coded) in self.coded.iter().enumerate() {
            if self.insert_violates(i, coded, t, &codes) {
                bad.push(i);
            }
        }
        bad
    }

    fn insert_violates(
        &self,
        i: usize,
        coded: &CodedCfd,
        t: &Tuple,
        codes: &[Option<Code>],
    ) -> bool {
        if let Some((a, b)) = coded.attr_eq() {
            return t[a] != t[b];
        }
        let lhs_matches = coded.lhs().iter().all(|(a, cell)| match cell {
            CodeCell::Wild => true,
            CodeCell::Const(c) => codes[*a] == Some(*c),
            CodeCell::Absent => false,
        });
        if !lhs_matches {
            return false;
        }
        match coded.rhs() {
            CodeCell::Const(c) => codes[coded.rhs_attr()] != Some(c),
            CodeCell::Absent => true,
            CodeCell::Wild => {
                // A never-seen LHS value opens a fresh group: safe.
                let lhs_codes: Option<Vec<Code>> =
                    coded.lhs().iter().map(|(a, _)| codes[*a]).collect();
                let Some(lhs_codes) = lhs_codes else {
                    return false;
                };
                let (unit, slot) = self.wild_slot[i].expect("wild CFD has an index slot");
                let DetectorUnit::Wild {
                    key_gid, groups, ..
                } = &self.units[unit]
                else {
                    unreachable!("wild_slot points at a Wild unit");
                };
                match key_gid.get(&coded.key_of_lhs_codes(&lhs_codes)) {
                    Some(&gid) => {
                        let state = &groups[gid as usize];
                        match codes[coded.rhs_attr()] {
                            Some(rhs) => state.rhs(slot).codes().iter().any(|c| *c != rhs),
                            None => !state.rows.is_empty(),
                        }
                    }
                    None => false,
                }
            }
        }
    }

    /// Compact the store now, dropping tombstones and remapping every
    /// row-indexed structure in place (normally triggered automatically
    /// by [`DeltaDetector::apply`]).
    pub fn compact_now(&mut self) {
        let remap = self.rel.compact();
        for row in self.row_of.values_mut() {
            *row = remap[*row as usize];
        }
        for unit in &mut self.units {
            if let DetectorUnit::Wild { groups, .. } = unit {
                for state in groups.iter_mut() {
                    for row in state.rows.as_mut_slice() {
                        *row = remap[*row as usize];
                    }
                }
            }
        }
        let stride = self.wild_stride;
        let mut compacted = vec![NO_GROUP; self.rel.len() * stride];
        for (old, &new) in remap.iter().enumerate() {
            if new != cfd_relalg::columnar::DELETED_ROW {
                let (from, to) = (old * stride, new as usize * stride);
                compacted[to..to + stride].copy_from_slice(&self.wild_gids[from..from + stride]);
            }
        }
        self.wild_gids = compacted;
    }

    fn check_arity(&self, t: &Tuple) {
        assert!(
            self.arity == 0 || t.len() == self.arity,
            "tuple arity {} does not match the relation arity {}",
            t.len(),
            self.arity
        );
    }

    fn materialize_sorted(&self, v: CodedViolation) -> Violation {
        let cfd = &self.sigma[v.cfd_index];
        let mut out = materialize(v, &self.rel, &self.pool, cfd);
        out.tuples.sort();
        out
    }
}

/// Add row `row` to one wild unit's group index (seeding: no diff
/// bookkeeping), minting a gid for a fresh LHS key. Returns the gid
/// ([`NO_GROUP`] when the row is out of the unit's premise scope); the
/// caller records it in the gid matrix.
fn wild_admit(
    cfds: &[usize],
    key_gid: &mut GroupMap<u32>,
    groups: &mut Vec<GroupState<u32>>,
    coded: &[CodedCfd],
    row: u32,
    codes: &[Code],
) -> u32 {
    let lead = &coded[cfds[0]];
    if !lead.lhs_matches_codes(codes) {
        return NO_GROUP;
    }
    let next = groups.len() as u32;
    let gid = *key_gid.entry_or_insert_with(lead.key_of_codes(codes), || next);
    if gid == next {
        groups.push(GroupState::new(cfds.len()));
    }
    let state = &mut groups[gid as usize];
    state.rows.push(row);
    for (k, &i) in cfds.iter().enumerate() {
        if state.rhs_mut(k).bump(codes[coded[i].rhs_attr()]) {
            state.conflicts += 1;
        }
    }
    gid
}

/// Apply one batch's resolved deletes and inserts to one unit, returning
/// the materialized violations the unit added and retired. `del_gids[w]`
/// carries the pre-resolved `(index into dels, gid)` pairs for wild unit
/// `w` (see the phase 2a sweep in [`DeltaDetector::apply`]).
#[allow(clippy::too_many_arguments)]
fn process_unit(
    unit: &mut DetectorUnit,
    rel: &ColumnarRelation,
    pool: &ValuePool,
    sigma: &[Cfd],
    coded: &[CodedCfd],
    dels: &Delta,
    ins: &Delta,
    del_gids: &[Vec<(usize, u32)>],
    epoch: u64,
) -> UnitDiff {
    let mut diff = UnitDiff::default();
    let decode = |row: u32| rel.decode_row(row as usize, pool);
    match unit {
        DetectorUnit::PerRow { cfds } => {
            // One scan over each list covers every memoryless CFD: per
            // row, each CFD's verdict is a couple of code compares.
            let clash_of = |i: usize, row: u32, codes: &[Code]| -> Option<Violation> {
                let c = &coded[i];
                if let Some((a, b)) = c.attr_eq() {
                    return (codes[a] != codes[b]).then(|| Violation {
                        cfd_index: i,
                        kind: crate::ViolationKind::AttrEqClash {
                            left: pool.value(codes[a]).clone(),
                            right: pool.value(codes[b]).clone(),
                        },
                        tuples: vec![decode(row)],
                    });
                }
                if !c.lhs_matches_codes(codes) {
                    return None;
                }
                let found = codes[c.rhs_attr()];
                let violates = match c.rhs() {
                    CodeCell::Const(expected) => found != expected,
                    CodeCell::Absent => true,
                    CodeCell::Wild => unreachable!("PerRow unit holds no wild-RHS CFD"),
                };
                violates.then(|| Violation {
                    cfd_index: i,
                    kind: crate::ViolationKind::ConstantClash {
                        expected: sigma[i]
                            .rhs_pattern()
                            .as_const()
                            .expect("constant-RHS CFD")
                            .clone(),
                        found: pool.value(found).clone(),
                    },
                    tuples: vec![decode(row)],
                })
            };
            for (row, codes) in dels.iter() {
                for &i in cfds.iter() {
                    diff.removed.extend(clash_of(i, row, codes));
                }
            }
            for (row, codes) in ins.iter() {
                for &i in cfds.iter() {
                    diff.added.extend(clash_of(i, row, codes));
                }
            }
        }
        DetectorUnit::Wild {
            cfds,
            w,
            key_gid,
            groups,
        } => {
            // Diff bookkeeping is driven by per-group epoch stamps so the
            // hot clean path pays nothing beyond the state access it
            // already makes: a group conflicted at its first touch this
            // batch lands in `before` (it may retire violations); a group
            // conflicted right after any of its mutations lands in
            // `conflicted_after` (its last entry reflects the end state,
            // so every group conflicted after the batch is present).
            // Clean-throughout groups — the vast majority — never enter
            // either list.
            let mut before: Vec<(u32, Vec<Option<CodedViolation>>)> = Vec::new();
            let mut conflicted_after: Vec<u32> = Vec::new();
            // Hoisted per-batch invariants (the loops below run once per
            // update × unit — the hottest code in the engine).
            let rhs_attrs: Vec<usize> = cfds.iter().map(|&i| coded[i].rhs_attr()).collect();
            let lead = &coded[cfds[0]];
            let filtered = lead.has_const_lhs();
            // Deletes arrive pre-resolved to gids (phase 2a): no key
            // computation, no group-map probe, no scope check.
            for &(di, gid) in &del_gids[*w] {
                let (row, codes) = (dels.rows[di], dels.codes_at(di));
                let state = &mut groups[gid as usize];
                if state.stamp != epoch {
                    state.stamp = epoch;
                    if let Some(snap) = snapshot_wild(state, cfds) {
                        before.push((gid, snap));
                    }
                }
                state.rows.remove(row);
                for (k, &a) in rhs_attrs.iter().enumerate() {
                    if state.rhs_mut(k).drop_one(codes[a]) {
                        state.conflicts -= 1;
                    }
                }
                if state.any_conflict() {
                    conflicted_after.push(gid);
                }
            }
            diff.ins_gids.reserve(ins.rows.len());
            for (row, codes) in ins.iter() {
                if filtered && !lead.lhs_matches_codes(codes) {
                    diff.ins_gids.push(NO_GROUP);
                    continue;
                }
                let next = groups.len() as u32;
                let gid = *key_gid.entry_or_insert_with(lead.key_of_codes(codes), || next);
                if gid == next {
                    groups.push(GroupState::new(cfds.len()));
                }
                diff.ins_gids.push(gid);
                let state = &mut groups[gid as usize];
                // Snapshot on first touch, before this row lands (a fresh
                // group's empty state snapshots to `None` — nothing held).
                if state.stamp != epoch {
                    state.stamp = epoch;
                    if let Some(snap) = snapshot_wild(state, cfds) {
                        before.push((gid, snap));
                    }
                }
                state.rows.push(row);
                for (k, &a) in rhs_attrs.iter().enumerate() {
                    if state.rhs_mut(k).bump(codes[a]) {
                        state.conflicts += 1;
                    }
                }
                if state.any_conflict() {
                    conflicted_after.push(gid);
                }
            }
            // Diff every candidate group once (`stamp_emit` dedups):
            // materialized comparison, so a delete + re-insert of the
            // same tuple cancels naturally.
            let none = || vec![None; cfds.len()];
            for (gid, before_vs) in before {
                let state = &mut groups[gid as usize];
                state.stamp_emit = epoch;
                let after_vs = snapshot_wild(state, cfds).unwrap_or_else(none);
                for (b, a) in before_vs.into_iter().zip(after_vs) {
                    let b = b.map(|v| materialize_group(v, rel, pool, sigma));
                    let a = a.map(|v| materialize_group(v, rel, pool, sigma));
                    match (b, a) {
                        (Some(b), Some(a)) if b == a => {}
                        (b, a) => {
                            diff.removed.extend(b);
                            diff.added.extend(a);
                        }
                    }
                }
            }
            for gid in conflicted_after {
                let state = &mut groups[gid as usize];
                if state.stamp_emit == epoch {
                    continue; // diffed above (or a duplicate entry)
                }
                state.stamp_emit = epoch;
                // Clean before (else it would be in `before`): everything
                // conflicted now is newly added.
                if let Some(after_vs) = snapshot_wild(state, cfds) {
                    diff.added.extend(
                        after_vs
                            .into_iter()
                            .flatten()
                            .map(|v| materialize_group(v, rel, pool, sigma)),
                    );
                }
            }
        }
    }
    diff
}

/// The current per-CFD conflict snapshot of one group. `None` means no
/// CFD of the unit has a conflict in this group — the common case, kept
/// allocation-free because every touched group snapshots twice per batch.
fn snapshot_wild(state: &GroupState<u32>, cfds: &[usize]) -> Option<Vec<Option<CodedViolation>>> {
    if !state.any_conflict() {
        return None;
    }
    let mut rows: Vec<usize> = state.rows.as_slice().iter().map(|&r| r as usize).collect();
    rows.sort_unstable();
    Some(
        cfds.iter()
            .enumerate()
            .map(|(k, &i)| {
                state.rhs(k).conflicted().then(|| CodedViolation {
                    cfd_index: i,
                    kind: CodedViolationKind::PairConflict {
                        values: state.rhs(k).codes(),
                    },
                    rows: rows.clone(),
                })
            })
            .collect(),
    )
}

fn materialize_group(
    v: CodedViolation,
    rel: &ColumnarRelation,
    pool: &ValuePool,
    sigma: &[Cfd],
) -> Violation {
    let cfd = &sigma[v.cfd_index];
    let mut out = materialize(v, rel, pool, cfd);
    out.tuples.sort();
    out
}

/// Sort both diff lists into output order and remove the violations
/// present in both (multiset cancellation): churn that deleted and
/// re-created the same violation is not a diff. The comparator is the
/// [`sort_violations`] order — total thanks to the kind tie-break — so
/// one sorting pass serves both the cancellation walk and the output.
pub(crate) fn cancel_common(removed: &mut Vec<Violation>, added: &mut Vec<Violation>) {
    let order = crate::violations::violation_order;
    removed.sort_by(order);
    added.sort_by(order);
    if removed.is_empty() || added.is_empty() {
        return;
    }
    // Mark the matched pairs, then compact both lists in place (no
    // violation is cloned — the lists can be hundreds of entries deep).
    let mut kill_r = vec![false; removed.len()];
    let mut kill_a = vec![false; added.len()];
    let (mut i, mut j) = (0, 0);
    let mut any = false;
    while i < removed.len() && j < added.len() {
        match order(&removed[i], &added[j]) {
            std::cmp::Ordering::Equal => {
                kill_r[i] = true;
                kill_a[j] = true;
                any = true;
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
        }
    }
    if any {
        let mut at = 0;
        removed.retain(|_| {
            at += 1;
            !kill_r[at - 1]
        });
        at = 0;
        added.retain(|_| {
            at += 1;
            !kill_a[at - 1]
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect_all;
    use crate::ViolationKind;
    use cfd_model::pattern::Pattern;
    use cfd_relalg::Value;

    fn tup(vs: &[i64]) -> Tuple {
        vs.iter().map(|v| Value::int(*v)).collect()
    }

    fn base(rows: &[&[i64]]) -> Relation {
        rows.iter().map(|r| tup(r)).collect()
    }

    /// The cumulative-diff invariant against the full rescan.
    fn assert_in_sync(det: &DeltaDetector) {
        assert_eq!(
            det.current_violations(),
            detect_all(&det.relation(), det.sigma()),
            "delta state diverged from the full columnar rescan"
        );
    }

    #[test]
    fn insert_adds_and_delete_retires_pair_conflict() {
        let sigma = vec![Cfd::fd(&[0], 1).unwrap()];
        let mut det = DeltaDetector::new(sigma, &base(&[&[1, 2], &[2, 5]]));
        let diff = det.apply(&UpdateBatch::inserts(vec![tup(&[1, 3])]));
        assert_eq!(diff.added.len(), 1);
        assert!(diff.removed.is_empty());
        match &diff.added[0].kind {
            ViolationKind::PairConflict { values } => {
                assert_eq!(values, &[Value::int(2), Value::int(3)]);
            }
            other => panic!("unexpected kind {other:?}"),
        }
        assert_in_sync(&det);

        let diff = det.apply(&UpdateBatch::deletes(vec![tup(&[1, 3])]));
        assert_eq!(diff.removed.len(), 1);
        assert!(diff.added.is_empty());
        assert!(det.current_violations().is_empty());
        assert_in_sync(&det);
    }

    #[test]
    fn growing_a_conflicted_group_replaces_the_violation() {
        let sigma = vec![Cfd::fd(&[0], 1).unwrap()];
        let mut det = DeltaDetector::new(sigma, &base(&[&[1, 2], &[1, 3]]));
        assert_eq!(det.current_violations().len(), 1);
        // Adding a third member changes the violation's tuple set: the old
        // group violation is retired and the larger one added.
        let diff = det.apply(&UpdateBatch::inserts(vec![tup(&[1, 4])]));
        assert_eq!(diff.removed.len(), 1);
        assert_eq!(diff.added.len(), 1);
        assert_eq!(diff.added[0].tuples.len(), 3);
        assert_in_sync(&det);
    }

    #[test]
    fn delete_and_reinsert_same_tuple_is_no_diff() {
        let sigma = vec![Cfd::fd(&[0], 1).unwrap()];
        let mut det = DeltaDetector::new(sigma, &base(&[&[1, 2], &[1, 3]]));
        let diff = det.apply(&UpdateBatch::new(vec![tup(&[1, 2])], vec![tup(&[1, 2])]));
        assert!(diff.is_empty(), "verbatim churn must cancel: {diff:?}");
        assert_eq!(det.current_violations().len(), 1);
        assert_in_sync(&det);
    }

    #[test]
    fn duplicate_conflicting_inserts_are_order_independent() {
        // The satellite fix: a batch with duplicate conflicting tuples
        // reports the same diff whatever the order of its tuples.
        let sigma = vec![Cfd::fd(&[0], 1).unwrap()];
        let b1 = UpdateBatch::inserts(vec![tup(&[1, 2]), tup(&[1, 3]), tup(&[1, 2])]);
        let b2 = UpdateBatch::inserts(vec![tup(&[1, 3]), tup(&[1, 2]), tup(&[1, 2])]);
        let mut d1 = DeltaDetector::new(sigma.clone(), &Relation::new());
        let mut d2 = DeltaDetector::new(sigma, &Relation::new());
        assert_eq!(d1.apply(&b1), d2.apply(&b2));
        assert_in_sync(&d1);
    }

    #[test]
    fn constant_clash_tracked_per_row() {
        // ([A] → B, (1 ‖ 9))
        let phi = Cfd::new(vec![(0, Pattern::cst(1))], 1, Pattern::cst(9)).unwrap();
        let mut det = DeltaDetector::new(vec![phi], &Relation::new());
        let diff = det.apply(&UpdateBatch::inserts(vec![tup(&[1, 8]), tup(&[1, 9])]));
        assert_eq!(diff.added.len(), 1, "only (1,8) clashes");
        let diff = det.apply(&UpdateBatch::deletes(vec![tup(&[1, 8])]));
        assert_eq!(diff.removed.len(), 1);
        assert!(det.current_violations().is_empty());
        assert_in_sync(&det);
    }

    #[test]
    fn attr_eq_tracked_per_row() {
        let sigma = vec![Cfd::attr_eq(0, 1).unwrap()];
        let mut det = DeltaDetector::new(sigma, &Relation::new());
        let diff = det.apply(&UpdateBatch::inserts(vec![tup(&[4, 5]), tup(&[6, 6])]));
        assert_eq!(diff.added.len(), 1);
        let diff = det.apply(&UpdateBatch::deletes(vec![tup(&[4, 5])]));
        assert_eq!(diff.removed.len(), 1);
        assert_in_sync(&det);
    }

    #[test]
    fn deletes_of_absent_tuples_are_ignored() {
        let sigma = vec![Cfd::fd(&[0], 1).unwrap()];
        let mut det = DeltaDetector::new(sigma, &base(&[&[1, 2]]));
        let diff = det.apply(&UpdateBatch::deletes(vec![tup(&[9, 9]), tup(&[1, 3])]));
        assert!(diff.is_empty());
        assert_eq!(det.live_len(), 1);
        assert_in_sync(&det);
    }

    #[test]
    fn lhs_sharing_cfds_share_one_index() {
        // Both CFDs key on attribute 0: one Wild unit, two slots.
        let sigma = vec![Cfd::fd(&[0], 1).unwrap(), Cfd::fd(&[0], 2).unwrap()];
        let mut det = DeltaDetector::new(sigma, &base(&[&[1, 2, 3]]));
        let wild_units = det
            .units
            .iter()
            .filter(|u| matches!(u, DetectorUnit::Wild { .. }))
            .count();
        assert_eq!(wild_units, 1);
        let diff = det.apply(&UpdateBatch::inserts(vec![tup(&[1, 9, 9])]));
        assert_eq!(diff.added.len(), 2, "one conflict per CFD");
        assert_in_sync(&det);
    }

    #[test]
    fn compaction_preserves_state() {
        let sigma = vec![Cfd::fd(&[0], 1).unwrap()];
        let mut det = DeltaDetector::new(sigma, &Relation::new());
        for i in 0..50i64 {
            det.apply(&UpdateBatch::inserts(vec![tup(&[i, i])]));
        }
        det.apply(&UpdateBatch::deletes(
            (0..40i64).map(|i| tup(&[i, i])).collect(),
        ));
        det.compact_now();
        assert_eq!(det.live_len(), 10);
        assert_in_sync(&det);
        // Indexes still answer correctly after the remap.
        let diff = det.apply(&UpdateBatch::inserts(vec![tup(&[45, 0])]));
        assert_eq!(diff.added.len(), 1);
        assert_in_sync(&det);
    }

    #[test]
    fn check_insert_is_side_effect_free() {
        let sigma = vec![Cfd::fd(&[0], 1).unwrap()];
        let det = DeltaDetector::new(sigma, &base(&[&[1, 2]]));
        assert_eq!(det.check_insert(&tup(&[1, 3])), vec![0]);
        assert_eq!(det.check_insert(&tup(&[1, 99])), vec![0], "unseen RHS");
        assert!(det.check_insert(&tup(&[77, 99])).is_empty(), "fresh group");
        assert_eq!(det.live_len(), 1);
    }

    #[test]
    fn violation_count_equals_materialized_len_after_random_batches() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let sigma = vec![
            Cfd::fd(&[0], 1).unwrap(),
            Cfd::fd(&[0, 1], 2).unwrap(),
            Cfd::attr_eq(1, 2).unwrap(),
            Cfd::new(vec![(0, Pattern::cst(1))], 2, Pattern::cst(3)).unwrap(),
        ];
        let mut rng = StdRng::seed_from_u64(7);
        let row = |rng: &mut StdRng| {
            tup(&[
                rng.gen_range(0..4),
                rng.gen_range(0..4),
                rng.gen_range(0..4),
            ])
        };
        let seed: Relation = (0..12).map(|_| row(&mut rng)).collect();
        let mut det = DeltaDetector::new(sigma, &seed);
        assert_eq!(
            det.violation_count(),
            det.current_violations().len(),
            "seeded count"
        );
        for b in 0..200 {
            let inserts = (0..rng.gen_range(0..6)).map(|_| row(&mut rng)).collect();
            let deletes = (0..rng.gen_range(0..6)).map(|_| row(&mut rng)).collect();
            det.apply(&UpdateBatch::new(inserts, deletes));
            assert_eq!(
                det.violation_count(),
                det.current_violations().len(),
                "batch {b}"
            );
        }
    }

    #[test]
    fn mixed_sigma_large_batch_takes_parallel_path() {
        let sigma = vec![
            Cfd::fd(&[0], 1).unwrap(),
            Cfd::fd(&[0], 2).unwrap(),
            Cfd::fd(&[1, 2], 0).unwrap(),
            Cfd::attr_eq(1, 2).unwrap(),
            Cfd::new(vec![(0, Pattern::cst(1))], 2, Pattern::cst(9)).unwrap(),
        ];
        let mut det = DeltaDetector::new(sigma.clone(), &Relation::new());
        let inserts: Vec<Tuple> = (0..8192i64).map(|i| tup(&[i % 50, i % 7, i])).collect();
        assert!(inserts.len() * sigma.len() >= PARALLEL_CUTOFF);
        det.apply(&UpdateBatch::inserts(inserts));
        assert_in_sync(&det);
        let deletes: Vec<Tuple> = (0..4096i64).map(|i| tup(&[i % 50, i % 7, i])).collect();
        det.apply(&UpdateBatch::deletes(deletes));
        assert_in_sync(&det);
    }
}
