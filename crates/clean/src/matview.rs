//! Live materialized SPCU views: O(|Δ⋈|) delta-join maintenance and
//! incremental view-side violation detection on the multistore.
//!
//! The paper's view language is SPCU: unions of SPC branches
//! `V = ∪i πY(σFi(Ri1 × … × Rini))`. A [`MaterializedView`] maintains
//! one such union, where each branch's atoms are **nodes** of the
//! store's extended space — source relations first, then view slots —
//! so views stack on other views (see [`crate::catalog`] for the
//! dependency bookkeeping that orders their refresh). Each branch is
//! compiled once against the multistore's shared dictionary pool and
//! maintained incrementally from upstream row deltas: source commits
//! and, for stacked views, the row deltas the upstream views emitted
//! earlier in the same commit's topological walk.
//!
//! # The delta rule
//!
//! Compilation splits each branch's selection `F` with
//! [`cfd_relalg::query::CompiledSelection`]: constant and equality
//! conjuncts — including the ones only reachable through the transitive
//! equality closure — are pushed down to interned-code comparisons that
//! gate rows *into* the atom states, and the join variables drive a
//! width-bounded [`cfd_relalg::query::FactorizedEngine`]: each delta
//! row semijoin-reduces the per-atom candidate sets and enumerates only
//! surviving bindings, so per-row work is bounded by per-variable
//! intersections plus derivations emitted — never by intermediate join
//! size. A delta `Δ = (D, I)` on node `N` updates each branch by the
//! standard n-ary telescoped rule
//!
//! ```text
//! Δ(R1 ⋈ … ⋈ Rn) = Σj  R1′ ⋈ … ⋈ R(j-1)′ ⋈ Δj ⋈ R(j+1) ⋈ … ⋈ Rn
//! ```
//!
//! — atom positions holding `N` are processed in ascending order;
//! positions before the current one are already in their *new* state,
//! positions after it still in their *old* state. When several nodes
//! changed in one commit (a source plus upstream views), the same
//! telescoping applies across nodes: each changed node is folded fully,
//! in the order given, before the next — the per-node deltas compose
//! exactly because `Δ(Q[A→A',B→B']) = Δ(Q[A→A']) + Δ(Q[A',B→B'])`.
//!
//! # Multiplicity semantics: union by derivation-count addition
//!
//! Source relations are sets, but neither projection nor union is
//! injective: one view row may have many derivations, within a branch
//! and across branches. The view keeps **one derivation count per
//! output row, summed over all branches**; joined delta rows adjust it
//! by `±1`, a view row is *added* when its count leaves zero and
//! *removed* when it returns to zero. This is exactly how deletes
//! cancel across union branches: dropping the last derivation of one
//! branch only removes the row if no other branch still derives it.
//!
//! # View-side violation detection
//!
//! The view's own row delta — the set-level rows added and removed —
//! feeds two incremental detectors:
//!
//! * a per-view [`DeltaDetector`] holding the CFDs registered for the
//!   view (typically a propagation cover), answering with the exact
//!   [`ViolationDiff`];
//! * a per-view [`cfd_cind::CindDelta`] holding the registered extra
//!   view-LHS CINDs. Upstream deltas update its witness counts, the
//!   view's row delta its member sets; the exact diffs compose by
//!   cancellation into one [`CindDiff`] per commit. The
//!   by-construction [`cfd_cind::view_to_source_cinds`] inclusions
//!   (intersected over union branches — union inclusion holds iff
//!   every branch's does) are *not* maintained: they hold invariantly
//!   under exact maintenance, so tracking their witness counts would
//!   be per-commit dead work on every view, and an extra that
//!   restates one is silently dropped.
//!
//! # Recursive views
//!
//! A view inside a monotone dependency cycle
//! ([`crate::catalog::CyclePolicy::Monotone`]) is maintained
//! *set-level*: it has no per-branch join state, its derivation counts
//! are pinned to 1, and the store refreshes its whole strongly
//! connected component to the least fixed point
//! (`MaterializedView::eval_set` under Kleene iteration — growing
//! from the current state for insert-only upstream deltas, recomputing
//! from ∅, delete-and-rederive, otherwise), then diffs old against new
//! rows with `MaterializedView::refit_rows` so the delta machinery
//! downstream (bus, detectors, CINDs) is identical either way.
//!
//! # Epoch / pin interaction
//!
//! A view has no clock of its own: its state always corresponds to the
//! multistore's last committed epoch, because
//! `cfd_clean::MultiStore::apply` folds every view update — walked in
//! dependency order — into the same commit that changed the sources,
//! and the resulting [`ViewDelta`]s ride the
//! [`crate::multistore::MultiCommit`] (and the diff bus, behind
//! [`crate::multistore::MultiDiffFilter::View`]). A
//! [`crate::multistore::MultiSnapshot`] therefore pins source and the
//! *entire view catalog cut* at one consistent epoch. View rows are
//! code rows over the shared pool (codes are append-only and survive
//! GC), so garbage collection in the stores never invalidates a view.

use crate::delta::{DeltaDetector, UpdateBatch, ViolationDiff};
use crate::violations::Violation;
use cfd_cind::delta::{CindDelta, CindDiff, CindViolation, CodeRow};
use cfd_cind::{view_to_source_cinds, Cind, CindError};
use cfd_model::cfd::Cfd;
use cfd_relalg::instance::{Relation, Tuple};
use cfd_relalg::pool::Code;
use cfd_relalg::query::{
    AtomKey, ColRef, CompiledSelection, FactorizedEngine, OutCode, SpcQuery, TrieStore,
};
use cfd_relalg::schema::RelId;
use cfd_relalg::versioned::SharedPool;
use rustc_hash::{FxHashMap, FxHashSet};
use std::collections::BTreeSet;

/// What to materialize: a single-branch SPC view over the store's
/// *source* relations (`RelId(i)` is the `i`-th
/// [`crate::multistore::RelationSpec`]), the CFDs to enforce on the
/// view (typically a propagation cover), and extra view-LHS CINDs to
/// maintain (pass the output of [`cfd_cind::propagate_cinds`] to
/// track composed view-to-target inclusions; the always-true
/// [`view_to_source_cinds`] set holds by construction and is not
/// maintained).
///
/// This is the single-branch registration type; union views and
/// views over other views use [`crate::catalog::StackedViewSpec`] via
/// [`crate::multistore::MultiStore::register_stacked`].
#[derive(Clone, Debug)]
pub struct ViewSpec {
    /// View name (the CLI uses document view names).
    pub name: String,
    /// The SPC query, atoms resolved against the store's relations.
    pub query: SpcQuery,
    /// CFDs enforced on the view (over view output positions).
    pub sigma: Vec<Cfd>,
    /// Extra CINDs with the view on the LHS; RHS must be a store
    /// relation.
    pub cinds: Vec<Cind>,
}

impl ViewSpec {
    /// Convenience constructor for a view with no extra constraints.
    pub fn new(name: impl Into<String>, query: SpcQuery) -> ViewSpec {
        ViewSpec {
            name: name.into(),
            query,
            sigma: Vec::new(),
            cinds: Vec::new(),
        }
    }
}

/// What one commit did to one materialized view: the set-level row
/// delta and the exact violation diffs it caused. Carried by
/// [`crate::multistore::MultiCommit::views`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ViewDelta {
    /// Slot index of the view in the store's registration order.
    pub view: usize,
    /// View rows that exist after the commit but did not before
    /// (sorted).
    pub rows_added: Vec<Tuple>,
    /// View rows that existed before the commit but no longer do
    /// (sorted).
    pub rows_removed: Vec<Tuple>,
    /// View-CFD violations added and retired.
    pub cfd: ViolationDiff,
    /// View-CIND violations added and retired (view-to-upstream witness
    /// tracking; an upstream delete can add violations here without
    /// any view row changing).
    pub cind: CindDiff,
}

impl ViewDelta {
    /// Did the commit change the view or its violation sets at all?
    pub fn is_empty(&self) -> bool {
        self.rows_added.is_empty()
            && self.rows_removed.is_empty()
            && self.cfd.is_empty()
            && self.cind.is_empty()
    }
}

/// Callback-based row provider over the extended node space: invoked
/// with a node id, it must call the supplied sink once per live code
/// row of that node (sources from their cores, views from their
/// derivation-count keys; nodes not yet built count as empty).
pub(crate) type NodeRows<'a> = dyn FnMut(usize, &mut dyn FnMut(&[Code])) + 'a;

/// Build instructions for one materialized view, produced by the
/// store's catalog front end after name/cycle validation.
#[derive(Clone, Debug)]
pub(crate) struct ViewBuild {
    pub(crate) name: String,
    pub(crate) branches: Vec<SpcQuery>,
    pub(crate) sigma: Vec<Cfd>,
    pub(crate) cinds: Vec<Cind>,
    /// True when the view sits in a monotone dependency cycle: skip
    /// join state, pin counts to 1, maintain by fixpoint + refit.
    pub(crate) recursive: bool,
}

/// One compiled SPC union branch: pushed-down predicates, output
/// columns, and (for non-recursive views) the factorized join state.
#[derive(Debug)]
struct BranchState {
    query: SpcQuery,
    /// `atoms[j].0` as plain node ids (sources, then view slots).
    atom_rels: Vec<usize>,
    /// Per atom position: pushed-down `A = 'a'` conjuncts as codes.
    local_consts: Vec<Vec<(usize, Code)>>,
    /// Per atom position: pushed-down `A = B` conjuncts.
    local_eqs: Vec<Vec<(usize, usize)>>,
    /// Cross-atom equalities `((atom, attr), (atom, attr))` — together
    /// with the local conjuncts these are equivalent to the branch's
    /// full selection `F` (used by [`BranchState::eval_into`]).
    cross_eqs: Vec<((usize, usize), (usize, usize))>,
    /// Where each output column's code comes from.
    out_cols: Vec<OutCode>,
    /// Factorized join state; `None` for recursive views, which are
    /// refreshed by fixpoint re-evaluation and never driven by deltas.
    engine: Option<FactorizedEngine>,
    /// Per atom position: the shared [`TrieStore`] entry backing it
    /// (the branch holds one reference per position, released by
    /// [`MaterializedView::release_shared`]). `None` for positions
    /// whose state the engine owns (self-join repeats) and for every
    /// position of a recursive branch.
    shared: Vec<Option<usize>>,
}

impl BranchState {
    /// Compile one branch. Recursive views skip the join machinery
    /// entirely (they are refreshed by fixpoint re-evaluation, never
    /// driven by deltas). Other branches acquire one shared
    /// [`TrieStore`] entry per atom position, keyed by `(node, local
    /// predicate set)`; the second return value flags the positions
    /// whose state was freshly created and needs seeding (positions
    /// joining a pre-existing entry inherit its live rows).
    fn compile(
        query: SpcQuery,
        recursive: bool,
        store: &mut TrieStore,
        pool: &mut SharedPool,
    ) -> (BranchState, Vec<bool>) {
        let n = query.atoms.len();
        let sel = CompiledSelection::compile(&query);
        let local_consts: Vec<Vec<(usize, Code)>> = sel
            .local_consts
            .iter()
            .map(|cs| cs.iter().map(|(a, v)| (*a, pool.intern(v))).collect())
            .collect();
        let out_cols: Vec<OutCode> = query
            .output
            .iter()
            .map(|o| match o.src {
                ColRef::Prod(c) => OutCode::Col(c.atom, c.attr),
                ColRef::Const(k) => OutCode::Const(pool.intern(&query.constants[k].value)),
            })
            .collect();
        let cross_eqs: Vec<((usize, usize), (usize, usize))> = sel
            .cross_eqs
            .iter()
            .map(|(a, b)| ((a.atom, a.attr), (b.atom, b.attr)))
            .collect();
        let mut engine = None;
        let mut shared: Vec<Option<usize>> = vec![None; n];
        let mut needs_seed = vec![true; n];
        if !recursive {
            // A branch may hold the same (node, predicate set) at two
            // positions — a pure self-join. The telescoped sweep needs
            // positions *after* the driver at their old state while
            // earlier ones are new, and one physical trie cannot serve
            // both states at once, so only the first position of each
            // key within the branch is store-backed; repeats keep an
            // owned slot. (Across branches and views the fold
            // un-/re-applies around each drive, so sharing stays exact
            // there.)
            let mut keys: Vec<AtomKey> = Vec::with_capacity(n);
            for j in 0..n {
                let key = AtomKey::new(query.atoms[j].0, &local_consts[j], &sel.local_eqs[j]);
                if !keys.contains(&key) {
                    let (id, created) = store.acquire(key.clone());
                    shared[j] = Some(id);
                    needs_seed[j] = created;
                }
                keys.push(key);
            }
            engine = Some(FactorizedEngine::new_shared(
                n,
                &sel.join_vars,
                &shared,
                store,
            ));
        }
        let br = BranchState {
            atom_rels: query.atoms.iter().map(|r| r.0).collect(),
            query,
            local_consts,
            local_eqs: sel.local_eqs,
            cross_eqs,
            out_cols,
            engine,
            shared,
        };
        (br, needs_seed)
    }

    /// The factorized join state of a non-recursive branch.
    fn engine(&self) -> &FactorizedEngine {
        self.engine
            .as_ref()
            .expect("recursive views are never driven by deltas")
    }

    /// The factorized join state of a non-recursive branch, mutably.
    fn engine_mut(&mut self) -> &mut FactorizedEngine {
        self.engine
            .as_mut()
            .expect("recursive views are never driven by deltas")
    }

    fn row_passes_local(&self, j: usize, codes: &[Code]) -> bool {
        self.local_consts[j].iter().all(|&(a, k)| codes[a] == k)
            && self.local_eqs[j].iter().all(|&(a, b)| codes[a] == codes[b])
    }

    /// Fold one commit's applied row deltas into this branch by the
    /// telescoped rule: positions with a surviving filtered delta are
    /// swept in `(changed index, position)` order; each drives deletes
    /// then inserts through its plan against the other positions —
    /// earlier swept positions at their *new* state, later ones at
    /// their *old* state (the plan never consults the driver's own
    /// state).
    ///
    /// Store-backed positions complicate the old/new bookkeeping: the
    /// store applied every changed node's delta *before* any view
    /// folds, so shared entries already sit at their new state. With at
    /// most one swept position that is exactly right — every *other*
    /// position over a changed node had an empty filtered delta, and a
    /// filtered delta is a function of `(node, predicate set)`, i.e. of
    /// the entry key, so those entries are unchanged (old = new). With
    /// several swept positions the telescoping needs later entries at
    /// their old state, so the fold un-applies each distinct swept
    /// entry once up front and re-applies it right after its first
    /// position drives — which also keeps a self-join sharing one entry
    /// exact (the earlier position's move is visible to the later one,
    /// and the entry is un-/re-applied exactly once).
    fn fold_changed(
        &mut self,
        changed: &[(usize, Vec<CodeRow>, Vec<CodeRow>)],
        store: &mut TrieStore,
        delta: &mut FxHashMap<Box<[Code]>, i64>,
    ) {
        // `(position, filtered deletes, filtered inserts)` per swept
        // atom position: the node delta narrowed to rows passing the
        // position's pushed-down local predicates.
        type SweptPos = (usize, Vec<Box<[Code]>>, Vec<Box<[Code]>>);
        let mut sweep: Vec<SweptPos> = Vec::new();
        for (node, dels, ins) in changed {
            for j in 0..self.atom_rels.len() {
                if self.atom_rels[j] != *node {
                    continue;
                }
                let d_j: Vec<Box<[Code]>> = dels
                    .iter()
                    .filter(|c| self.row_passes_local(j, c))
                    .map(|c| c.as_ref().into())
                    .collect();
                let i_j: Vec<Box<[Code]>> = ins
                    .iter()
                    .filter(|c| self.row_passes_local(j, c))
                    .map(|c| c.as_ref().into())
                    .collect();
                if d_j.is_empty() && i_j.is_empty() {
                    continue;
                }
                sweep.push((j, d_j, i_j));
            }
        }
        let multi = sweep.len() > 1;
        if multi {
            let mut unapplied: Vec<usize> = Vec::new();
            for (j, d_j, i_j) in &sweep {
                let Some(id) = self.shared[*j] else { continue };
                if unapplied.contains(&id) {
                    continue;
                }
                unapplied.push(id);
                for codes in i_j {
                    assert!(store.remove(id, codes), "un-applied insert was resident");
                }
                for codes in d_j {
                    assert!(store.insert(id, codes), "un-applied delete was absent");
                }
            }
        }
        let mut reapplied: Vec<usize> = Vec::new();
        for (j, d_j, i_j) in &sweep {
            self.drive_position(*j, d_j, -1, store, delta);
            self.drive_position(*j, i_j, 1, store, delta);
            match self.shared[*j] {
                Some(id) => {
                    if multi && !reapplied.contains(&id) {
                        reapplied.push(id);
                        for codes in d_j {
                            assert!(store.remove(id, codes), "re-applied delete was resident");
                        }
                        for codes in i_j {
                            assert!(store.insert(id, codes), "re-applied insert was new");
                        }
                    }
                }
                None => {
                    // Owned state: move this position old → new.
                    let eng = self.engine_mut();
                    for codes in d_j {
                        assert!(
                            eng.remove_in(store, *j, codes),
                            "applied delete was resident in its atom state"
                        );
                    }
                    for codes in i_j {
                        assert!(
                            eng.insert_in(store, *j, codes),
                            "applied insert was new to its atom state"
                        );
                    }
                }
            }
        }
    }

    /// Drive `rows` of position `j` through the factorized engine,
    /// accumulating each complete combination's projected row into
    /// `delta` with `sign`.
    fn drive_position(
        &self,
        j: usize,
        rows: &[Box<[Code]>],
        sign: i64,
        store: &TrieStore,
        delta: &mut FxHashMap<Box<[Code]>, i64>,
    ) {
        self.engine()
            .drive_in(store, j, rows, sign, &self.out_cols, delta);
    }

    /// Evaluate this branch from scratch against the rows `rows_of`
    /// serves per node, set-level, into `out`. This is the fixpoint
    /// evaluator for recursive views: nested-loop over the filtered
    /// per-position row lists, checking the residual cross-atom
    /// equalities (locals + crosses ≡ the branch's full selection).
    fn eval_into(&self, rows_of: &mut NodeRows<'_>, out: &mut FxHashSet<Box<[Code]>>) {
        let n = self.atom_rels.len();
        if n == 0 {
            // A pure constant relation has exactly one row, always.
            let row: Box<[Code]> = self
                .out_cols
                .iter()
                .map(|o| match o {
                    OutCode::Const(c) => *c,
                    OutCode::Col(..) => unreachable!("no atoms to project"),
                })
                .collect();
            out.insert(row);
            return;
        }
        let mut per_pos: Vec<Vec<Box<[Code]>>> = Vec::with_capacity(n);
        for j in 0..n {
            let mut rows: Vec<Box<[Code]>> = Vec::new();
            rows_of(self.atom_rels[j], &mut |codes| {
                if self.row_passes_local(j, codes) {
                    rows.push(codes.into());
                }
            });
            if rows.is_empty() {
                return;
            }
            per_pos.push(rows);
        }
        let mut idx = vec![0usize; n];
        loop {
            let passes = self
                .cross_eqs
                .iter()
                .all(|&((a1, c1), (a2, c2))| per_pos[a1][idx[a1]][c1] == per_pos[a2][idx[a2]][c2]);
            if passes {
                let row: Box<[Code]> = self
                    .out_cols
                    .iter()
                    .map(|o| match *o {
                        OutCode::Col(a, c) => per_pos[a][idx[a]][c],
                        OutCode::Const(code) => code,
                    })
                    .collect();
                out.insert(row);
            }
            // Odometer advance; done when every position wraps.
            let mut j = n;
            loop {
                if j == 0 {
                    return;
                }
                j -= 1;
                idx[j] += 1;
                if idx[j] < per_pos[j].len() {
                    break;
                }
                idx[j] = 0;
            }
        }
    }
}

/// A materialized SPCU view over the multistore's extended node space.
/// Constructed via [`crate::multistore::MultiStore::register_view`] or
/// [`crate::multistore::MultiStore::register_stacked`]; see the
/// [module docs](self) for the maintenance algorithm.
#[derive(Debug)]
pub struct MaterializedView {
    name: String,
    branches: Vec<BranchState>,
    view_rel: RelId,
    /// Set-level fixpoint maintenance instead of delta joins.
    recursive: bool,
    /// Derivation count per live view row, summed across branches
    /// (pinned to 1 for recursive views).
    counts: FxHashMap<Box<[Code]>, u64>,
    /// Which nodes affect this view (branch atom or CIND RHS).
    touched: Vec<bool>,
    detector: DeltaDetector,
    cind: CindDelta,
    /// Private strictly-increasing clock for the CIND engine (one tick
    /// per upstream node touched, plus one for the view side).
    cind_epoch: u64,
}

impl MaterializedView {
    /// Compile `build` against the store's extended node space
    /// (`n_nodes` nodes: sources, then every view slot including this
    /// one) and seed it from the live rows `rows_of` serves. `view_rel`
    /// is the id the view occupies (`n_sources + slot`).
    ///
    /// Errors with [`CindError::UnknownRelation`] when a branch atom or
    /// a CIND endpoint falls outside the node space, or when an extra
    /// CIND's LHS is not the view itself. Name and cycle validation
    /// happened earlier, in [`crate::catalog::ViewCatalog`].
    pub(crate) fn new(
        build: ViewBuild,
        view_rel: RelId,
        n_nodes: usize,
        rows_of: &mut NodeRows<'_>,
        store: &mut TrieStore,
        pool: &mut SharedPool,
    ) -> Result<MaterializedView, CindError> {
        let ViewBuild {
            name,
            branches,
            sigma,
            cinds,
            recursive,
        } = build;
        for q in &branches {
            for rel in &q.atoms {
                if rel.0 >= n_nodes {
                    return Err(CindError::UnknownRelation {
                        rel: *rel,
                        relations: n_nodes,
                    });
                }
            }
        }
        // The maintained CIND set: the caller's extras only
        // (deduplicated). The by-construction view-to-upstream
        // inclusions ([`view_to_source_cinds`]) are *not* maintained:
        // they hold invariantly — every view row's projection is
        // witnessed by the live upstream row that derived it — so their
        // violation sets are empty at every commit and tracking their
        // witness counts would be per-commit dead work on every view.
        // Extras can genuinely fire (an upstream delete can orphan view
        // rows), so they alone feed the engine.
        let auto: Vec<Cind> = match branches.first() {
            Some(first) => {
                let mut set = view_to_source_cinds(view_rel, first);
                for b in &branches[1..] {
                    let bc = view_to_source_cinds(view_rel, b);
                    set.retain(|c| bc.contains(c));
                }
                set
            }
            None => Vec::new(),
        };
        let mut all_cinds: Vec<Cind> = Vec::new();
        for c in cinds {
            if c.lhs_rel() != view_rel {
                return Err(CindError::UnknownRelation {
                    rel: c.lhs_rel(),
                    relations: n_nodes,
                });
            }
            if c.rhs_rel().0 >= n_nodes {
                return Err(CindError::UnknownRelation {
                    rel: c.rhs_rel(),
                    relations: n_nodes,
                });
            }
            // An extra that restates an always-true inclusion is
            // equally dead and equally skippable.
            if !all_cinds.contains(&c) && !auto.contains(&c) {
                all_cinds.push(c);
            }
        }
        let cind = CindDelta::new(all_cinds, n_nodes, pool)?;
        // All fallible validation is done: acquiring shared entries
        // from here on is safe (the caller releases them on a later
        // view's build failure via `release_shared`).
        let mut seed_flags: Vec<Vec<bool>> = Vec::with_capacity(branches.len());
        let branch_states: Vec<BranchState> = branches
            .into_iter()
            .map(|q| {
                let (br, needs_seed) = BranchState::compile(q, recursive, store, pool);
                seed_flags.push(needs_seed);
                br
            })
            .collect();
        let mut view = MaterializedView {
            touched: {
                let mut t = vec![false; n_nodes];
                for b in &branch_states {
                    for &r in &b.atom_rels {
                        t[r] = true;
                    }
                }
                for c in cind.sigma() {
                    t[c.rhs_rel().0] = true;
                }
                t
            },
            name,
            branches: branch_states,
            view_rel,
            recursive,
            counts: FxHashMap::default(),
            // Placeholder (empty Σ, nothing compiled): the real detector
            // is constructed once below, against the seeded view rows.
            detector: DeltaDetector::new(Vec::new(), &Relation::new()),
            cind,
            cind_epoch: 0,
        };

        // Seed join state and initial contents. Recursive views skip
        // both: the store seeds them by fixpoint + refit right after
        // every member of the component exists.
        if !recursive {
            for (bi, br) in view.branches.iter_mut().enumerate() {
                for (j, &seed) in seed_flags[bi].iter().enumerate() {
                    // Positions sharing a pre-existing store entry are
                    // already populated (same node, same predicates).
                    if !seed {
                        continue;
                    }
                    rows_of(br.atom_rels[j], &mut |codes| {
                        if br.row_passes_local(j, codes) {
                            br.engine_mut().insert_in(store, j, codes);
                        }
                    });
                }
            }
            // Evaluate the initial contents by driving each branch's
            // *last* position with its full row set (every earlier
            // position populated: the drive enumerates the complete
            // join exactly once), all branches into one delta map so
            // union derivations add.
            let mut delta: FxHashMap<Box<[Code]>, i64> = FxHashMap::default();
            for br in &view.branches {
                let n = br.atom_rels.len();
                if n == 0 {
                    let row: Box<[Code]> = br
                        .out_cols
                        .iter()
                        .map(|o| match o {
                            OutCode::Const(c) => *c,
                            OutCode::Col(..) => unreachable!("no atoms to project"),
                        })
                        .collect();
                    *delta.entry(row).or_insert(0) += 1;
                } else {
                    let last = n - 1;
                    let drivers = br.engine().rows_of_in(store, last);
                    br.drive_position(last, &drivers, 1, store, &mut delta);
                }
            }
            for (row, dc) in delta {
                debug_assert!(dc > 0, "seeding only adds derivations");
                view.counts.insert(row, dc as u64);
            }
        }

        // Seed the violation engines: view rows as CIND members and as
        // the detector's base relation; upstream rows as CIND
        // witnesses. (For recursive views the member side is empty here
        // and filled by the seeding refit.)
        let rhs_nodes: BTreeSet<usize> = view
            .cind
            .sigma()
            .iter()
            .map(|c| c.rhs_rel().0)
            .filter(|&r| r != view_rel.0)
            .collect();
        for r in rhs_nodes {
            rows_of(r, &mut |codes| view.cind.seed_row(RelId(r), codes));
        }
        let mut initial: Vec<Tuple> = Vec::with_capacity(view.counts.len());
        for codes in view.counts.keys() {
            view.cind.seed_row(view_rel, codes);
            initial.push(codes.iter().map(|&c| pool.value(c).clone()).collect());
        }
        let base: Relation = initial.into_iter().collect();
        view.detector = DeltaDetector::new(sigma, &base);
        Ok(view)
    }

    /// The view's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The first union branch's compiled query. Every pre-SPCU view
    /// has exactly one branch, so this is the whole definition for
    /// views registered through
    /// [`crate::multistore::MultiStore::register_view`].
    ///
    /// # Panics
    ///
    /// Panics on a zero-branch (always-empty) view; use
    /// [`MaterializedView::branch_queries`] when branches may be absent
    /// or plural.
    pub fn query(&self) -> &SpcQuery {
        &self
            .branches
            .first()
            .expect("query() on a zero-branch view")
            .query
    }

    /// The compiled queries of every union branch, in order.
    pub fn branch_queries(&self) -> impl Iterator<Item = &SpcQuery> {
        self.branches.iter().map(|b| &b.query)
    }

    /// The view's output arity (0 for a zero-branch view).
    pub fn arity(&self) -> usize {
        self.branches.first().map(|b| b.out_cols.len()).unwrap_or(0)
    }

    /// Is this view maintained by monotone-fixpoint iteration (member
    /// of a dependency cycle) rather than delta joins?
    pub fn is_recursive(&self) -> bool {
        self.recursive
    }

    /// The id the view occupies in the extended node space.
    pub fn view_rel(&self) -> RelId {
        self.view_rel
    }

    /// The CFDs enforced on the view.
    pub fn sigma(&self) -> &[Cfd] {
        self.detector.sigma()
    }

    /// The CINDs maintained from the view: the registered extras,
    /// deduplicated, minus any that restate an always-true
    /// view-to-upstream inclusion (those hold by construction and are
    /// never maintained).
    pub fn cinds(&self) -> &[Cind] {
        self.cind.sigma()
    }

    /// Number of live view rows.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Is the view currently empty?
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Does a delta on node `node` affect this view (as a branch atom
    /// or a CIND witness side)?
    fn touches_node(&self, node: usize) -> bool {
        self.touched.get(node).copied().unwrap_or(false)
    }

    /// Materialize the current view contents.
    pub fn relation(&self, pool: &SharedPool) -> Relation {
        self.counts
            .keys()
            .map(|codes| {
                codes
                    .iter()
                    .map(|&c| pool.value(c).clone())
                    .collect::<Tuple>()
            })
            .collect()
    }

    /// View-CFD violations currently holding, in
    /// [`crate::violations::detect_all`] order.
    pub fn cfd_violations(&self) -> Vec<Violation> {
        self.detector.current_violations()
    }

    /// View-CIND violations currently holding, sorted by CIND index and
    /// tuple.
    pub fn cind_violations(&self, pool: &SharedPool) -> Vec<CindViolation> {
        self.cind.current_violations(pool)
    }

    /// Number of view violations (both classes) without materializing.
    pub fn violation_count(&self) -> usize {
        self.detector.violation_count() + self.cind.violation_count()
    }

    /// Cumulative join-enumeration work across branches: the
    /// factorized engines' candidate/emit counters (zero for recursive
    /// views, which hold no join state). `planfix_exp` budgets
    /// maintenance against this.
    pub fn probe_work(&self) -> u64 {
        self.branches
            .iter()
            .filter_map(|b| b.engine.as_ref())
            .map(FactorizedEngine::work)
            .sum()
    }

    /// Visit every live view row (code-level).
    pub(crate) fn for_each_row(&self, f: &mut dyn FnMut(&[Code])) {
        for codes in self.counts.keys() {
            f(codes);
        }
    }

    /// Is this code row currently in the view?
    pub(crate) fn contains_row(&self, codes: &[Code]) -> bool {
        self.counts.contains_key(codes)
    }

    /// Evaluate the whole union from scratch, set-level, against the
    /// rows `rows_of` serves per node — the one-step operator of the
    /// recursive-component fixpoint.
    pub(crate) fn eval_set(&self, rows_of: &mut NodeRows<'_>) -> FxHashSet<Box<[Code]>> {
        let mut out = FxHashSet::default();
        for br in &self.branches {
            br.eval_into(rows_of, &mut out);
        }
        out
    }

    /// Fold one commit's upstream row deltas into the view: the
    /// telescoped delta join per changed node (in the order given —
    /// the store passes sources first, then upstream views in
    /// topological order), derivation-count bookkeeping, and both
    /// violation engines. Returns the [`ViewDelta`] plus the view's own
    /// code-level row delta (removed, added) for downstream consumers.
    pub(crate) fn apply_upstream(
        &mut self,
        index: usize,
        changed: &[(usize, Vec<CodeRow>, Vec<CodeRow>)],
        store: &mut TrieStore,
        pool: &SharedPool,
    ) -> (ViewDelta, Vec<CodeRow>, Vec<CodeRow>) {
        debug_assert!(
            !self.recursive,
            "recursive views are refreshed by refit_rows, not delta joins"
        );
        let mut delta: FxHashMap<Box<[Code]>, i64> = FxHashMap::default();
        for br in &mut self.branches {
            br.fold_changed(changed, store, &mut delta);
        }
        self.commit_delta(index, delta, changed, pool)
    }

    /// Can this commit's node deltas change the view at all — its
    /// rows, derivation counts, or violation sets? `false` is a proof
    /// of a no-op refresh: no changed node the view reads admits a
    /// single delta row through any branch position's pushed-down
    /// local predicates, and none is a maintained-CIND endpoint (whose
    /// violation set can move even when no join delta survives — an
    /// upstream delete can orphan view rows). The maintained set holds
    /// only the registered extras; the by-construction view-to-source
    /// inclusions are invariantly true and never maintained at all, so
    /// they cannot force a refresh here. A skipped view therefore owes
    /// *nothing*: atom states only ever hold predicate-passing rows,
    /// so an irrelevant delta leaves the join states, the telescoped
    /// drives, the counts, the witness counts, and both detectors
    /// untouched.
    pub(crate) fn delta_relevant(&self, changed: &[(usize, Vec<CodeRow>, Vec<CodeRow>)]) -> bool {
        changed.iter().any(|(node, dels, ins)| {
            if dels.is_empty() && ins.is_empty() {
                return false;
            }
            if !self.touches_node(*node) {
                return false;
            }
            if self
                .cind
                .sigma()
                .iter()
                .any(|c| c.lhs_rel().0 == *node || c.rhs_rel().0 == *node)
            {
                return true;
            }
            self.branches.iter().any(|br| {
                (0..br.atom_rels.len()).any(|j| {
                    br.atom_rels[j] == *node
                        && (dels.iter().any(|r| br.row_passes_local(j, r))
                            || ins.iter().any(|r| br.row_passes_local(j, r)))
                })
            })
        })
    }

    /// Release every shared-trie reference the view's branches hold.
    /// Called exactly once, when the view leaves the store (drop,
    /// replace, or registration rollback).
    pub(crate) fn release_shared(&mut self, store: &mut TrieStore) {
        for br in &mut self.branches {
            for id in br.shared.iter_mut().filter_map(Option::take) {
                store.release(id);
            }
        }
    }

    /// Number of store-backed atom positions across branches.
    pub(crate) fn shared_positions(&self) -> usize {
        self.branches
            .iter()
            .map(|b| b.shared.iter().flatten().count())
            .sum()
    }

    /// Replace the view's contents with `target` (set-level), emitting
    /// the same [`ViewDelta`] a delta-join maintenance step would have:
    /// the recursive-component refresh path. `changed` carries the
    /// upstream row deltas of the same commit so witness counts move
    /// in step.
    pub(crate) fn refit_rows(
        &mut self,
        index: usize,
        target: &FxHashSet<Box<[Code]>>,
        changed: &[(usize, Vec<CodeRow>, Vec<CodeRow>)],
        pool: &SharedPool,
    ) -> (ViewDelta, Vec<CodeRow>, Vec<CodeRow>) {
        let mut delta: FxHashMap<Box<[Code]>, i64> = FxHashMap::default();
        for row in target {
            if !self.counts.contains_key(row) {
                delta.insert(row.clone(), 1);
            }
        }
        for row in self.counts.keys() {
            if !target.contains(row) {
                delta.insert(row.clone(), -1);
            }
        }
        self.commit_delta(index, delta, changed, pool)
    }

    /// Shared tail of every maintenance path: fold the signed
    /// derivation deltas into the counts (rows crossing zero are the
    /// view's set-level delta), run the CFD detector, and walk the
    /// CIND engine — witness side once per changed upstream endpoint,
    /// in the order given, member side last — composing the exact
    /// diffs by cancellation.
    fn commit_delta(
        &mut self,
        index: usize,
        delta: FxHashMap<Box<[Code]>, i64>,
        changed: &[(usize, Vec<CodeRow>, Vec<CodeRow>)],
        pool: &SharedPool,
    ) -> (ViewDelta, Vec<CodeRow>, Vec<CodeRow>) {
        let mut added_codes: Vec<Box<[Code]>> = Vec::new();
        let mut removed_codes: Vec<Box<[Code]>> = Vec::new();
        for (row, dc) in delta {
            if dc == 0 {
                continue;
            }
            let cur = self.counts.get(&row).copied().unwrap_or(0) as i64;
            let new = cur + dc;
            assert!(new >= 0, "view derivation count underflow");
            if cur == 0 && new > 0 {
                added_codes.push(row.clone());
            } else if cur > 0 && new == 0 {
                removed_codes.push(row.clone());
            }
            if new == 0 {
                self.counts.remove(&row);
            } else {
                self.counts.insert(row, new as u64);
            }
        }

        let mut rows_added: Vec<Tuple> = added_codes
            .iter()
            .map(|c| c.iter().map(|&k| pool.value(k).clone()).collect())
            .collect();
        let mut rows_removed: Vec<Tuple> = removed_codes
            .iter()
            .map(|c| c.iter().map(|&k| pool.value(k).clone()).collect())
            .collect();
        rows_added.sort_unstable();
        rows_removed.sort_unstable();

        // View-CFD detection on the view's own row delta.
        let cfd = if rows_added.is_empty() && rows_removed.is_empty() {
            ViolationDiff::default()
        } else {
            self.detector.apply(&UpdateBatch {
                inserts: rows_added.clone(),
                deletes: rows_removed.clone(),
            })
        };

        // View-CIND maintenance: each changed upstream endpoint moves
        // witness counts; the view's own delta moves member sets (and,
        // for a self-referential CIND, its witnesses — one call handles
        // both roles, which is why the walk skips the view node).
        let mut cind = CindDiff {
            added: Vec::new(),
            removed: Vec::new(),
        };
        for (node, dels, ins) in changed {
            if *node == self.view_rel.0 {
                continue;
            }
            let endpoint = self
                .cind
                .sigma()
                .iter()
                .any(|c| c.lhs_rel().0 == *node || c.rhs_rel().0 == *node);
            if !endpoint {
                continue;
            }
            self.cind_epoch += 1;
            let d = self
                .cind
                .apply(RelId(*node), dels, ins, self.cind_epoch, pool);
            cind = compose_cind_diffs(cind, d);
        }
        self.cind_epoch += 1;
        let d2 = self.cind.apply(
            self.view_rel,
            &removed_codes,
            &added_codes,
            self.cind_epoch,
            pool,
        );
        let cind = compose_cind_diffs(cind, d2);

        (
            ViewDelta {
                view: index,
                rows_added,
                rows_removed,
                cfd,
                cind,
            },
            removed_codes,
            added_codes,
        )
    }
}

/// Compose two consecutive exact [`CindDiff`]s into one: concatenate,
/// then cancel the violations that one diff added and the other
/// removed (e.g. a source delete orphans a view row in the first diff
/// and the view delta deletes that row in the second).
fn compose_cind_diffs(mut a: CindDiff, b: CindDiff) -> CindDiff {
    a.added.extend(b.added);
    a.removed.extend(b.removed);
    a.added.sort_unstable();
    a.removed.sort_unstable();
    let mut added = Vec::with_capacity(a.added.len());
    let mut removed = Vec::with_capacity(a.removed.len());
    let mut ad = a.added.into_iter().peekable();
    let mut rm = a.removed.into_iter().peekable();
    loop {
        use std::cmp::Ordering;
        match (ad.peek(), rm.peek()) {
            (None, None) => break,
            (Some(_), None) => added.push(ad.next().expect("peeked")),
            (None, Some(_)) => removed.push(rm.next().expect("peeked")),
            (Some(x), Some(y)) => match x.cmp(y) {
                Ordering::Equal => {
                    // Added by one diff, removed by the other: no net
                    // change (each element occurs at most once per
                    // side, both diffs being exact).
                    ad.next();
                    rm.next();
                }
                Ordering::Less => added.push(ad.next().expect("peeked")),
                Ordering::Greater => removed.push(rm.next().expect("peeked")),
            },
        }
    }
    CindDiff { added, removed }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::CatalogError;
    use crate::multistore::{MultiDiffFilter, MultiStore, RelationSpec};
    use cfd_relalg::domain::DomainKind;
    use cfd_relalg::eval::eval_spc;
    use cfd_relalg::instance::Database;
    use cfd_relalg::query::{ConstCell, OutputCol, ProdCol, SelAtom};
    use cfd_relalg::schema::{Attribute, Catalog, RelationSchema};
    use cfd_relalg::Value;

    fn tup(vs: &[i64]) -> Tuple {
        vs.iter().map(|v| Value::int(*v)).collect()
    }

    fn base(rows: &[&[i64]]) -> Relation {
        rows.iter().map(|r| tup(r)).collect()
    }

    fn r(i: usize) -> RelId {
        RelId(i)
    }

    /// orders(cust, amt) and customers(id, cc), matching the store
    /// layout of [`store`].
    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add(
            RelationSchema::new(
                "orders",
                vec![
                    Attribute::new("cust", DomainKind::Int),
                    Attribute::new("amt", DomainKind::Int),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        c.add(
            RelationSchema::new(
                "customers",
                vec![
                    Attribute::new("id", DomainKind::Int),
                    Attribute::new("cc", DomainKind::Int),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        c
    }

    fn store(orders: &[&[i64]], customers: &[&[i64]], shards: usize) -> MultiStore {
        MultiStore::new(
            vec![
                RelationSpec::new("orders", vec![], base(orders)),
                RelationSpec::new("customers", vec![], base(customers)),
            ],
            vec![],
            shards,
        )
        .unwrap()
    }

    /// `π(cust, amt, cc) σ(orders.cust = customers.id)(orders × customers)`
    fn join_query() -> SpcQuery {
        SpcQuery {
            atoms: vec![r(0), r(1)],
            constants: vec![],
            selection: vec![SelAtom::Eq(ProdCol::new(0, 0), ProdCol::new(1, 0))],
            output: vec![
                OutputCol {
                    name: "cust".into(),
                    src: ColRef::Prod(ProdCol::new(0, 0)),
                },
                OutputCol {
                    name: "amt".into(),
                    src: ColRef::Prod(ProdCol::new(0, 1)),
                },
                OutputCol {
                    name: "cc".into(),
                    src: ColRef::Prod(ProdCol::new(1, 1)),
                },
            ],
        }
    }

    /// The fresh ground truth: evaluate the query on the store's
    /// current materialized relations.
    fn fresh_eval(s: &MultiStore, q: &SpcQuery) -> Relation {
        let c = catalog();
        let mut db = Database::empty(&c);
        for i in 0..s.rel_count() {
            for t in s.relation(r(i)).tuples() {
                db.insert(r(i), t.clone());
            }
        }
        eval_spc(q, &c, &db)
    }

    #[test]
    fn join_view_tracks_mixed_batches_exactly() {
        for shards in [1, 4] {
            let mut s = store(&[&[1, 10], &[2, 20]], &[&[1, 7]], shards);
            let q = join_query();
            let v = s
                .register_view(ViewSpec::new("V", q.clone()))
                .expect("valid view");
            assert_eq!(s.view_relation(v), fresh_eval(&s, &q), "seeded contents");
            let batches: Vec<(RelId, UpdateBatch)> = vec![
                (r(1), UpdateBatch::inserts(vec![tup(&[2, 8])])),
                (
                    r(0),
                    UpdateBatch::inserts(vec![tup(&[1, 11]), tup(&[3, 30])]),
                ),
                (r(0), UpdateBatch::deletes(vec![tup(&[1, 10])])),
                (r(1), UpdateBatch::deletes(vec![tup(&[2, 8])])),
                (
                    r(0),
                    UpdateBatch::new(vec![tup(&[2, 20])], vec![tup(&[2, 20])]),
                ),
            ];
            for (rel, b) in batches {
                let c = s.apply(rel, &b);
                assert_eq!(
                    s.view_relation(v),
                    fresh_eval(&s, &q),
                    "incremental view diverged after epoch {} (shards {shards})",
                    c.epoch
                );
            }
        }
    }

    #[test]
    fn projection_counts_derivations() {
        // π(cust) of orders: two orders share cust 1, so deleting one
        // keeps the view row (count 2 → 1), deleting the second drops
        // it (1 → 0).
        let mut s = store(&[&[1, 10], &[1, 11]], &[], 2);
        let q = SpcQuery {
            atoms: vec![r(0)],
            constants: vec![],
            selection: vec![],
            output: vec![OutputCol {
                name: "cust".into(),
                src: ColRef::Prod(ProdCol::new(0, 0)),
            }],
        };
        let v = s.register_view(ViewSpec::new("V", q)).unwrap();
        assert_eq!(s.view_relation(v).len(), 1);
        let c = s.apply(r(0), &UpdateBatch::deletes(vec![tup(&[1, 10])]));
        assert!(c.views.is_empty(), "a surviving derivation changes nothing");
        assert_eq!(s.view_relation(v).len(), 1);
        let c = s.apply(r(0), &UpdateBatch::deletes(vec![tup(&[1, 11])]));
        assert_eq!(c.views.len(), 1);
        assert_eq!(c.views[0].rows_removed, vec![tup(&[1])]);
        assert!(s.view_relation(v).is_empty());
    }

    #[test]
    fn view_cfd_violations_stream_and_filter() {
        let mut s = store(&[], &[&[1, 7], &[2, 8]], 2);
        let q = join_query();
        let mut spec = ViewSpec::new("V", q);
        // FD on the view: cust -> cc (positions 0 -> 2).
        spec.sigma = vec![Cfd::fd(&[0], 2).unwrap()];
        let v = s.register_view(spec).unwrap();
        let all = s.subscribe(MultiDiffFilter::All, 16);
        let only_view = s.subscribe(MultiDiffFilter::View(v), 16);
        // Two customers with one id: the join fans one order out to two
        // cc values — a view-side FD conflict no source CFD sees.
        s.apply(r(1), &UpdateBatch::inserts(vec![tup(&[1, 9])]));
        let c = s.apply(r(0), &UpdateBatch::inserts(vec![tup(&[1, 50])]));
        assert_eq!(c.views.len(), 1);
        let vd = &c.views[0];
        assert_eq!(vd.rows_added.len(), 2, "one order × two customers");
        assert_eq!(vd.cfd.added.len(), 1, "cust 1 maps to cc 7 and 9");
        assert_eq!(s.view_cfd_violations(v).len(), 1);
        assert_eq!(s.violation_count(), 1);
        // The bus carries the view event; the view filter drops the
        // (empty) base diffs of commit 1 entirely.
        let a1 = all.recv().unwrap();
        assert!(a1.views.is_empty());
        let a2 = all.recv().unwrap();
        assert_eq!(a2.views[0].cfd.added.len(), 1);
        let f1 = only_view.recv().unwrap();
        assert!(f1.is_empty(), "commit 1 never touched the view");
        let f2 = only_view.recv().unwrap();
        assert!(
            f2.cfd.is_empty() && f2.cind.is_empty(),
            "base diffs dropped"
        );
        assert_eq!(f2.views[0].cfd.added.len(), 1);
        // Deleting the conflicting customer retires the violation.
        let c = s.apply(r(1), &UpdateBatch::deletes(vec![tup(&[1, 9])]));
        assert_eq!(c.views[0].cfd.removed.len(), 1);
        assert!(s.view_cfd_violations(v).is_empty());
    }

    #[test]
    fn view_to_source_cinds_never_fire_but_extras_do() {
        // A selection view of orders alone, with the composed CIND
        // V[cust] ⊆ customers[id] registered as an extra: deleting the
        // customer creates view-CIND violations *without any view row
        // changing* — the witness side moved, not the member side.
        let mut s = store(&[&[1, 10], &[2, 20]], &[&[1, 7], &[2, 8]], 2);
        let q = SpcQuery {
            atoms: vec![r(0)],
            constants: vec![],
            selection: vec![],
            output: vec![
                OutputCol {
                    name: "cust".into(),
                    src: ColRef::Prod(ProdCol::new(0, 0)),
                },
                OutputCol {
                    name: "amt".into(),
                    src: ColRef::Prod(ProdCol::new(0, 1)),
                },
            ],
        };
        let mut spec = ViewSpec::new("V", q);
        let view_rel = r(s.rel_count());
        spec.cinds = vec![Cind::ind(view_rel, r(1), vec![(0, 0)]).unwrap()];
        let v = s.register_view(spec).unwrap();
        assert!(s.view_cind_violations(v).is_empty());
        let c = s.apply(r(1), &UpdateBatch::deletes(vec![tup(&[1, 7])]));
        assert_eq!(c.views.len(), 1);
        assert!(c.views[0].rows_added.is_empty() && c.views[0].rows_removed.is_empty());
        assert_eq!(c.views[0].cind.added.len(), 1, "order 1 lost its witness");
        assert_eq!(s.view_cind_violations(v).len(), 1);
        // Deleting the orphaned order removes the view row and retires
        // the violation through the member side.
        let c = s.apply(r(0), &UpdateBatch::deletes(vec![tup(&[1, 10])]));
        assert_eq!(c.views[0].rows_removed, vec![tup(&[1, 10])]);
        assert_eq!(c.views[0].cind.removed.len(), 1);
        assert!(s.view_cind_violations(v).is_empty());
        // Only the registered extra is maintained; the always-true
        // view-to-source inclusions hold by construction and never
        // enter the engine.
        assert_eq!(s.view(v).cinds().len(), 1);
    }

    #[test]
    fn source_delete_and_view_delta_cancel_in_one_commit() {
        // The identity view of customers with the derived CIND
        // V ⊆ customers: deleting a customer removes the witness *and*
        // the member in one commit — the composed CIND diff must be
        // empty, not an add/remove pair.
        let mut s = store(&[], &[&[1, 7]], 1);
        let q = SpcQuery {
            atoms: vec![r(1)],
            constants: vec![],
            selection: vec![],
            output: vec![
                OutputCol {
                    name: "id".into(),
                    src: ColRef::Prod(ProdCol::new(0, 0)),
                },
                OutputCol {
                    name: "cc".into(),
                    src: ColRef::Prod(ProdCol::new(0, 1)),
                },
            ],
        };
        let v = s.register_view(ViewSpec::new("V", q)).unwrap();
        assert_eq!(s.view_relation(v).len(), 1);
        let c = s.apply(r(1), &UpdateBatch::deletes(vec![tup(&[1, 7])]));
        assert_eq!(c.views.len(), 1);
        assert!(c.views[0].cind.is_empty(), "orphan-and-delete cancels");
        assert!(s.view_relation(v).is_empty());
        assert_eq!(s.violation_count(), 0);
    }

    #[test]
    fn self_join_view_telescopes_correctly() {
        // V = π(a.cust, b.amt) σ(a.amt = b.amt)(orders × orders): both
        // atom positions move on every orders commit.
        let mut s = store(&[&[1, 5]], &[], 2);
        let q = SpcQuery {
            atoms: vec![r(0), r(0)],
            constants: vec![],
            selection: vec![SelAtom::Eq(ProdCol::new(0, 1), ProdCol::new(1, 1))],
            output: vec![
                OutputCol {
                    name: "cust".into(),
                    src: ColRef::Prod(ProdCol::new(0, 0)),
                },
                OutputCol {
                    name: "amt".into(),
                    src: ColRef::Prod(ProdCol::new(1, 1)),
                },
            ],
        };
        let v = s.register_view(ViewSpec::new("VV", q.clone())).unwrap();
        assert_eq!(s.view_relation(v), fresh_eval(&s, &q));
        for b in [
            UpdateBatch::inserts(vec![tup(&[2, 5]), tup(&[3, 9])]),
            UpdateBatch::new(vec![tup(&[4, 9])], vec![tup(&[1, 5])]),
            UpdateBatch::deletes(vec![tup(&[2, 5]), tup(&[3, 9])]),
        ] {
            s.apply(r(0), &b);
            assert_eq!(s.view_relation(v), fresh_eval(&s, &q));
        }
    }

    #[test]
    fn constants_and_pushed_down_selection() {
        // σ(cust = 1) with a constant output column; the predicate is
        // an interned-code compare gating rows into the atom state.
        let mut s = store(&[&[1, 10], &[2, 20]], &[], 2);
        let q = SpcQuery {
            atoms: vec![r(0)],
            constants: vec![ConstCell {
                name: "CC".into(),
                value: Value::int(44),
                domain: DomainKind::Int,
            }],
            selection: vec![SelAtom::EqConst(ProdCol::new(0, 0), Value::int(1))],
            output: vec![
                OutputCol {
                    name: "amt".into(),
                    src: ColRef::Prod(ProdCol::new(0, 1)),
                },
                OutputCol {
                    name: "CC".into(),
                    src: ColRef::Const(0),
                },
            ],
        };
        let v = s.register_view(ViewSpec::new("V", q)).unwrap();
        assert_eq!(s.view_relation(v), base(&[&[10, 44]]));
        s.apply(
            r(0),
            &UpdateBatch::inserts(vec![tup(&[1, 12]), tup(&[2, 9])]),
        );
        assert_eq!(s.view_relation(v), base(&[&[10, 44], &[12, 44]]));
        s.apply(r(0), &UpdateBatch::deletes(vec![tup(&[1, 10])]));
        assert_eq!(s.view_relation(v), base(&[&[12, 44]]));
    }

    #[test]
    fn snapshots_pin_view_state_with_sources() {
        let mut s = store(&[&[1, 10]], &[&[1, 7]], 2);
        let q = join_query();
        let v = s.register_view(ViewSpec::new("V", q)).unwrap();
        let s0 = s.snapshot();
        s.apply(r(1), &UpdateBatch::deletes(vec![tup(&[1, 7])]));
        let s1 = s.snapshot();
        assert_eq!(s0.view_count(), 1);
        assert_eq!(s0.view(v).relation, base(&[&[1, 10, 7]]));
        assert!(s1.view(v).relation.is_empty());
        assert_eq!(s0.view(v).name, "V");
        assert!(s.view_relation(v).is_empty());
    }

    #[test]
    fn bad_registrations_are_typed_errors() {
        let mut s = store(&[], &[], 1);
        let q = SpcQuery {
            atoms: vec![r(7)],
            constants: vec![],
            selection: vec![],
            output: vec![OutputCol {
                name: "x".into(),
                src: ColRef::Prod(ProdCol::new(0, 0)),
            }],
        };
        // 3 nodes are addressable during this registration: the two
        // sources plus the view's own slot.
        assert_eq!(
            s.register_view(ViewSpec::new("V", q)).err(),
            Some(CatalogError::Cind(CindError::UnknownRelation {
                rel: r(7),
                relations: 3
            }))
        );
        // An extra CIND whose LHS is not the view is rejected.
        let mut spec = ViewSpec::new(
            "V",
            SpcQuery {
                atoms: vec![r(0)],
                constants: vec![],
                selection: vec![],
                output: vec![OutputCol {
                    name: "cust".into(),
                    src: ColRef::Prod(ProdCol::new(0, 0)),
                }],
            },
        );
        spec.cinds = vec![Cind::ind(r(0), r(1), vec![(0, 0)]).unwrap()];
        assert!(s.register_view(spec).is_err());
    }

    #[test]
    fn compose_cancels_cross_diff_churn() {
        let v = |i: usize, x: i64| CindViolation {
            cind_index: i,
            tuple: vec![cfd_relalg::Value::int(x)],
        };
        let a = CindDiff {
            added: vec![v(0, 1), v(0, 2)],
            removed: vec![v(1, 5)],
        };
        let b = CindDiff {
            added: vec![v(1, 5)],
            removed: vec![v(0, 2), v(0, 3)],
        };
        let c = compose_cind_diffs(a, b);
        assert_eq!(c.added, vec![v(0, 1)]);
        assert_eq!(c.removed, vec![v(0, 3)]);
    }
}
