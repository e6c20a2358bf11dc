//! The cross-relation live store: many sharded relations behind one
//! writer, one dictionary pool, one epoch clock — and incremental CIND
//! maintenance between them.
//!
//! The paper's propagation story is inherently multi-relation: CFDs
//! constrain each relation on its own, but the *inter*-relation
//! constraints are CINDs, and a batch-mode validator
//! ([`cfd_cind::satisfy`]) re-pays a full scan of both sides of every
//! inclusion after every update. [`MultiStore`] completes the delta
//! regime across relations:
//!
//! * Every relation is a `StoreCore` — the same
//!   sharded, snapshot-isolated CFD engine behind
//!   [`crate::sharded::ShardedStore`] — but all cores intern through
//!   **one** [`SharedPool`]. Code equality is value equality *across
//!   relations*, which is what lets the CIND engine below run on `u32`
//!   codes end to end.
//! * One **epoch clock** orders all commits: [`MultiStore::apply`]
//!   targets one relation and advances every core to the new epoch, so
//!   a [`MultiSnapshot`] taken at epoch `e` is a consistent
//!   cross-relation cut — relation contents, CFD violations, and CIND
//!   violations all as of `e`, pinned against GC in every core at once.
//! * A [`cfd_cind::CindDelta`] consumes each commit's *applied* row
//!   changes (post set-semantics, straight from the core's phase A) and
//!   yields the exact [`CindDiff`] in `O(|Δ|)` expected time — no
//!   rescans, including the batch-validator blind spot where deleting
//!   the last RHS witness *creates* violations.
//! * A `ViewCatalog` names the store's materialized
//!   SPCU views — unions of SPC branches over sources *and other
//!   views* ([`MultiStore::register_stacked`]). Each commit walks the
//!   condensation of the view dependency graph in topological order:
//!   every view folds the upstream row deltas (source first, then any
//!   upstream views that already committed theirs this epoch) and
//!   emits its own [`ViewDelta`] under the same epoch, so a refresh
//!   never reads a stale upstream. Monotone dependency cycles
//!   (opt-in, [`crate::catalog::CyclePolicy::Monotone`]) are
//!   maintained to the least fixed point — grown in place for
//!   insert-only deltas, recomputed by delete-and-rederive otherwise.
//!   Drops are `RESTRICT`; replacement revalidates atomically.
//! * The diff bus generalizes [`crate::sharded::DiffFilter`] with CIND
//!   events: subscribers pick a relation, a CFD of a relation, a CIND,
//!   a relation *pair* ([`MultiDiffFilter::RelPair`] — every CIND
//!   between two named relations), or a view slot, and receive every
//!   commit in order over a bounded channel. `cfdprop serve-updates
//!   --multi` serves the stream as JSON lines.
//!
//! The differential fuzz harnesses
//! (`crates/clean/tests/multistore_props.rs`,
//! `crates/clean/tests/catalog_props.rs`) pin the whole tower down:
//! under random schemas, Σ_CIND, view DAGs, and batch interleavings
//! across relations, the maintained state must equal a fresh
//! bottom-up re-evaluation, batch for batch, diff for diff.

use crate::catalog::{
    component_relevant, CatalogError, CyclePolicy, RefreshStats, StackedViewSpec, ViewCatalog,
};
use crate::delta::{UpdateBatch, ViolationDiff};
use crate::matview::{MaterializedView, ViewBuild, ViewDelta, ViewSpec};
use crate::sharded::{fold_diffs, AppliedRows, GcStats, Snapshot, StoreCore};
use crate::violations::Violation;
use cfd_cind::delta::{CindDelta, CindDiff, CindViolation, CodeRow};
use cfd_cind::implication::ImplicationOptions;
use cfd_cind::{propagate_cinds, Cind, CindError};
use cfd_model::cfd::Cfd;
use cfd_relalg::instance::Relation;
use cfd_relalg::pool::Code;
use cfd_relalg::query::TrieStore;
use cfd_relalg::schema::RelId;
use cfd_relalg::versioned::SharedPool;
use rustc_hash::FxHashSet;
use std::collections::BTreeSet;
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Mutex};

/// One relation of a [`MultiStore`]: its name, the CFDs enforced on it
/// (may be empty — relations can exist purely as CIND endpoints), and
/// the seed data.
#[derive(Clone, Debug, Default)]
pub struct RelationSpec {
    /// Relation name (the CLI uses catalog names; tests use anything).
    pub name: String,
    /// CFDs local to this relation.
    pub sigma: Vec<Cfd>,
    /// Seed tuples (may be dirty on both the CFD and the CIND side).
    pub base: Relation,
}

impl RelationSpec {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, sigma: Vec<Cfd>, base: Relation) -> Self {
        RelationSpec {
            name: name.into(),
            sigma,
            base,
        }
    }
}

/// One committed batch of a [`MultiStore`]: the global epoch it
/// created, the relation it targeted, and the exact CFD and CIND
/// violation diffs it caused anywhere in the store. (A batch on one
/// relation can move CIND violations whose LHS tuples live in *other*
/// relations — the diff reports them all.)
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MultiCommit {
    /// The global epoch this commit created (`1` for the first batch).
    pub epoch: u64,
    /// The relation the batch targeted.
    pub rel: RelId,
    /// CFD violations of the target relation added and retired.
    pub cfd: ViolationDiff,
    /// CIND violations added and retired, across all relation pairs the
    /// batch touched.
    pub cind: CindDiff,
    /// What the commit did to each registered materialized view the
    /// batch affected, in refresh (topological) order — only non-empty
    /// deltas are carried; view commits ride the same epoch as the
    /// source commit.
    pub views: Vec<ViewDelta>,
    /// What the refresh scheduler did for this commit: views refreshed
    /// versus provably skipped, and the shared-trie footprint after the
    /// walk.
    pub refresh: RefreshStats,
}

impl MultiCommit {
    /// Did the commit change any violation set or view?
    pub fn is_empty(&self) -> bool {
        self.cfd.is_empty() && self.cind.is_empty() && self.views.is_empty()
    }
}

/// What a multistore bus subscriber wants to see of each commit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MultiDiffFilter {
    /// Every CFD and CIND event.
    All,
    /// CFD events of this relation, plus CIND events of every CIND that
    /// touches it on either side.
    Rel(RelId),
    /// Only CFD events of the CFD at `index` in this relation's Σ.
    Cfd {
        /// The relation whose Σ is indexed.
        rel: RelId,
        /// CFD index within that relation's Σ.
        index: usize,
    },
    /// Only events of the CIND at this index in Σ_CIND.
    Cind(usize),
    /// Only CIND events whose dependency runs from the first relation
    /// (LHS) to the second (RHS).
    RelPair(RelId, RelId),
    /// Only events of the materialized view in this catalog slot:
    /// its row deltas plus its CFD and CIND violation diffs. (Slots
    /// are stable across drops — a dropped slot simply never emits
    /// again.)
    View(usize),
}

impl MultiDiffFilter {
    /// The filtered view of one commit (order preserved).
    fn apply(&self, c: &MultiCommit, sigma_cind: &[Cind]) -> MultiCommit {
        if matches!(self, MultiDiffFilter::All) {
            return c.clone();
        }
        let keep_cfd = |v: &Violation| match self {
            MultiDiffFilter::All => true,
            MultiDiffFilter::Rel(r) => c.rel == *r,
            MultiDiffFilter::Cfd { rel, index } => c.rel == *rel && v.cfd_index == *index,
            MultiDiffFilter::Cind(_) | MultiDiffFilter::RelPair(..) | MultiDiffFilter::View(_) => {
                false
            }
        };
        let keep_cind = |v: &CindViolation| {
            let psi = &sigma_cind[v.cind_index];
            match self {
                MultiDiffFilter::All => true,
                MultiDiffFilter::Rel(r) => psi.lhs_rel() == *r || psi.rhs_rel() == *r,
                MultiDiffFilter::Cfd { .. } | MultiDiffFilter::View(_) => false,
                MultiDiffFilter::Cind(i) => v.cind_index == *i,
                MultiDiffFilter::RelPair(l, r) => psi.lhs_rel() == *l && psi.rhs_rel() == *r,
            }
        };
        let views: Vec<ViewDelta> = match self {
            MultiDiffFilter::All => c.views.clone(),
            MultiDiffFilter::View(i) => c.views.iter().filter(|v| v.view == *i).cloned().collect(),
            _ => Vec::new(),
        };
        MultiCommit {
            epoch: c.epoch,
            rel: c.rel,
            views,
            refresh: c.refresh,
            cfd: ViolationDiff {
                added: c
                    .cfd
                    .added
                    .iter()
                    .filter(|v| keep_cfd(v))
                    .cloned()
                    .collect(),
                removed: c
                    .cfd
                    .removed
                    .iter()
                    .filter(|v| keep_cfd(v))
                    .cloned()
                    .collect(),
            },
            cind: CindDiff {
                added: c
                    .cind
                    .added
                    .iter()
                    .filter(|v| keep_cind(v))
                    .cloned()
                    .collect(),
                removed: c
                    .cind
                    .removed
                    .iter()
                    .filter(|v| keep_cind(v))
                    .cloned()
                    .collect(),
            },
        }
    }
}

struct MultiSub {
    filter: MultiDiffFilter,
    tx: SyncSender<Arc<MultiCommit>>,
}

/// One upstream row delta in the extended node space: the node that
/// changed, the code rows it lost, and the code rows it gained. The
/// refresh walk appends each view's own delta as it commits, so
/// downstream views see every upstream — source or view — through the
/// same shape.
type NodeDelta = (usize, Vec<CodeRow>, Vec<CodeRow>);

/// The CIND violation set shared by the snapshots taken since the last
/// fold, and the commits after it that moved it, oldest first (shared
/// with the bus, not copied).
struct CindTip {
    set: Arc<Vec<CindViolation>>,
    pending: Vec<Arc<MultiCommit>>,
    /// Rows `pending` holds, every diff and view delta counted: once
    /// they outnumber `set`, the tip is dropped and the next snapshot
    /// rebuilds it.
    rows: usize,
}

/// Rows one commit holds: both violation diffs plus every view delta's
/// rows and diffs.
fn commit_rows(c: &MultiCommit) -> usize {
    let views: usize = c
        .views
        .iter()
        .map(|v| {
            v.rows_added.len()
                + v.rows_removed.len()
                + v.cfd.added.len()
                + v.cfd.removed.len()
                + v.cind.added.len()
                + v.cind.removed.len()
        })
        .sum();
    c.cfd.added.len() + c.cfd.removed.len() + c.cind.added.len() + c.cind.removed.len() + views
}

/// The cross-relation live store. See the [module docs](self).
pub struct MultiStore {
    pool: SharedPool,
    names: Vec<String>,
    cores: Vec<StoreCore>,
    cind: CindDelta,
    /// The global epoch clock (0 = seeded base state).
    epoch: u64,
    /// CIND violations holding now, in (cind, tuple) order.
    cind_current: BTreeSet<CindViolation>,
    /// The CIND set the last snapshot shared, plus the commits since
    /// that moved it (see [`MultiStore::snapshot`]). Interior-mutable
    /// like `view_snaps`; `None` until someone reads, and again once the
    /// retained rows outnumber the set.
    cind_tip: Mutex<Option<CindTip>>,
    /// View name/dependency bookkeeping: slot records, refresh order,
    /// cycle analysis. The materialized states live in `views` below,
    /// indexed by slot.
    catalog: ViewCatalog,
    /// Materialized views by catalog slot; a dropped view tombstones
    /// its slot to `None` (slot indexes, node ids, and
    /// [`MultiDiffFilter::View`] subscriptions stay stable forever).
    /// View slot `k` occupies `RelId(rel_count() + k)` in the extended
    /// node space.
    views: Vec<Option<MaterializedView>>,
    /// The shared per-atom trie store: every factorized non-recursive
    /// branch position of every live view holds one reference into it,
    /// keyed by `(node, pushed-down local predicate set)` — sibling
    /// views with the same key maintain **one** trie. Commit deltas
    /// are applied here once per changed node, not once per view.
    tries: TrieStore,
    /// The last commit's scheduling outcome.
    last_refresh: RefreshStats,
    /// Views refreshed across all commits (monotone counter).
    total_refreshed: u64,
    /// Views skipped across all commits (monotone counter).
    total_skipped: u64,
    /// Per-view snapshot cache: rebuilt lazily by [`MultiStore::snapshot`],
    /// invalidated by [`MultiStore::apply`] only when a commit actually
    /// moves the view — so repeated snapshots across quiet epochs share
    /// one materialization. Interior-mutable so `snapshot` keeps the
    /// `&self` contract readers rely on; the locks are uncontended (one
    /// writer by design).
    view_snaps: Vec<Mutex<Option<Arc<ViewSnapshot>>>>,
    subs: Vec<MultiSub>,
    /// Subscribers dropped because their queue was full at publish
    /// time (shed-on-lag; the writer never blocks on a laggard).
    shed_subs: u64,
}

impl MultiStore {
    /// Build a store of `specs.len()` relations (`RelId(i)` is
    /// `specs[i]`), each sharded `n_shards` ways, enforcing each spec's
    /// CFDs locally and `cinds` across relations.
    ///
    /// A CIND referencing a relation outside `specs` is a
    /// [`CindError::UnknownRelation`].
    pub fn new(
        specs: Vec<RelationSpec>,
        cinds: Vec<Cind>,
        n_shards: usize,
    ) -> Result<MultiStore, CindError> {
        let mut pool = SharedPool::new();
        let mut names = Vec::with_capacity(specs.len());
        let mut cores = Vec::with_capacity(specs.len());
        for spec in &specs {
            names.push(spec.name.clone());
            cores.push(StoreCore::new(
                spec.sigma.clone(),
                &spec.base,
                n_shards,
                &mut pool,
            ));
        }
        Self::from_parts(pool, names, cores, cinds)
    }

    /// Assemble a store from already-seeded cores sharing `pool`. The
    /// back half of [`MultiStore::new`], split out so the durable layer
    /// can rebuild cores straight from checkpointed code rows (see
    /// [`crate::durable`]) without re-interning every value.
    pub(crate) fn from_parts(
        mut pool: SharedPool,
        names: Vec<String>,
        cores: Vec<StoreCore>,
        cinds: Vec<Cind>,
    ) -> Result<MultiStore, CindError> {
        let mut cind = CindDelta::new(cinds, cores.len(), &mut pool)?;
        for (i, core) in cores.iter().enumerate() {
            // The cores already interned every base row; read the codes
            // back off their storage instead of re-hashing the values.
            core.for_each_live_code_row(|codes| cind.seed_row(RelId(i), codes));
        }
        let cind_current = cind.current_violations(&pool).into_iter().collect();
        let n_sources = cores.len();
        Ok(MultiStore {
            pool,
            names,
            cores,
            cind,
            epoch: 0,
            cind_current,
            cind_tip: Mutex::new(None),
            catalog: ViewCatalog::new(n_sources),
            views: Vec::new(),
            tries: TrieStore::new(),
            last_refresh: RefreshStats::default(),
            total_refreshed: 0,
            total_skipped: 0,
            view_snaps: Vec::new(),
            subs: Vec::new(),
            shed_subs: 0,
        })
    }

    /// Register a materialized SPC view over the store's *source*
    /// relations: compile `spec.query` (predicates pushed down to
    /// interned codes, one factorized join plan per atom), seed the
    /// view from the current live contents, and maintain it — plus
    /// `spec.sigma` CFD violations and the extra view-LHS CINDs in
    /// `spec.cinds` — incrementally from every future commit. The
    /// always-true view-to-source inclusions hold by construction and
    /// are not maintained; an extra restating one is dropped. Returns
    /// the view's catalog slot; the view occupies
    /// `RelId(rel_count() + slot)` in the extended node space.
    ///
    /// This is the single-branch convenience front end of
    /// [`MultiStore::register_stacked`]; duplicate names and dangling
    /// references are typed [`CatalogError`]s. See [`crate::matview`]
    /// for the maintenance algorithm and cost model.
    pub fn register_view(&mut self, spec: ViewSpec) -> Result<usize, CatalogError> {
        let ViewSpec {
            name,
            query,
            sigma,
            cinds,
        } = spec;
        self.register_stacked(StackedViewSpec {
            name,
            branches: vec![query],
            sigma,
            cinds,
            cycle: CyclePolicy::Reject,
        })
    }

    /// Register one stacked SPCU view: a union of SPC branches whose
    /// atoms are nodes of the extended space — source `i` is node `i`,
    /// view slot `k` is node `rel_count() + k`. Union branches merge
    /// by derivation-count addition, so a delete cancels exactly
    /// across branches. Returns the new catalog slot.
    pub fn register_stacked(&mut self, spec: StackedViewSpec) -> Result<usize, CatalogError> {
        Ok(self.register_stacked_batch(vec![spec])?[0])
    }

    /// Register a batch of stacked views **atomically**: names, node
    /// references, union compatibility, and cycles are validated for
    /// the whole batch before anything is built, and a failed build
    /// rolls every slot of the batch back. Specs may reference each
    /// other in any order (including forward); builds run in
    /// dependency order. Dependency cycles within the batch are
    /// rejected unless every member opted into
    /// [`CyclePolicy::Monotone`], in which case the component is
    /// seeded and maintained to its least fixed point. Returns the new
    /// slots in spec order (`first..first + specs.len()`).
    pub fn register_stacked_batch(
        &mut self,
        specs: Vec<StackedViewSpec>,
    ) -> Result<Vec<usize>, CatalogError> {
        let first = self.views.len();
        self.catalog.admit(&specs)?;
        for _ in 0..specs.len() {
            self.views.push(None);
            self.view_snaps.push(Mutex::new(None));
        }
        match self.build_new_slots(first, specs) {
            Ok(()) => Ok((first..self.views.len()).collect()),
            Err(e) => {
                // Views built before the failure already hold shared-trie
                // references; reclaim them or the entries (and their
                // refcounts) leak past the rollback.
                for mut v in self.views.drain(first..).flatten() {
                    v.release_shared(&mut self.tries);
                }
                self.view_snaps.truncate(first);
                self.catalog.retract(first);
                Err(e)
            }
        }
    }

    /// Build the materialized states for the slots a successful
    /// [`ViewCatalog::admit`] appended, walking the refresh order so
    /// every view seeds against already-built upstreams. Recursive
    /// components are built stateless and then seeded to their fixed
    /// point as a unit.
    fn build_new_slots(
        &mut self,
        first: usize,
        specs: Vec<StackedViewSpec>,
    ) -> Result<(), CatalogError> {
        let mut specs: Vec<Option<StackedViewSpec>> = specs.into_iter().map(Some).collect();
        let n_sources = self.cores.len();
        let n_nodes = n_sources + self.views.len();
        let order = self.catalog.refresh_order().to_vec();
        for comp in order {
            if comp.iter().all(|&s| s < first) {
                continue;
            }
            let recursive = self.catalog.is_recursive(comp[0]);
            for &slot in &comp {
                let spec = specs[slot - first]
                    .take()
                    .expect("each new slot built once");
                let build = ViewBuild {
                    name: spec.name,
                    branches: spec.branches,
                    sigma: spec.sigma,
                    cinds: spec.cinds,
                    recursive,
                };
                let view_rel = RelId(n_sources + slot);
                let (cores, views, tries, pool) =
                    (&self.cores, &self.views, &mut self.tries, &mut self.pool);
                let mut rows_of = |node: usize, f: &mut dyn FnMut(&[Code])| {
                    if node < n_sources {
                        cores[node].for_each_live_code_row(|codes| f(codes));
                    } else if let Some(Some(v)) = views.get(node - n_sources) {
                        v.for_each_row(f);
                    }
                };
                let mv =
                    MaterializedView::new(build, view_rel, n_nodes, &mut rows_of, tries, pool)?;
                self.views[slot] = Some(mv);
            }
            if recursive {
                self.seed_recursive(&comp);
            }
        }
        Ok(())
    }

    /// Seed a freshly built recursive component: compute the least
    /// fixed point from ∅, then refit every member so its counts,
    /// detector, and CIND engine land exactly where incremental
    /// maintenance will keep them. Emits no commit — like
    /// non-recursive seeding, registration is not an epoch.
    fn seed_recursive(&mut self, comp: &[usize]) {
        let targets = self.scc_fixpoint(comp, false);
        let n_sources = self.cores.len();
        let nets: Vec<NodeDelta> = comp
            .iter()
            .zip(&targets)
            .map(|(&slot, t)| (n_sources + slot, Vec::new(), t.iter().cloned().collect()))
            .collect();
        for (k, &slot) in comp.iter().enumerate() {
            // Every member consumes the whole component's row deltas;
            // its own entry is skipped by the member-side CIND pass.
            let (views, pool) = (&mut self.views, &self.pool);
            let _ = views[slot]
                .as_mut()
                .expect("recursive member just built")
                .refit_rows(slot, &targets[k], &nets, pool);
        }
    }

    /// The least fixed point of one recursive component under the
    /// store's *current* upstream contents: Gauss–Seidel Kleene
    /// iteration of each member's set-level union evaluation, serving
    /// component members from the evolving iterate and everything else
    /// from its committed state. `from_current` starts the iteration
    /// at the members' current rows — sound exactly when no upstream
    /// delta deleted (the old fixpoint is a pre-fixpoint of the grown
    /// operator, so growth converges to the new least fixed point);
    /// otherwise start from ∅ and rederive.
    fn scc_fixpoint(&self, comp: &[usize], from_current: bool) -> Vec<FxHashSet<Box<[Code]>>> {
        let n_sources = self.cores.len();
        let mut rows: Vec<FxHashSet<Box<[Code]>>> = comp
            .iter()
            .map(|&slot| {
                let mut set = FxHashSet::default();
                if from_current {
                    self.views[slot]
                        .as_ref()
                        .expect("live recursive member")
                        .for_each_row(&mut |codes| {
                            set.insert(codes.into());
                        });
                }
                set
            })
            .collect();
        loop {
            let mut changed_any = false;
            for k in 0..comp.len() {
                let view = self.views[comp[k]].as_ref().expect("live recursive member");
                let next = {
                    let (cores, views, rows_ref) = (&self.cores, &self.views, &rows);
                    let mut rows_of = |node: usize, f: &mut dyn FnMut(&[Code])| {
                        if node < n_sources {
                            cores[node].for_each_live_code_row(|codes| f(codes));
                        } else if let Some(j) = comp.iter().position(|&s| n_sources + s == node) {
                            for row in &rows_ref[j] {
                                f(row);
                            }
                        } else if let Some(Some(v)) = views.get(node - n_sources) {
                            v.for_each_row(f);
                        }
                    };
                    view.eval_set(&mut rows_of)
                };
                if next != rows[k] {
                    rows[k] = next;
                    changed_any = true;
                }
            }
            if !changed_any {
                return rows;
            }
        }
    }

    /// Walk the refresh order and fold `changed` (upstream node
    /// deltas, sources first) into every affected view, appending each
    /// view's own row delta to `changed` as it commits so downstream
    /// views consume it in the same pass — the topological refresh.
    /// Non-empty [`ViewDelta`]s land in `out` in refresh order;
    /// `skip_slot` exempts one slot (the view a replacement just
    /// rebuilt wholesale).
    ///
    /// This is the delta-aware scheduler: a condensation component
    /// refreshes only when some member has a *relevant* delta — a
    /// changed node it reads whose rows pass some branch position's
    /// pushed-down predicates, or a maintained-CIND endpoint whose
    /// violation set can move without a join delta. A skipped view
    /// provably emits nothing and owes no bookkeeping (the
    /// invariantly-true view-to-source inclusions are never
    /// maintained), so it pushes no delta of its own and its
    /// downstream cone silences through the same test. Shared tries
    /// are maintained here too: every changed node's delta is
    /// applied to the [`TrieStore`] exactly once — before any view
    /// folds for the initial entries, and at push time for view
    /// deltas — never once per view.
    fn propagate_changed(
        &mut self,
        changed: &mut Vec<NodeDelta>,
        out: &mut Vec<ViewDelta>,
        skip_slot: Option<usize>,
    ) {
        let n_sources = self.cores.len();
        // Entries `applied..` of `changed` are not yet in the shared
        // trie store; the store must reach the commit's new state
        // before any component downstream of those entries folds
        // (matview's `fold_changed` un-applies per swept entry when
        // the telescoping needs an old state).
        let mut applied = 0;
        while applied < changed.len() {
            let (node, dels, ins) = &changed[applied];
            self.tries.apply_node_delta(*node, dels, ins);
            applied += 1;
        }
        let mut refreshed = 0usize;
        let mut skipped = 0usize;
        let order = self.catalog.refresh_order().to_vec();
        for comp in order {
            if skip_slot.is_some_and(|s| comp.contains(&s)) {
                continue;
            }
            let relevant = component_relevant(&comp, |slot| {
                self.views[slot]
                    .as_ref()
                    .expect("live view in refresh order")
                    .delta_relevant(changed)
            });
            if !relevant {
                skipped += comp.len();
                continue;
            }
            refreshed += comp.len();
            if self.catalog.is_recursive(comp[0]) {
                // Fixed-point refresh: grow in place when every
                // upstream delta is insert-only (semi-naive-style —
                // iteration starts at the old fixpoint, not ∅),
                // otherwise delete-and-rederive from scratch.
                let insert_only = changed.iter().all(|(_, dels, _)| dels.is_empty());
                let targets = self.scc_fixpoint(&comp, insert_only);
                // Net per-member row deltas, computed before any refit
                // mutates a member (refits consume each other's nets).
                let mut nets: Vec<NodeDelta> = Vec::with_capacity(comp.len());
                for (k, &slot) in comp.iter().enumerate() {
                    let v = self.views[slot].as_ref().expect("live recursive member");
                    let mut removed: Vec<CodeRow> = Vec::new();
                    v.for_each_row(&mut |codes| {
                        if !targets[k].contains(codes) {
                            removed.push(codes.into());
                        }
                    });
                    let added: Vec<CodeRow> = targets[k]
                        .iter()
                        .filter(|row| !v.contains_row(row))
                        .cloned()
                        .collect();
                    nets.push((n_sources + slot, removed, added));
                }
                for (k, &slot) in comp.iter().enumerate() {
                    let mut ch = changed.clone();
                    for (j, net) in nets.iter().enumerate() {
                        if j != k {
                            ch.push(net.clone());
                        }
                    }
                    let (views, pool) = (&mut self.views, &self.pool);
                    let (vd, _, _) = views[slot]
                        .as_mut()
                        .expect("live recursive member")
                        .refit_rows(slot, &targets[k], &ch, pool);
                    if !vd.is_empty() {
                        *self.view_snaps[slot].lock().expect("view snapshot cache") = None;
                        out.push(vd);
                    }
                }
                for net in nets {
                    if !net.1.is_empty() || !net.2.is_empty() {
                        changed.push(net);
                    }
                }
            } else {
                let slot = comp[0];
                let (views, tries, pool) = (&mut self.views, &mut self.tries, &self.pool);
                let (vd, removed, added) = views[slot]
                    .as_mut()
                    .expect("live view in refresh order")
                    .apply_upstream(slot, changed, tries, pool);
                if !vd.is_empty() {
                    *self.view_snaps[slot].lock().expect("view snapshot cache") = None;
                    out.push(vd);
                }
                if !removed.is_empty() || !added.is_empty() {
                    changed.push((n_sources + slot, removed, added));
                }
            }
            // Any view delta this component just pushed becomes store
            // state before the next component reads it.
            while applied < changed.len() {
                let (node, dels, ins) = &changed[applied];
                self.tries.apply_node_delta(*node, dels, ins);
                applied += 1;
            }
        }
        debug_assert_eq!(
            self.views
                .iter()
                .flatten()
                .map(|v| v.shared_positions())
                .sum::<usize>(),
            self.tries.ref_count(),
            "every shared-trie reference is held by exactly one live position"
        );
        self.last_refresh = RefreshStats {
            refreshed,
            skipped,
            tries_total: self.tries.ref_count(),
            tries_shared: self.tries.ref_count() - self.tries.entry_count(),
            trie_entries: self.tries.entry_count(),
            trie_rows: self.tries.row_count(),
        };
        self.total_refreshed += refreshed as u64;
        self.total_skipped += skipped as u64;
    }

    /// `RESTRICT` drop: tombstone the live view named `name` unless
    /// live views depend on it ([`CatalogError::HasDependents`]). The
    /// slot index and node id are never reused; pinned
    /// [`MultiSnapshot`]s taken before the drop keep serving the
    /// captured state. Returns the tombstoned slot.
    pub fn drop_view(&mut self, name: &str) -> Result<usize, CatalogError> {
        let slot = self.catalog.drop_slot(name)?;
        if let Some(mut v) = self.views[slot].take() {
            v.release_shared(&mut self.tries);
        }
        *self.view_snaps[slot].lock().expect("view snapshot cache") = None;
        Ok(slot)
    }

    /// Replace the live view named `spec.name` **atomically**: the new
    /// definition is validated (node references, union compatibility,
    /// no cycles of any kind, arity preserved while dependents read
    /// it) and fully rebuilt against the current store before the old
    /// state is swapped out — on any error the old view stays live and
    /// every pinned snapshot stays valid. The row difference between
    /// old and new contents propagates to downstream views exactly
    /// like a commit's delta would, and the resulting [`ViewDelta`]s
    /// are returned (replacement is not an epoch: nothing is
    /// published on the bus).
    pub fn replace_view(&mut self, spec: StackedViewSpec) -> Result<Vec<ViewDelta>, CatalogError> {
        let slot = self
            .catalog
            .live_id(&spec.name)
            .ok_or_else(|| CatalogError::UnknownView(spec.name.clone()))?;
        let old_arity = self.views[slot].as_ref().expect("live view").arity();
        let new_arity = spec.branches.first().map(|b| b.output.len()).unwrap_or(0);
        if new_arity != old_arity && !self.catalog.dependents_of(slot).is_empty() {
            return Err(CatalogError::ReplaceIncompatible { view: spec.name });
        }
        let deps = self.catalog.validate_replace(slot, &spec)?;
        let n_sources = self.cores.len();
        let n_nodes = n_sources + self.views.len();
        let build = ViewBuild {
            name: spec.name,
            branches: spec.branches,
            sigma: spec.sigma,
            cinds: spec.cinds,
            recursive: false,
        };
        let view_rel = RelId(n_sources + slot);
        let new_view = {
            // Building first keeps the swap atomic *and* keeps shared
            // trie entries alive across it: the new view acquires its
            // references (sharing any entry the old view also holds)
            // before the old view releases, so refcounts never dip to
            // zero for an entry both definitions use.
            let (cores, views, tries, pool) =
                (&self.cores, &self.views, &mut self.tries, &mut self.pool);
            let mut rows_of = |node: usize, f: &mut dyn FnMut(&[Code])| {
                if node < n_sources {
                    cores[node].for_each_live_code_row(|codes| f(codes));
                } else if let Some(Some(v)) = views.get(node - n_sources) {
                    v.for_each_row(f);
                }
            };
            MaterializedView::new(build, view_rel, n_nodes, &mut rows_of, tries, pool)?
        };
        // The replacement's net row delta, for downstream propagation.
        let old = self.views[slot].as_ref().expect("live view");
        let mut removed: Vec<CodeRow> = Vec::new();
        old.for_each_row(&mut |codes| {
            if !new_view.contains_row(codes) {
                removed.push(codes.into());
            }
        });
        let mut added: Vec<CodeRow> = Vec::new();
        new_view.for_each_row(&mut |codes| {
            if !old.contains_row(codes) {
                added.push(codes.into());
            }
        });
        let mut old = self.views[slot].take().expect("live view");
        old.release_shared(&mut self.tries);
        self.views[slot] = Some(new_view);
        self.catalog.commit_replace(slot, deps);
        *self.view_snaps[slot].lock().expect("view snapshot cache") = None;
        let mut out = Vec::new();
        if !removed.is_empty() || !added.is_empty() {
            let mut changed = vec![(n_sources + slot, removed, added)];
            self.propagate_changed(&mut changed, &mut out, Some(slot));
        }
        Ok(out)
    }

    /// Number of catalog slots ever registered, dropped ones included
    /// (slot indexes are stable; use [`MultiStore::view_id`] to
    /// resolve live names).
    pub fn view_count(&self) -> usize {
        self.views.len()
    }

    /// The refresh scheduler's outcome for the last catalog walk (the
    /// last commit's, or the last replacement's). Also carried per
    /// commit on [`MultiCommit::refresh`].
    pub fn refresh_stats(&self) -> RefreshStats {
        self.last_refresh
    }

    /// Cumulative `(refreshed, skipped)` view-refresh decisions since
    /// the store was built.
    pub fn total_refresh_counts(&self) -> (u64, u64) {
        (self.total_refreshed, self.total_skipped)
    }

    /// `(entries, references, resident rows)` of the shared trie
    /// store: `references - entries` atom positions are riding a trie
    /// some other position also maintains.
    pub fn shared_trie_stats(&self) -> (usize, usize, usize) {
        (
            self.tries.entry_count(),
            self.tries.ref_count(),
            self.tries.row_count(),
        )
    }

    /// The view in catalog slot `index`.
    ///
    /// # Panics
    ///
    /// Panics if the slot was dropped.
    pub fn view(&self, index: usize) -> &MaterializedView {
        self.views[index].as_ref().expect("view slot was dropped")
    }

    /// The catalog slot of the *live* view named `name`, if any.
    pub fn view_id(&self, name: &str) -> Option<usize> {
        self.catalog.live_id(name)
    }

    /// The name registered for catalog slot `index` — names survive
    /// drops, so slot-keyed streams ([`MultiDiffFilter::View`]) can
    /// always be labelled.
    pub fn view_name(&self, index: usize) -> &str {
        debug_assert_eq!(self.catalog.slot_count(), self.views.len());
        &self.catalog.slot(index).name
    }

    /// Materialize the current contents of the view in slot `index`.
    pub fn view_relation(&self, index: usize) -> Relation {
        self.view(index).relation(&self.pool)
    }

    /// View-CFD violations currently holding on the view in slot
    /// `index`, in [`crate::violations::detect_all`] order.
    pub fn view_cfd_violations(&self, index: usize) -> Vec<Violation> {
        self.view(index).cfd_violations()
    }

    /// View-CIND violations currently holding on the view in slot
    /// `index`, sorted by CIND index and tuple.
    pub fn view_cind_violations(&self, index: usize) -> Vec<CindViolation> {
        self.view(index).cind_violations(&self.pool)
    }

    /// Re-run CIND propagation for the view in slot `index` against
    /// the store's *current* Σ_CIND — the inclusions guaranteed to
    /// hold on the view by construction. For an SPCU view the cover is
    /// the *intersection* of each branch's cover (a union inclusion
    /// holds iff every branch's does); a view with a view-atom branch
    /// (or no branches) propagates nothing, since the paper's
    /// propagation rules speak source-level SPC. Because the store is
    /// single-writer, calling this between commits — or against the Σ
    /// captured by a pinned [`MultiSnapshot`] — yields a propagation
    /// cover consistent with one epoch.
    pub fn propagated_view_cinds(&self, index: usize, opts: &ImplicationOptions) -> Vec<Cind> {
        let view = self.view(index);
        let n_sources = self.cores.len();
        let mut branches = view.branch_queries();
        let Some(first) = branches.next() else {
            return Vec::new();
        };
        if first.atoms.iter().any(|a| a.0 >= n_sources) {
            return Vec::new();
        }
        let mut cover = propagate_cinds(view.view_rel(), first, self.cind.sigma(), opts);
        for b in branches {
            if b.atoms.iter().any(|a| a.0 >= n_sources) {
                return Vec::new();
            }
            let bc = propagate_cinds(view.view_rel(), b, self.cind.sigma(), opts);
            cover.retain(|c| bc.contains(c));
        }
        cover
    }

    /// Number of relations.
    pub fn rel_count(&self) -> usize {
        self.cores.len()
    }

    /// The name of relation `rel`.
    pub fn name(&self, rel: RelId) -> &str {
        &self.names[rel.0]
    }

    /// The relation named `name`, if any.
    pub fn rel_id(&self, name: &str) -> Option<RelId> {
        self.names.iter().position(|n| n == name).map(RelId)
    }

    /// The CFDs enforced on `rel`.
    pub fn sigma(&self, rel: RelId) -> &[Cfd] {
        self.cores[rel.0].sigma()
    }

    /// The CINDs maintained across relations.
    pub fn cind_sigma(&self) -> &[Cind] {
        self.cind.sigma()
    }

    /// The last committed global epoch (0 until the first batch).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Live tuples in relation `rel`.
    pub fn live_len(&self, rel: RelId) -> usize {
        self.cores[rel.0].live_len()
    }

    /// Materialize relation `rel` as of now.
    pub fn relation(&self, rel: RelId) -> Relation {
        self.cores[rel.0].relation(&self.pool)
    }

    /// Relation `rel` as of `epoch`, or `None` once GC passed it.
    pub fn scan_at(&self, rel: RelId, epoch: u64) -> Option<Relation> {
        self.cores[rel.0].scan_at(epoch, &self.pool)
    }

    /// CFD violations currently holding on `rel`, in
    /// [`crate::violations::detect_all`] order.
    pub fn cfd_violations(&self, rel: RelId) -> Vec<Violation> {
        self.cores[rel.0].current_violations()
    }

    /// CFD violations of `rel` as of `epoch`, or `None` once GC passed
    /// it.
    pub fn cfd_violations_at(&self, rel: RelId, epoch: u64) -> Option<Vec<Violation>> {
        self.cores[rel.0].violations_at(epoch)
    }

    /// Every CIND violation currently holding, in (cind, tuple) order.
    pub fn cind_violations(&self) -> Vec<CindViolation> {
        self.cind_current.iter().cloned().collect()
    }

    /// Total violations (CFD across all relations + CIND + every live
    /// view's two classes) without materializing them.
    pub fn violation_count(&self) -> usize {
        self.cores
            .iter()
            .map(StoreCore::violation_count)
            .sum::<usize>()
            + self.cind_current.len()
            + self
                .views
                .iter()
                .flatten()
                .map(|v| v.violation_count())
                .sum::<usize>()
    }

    /// Subscribe to every future commit through a bounded channel of
    /// `capacity` commits, filtered by `filter`. Same delivery contract
    /// as [`crate::sharded::ShardedStore::subscribe`]: commit order,
    /// drop-to-unsubscribe, and shed-on-lag — the writer never blocks
    /// on a subscriber; a queue that is full at publish time drops the
    /// subscriber (counted in [`MultiStore::shed_sub_count`]), whose
    /// receiver observes the disconnect as its gap signal and must
    /// re-sync from a snapshot (or follow through [`crate::replica`],
    /// which renegotiates automatically).
    pub fn subscribe(
        &mut self,
        filter: MultiDiffFilter,
        capacity: usize,
    ) -> Receiver<Arc<MultiCommit>> {
        let (tx, rx) = std::sync::mpsc::sync_channel(capacity.max(1));
        self.subs.push(MultiSub { filter, tx });
        rx
    }

    /// Subscribers shed so far for lagging (full queue at publish).
    pub fn shed_sub_count(&self) -> u64 {
        self.shed_subs
    }

    /// Pin the current global epoch in every core and capture a
    /// consistent cross-relation [`MultiSnapshot`]: relation contents,
    /// CFD violations, the CIND violation set, and every live view
    /// (contents + both violation classes), all as of the same
    /// epoch — the whole catalog cut. GC in every core respects the
    /// pin until the snapshot (and all its clones) drop.
    ///
    /// The source violation sets are not deep-copied per read. Each
    /// core's CFD set and the CIND set are shared `Arc<Vec<_>>` tips,
    /// brought forward by the diffs committed since the last snapshot,
    /// netted and folded in one pass: comparisons for what changed, one
    /// move (not a clone) per violation held — in place, or with one
    /// copy when a snapshot still alive shares the tip (see
    /// [`crate::sharded`]). The commits
    /// that moved the CIND set are kept for its fold (shared with the
    /// bus, not copied) only while a tip exists and only while their
    /// rows do not outnumber it; past that the tip is dropped with them,
    /// and the next snapshot rebuilds the set from the live one. A store
    /// nobody reads retains no commits (a durable checkpoint serializes
    /// the live rows without taking a snapshot).
    ///
    /// View states are materialized at most once per change —
    /// snapshots across epochs that did not move a view share one
    /// cached [`ViewSnapshot`].
    pub fn snapshot(&self) -> MultiSnapshot {
        let views = self
            .views
            .iter()
            .zip(&self.view_snaps)
            .map(|(v, slot)| {
                let v = v.as_ref()?;
                let mut slot = slot.lock().expect("view snapshot cache");
                Some(Arc::clone(slot.get_or_insert_with(|| {
                    Arc::new(ViewSnapshot {
                        name: v.name().to_string(),
                        relation: v.relation(&self.pool),
                        cfd: v.cfd_violations(),
                        cind: v.cind_violations(&self.pool),
                    })
                })))
            })
            .collect();
        MultiSnapshot {
            epoch: self.epoch,
            snaps: self.cores.iter().map(|c| c.snapshot(&self.pool)).collect(),
            cind: self.cind_tip(),
            views,
        }
    }

    /// The CIND violation set now, shared with the last snapshot's: the
    /// cached tip folds in the CIND diffs committed since, netted into
    /// one and folded in one pass (see [`crate::sharded`]) — in place,
    /// unless a live snapshot still shares it, in which case it is
    /// copied once. Without a tip (nobody read yet, or the retained
    /// commits outgrew it) the set is rebuilt from the live one.
    fn cind_tip(&self) -> Arc<Vec<CindViolation>> {
        let mut slot = self.cind_tip.lock().expect("snapshot tip");
        let tip = slot.get_or_insert_with(|| CindTip {
            set: Arc::new(self.cind_violations()),
            pending: Vec::new(),
            rows: 0,
        });
        fold_diffs(
            &mut tip.set,
            tip.pending
                .iter()
                .map(|c| (c.cind.removed.as_slice(), c.cind.added.as_slice())),
            Ord::cmp,
        );
        tip.pending.clear();
        tip.rows = 0;
        Arc::clone(&tip.set)
    }

    /// Apply one batch to relation `rel` (deletes first, then inserts),
    /// commit the next global epoch, publish the [`MultiCommit`] to
    /// every subscriber, and return it. The CFD diff is exactly what
    /// [`crate::sharded::ShardedStore::apply`] would report for the
    /// target relation; the CIND diff is exact across every inclusion
    /// touching `rel` on either side; the view deltas walk the catalog
    /// refresh order, so every stacked view commits after its
    /// upstreams, under this same epoch.
    pub fn apply(&mut self, rel: RelId, batch: &UpdateBatch) -> Arc<MultiCommit> {
        self.apply_with_rows(rel, batch).0
    }

    /// [`MultiStore::apply`], additionally handing back the code rows
    /// the batch actually applied (post set-semantics). The durable
    /// layer logs exactly these — the delta, never the raw batch — so a
    /// replayed log applies the same changes the original run did.
    pub(crate) fn apply_with_rows(
        &mut self,
        rel: RelId,
        batch: &UpdateBatch,
    ) -> (Arc<MultiCommit>, AppliedRows) {
        assert!(
            rel.0 < self.cores.len(),
            "apply to unknown relation {rel} ({} relations)",
            self.cores.len()
        );
        let epoch = self.epoch + 1;
        let (commit, applied) = self.cores[rel.0].apply_at(batch, epoch, &mut self.pool);
        let cind = self
            .cind
            .apply(rel, &applied.deletes, &applied.inserts, epoch, &self.pool);
        // Fold the applied delta through the view DAG in refresh
        // order — every view update commits under the same epoch as
        // the source commit, and each view's own row delta feeds its
        // dependents within the same walk.
        let mut views: Vec<ViewDelta> = Vec::new();
        let mut changed: Vec<NodeDelta> =
            vec![(rel.0, applied.deletes.clone(), applied.inserts.clone())];
        self.propagate_changed(&mut changed, &mut views, None);
        self.epoch = epoch;
        for core in &mut self.cores {
            core.advance_to(epoch);
        }
        for v in &cind.removed {
            assert!(
                self.cind_current.remove(v),
                "CIND diff retired a violation not in the live set"
            );
        }
        for v in &cind.added {
            assert!(
                self.cind_current.insert(v.clone()),
                "CIND diff added a violation already in the live set"
            );
        }
        let mc = Arc::new(MultiCommit {
            epoch,
            rel,
            cfd: commit.diff.clone(),
            cind,
            views,
            refresh: self.last_refresh,
        });
        // Retain the commit for the next snapshot's CIND fold only while
        // a tip exists and the retained rows stay within its size.
        if !mc.cind.is_empty() {
            let slot = self.cind_tip.get_mut().expect("snapshot tip");
            let keep = slot.as_mut().is_some_and(|t| {
                t.rows += commit_rows(&mc);
                t.rows <= t.set.len()
            });
            match slot {
                Some(t) if keep => t.pending.push(Arc::clone(&mc)),
                _ => *slot = None,
            }
        }
        self.publish(&mc);
        (mc, applied)
    }

    /// Advance the global clock (and every core) to `epoch` without
    /// committing anything. Recovery calls this after loading a
    /// checkpoint so replayed log frames commit at their original
    /// epochs.
    pub(crate) fn advance_clock(&mut self, epoch: u64) {
        debug_assert!(epoch >= self.epoch, "the epoch clock never runs back");
        self.epoch = self.epoch.max(epoch);
        for core in &mut self.cores {
            core.advance_to(epoch);
        }
    }

    /// The shared dictionary pool (durable-layer hook: the commit log
    /// tracks pool growth to make replay re-intern-free).
    pub(crate) fn shared_pool(&self) -> &SharedPool {
        &self.pool
    }

    /// Relation `rel`'s arity (0 while it is still empty) — durable-layer
    /// hook, with [`MultiStore::for_each_live_code_row`].
    pub(crate) fn rel_arity(&self, rel: RelId) -> usize {
        self.cores[rel.0].arity()
    }

    /// Visit every live code row of relation `rel`, shard by shard
    /// (durable-layer hook: a checkpoint serializes the live state
    /// directly, with no snapshot and so no violation tips).
    pub(crate) fn for_each_live_code_row(&self, rel: RelId, f: impl FnMut(&[Code])) {
        self.cores[rel.0].for_each_live_code_row(f);
    }

    /// Apply one batch of a multi-relation update script: `stmts` are
    /// `(relation, is_delete, tuple)` triples. This is *the* grouping
    /// rule of the `.upd` dialect — statements group per target
    /// relation in first-appearance order, one commit per relation
    /// (deletes before inserts within each, as always); the CLI's
    /// `serve-updates --multi` and the golden-fixture suite both route
    /// through here. Returns the commits in order.
    pub fn apply_grouped(
        &mut self,
        stmts: &[(RelId, bool, cfd_relalg::instance::Tuple)],
    ) -> Vec<Arc<MultiCommit>> {
        Self::group_stmts(stmts)
            .into_iter()
            .map(|(rel, upd)| self.apply(rel, &upd))
            .collect()
    }

    /// The grouping rule of [`MultiStore::apply_grouped`], factored out
    /// so the durable layer can commit the same per-relation batches
    /// through its logging `apply`.
    pub(crate) fn group_stmts(
        stmts: &[(RelId, bool, cfd_relalg::instance::Tuple)],
    ) -> Vec<(RelId, UpdateBatch)> {
        let mut order: Vec<RelId> = Vec::new();
        for (rel, _, _) in stmts {
            if !order.contains(rel) {
                order.push(*rel);
            }
        }
        order
            .into_iter()
            .map(|rel| {
                let mut upd = UpdateBatch::default();
                for (r, is_delete, t) in stmts {
                    if *r != rel {
                        continue;
                    }
                    if *is_delete {
                        upd.deletes.push(t.clone());
                    } else {
                        upd.inserts.push(t.clone());
                    }
                }
                (rel, upd)
            })
            .collect()
    }

    /// Garbage-collect every core up to its oldest pin (cross-relation
    /// snapshots pin all cores at one epoch, so the floors advance in
    /// step). Returns the aggregate: the *oldest* horizon reached and
    /// the summed reclamation counts.
    pub fn gc(&mut self) -> GcStats {
        let mut agg = GcStats {
            horizon: u64::MAX,
            ..GcStats::default()
        };
        for core in &mut self.cores {
            let s = core.gc();
            agg.horizon = agg.horizon.min(s.horizon);
            agg.pruned_commits += s.pruned_commits;
            agg.reclaimed_rows += s.reclaimed_rows;
        }
        if agg.horizon == u64::MAX {
            agg.horizon = self.epoch;
        }
        agg
    }

    fn publish(&mut self, commit: &Arc<MultiCommit>) {
        let sigma_cind = self.cind.sigma();
        let mut shed = 0;
        self.subs.retain(|sub| {
            let msg = match sub.filter {
                MultiDiffFilter::All => Arc::clone(commit),
                _ => Arc::new(sub.filter.apply(commit, sigma_cind)),
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
}

/// A consistent cross-relation cut of a [`MultiStore`] at one global
/// epoch: one epoch-pinned [`Snapshot`] per relation plus the CIND
/// violation set. `Send + Sync`; never blocks the writer; unpins every
/// core on drop. Cloning shares the pins. The violation sets are
/// immutable and shared with the store's snapshot tips, so a snapshot
/// costs what changed since the previous one, and holding it across
/// later commits makes the next snapshot copy a tip once (see
/// [`MultiStore::snapshot`]).
#[derive(Clone)]
pub struct MultiSnapshot {
    epoch: u64,
    snaps: Vec<Snapshot>,
    cind: Arc<Vec<CindViolation>>,
    /// Per catalog slot; `None` for slots dropped before the cut.
    views: Vec<Option<Arc<ViewSnapshot>>>,
}

/// One materialized view captured by a [`MultiSnapshot`]: contents and
/// both violation classes as of the pinned epoch.
#[derive(Clone, Debug)]
pub struct ViewSnapshot {
    /// The view's registered name.
    pub name: String,
    /// The view contents at the pinned epoch.
    pub relation: Relation,
    /// View-CFD violations at the pinned epoch.
    pub cfd: Vec<Violation>,
    /// View-CIND violations at the pinned epoch.
    pub cind: Vec<CindViolation>,
}

impl MultiSnapshot {
    /// The pinned global epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of relations captured.
    pub fn rel_count(&self) -> usize {
        self.snaps.len()
    }

    /// The per-relation snapshot (CFD violations, live scan).
    pub fn rel(&self, rel: RelId) -> &Snapshot {
        &self.snaps[rel.0]
    }

    /// Materialize relation `rel` at the pinned epoch.
    pub fn relation(&self, rel: RelId) -> Relation {
        self.snaps[rel.0].relation()
    }

    /// CFD violations of `rel` at the pinned epoch.
    pub fn cfd_violations(&self, rel: RelId) -> &[Violation] {
        self.snaps[rel.0].violations()
    }

    /// CIND violations at the pinned epoch, in (cind, tuple) order.
    pub fn cind_violations(&self) -> &[CindViolation] {
        &self.cind
    }

    /// Number of view slots captured (dropped slots included, as
    /// `None`).
    pub fn view_count(&self) -> usize {
        self.views.len()
    }

    /// The captured state of the view in slot `index` (contents + both
    /// violation classes, all at the pinned epoch), if the slot was
    /// live at the cut.
    pub fn view_opt(&self, index: usize) -> Option<&ViewSnapshot> {
        self.views[index].as_deref()
    }

    /// The captured state of the view in slot `index`.
    ///
    /// # Panics
    ///
    /// Panics if the slot was dropped before this snapshot.
    pub fn view(&self, index: usize) -> &ViewSnapshot {
        self.views[index]
            .as_deref()
            .expect("view slot was dropped before this snapshot")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_relalg::instance::Tuple;
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

    /// orders(cust, amt) with an FD on cust, customers(id, cc) plain,
    /// and orders[cust] ⊆ customers[id].
    fn store(orders: &[&[i64]], customers: &[&[i64]], shards: usize) -> MultiStore {
        MultiStore::new(
            vec![
                RelationSpec::new("orders", vec![Cfd::fd(&[0], 1).unwrap()], base(orders)),
                RelationSpec::new("customers", vec![], base(customers)),
            ],
            vec![Cind::ind(r(0), r(1), vec![(0, 0)]).unwrap()],
            shards,
        )
        .unwrap()
    }

    #[test]
    fn seeding_reports_both_violation_classes() {
        let s = store(&[&[1, 2], &[1, 3], &[7, 5]], &[&[1, 9]], 2);
        assert_eq!(s.cfd_violations(r(0)).len(), 1, "cust 1 FD conflict");
        let cv = s.cind_violations();
        assert_eq!(cv.len(), 1, "order 7 has no customer");
        assert_eq!(cv[0].tuple, tup(&[7, 5]));
        assert_eq!(s.violation_count(), 2);
    }

    #[test]
    fn rhs_insert_and_delete_move_cind_violations() {
        let mut s = store(&[&[7, 5]], &[], 2);
        assert_eq!(s.cind_violations().len(), 1);
        // Inserting the customer retires the violation …
        let c = s.apply(r(1), &UpdateBatch::inserts(vec![tup(&[7, 0])]));
        assert_eq!(c.epoch, 1);
        assert!(c.cfd.is_empty());
        assert_eq!(c.cind.removed.len(), 1);
        assert!(s.cind_violations().is_empty());
        // … and deleting it re-creates the violation (the shape the
        // batch validator never had to handle).
        let c = s.apply(r(1), &UpdateBatch::deletes(vec![tup(&[7, 0])]));
        assert_eq!(c.epoch, 2);
        assert_eq!(c.cind.added.len(), 1);
        assert_eq!(s.cind_violations().len(), 1);
    }

    #[test]
    fn one_batch_can_move_cfd_and_cind_violations_at_once() {
        let mut s = store(&[&[1, 2]], &[&[1, 0]], 1);
        assert_eq!(s.violation_count(), 0);
        let c = s.apply(
            r(0),
            &UpdateBatch::inserts(vec![tup(&[1, 3]), tup(&[8, 8])]),
        );
        assert_eq!(c.cfd.added.len(), 1, "FD conflict on cust 1");
        assert_eq!(c.cind.added.len(), 1, "order 8 unreferenced");
        assert_eq!(s.violation_count(), 2);
    }

    #[test]
    fn snapshots_are_cross_relation_consistent_cuts() {
        let mut s = store(&[&[7, 5]], &[], 2);
        let s0 = s.snapshot();
        s.apply(r(1), &UpdateBatch::inserts(vec![tup(&[7, 0])]));
        let s1 = s.snapshot();
        s.apply(r(0), &UpdateBatch::deletes(vec![tup(&[7, 5])]));
        // Epoch 0: the order exists, no customer, one CIND violation.
        assert_eq!(s0.epoch(), 0);
        assert_eq!(s0.relation(r(0)).len(), 1);
        assert!(s0.relation(r(1)).is_empty());
        assert_eq!(s0.cind_violations().len(), 1);
        // Epoch 1: both exist, clean.
        assert_eq!(s1.relation(r(1)).len(), 1);
        assert!(s1.cind_violations().is_empty());
        // Now: order gone.
        assert!(s.relation(r(0)).is_empty());
        assert!(s.cind_violations().is_empty());
    }

    #[test]
    fn bus_filters_route_cfd_and_cind_events() {
        let mut s = store(&[], &[], 2);
        let all = s.subscribe(MultiDiffFilter::All, 16);
        let orders_only = s.subscribe(MultiDiffFilter::Rel(r(0)), 16);
        let pair = s.subscribe(MultiDiffFilter::RelPair(r(0), r(1)), 16);
        let cind0 = s.subscribe(MultiDiffFilter::Cind(0), 16);
        let cfd0 = s.subscribe(
            MultiDiffFilter::Cfd {
                rel: r(0),
                index: 0,
            },
            16,
        );
        s.apply(
            r(0),
            &UpdateBatch::inserts(vec![tup(&[1, 2]), tup(&[1, 3])]),
        );
        s.apply(r(1), &UpdateBatch::inserts(vec![tup(&[1, 0])]));
        let c1 = all.recv().unwrap();
        assert_eq!((c1.cfd.added.len(), c1.cind.added.len()), (1, 2));
        let c2 = all.recv().unwrap();
        assert_eq!((c2.cfd.added.len(), c2.cind.removed.len()), (0, 2));
        // Rel(orders) admits commit 2's CIND events too: the CIND
        // touches orders on its LHS even though the batch hit customers.
        let f1 = orders_only.recv().unwrap();
        assert_eq!((f1.cfd.added.len(), f1.cind.added.len()), (1, 2));
        let f2 = orders_only.recv().unwrap();
        assert_eq!((f2.cfd.added.len(), f2.cind.removed.len()), (0, 2));
        // The pair and cind filters drop CFD noise.
        let p1 = pair.recv().unwrap();
        assert_eq!((p1.cfd.added.len(), p1.cind.added.len()), (0, 2));
        assert_eq!(cind0.recv().unwrap().cind, p1.cind);
        // The CFD filter drops CIND noise.
        let d1 = cfd0.recv().unwrap();
        assert_eq!((d1.cfd.added.len(), d1.cind.added.len()), (1, 0));
        assert!(cfd0.recv().unwrap().is_empty());
    }

    #[test]
    fn gc_respects_cross_relation_pins() {
        let mut s = store(&[], &[], 2);
        for i in 0..8 {
            s.apply(r(0), &UpdateBatch::inserts(vec![tup(&[i, i])]));
            s.apply(r(1), &UpdateBatch::inserts(vec![tup(&[i, 0])]));
        }
        let snap = s.snapshot(); // pins epoch 16 in both cores
        for i in 0..8 {
            s.apply(r(0), &UpdateBatch::deletes(vec![tup(&[i, i])]));
        }
        let stats = s.gc();
        assert_eq!(stats.horizon, 16, "cross-relation pin bounds every core");
        assert_eq!(stats.reclaimed_rows, 0);
        assert_eq!(snap.relation(r(0)).len(), 8, "pinned cut intact");
        drop(snap);
        let stats = s.gc();
        assert_eq!(stats.horizon, 24);
        assert_eq!(stats.reclaimed_rows, 8);
    }

    #[test]
    fn unknown_cind_relation_is_a_typed_error() {
        let err = MultiStore::new(
            vec![RelationSpec::new("only", vec![], Relation::new())],
            vec![Cind::ind(r(0), r(3), vec![(0, 0)]).unwrap()],
            1,
        )
        .err();
        assert_eq!(
            err,
            Some(CindError::UnknownRelation {
                rel: r(3),
                relations: 1
            })
        );
    }

    #[test]
    fn names_resolve_both_ways() {
        let s = store(&[], &[], 1);
        assert_eq!(s.rel_count(), 2);
        assert_eq!(s.name(r(1)), "customers");
        assert_eq!(s.rel_id("orders"), Some(r(0)));
        assert_eq!(s.rel_id("nope"), None);
    }
}
