//! The view catalog: named SPCU views over relations *and other
//! views*, dependency records, and the refresh order that drives
//! maintenance.
//!
//! The paper's view language is SPCU — unions of SPC branches — and
//! nothing in it restricts a view's atoms to base relations. The
//! catalog closes both gaps over [`crate::multistore::MultiStore`]:
//!
//! * A [`StackedViewSpec`] is a union of SPC branches whose atoms live
//!   in the store's **extended node space**: node `i < rel_count()` is
//!   source relation `i`, node `rel_count() + k` is the view in slot
//!   `k`. Union branches merge by **derivation-count addition** (see
//!   [`crate::matview`]): a row's count is the sum of its derivations
//!   across every branch, so a delete cancels exactly — dropping the
//!   last derivation of one branch only removes the row if no other
//!   branch still derives it.
//! * Slots are stable forever: dropping a view tombstones its slot, so
//!   node ids, [`crate::multistore::MultiDiffFilter::View`] indexes,
//!   and [`crate::matview::ViewDelta::view`] stay valid across drops.
//! * Registration records each view's **dependencies** (its branches'
//!   atoms plus its CINDs' witness relations) and recomputes the
//!   condensation of the dependency graph. Maintenance walks the
//!   condensation in topological order — every view consumes its
//!   upstream deltas only after those upstreams committed theirs, so a
//!   refresh never reads a stale upstream.
//! * Cycles are rejected with [`CatalogError::Cycle`] unless *every*
//!   member of the strongly connected component opted in with
//!   [`CyclePolicy::Monotone`]. SPCU is negation-free, hence monotone,
//!   so a monotone component has a least fixed point; the store
//!   maintains it by fixed-point iteration (growing from the current
//!   state for insert-only deltas, recomputing the stratum from ∅ —
//!   delete-and-rederive — when any upstream delta deletes).
//! * `RESTRICT` drop semantics: a view with live dependents refuses to
//!   drop ([`CatalogError::HasDependents`]); replacement revalidates
//!   the new definition **atomically** — the old view stays live (and
//!   pinned snapshots stay valid) unless every check and the full
//!   rebuild succeed.

use cfd_cind::{Cind, CindError};
use cfd_model::cfd::Cfd;
use cfd_relalg::query::SpcQuery;
use std::collections::BTreeSet;
use std::fmt;

/// What a view in a dependency cycle is allowed to do.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CyclePolicy {
    /// Reject registration if this view ends up in a cycle (the
    /// default).
    #[default]
    Reject,
    /// Allow monotone recursion: the view may participate in a cycle
    /// and is maintained to the least fixed point by semi-naive
    /// growth (insert-only deltas) or delete-and-rederive (any
    /// deletes). Every member of the component must opt in.
    Monotone,
}

/// A stacked SPCU view: a union of SPC branches whose atoms are nodes
/// of the store's extended space (sources first, then view slots).
/// Registered with [`crate::multistore::MultiStore::register_stacked`].
#[derive(Clone, Debug)]
pub struct StackedViewSpec {
    /// View name; must be unique among live views.
    pub name: String,
    /// The union branches. All branches must agree on output arity and
    /// column names; zero branches denote the always-empty view.
    pub branches: Vec<SpcQuery>,
    /// CFDs enforced on the view (over view output positions).
    pub sigma: Vec<Cfd>,
    /// Extra CINDs with this view on the LHS; the RHS may be any node
    /// (source or view).
    pub cinds: Vec<Cind>,
    /// Whether the view tolerates being part of a dependency cycle.
    pub cycle: CyclePolicy,
}

impl StackedViewSpec {
    /// A view with no extra constraints, cycles rejected.
    pub fn new(name: impl Into<String>, branches: Vec<SpcQuery>) -> StackedViewSpec {
        StackedViewSpec {
            name: name.into(),
            branches,
            sigma: Vec::new(),
            cinds: Vec::new(),
            cycle: CyclePolicy::default(),
        }
    }

    /// Select the cycle policy.
    pub fn with_cycle(mut self, cycle: CyclePolicy) -> StackedViewSpec {
        self.cycle = cycle;
        self
    }

    /// Enforce `sigma` on the view.
    pub fn with_sigma(mut self, sigma: Vec<Cfd>) -> StackedViewSpec {
        self.sigma = sigma;
        self
    }

    /// Maintain extra view-LHS CINDs.
    pub fn with_cinds(mut self, cinds: Vec<Cind>) -> StackedViewSpec {
        self.cinds = cinds;
        self
    }
}

/// What can go wrong registering, replacing, or dropping a view.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CatalogError {
    /// A live view with this name already exists (or the same batch
    /// registers the name twice).
    DuplicateName(String),
    /// No live view has this name (lookup, drop, replace), or a
    /// definition references a dropped view's slot.
    UnknownView(String),
    /// `RESTRICT`: the view cannot be dropped while live views depend
    /// on it.
    HasDependents {
        /// The view that refused to drop.
        view: String,
        /// Live views that read it (sorted by name).
        dependents: Vec<String>,
    },
    /// The dependency graph has a cycle through these views and at
    /// least one of them did not opt into [`CyclePolicy::Monotone`]
    /// (replacement rejects *all* cycles).
    Cycle {
        /// The members of the offending strongly connected component,
        /// sorted by name.
        names: Vec<String>,
    },
    /// The union branches of this view disagree on output arity or
    /// column names.
    UnionIncompatible {
        /// The offending view.
        view: String,
    },
    /// Replacing this view would change its output arity while live
    /// dependents read its columns.
    ReplaceIncompatible {
        /// The view being replaced.
        view: String,
    },
    /// A node reference or CIND failed relation-level validation.
    Cind(CindError),
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::DuplicateName(name) => {
                write!(f, "a view named {name:?} is already registered")
            }
            CatalogError::UnknownView(name) => write!(f, "no live view named {name:?}"),
            CatalogError::HasDependents { view, dependents } => write!(
                f,
                "cannot drop view {view:?}: live dependents {dependents:?} (RESTRICT)"
            ),
            CatalogError::Cycle { names } => {
                write!(f, "view dependency cycle through {names:?}")
            }
            CatalogError::UnionIncompatible { view } => {
                write!(
                    f,
                    "union branches of view {view:?} are not union-compatible"
                )
            }
            CatalogError::ReplaceIncompatible { view } => write!(
                f,
                "replacing view {view:?} would change its arity under live dependents"
            ),
            CatalogError::Cind(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CatalogError {}

impl From<CindError> for CatalogError {
    fn from(e: CindError) -> Self {
        CatalogError::Cind(e)
    }
}

/// One view slot's catalog record. Slots are append-only; a dropped
/// slot keeps its name and node id but goes `live = false`.
#[derive(Clone, Debug)]
pub(crate) struct SlotMeta {
    pub(crate) name: String,
    pub(crate) live: bool,
    /// Node ids this view reads: branch atoms plus CIND RHS witnesses.
    pub(crate) deps: BTreeSet<usize>,
    /// True when the slot sits in a (monotone) dependency cycle.
    pub(crate) recursive: bool,
    pub(crate) policy: CyclePolicy,
}

/// Catalog metadata for a [`crate::multistore::MultiStore`]'s views:
/// slot records plus the refresh order (the condensation of the
/// dependency graph in topological order). The materialized states
/// themselves live in the store; this is the bookkeeping that orders
/// and validates them.
#[derive(Clone, Debug)]
pub(crate) struct ViewCatalog {
    n_sources: usize,
    slots: Vec<SlotMeta>,
    /// Condensation components over live slots, dependencies first.
    order: Vec<Vec<usize>>,
}

impl ViewCatalog {
    pub(crate) fn new(n_sources: usize) -> ViewCatalog {
        ViewCatalog {
            n_sources,
            slots: Vec::new(),
            order: Vec::new(),
        }
    }

    pub(crate) fn slot_count(&self) -> usize {
        self.slots.len()
    }

    pub(crate) fn slot(&self, i: usize) -> &SlotMeta {
        &self.slots[i]
    }

    /// The slot index of the live view named `name`.
    pub(crate) fn live_id(&self, name: &str) -> Option<usize> {
        self.slots.iter().position(|s| s.live && s.name == name)
    }

    /// Condensation components over live slots, dependencies first.
    pub(crate) fn refresh_order(&self) -> &[Vec<usize>] {
        &self.order
    }

    pub(crate) fn is_recursive(&self, slot: usize) -> bool {
        self.slots[slot].recursive
    }

    /// Names of live slots whose deps include `slot`'s node (excluding
    /// `slot` itself), sorted.
    pub(crate) fn dependents_of(&self, slot: usize) -> Vec<String> {
        let node = self.n_sources + slot;
        let mut out: Vec<String> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(j, s)| *j != slot && s.live && s.deps.contains(&node))
            .map(|(_, s)| s.name.clone())
            .collect();
        out.sort();
        out
    }

    /// The dependency record of `spec` assuming it occupies `slot`:
    /// branch atoms plus CIND RHS nodes, minus nothing — a self
    /// reference stays in (it is a self-loop for cycle detection).
    fn deps_of(spec: &StackedViewSpec) -> BTreeSet<usize> {
        let mut deps = BTreeSet::new();
        for b in &spec.branches {
            for a in &b.atoms {
                deps.insert(a.0);
            }
        }
        for c in &spec.cinds {
            deps.insert(c.rhs_rel().0);
        }
        deps
    }

    /// Node-level validation of one spec against `total_nodes` nodes:
    /// range checks and liveness of referenced view slots. Union
    /// compatibility (arity + column names across branches) is checked
    /// here too — it needs no catalog beyond the spec itself.
    fn validate_spec(
        &self,
        spec: &StackedViewSpec,
        own_node: usize,
        total_nodes: usize,
    ) -> Result<(), CatalogError> {
        if let Some(first) = spec.branches.first() {
            let names: Vec<&str> = first.output.iter().map(|o| o.name.as_str()).collect();
            for b in &spec.branches[1..] {
                let bn: Vec<&str> = b.output.iter().map(|o| o.name.as_str()).collect();
                if bn != names {
                    return Err(CatalogError::UnionIncompatible {
                        view: spec.name.clone(),
                    });
                }
            }
        }
        let check_node = |node: usize| -> Result<(), CatalogError> {
            if node >= total_nodes {
                return Err(CatalogError::Cind(CindError::UnknownRelation {
                    rel: cfd_relalg::schema::RelId(node),
                    relations: total_nodes,
                }));
            }
            if node >= self.n_sources && node != own_node {
                let slot = node - self.n_sources;
                if let Some(meta) = self.slots.get(slot) {
                    if !meta.live {
                        return Err(CatalogError::UnknownView(meta.name.clone()));
                    }
                }
                // Slots at or past slot_count() are in-batch forward
                // references: live by construction.
            }
            Ok(())
        };
        for b in &spec.branches {
            for a in &b.atoms {
                check_node(a.0)?;
            }
        }
        for c in &spec.cinds {
            check_node(c.rhs_rel().0)?;
        }
        Ok(())
    }

    /// Admit a batch of new views: validate names, node references and
    /// union compatibility, detect cycles, and commit the slot records
    /// and refresh order. New slots are appended in spec order; the
    /// caller builds the materialized states afterwards (and calls
    /// [`ViewCatalog::retract`] if a build fails).
    pub(crate) fn admit(&mut self, specs: &[StackedViewSpec]) -> Result<(), CatalogError> {
        let first = self.slots.len();
        let total_nodes = self.n_sources + first + specs.len();
        for (k, spec) in specs.iter().enumerate() {
            if self.slots.iter().any(|s| s.live && s.name == spec.name)
                || specs[..k].iter().any(|s| s.name == spec.name)
            {
                return Err(CatalogError::DuplicateName(spec.name.clone()));
            }
            self.validate_spec(spec, self.n_sources + first + k, total_nodes)?;
        }
        // Candidate slot table; cycle analysis runs on it before commit.
        let mut slots = self.slots.clone();
        for spec in specs {
            slots.push(SlotMeta {
                name: spec.name.clone(),
                live: true,
                deps: Self::deps_of(spec),
                recursive: false,
                policy: spec.cycle,
            });
        }
        let comps = condensation(&slots, self.n_sources);
        for comp in &comps {
            let self_loop =
                comp.len() == 1 && slots[comp[0]].deps.contains(&(self.n_sources + comp[0]));
            if comp.len() > 1 || self_loop {
                debug_assert!(
                    comp.iter().all(|&s| s >= first),
                    "a new batch cannot close a cycle through pre-existing views"
                );
                if comp
                    .iter()
                    .any(|&s| slots[s].policy != CyclePolicy::Monotone)
                {
                    let mut names: Vec<String> =
                        comp.iter().map(|&s| slots[s].name.clone()).collect();
                    names.sort();
                    return Err(CatalogError::Cycle { names });
                }
                for &s in comp {
                    slots[s].recursive = true;
                }
            }
        }
        self.slots = slots;
        self.order = comps;
        Ok(())
    }

    /// Roll back an [`ViewCatalog::admit`] whose builds failed: drop
    /// every slot at or past `first` and restore the refresh order.
    pub(crate) fn retract(&mut self, first: usize) {
        self.slots.truncate(first);
        self.order = condensation(&self.slots, self.n_sources);
    }

    /// `RESTRICT` drop: tombstone the live view named `name` unless
    /// live dependents read it.
    pub(crate) fn drop_slot(&mut self, name: &str) -> Result<usize, CatalogError> {
        let slot = self
            .live_id(name)
            .ok_or_else(|| CatalogError::UnknownView(name.to_string()))?;
        let dependents = self.dependents_of(slot);
        if !dependents.is_empty() {
            return Err(CatalogError::HasDependents {
                view: name.to_string(),
                dependents,
            });
        }
        self.slots[slot].live = false;
        self.order = condensation(&self.slots, self.n_sources);
        Ok(slot)
    }

    /// Validate replacing the live view in `slot` with `spec` (same
    /// name): node references must resolve and the new dependencies
    /// must not create *any* cycle — replacement never introduces
    /// recursion, so a pinned reader's topology stays a DAG. Returns
    /// the new dependency record for [`ViewCatalog::commit_replace`].
    pub(crate) fn validate_replace(
        &self,
        slot: usize,
        spec: &StackedViewSpec,
    ) -> Result<BTreeSet<usize>, CatalogError> {
        let own_node = self.n_sources + slot;
        let total_nodes = self.n_sources + self.slots.len();
        self.validate_spec(spec, own_node, total_nodes)?;
        let deps = Self::deps_of(spec);
        // A cycle through the replaced slot exists iff some new dep can
        // reach the slot along live dependency edges (or is the slot).
        let mut stack: Vec<usize> = deps
            .iter()
            .filter(|&&n| n >= self.n_sources)
            .map(|&n| n - self.n_sources)
            .collect();
        let mut seen: BTreeSet<usize> = stack.iter().copied().collect();
        while let Some(s) = stack.pop() {
            if s == slot {
                return Err(CatalogError::Cycle {
                    names: vec![spec.name.clone()],
                });
            }
            if !self.slots[s].live {
                continue;
            }
            for &d in &self.slots[s].deps {
                if d >= self.n_sources {
                    let t = d - self.n_sources;
                    if seen.insert(t) {
                        stack.push(t);
                    }
                }
            }
        }
        Ok(deps)
    }

    /// Commit a validated replacement: install the new deps and
    /// recompute the refresh order.
    pub(crate) fn commit_replace(&mut self, slot: usize, deps: BTreeSet<usize>) {
        self.slots[slot].deps = deps;
        self.slots[slot].recursive = false;
        self.order = condensation(&self.slots, self.n_sources);
    }
}

/// Per-commit outcome of the delta-aware refresh scheduler: how much
/// of the catalog walk a commit actually paid for, and how much trie
/// state sibling views share. Published on every
/// [`crate::multistore::MultiCommit`] and queryable via
/// [`crate::multistore::MultiStore::refresh_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RefreshStats {
    /// Views whose maintenance ran this commit.
    pub refreshed: usize,
    /// Views skipped because their delta was provably empty: no
    /// changed node they read admitted a single delta row through the
    /// pushed-down local predicates (and none was a maintained-CIND
    /// endpoint, whose witness side can orphan view rows). Skipped
    /// views do no work at all and emit no delta, so their dependent
    /// cone silences transitively.
    pub skipped: usize,
    /// Shareable atom positions across all live views — what N private
    /// engines would maintain.
    pub tries_total: usize,
    /// Positions whose trie entry at least one *other* position also
    /// references: the maintenance and memory the sharing saves.
    pub tries_shared: usize,
    /// Distinct shared-trie entries actually maintained.
    pub trie_entries: usize,
    /// Rows resident across all shared-trie entries.
    pub trie_rows: usize,
}

/// One scheduling decision of the commit-time walk: refresh a
/// condensation component iff **any** member has a relevant delta.
///
/// For a DAG component (one non-recursive view) this is exactly the
/// per-view pruning rule. For a monotone SCC it is deliberately
/// conservative — skipping requires *every* member's inputs to be
/// empty, because one relevant member can move the whole fixpoint. A
/// member's relevance test is sound for recursion too: if no member
/// admits any delta row, every branch's filtered input lists are
/// unchanged, so the least fixpoint is unchanged.
pub(crate) fn component_relevant(
    comp: &[usize],
    mut member_relevant: impl FnMut(usize) -> bool,
) -> bool {
    comp.iter().any(|&slot| member_relevant(slot))
}

/// Tarjan's SCC over the live slots of `slots` (edges point from a
/// view to the view slots it depends on), returning the condensation
/// components **dependencies first** — exactly the refresh order.
fn condensation(slots: &[SlotMeta], n_sources: usize) -> Vec<Vec<usize>> {
    let n = slots.len();
    let adj: Vec<Vec<usize>> = slots
        .iter()
        .map(|s| {
            if !s.live {
                return Vec::new();
            }
            s.deps
                .iter()
                .filter_map(|&d| d.checked_sub(n_sources))
                .filter(|&j| j < n && slots[j].live)
                .collect()
        })
        .collect();
    const UNVISITED: usize = usize::MAX;
    let mut index = vec![UNVISITED; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next = 0usize;
    let mut comps: Vec<Vec<usize>> = Vec::new();
    for root in 0..n {
        if !slots[root].live || index[root] != UNVISITED {
            continue;
        }
        // Iterative DFS: each frame is (vertex, next edge to explore).
        let mut call: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(frame) = call.last_mut() {
            let v = frame.0;
            if frame.1 == 0 {
                index[v] = next;
                low[v] = next;
                next += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if frame.1 < adj[v].len() {
                let w = adj[v][frame.1];
                frame.1 += 1;
                if index[w] == UNVISITED {
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                call.pop();
                if let Some(parent) = call.last() {
                    low[parent.0] = low[parent.0].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("Tarjan stack holds the component");
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    comps.push(comp);
                }
            }
        }
    }
    comps
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_relalg::query::{ColRef, OutputCol, ProdCol};
    use cfd_relalg::schema::RelId;

    /// A one-atom projection of `node`'s column 0, named `x`.
    fn q(node: usize) -> SpcQuery {
        SpcQuery {
            atoms: vec![RelId(node)],
            constants: vec![],
            selection: vec![],
            output: vec![OutputCol {
                name: "x".into(),
                src: ColRef::Prod(ProdCol::new(0, 0)),
            }],
        }
    }

    fn spec(name: &str, nodes: &[usize]) -> StackedViewSpec {
        StackedViewSpec::new(name, nodes.iter().map(|&n| q(n)).collect())
    }

    #[test]
    fn admit_orders_dependencies_first() {
        let mut c = ViewCatalog::new(2);
        // v0 over source 0; v1 over v0; v2 over v1 and source 1 —
        // registered out of order in one batch.
        c.admit(&[
            spec("v2", &[3]), // slot 0 reads node 3 (v1)
            spec("v1", &[4]), // slot 1 reads node 4 (v0)
            spec("v0", &[0]), // slot 2 reads source 0
        ])
        .unwrap();
        assert_eq!(c.refresh_order(), &[vec![2], vec![1], vec![0]]);
        assert!(!c.is_recursive(0));
    }

    #[test]
    fn self_loop_and_two_cycle_are_rejected_by_default() {
        let mut c = ViewCatalog::new(1);
        let err = c.admit(&[spec("loop", &[1])]).unwrap_err();
        assert_eq!(
            err,
            CatalogError::Cycle {
                names: vec!["loop".into()]
            }
        );
        assert_eq!(c.slot_count(), 0, "failed admit leaves no slots");
        let err = c.admit(&[spec("a", &[2]), spec("b", &[1])]).unwrap_err();
        assert_eq!(
            err,
            CatalogError::Cycle {
                names: vec!["a".into(), "b".into()]
            }
        );
    }

    #[test]
    fn monotone_optin_admits_the_cycle_for_every_member_only() {
        let mut c = ViewCatalog::new(1);
        // Only one member opts in: still rejected.
        let err = c
            .admit(&[
                spec("a", &[2]).with_cycle(CyclePolicy::Monotone),
                spec("b", &[1]),
            ])
            .unwrap_err();
        assert!(matches!(err, CatalogError::Cycle { .. }));
        // Both opt in: admitted as one recursive component.
        c.admit(&[
            spec("a", &[0, 2]).with_cycle(CyclePolicy::Monotone),
            spec("b", &[1]).with_cycle(CyclePolicy::Monotone),
        ])
        .unwrap();
        assert_eq!(c.refresh_order(), &[vec![0, 1]]);
        assert!(c.is_recursive(0) && c.is_recursive(1));
    }

    #[test]
    fn duplicate_names_are_typed_errors() {
        let mut c = ViewCatalog::new(1);
        c.admit(&[spec("v", &[0])]).unwrap();
        assert_eq!(
            c.admit(&[spec("v", &[0])]).unwrap_err(),
            CatalogError::DuplicateName("v".into())
        );
        assert_eq!(
            c.admit(&[spec("w", &[0]), spec("w", &[0])]).unwrap_err(),
            CatalogError::DuplicateName("w".into())
        );
    }

    #[test]
    fn restrict_drop_and_tombstones() {
        let mut c = ViewCatalog::new(1);
        c.admit(&[spec("base", &[0])]).unwrap();
        c.admit(&[spec("top", &[1])]).unwrap();
        assert_eq!(
            c.drop_slot("base").unwrap_err(),
            CatalogError::HasDependents {
                view: "base".into(),
                dependents: vec!["top".into()]
            }
        );
        assert_eq!(c.drop_slot("top").unwrap(), 1);
        assert_eq!(c.drop_slot("base").unwrap(), 0);
        assert_eq!(
            c.drop_slot("top").unwrap_err(),
            CatalogError::UnknownView("top".into())
        );
        // Tombstoned slots stay; references to them are rejected.
        assert_eq!(c.slot_count(), 2);
        let err = c.admit(&[spec("again", &[1])]).unwrap_err();
        assert_eq!(err, CatalogError::UnknownView("base".into()));
    }

    #[test]
    fn union_compatibility_checked_per_view() {
        let mut c = ViewCatalog::new(2);
        let mut bad = q(1);
        bad.output[0].name = "y".into();
        let err = c
            .admit(&[StackedViewSpec::new("u", vec![q(0), bad])])
            .unwrap_err();
        assert_eq!(err, CatalogError::UnionIncompatible { view: "u".into() });
    }

    #[test]
    fn replace_rejects_cycles_and_commits_new_deps() {
        let mut c = ViewCatalog::new(1);
        c.admit(&[spec("a", &[0])]).unwrap();
        c.admit(&[spec("b", &[1])]).unwrap();
        // Replacing a with a definition over b would close a cycle.
        let err = c.validate_replace(0, &spec("a", &[2])).unwrap_err();
        assert!(matches!(err, CatalogError::Cycle { .. }));
        // A legal replacement commits and reorders.
        let deps = c.validate_replace(1, &spec("b", &[0])).unwrap();
        c.commit_replace(1, deps);
        assert!(c.dependents_of(0).is_empty());
    }

    #[test]
    fn diamond_with_shared_subview_is_acyclic() {
        let mut c = ViewCatalog::new(1);
        c.admit(&[
            spec("base", &[0]),  // slot 0, node 1
            spec("left", &[1]),  // slot 1
            spec("right", &[1]), // slot 2
            spec("top", &[2, 3]),
        ])
        .unwrap();
        assert_eq!(c.refresh_order().len(), 4);
        assert_eq!(c.refresh_order()[0], vec![0]);
        assert_eq!(c.refresh_order()[3], vec![3]);
        assert!((0..4).all(|s| !c.is_recursive(s)));
    }
}
