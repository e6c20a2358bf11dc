//! Width-bounded factorized join plans: per-driver-row variable
//! elimination over the join graph, replacing the greedy binary
//! [`super::JoinPlan`] for ≥3-atom queries.
//!
//! # Why
//!
//! The greedy plan probes atoms one at a time and materializes every
//! intermediate binding. On a skewed instance — say `R0(a,b) ⋈_b
//! R1(b,c) ⋈_c R2(c,d)` where one hot `b` matches `K` rows of `R1` but
//! only a handful of `c` values survive into `R2` — a single driver row
//! costs `Θ(K)` even when the delta it produces is `O(1)`. That is the
//! delta-join blowup cliff: maintenance cost tracks intermediate join
//! size, not `O(|Δ⋈|)`.
//!
//! Factorized evaluation (FDB, arXiv 1203.2672; FAQ, arXiv 1703.03147)
//! never materializes a binary intermediate. The join graph's
//! **variables** are the constant-free equivalence classes of product
//! columns ([`super::CompiledSelection::join_vars`]). For one driver
//! row the plan:
//!
//! 1. **binds** the driver's variables from the row,
//! 2. **semijoin-checks** every atom whose variables are all bound
//!    (one hash lookup each — any miss kills the row immediately),
//! 3. **eliminates** the remaining connected variables one at a time:
//!    the candidate set for a variable is the *intersection* of the
//!    per-atom distinct-value sets under the already-bound prefix
//!    (iterate the smallest set, membership-check the others), so work
//!    per variable is `O(min atom branching)`, never the product,
//! 4. **enumerates** surviving bindings factor by factor: the final
//!    derivations are a cartesian product of per-atom row buckets, each
//!    guaranteed non-empty, so enumeration work is proportional to the
//!    derivations actually emitted.
//!
//! Join-graph components not containing the driver are enumerated
//! **once per drive call** (not per driver row) with a
//! driver-independent variable order, and atoms with no variables at
//! all (pure cartesian factors) are cached as plain row lists — the fix
//! for the disconnected-step rescan bug in the legacy plan.
//!
//! # Plan order (deterministic, satellite #3)
//!
//! Variable order is fully deterministic and documented here:
//! * bound (driver) variables first, in ascending variable id;
//! * then connected variables, greedily picking the variable whose
//!   atoms are most already reached — score `(#occurrence atoms
//!   reached, #occurrence atoms total)`, ties to the smallest variable
//!   id — where "reached" starts as the driver plus every atom holding
//!   a bound variable;
//! * then each driver-free component in ascending order of its
//!   smallest atom, ordered by the same greedy score with an empty
//!   initial reached set (so the order depends only on the component,
//!   letting tries be shared across drivers).
//!
//! Variable ids themselves are deterministic: `join_vars` classes are
//! sorted by their first product column.
//!
//! # Data structures
//!
//! Each atom keeps one or more `AtomTrie`s: a hash-trie over the
//! atom's variable columns in plan order. Level `k` maps a length-`k`
//! prefix of variable values to the distinct values of the next column
//! (with support counts, so deletions unwind exactly); the final level
//! maps the full key to the bucket of row ids. All maps are over
//! interned [`Code`]s, so the same engine serves code-level view
//! maintenance and (through a scratch pool) one-shot evaluation.
//!
//! # Shared tries
//!
//! An atom position's state is fully determined by `(upstream node,
//! local predicate set)`: it holds exactly the node's live rows passing
//! the pushed-down predicates. Two positions agreeing on that pair —
//! across branches, across *views* — are bitwise the same state, and
//! the canonical per-component variable orders above make their trie
//! column orders shareable too. A [`TrieStore`] deduplicates such
//! states under an [`AtomKey`]: each entry is one refcounted
//! `EngineAtom` that any number of engines reference through
//! `AtomSlot::Shared`, so N sibling views over the same upstream
//! maintain one support-counted trie instead of N. Tries *within* an
//! entry are still deduplicated by column order, and registering a new
//! column order backfills it from the entry's live rows, so late
//! joiners (a view registered after data arrived) see full state.
//!
//! Store-backed engines use the `*_in` method variants, which take the
//! store explicitly; the classic methods serve engines that own all
//! their atoms and panic on a shared slot.

use super::compiled::canonical_local_eqs;
use super::ProdCol;
use crate::pool::Code;
use rustc_hash::FxHashMap;
use std::cell::Cell;

/// Source of one output column when driving at code level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutCode {
    /// Column `attr` of atom `atom`'s current row.
    Col(usize, usize),
    /// An interned constant.
    Const(Code),
}

/// One trie level: length-`k` prefix → next-column value → support.
type PrefixLevel = FxHashMap<Box<[Code]>, FxHashMap<Code, u32>>;

/// A hash-trie over one atom's variable columns (see module docs).
#[derive(Clone, Debug)]
struct AtomTrie {
    /// Attribute positions of the atom, in plan variable order.
    cols: Vec<usize>,
    /// `levels[k]`: length-`k` prefix → next-column value → support.
    levels: Vec<PrefixLevel>,
    /// Full key → row-id bucket.
    buckets: FxHashMap<Box<[Code]>, Vec<u32>>,
}

impl AtomTrie {
    fn new(cols: Vec<usize>) -> AtomTrie {
        AtomTrie {
            levels: (0..cols.len()).map(|_| FxHashMap::default()).collect(),
            buckets: FxHashMap::default(),
            cols,
        }
    }

    fn insert(&mut self, codes: &[Code], id: u32) {
        let key: Vec<Code> = self.cols.iter().map(|&c| codes[c]).collect();
        for (lvl, map) in self.levels.iter_mut().enumerate() {
            *map.entry(key[..lvl].into())
                .or_default()
                .entry(key[lvl])
                .or_insert(0) += 1;
        }
        self.buckets
            .entry(key.into_boxed_slice())
            .or_default()
            .push(id);
    }

    fn remove(&mut self, codes: &[Code], id: u32) {
        let key: Vec<Code> = self.cols.iter().map(|&c| codes[c]).collect();
        for (lvl, map) in self.levels.iter_mut().enumerate() {
            let prefix = &key[..lvl];
            let m = map.get_mut(prefix).expect("trie prefix present on remove");
            let c = m.get_mut(&key[lvl]).expect("trie value present on remove");
            *c -= 1;
            if *c == 0 {
                m.remove(&key[lvl]);
                if m.is_empty() {
                    map.remove(prefix);
                }
            }
        }
        let b = self
            .buckets
            .get_mut(&key[..])
            .expect("trie bucket present on remove");
        let pos = b.iter().position(|&x| x == id).expect("row id in bucket");
        b.swap_remove(pos);
        if b.is_empty() {
            self.buckets.remove(&key[..]);
        }
    }
}

/// One atom's live rows plus its tries.
#[derive(Clone, Debug, Default)]
struct EngineAtom {
    /// Row codes → dense id.
    ids: FxHashMap<Box<[Code]>, u32>,
    /// Dense id → row codes (`None` on the free list).
    rows: Vec<Option<Box<[Code]>>>,
    free: Vec<u32>,
    tries: Vec<AtomTrie>,
}

impl EngineAtom {
    /// Register a trie over `cols` (deduplicated), returning its index.
    /// A new trie is backfilled from the live rows, so registration
    /// after data arrived (a late view sharing this atom) is sound.
    fn register(&mut self, cols: Vec<usize>) -> usize {
        match self.tries.iter().position(|t| t.cols == cols) {
            Some(i) => i,
            None => {
                let mut trie = AtomTrie::new(cols);
                for (codes, &id) in &self.ids {
                    trie.insert(codes, id);
                }
                self.tries.push(trie);
                self.tries.len() - 1
            }
        }
    }

    fn insert(&mut self, codes: &[Code]) -> bool {
        if self.ids.contains_key(codes) {
            return false;
        }
        let id = match self.free.pop() {
            Some(i) => {
                self.rows[i as usize] = Some(codes.into());
                i
            }
            None => {
                self.rows.push(Some(codes.into()));
                (self.rows.len() - 1) as u32
            }
        };
        self.ids.insert(codes.into(), id);
        for t in &mut self.tries {
            t.insert(codes, id);
        }
        true
    }

    fn remove(&mut self, codes: &[Code]) -> bool {
        let Some(id) = self.ids.remove(codes) else {
            return false;
        };
        self.rows[id as usize] = None;
        self.free.push(id);
        for t in &mut self.tries {
            t.remove(codes, id);
        }
        true
    }

    fn row(&self, id: u32) -> &[Code] {
        self.rows[id as usize].as_deref().expect("live row id")
    }
}

/// Identity of a shareable atom state: the upstream node it reads plus
/// the canonicalized local predicate set pushed onto it. Two atom
/// positions with equal keys hold exactly the same rows at all times —
/// the node's live rows passing the predicates — so they can share one
/// [`TrieStore`] entry. Constants are interned [`Code`]s, so admission
/// checks are integer compares.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct AtomKey {
    node: usize,
    /// `attr = code` constraints, sorted and deduplicated.
    consts: Box<[(usize, Code)]>,
    /// `attr_a = attr_b` constraints, canonicalized (see
    /// [`canonical_local_eqs`]).
    eqs: Box<[(usize, usize)]>,
}

impl AtomKey {
    /// Build the canonical key for an atom position over `node` with
    /// the given pushed-down local predicates.
    pub fn new(node: usize, consts: &[(usize, Code)], eqs: &[(usize, usize)]) -> AtomKey {
        let mut cs = consts.to_vec();
        cs.sort_unstable();
        cs.dedup();
        AtomKey {
            node,
            consts: cs.into(),
            eqs: canonical_local_eqs(eqs).into(),
        }
    }

    /// The upstream node (source relation or view slot) this state
    /// reads.
    pub fn node(&self) -> usize {
        self.node
    }

    /// Does a row of the node pass this key's local predicates?
    /// Equivalent to the owning views' per-position local filter.
    pub fn admits(&self, codes: &[Code]) -> bool {
        self.consts.iter().all(|&(a, k)| codes[a] == k)
            && self.eqs.iter().all(|&(a, b)| codes[a] == codes[b])
    }
}

/// One refcounted shared atom state.
#[derive(Clone, Debug)]
struct StoreEntry {
    key: AtomKey,
    refs: usize,
    atom: EngineAtom,
}

/// A refcounted store of atom states keyed by [`AtomKey`], shared
/// across the engines of sibling views (see module docs). Owned by the
/// catalog layer (`cfd-clean`'s `MultiStore`); engines reference
/// entries by id and resolve them on every access, so the store can be
/// mutated between drives without invalidating engines.
///
/// Lifecycle: view registration [`TrieStore::acquire`]s one entry per
/// shareable atom position (seeding it if freshly created) and
/// [`TrieStore::register_trie`]s the column orders its plans need; view
/// drop/replace [`TrieStore::release`]s, and the last release frees the
/// entry. Delta application ([`TrieStore::apply_node_delta`]) updates
/// each distinct entry once per commit, however many views reference
/// it.
#[derive(Clone, Debug, Default)]
pub struct TrieStore {
    /// Slab of entries; `None` slots are on the free list.
    entries: Vec<Option<StoreEntry>>,
    index: FxHashMap<AtomKey, usize>,
    free: Vec<usize>,
    /// Delta-routing index, per node (see [`NodeRoutes`]).
    routes: FxHashMap<usize, NodeRoutes>,
}

/// How [`TrieStore::apply_node_delta`] finds the entries reading one
/// node without scanning the whole store: entries carrying at least one
/// pushed-down constant are bucketed under their first `attr = code`
/// constraint, so a delta row probes each routing attribute once with
/// its *own* code and never visits an entry whose constant rejects it —
/// a catalog of N sibling selection views costs a commit O(|Δ|) trie
/// upkeep, not O(|Δ|·N). Constant-free entries stay on the scan list
/// and are checked per row.
#[derive(Clone, Debug, Default)]
struct NodeRoutes {
    /// Entries with no pushed-down constant.
    scan: Vec<usize>,
    /// attr → code → entries whose first constant is `attr = code`.
    by_attr: FxHashMap<usize, FxHashMap<Code, Vec<usize>>>,
}

impl TrieStore {
    /// An empty store.
    pub fn new() -> TrieStore {
        TrieStore::default()
    }

    /// Take a reference on the entry for `key`, creating it if absent.
    /// Returns `(entry id, created)`; a created entry is empty — the
    /// caller seeds it with the node's admitted live rows.
    pub fn acquire(&mut self, key: AtomKey) -> (usize, bool) {
        if let Some(&id) = self.index.get(&key) {
            self.entries[id]
                .as_mut()
                .expect("indexed entry is live")
                .refs += 1;
            return (id, false);
        }
        let id = match self.free.pop() {
            Some(i) => i,
            None => {
                self.entries.push(None);
                self.entries.len() - 1
            }
        };
        self.index.insert(key.clone(), id);
        let nr = self.routes.entry(key.node).or_default();
        match key.consts.first() {
            Some(&(attr, code)) => nr
                .by_attr
                .entry(attr)
                .or_default()
                .entry(code)
                .or_default()
                .push(id),
            None => nr.scan.push(id),
        }
        self.entries[id] = Some(StoreEntry {
            key,
            refs: 1,
            atom: EngineAtom::default(),
        });
        (id, true)
    }

    /// Drop one reference; the last reference frees the entry and all
    /// its tries.
    pub fn release(&mut self, id: usize) {
        let e = self.entries[id].as_mut().expect("released entry is live");
        e.refs -= 1;
        if e.refs == 0 {
            let e = self.entries[id].take().expect("entry present");
            self.index.remove(&e.key);
            let nr = self.routes.get_mut(&e.key.node).expect("routed node");
            match e.key.consts.first() {
                Some(&(attr, code)) => {
                    let buckets = nr.by_attr.get_mut(&attr).expect("routed attr");
                    let ids = buckets.get_mut(&code).expect("routed bucket");
                    ids.retain(|&i| i != id);
                    if ids.is_empty() {
                        buckets.remove(&code);
                    }
                    if nr.by_attr[&attr].is_empty() {
                        nr.by_attr.remove(&attr);
                    }
                }
                None => nr.scan.retain(|&i| i != id),
            }
            if nr.scan.is_empty() && nr.by_attr.is_empty() {
                self.routes.remove(&e.key.node);
            }
            self.free.push(id);
        }
    }

    /// Register a trie over `cols` on entry `id` (deduplicated by
    /// column order, backfilled from live rows), returning its index.
    pub fn register_trie(&mut self, id: usize, cols: Vec<usize>) -> usize {
        self.entry_mut(id).atom.register(cols)
    }

    /// Insert an admitted row into entry `id`. Returns `false` if it
    /// was already present.
    pub fn insert(&mut self, id: usize, codes: &[Code]) -> bool {
        self.entry_mut(id).atom.insert(codes)
    }

    /// Remove a row from entry `id`. Returns `false` if absent.
    pub fn remove(&mut self, id: usize, codes: &[Code]) -> bool {
        self.entry_mut(id).atom.remove(codes)
    }

    /// Live row count of entry `id`.
    pub fn live(&self, id: usize) -> usize {
        self.entry(id).ids.len()
    }

    /// The live rows of entry `id` (arbitrary order).
    pub fn rows_of(&self, id: usize) -> Vec<Box<[Code]>> {
        self.entry(id).ids.keys().cloned().collect()
    }

    /// Apply one node's committed delta to every entry reading it —
    /// once per entry, however many engines share it, and only to the
    /// entries each row can enter (the `NodeRoutes` index). Deletes
    /// must be previously-live node rows and inserts new ones (set
    /// semantics upstream), so admitted deletes are resident and
    /// admitted inserts fresh.
    pub fn apply_node_delta(&mut self, node: usize, dels: &[Box<[Code]>], ins: &[Box<[Code]>]) {
        let Some(nr) = self.routes.get(&node) else {
            return;
        };
        let entries = &mut self.entries;
        let mut hit = |id: usize, codes: &[Code], insert: bool| {
            let e = entries[id].as_mut().expect("routed entry is live");
            if !e.key.admits(codes) {
                return;
            }
            if insert {
                assert!(e.atom.insert(codes), "shared-trie insert was new");
            } else {
                assert!(e.atom.remove(codes), "shared-trie delete was resident");
            }
        };
        for (rows, insert) in [(dels, false), (ins, true)] {
            for codes in rows.iter() {
                for &id in &nr.scan {
                    hit(id, codes, insert);
                }
                for (&attr, buckets) in &nr.by_attr {
                    if let Some(ids) = buckets.get(&codes[attr]) {
                        for &id in ids {
                            hit(id, codes, insert);
                        }
                    }
                }
            }
        }
    }

    /// Number of live entries (distinct maintained states).
    pub fn entry_count(&self) -> usize {
        self.index.len()
    }

    /// Total references across entries: what N private engines would
    /// maintain. `ref_count() - entry_count()` is the sharing win.
    pub fn ref_count(&self) -> usize {
        self.entries.iter().flatten().map(|e| e.refs).sum()
    }

    /// Rows resident across all entries.
    pub fn row_count(&self) -> usize {
        self.entries
            .iter()
            .flatten()
            .map(|e| e.atom.ids.len())
            .sum()
    }

    /// Tries maintained across all entries.
    pub fn trie_count(&self) -> usize {
        self.entries
            .iter()
            .flatten()
            .map(|e| e.atom.tries.len())
            .sum()
    }

    fn entry(&self, id: usize) -> &EngineAtom {
        &self.entries[id]
            .as_ref()
            .expect("live trie-store entry")
            .atom
    }

    fn entry_mut(&mut self, id: usize) -> &mut StoreEntry {
        self.entries[id].as_mut().expect("live trie-store entry")
    }
}

/// Where one atom position's state lives: owned by the engine, or an
/// entry of a shared [`TrieStore`].
#[derive(Clone, Debug)]
enum AtomSlot {
    Owned(EngineAtom),
    Shared(usize),
}

impl AtomSlot {
    fn owned(&self) -> &EngineAtom {
        match self {
            AtomSlot::Owned(a) => a,
            AtomSlot::Shared(_) => panic!("atom is store-backed; use the *_in accessors"),
        }
    }

    fn owned_mut(&mut self) -> &mut EngineAtom {
        match self {
            AtomSlot::Owned(a) => a,
            AtomSlot::Shared(_) => panic!("atom is store-backed; use the *_in accessors"),
        }
    }

    fn resolve<'s>(&'s self, store: &'s TrieStore) -> &'s EngineAtom {
        match self {
            AtomSlot::Owned(a) => a,
            AtomSlot::Shared(id) => store.entry(*id),
        }
    }
}

/// One atom probe of a [`FactorizedPlan`]: which trie to use and which
/// plan variables its columns carry, in trie column order.
#[derive(Clone, Debug)]
struct AtomProbe {
    atom: usize,
    trie: usize,
    col_vars: Vec<usize>,
}

/// One variable-elimination step: intersect the candidate sets of the
/// variable's occurrences. `occ` holds `(probe slot, trie level)`.
#[derive(Clone, Debug)]
struct ElimStep {
    var: usize,
    occ: Vec<(usize, usize)>,
}

/// The per-driver factorized plan. See the module docs for the
/// deterministic construction.
#[derive(Clone, Debug)]
pub struct FactorizedPlan {
    /// Driver variables as `(var, driver attribute)`, ascending var id.
    bound: Vec<(usize, usize)>,
    /// Atoms fully bound by the driver: one semijoin lookup each.
    semi: Vec<AtomProbe>,
    /// Connected atoms with ≥1 eliminated variable.
    probed: Vec<AtomProbe>,
    /// Elimination order for the driver's component (occ → `probed`).
    conn_elim: Vec<ElimStep>,
    /// Atoms of driver-free components.
    rest_probes: Vec<AtomProbe>,
    /// Elimination order for driver-free components (occ →
    /// `rest_probes`), concatenated in component order.
    rest_elim: Vec<ElimStep>,
    /// Atoms with no join variables: pure cartesian factors.
    free_atoms: Vec<usize>,
}

/// Incrementally maintained factorized join state for one `SpcQuery`:
/// one atom state per position (owned, or shared through a
/// [`TrieStore`]), one [`FactorizedPlan`] per driver. Rows must
/// already pass the query's local predicates (including the
/// closure-derived ones) *before* insertion — the engine only handles
/// the join variables.
///
/// Cloning is only meaningful for all-owned engines: a clone of a
/// store-backed engine aliases the same entries without taking
/// references on them.
#[derive(Clone, Debug)]
pub struct FactorizedEngine {
    n_atoms: usize,
    n_vars: usize,
    plans: Vec<FactorizedPlan>,
    atoms: Vec<AtomSlot>,
    work: Cell<u64>,
}

/// Greedy deterministic ordering of `remaining` (see module docs):
/// repeatedly pick the variable maximizing `(#occurrence atoms in
/// reached, #occurrence atoms)`, ties to the smallest var id, then mark
/// its atoms reached.
fn order_vars(
    remaining: &mut Vec<usize>,
    reached: &mut [bool],
    var_occ: &[Vec<(usize, usize)>],
) -> Vec<usize> {
    let mut out = Vec::with_capacity(remaining.len());
    while !remaining.is_empty() {
        let (pos, _) = remaining
            .iter()
            .enumerate()
            .max_by_key(|&(_, &v)| {
                let occ = &var_occ[v];
                let hit = occ.iter().filter(|&&(a, _)| reached[a]).count();
                // max_by_key keeps the last maximum; negate the var id
                // (via Reverse-style complement) so ties resolve to the
                // smallest id.
                (hit, occ.len(), usize::MAX - v)
            })
            .expect("remaining is non-empty");
        let v = remaining.swap_remove(pos);
        for &(a, _) in &var_occ[v] {
            reached[a] = true;
        }
        out.push(v);
    }
    out
}

impl FactorizedEngine {
    /// Build the engine for `n_atoms` atoms joined by `join_vars`
    /// (from [`super::CompiledSelection::join_vars`]), with every atom
    /// state owned by the engine.
    pub fn new(n_atoms: usize, join_vars: &[Vec<ProdCol>]) -> FactorizedEngine {
        FactorizedEngine::new_shared(n_atoms, join_vars, &[], &mut TrieStore::default())
    }

    /// Build an engine whose atom `a` is backed by shared store entry
    /// `shared[a]` when `Some` (a reference already acquired by the
    /// caller), and engine-owned otherwise. The column orders the plans
    /// need are registered on the shared entries, backfilled from any
    /// rows already live there.
    pub fn new_shared(
        n_atoms: usize,
        join_vars: &[Vec<ProdCol>],
        shared: &[Option<usize>],
        store: &mut TrieStore,
    ) -> FactorizedEngine {
        let n_vars = join_vars.len();
        // Per variable: (atom, representative attr) occurrences, the
        // representative being the smallest attr of the class on that
        // atom (other attrs of the class are equal by the derived local
        // predicates, enforced before insertion).
        let mut var_occ: Vec<Vec<(usize, usize)>> = Vec::with_capacity(n_vars);
        for class in join_vars {
            let mut occ: Vec<(usize, usize)> = Vec::new();
            for c in class {
                match occ.iter_mut().find(|(a, _)| *a == c.atom) {
                    Some((_, rep)) => *rep = (*rep).min(c.attr),
                    None => occ.push((c.atom, c.attr)),
                }
            }
            occ.sort_unstable();
            var_occ.push(occ);
        }
        let mut atom_vars: Vec<Vec<usize>> = vec![Vec::new(); n_atoms];
        for (v, occ) in var_occ.iter().enumerate() {
            for &(a, _) in occ {
                atom_vars[a].push(v);
            }
        }
        // Connected components of the atom graph (atoms linked by a
        // shared variable), labelled by smallest member atom.
        let mut comp: Vec<usize> = (0..n_atoms).collect();
        fn find(comp: &mut [usize], mut i: usize) -> usize {
            while comp[i] != i {
                comp[i] = comp[comp[i]];
                i = comp[i];
            }
            i
        }
        for occ in &var_occ {
            for w in occ.windows(2) {
                let (ra, rb) = (find(&mut comp, w[0].0), find(&mut comp, w[1].0));
                if ra != rb {
                    comp[ra.max(rb)] = ra.min(rb);
                }
            }
        }
        let var_root: Vec<usize> = var_occ
            .iter()
            .map(|occ| find(&mut comp, occ[0].0))
            .collect();
        // Canonical (driver-independent) per-component orders, for the
        // components playing the "rest" role.
        let mut roots: Vec<usize> = var_root.clone();
        roots.sort_unstable();
        roots.dedup();
        let canon: Vec<(usize, Vec<usize>)> = roots
            .iter()
            .map(|&r| {
                let mut rem: Vec<usize> = (0..n_vars).filter(|&v| var_root[v] == r).collect();
                let mut reached = vec![false; n_atoms];
                (r, order_vars(&mut rem, &mut reached, &var_occ))
            })
            .collect();

        let mut atoms: Vec<AtomSlot> = (0..n_atoms)
            .map(|a| match shared.get(a).copied().flatten() {
                Some(id) => AtomSlot::Shared(id),
                None => AtomSlot::Owned(EngineAtom::default()),
            })
            .collect();
        let mut plans = Vec::with_capacity(n_atoms);
        for d in 0..n_atoms {
            let bound: Vec<(usize, usize)> = atom_vars[d]
                .iter()
                .map(|&v| {
                    let (_, attr) = var_occ[v].iter().find(|&&(a, _)| a == d).unwrap();
                    (v, *attr)
                })
                .collect();
            let conn_root = if atom_vars[d].is_empty() {
                None
            } else {
                Some(find(&mut comp, d))
            };
            // Driver-component elimination order: seeded by the driver
            // and every atom a bound variable touches.
            let conn_elim_vars = match conn_root {
                None => Vec::new(),
                Some(r) => {
                    let mut reached = vec![false; n_atoms];
                    reached[d] = true;
                    for &(v, _) in &bound {
                        for &(a, _) in &var_occ[v] {
                            reached[a] = true;
                        }
                    }
                    let mut rem: Vec<usize> = (0..n_vars)
                        .filter(|&v| var_root[v] == r && !bound.iter().any(|&(b, _)| b == v))
                        .collect();
                    order_vars(&mut rem, &mut reached, &var_occ)
                }
            };
            let rest_order: Vec<usize> = canon
                .iter()
                .filter(|(r, _)| Some(*r) != conn_root)
                .flat_map(|(_, vs)| vs.iter().copied())
                .collect();
            // Global position of each variable in this plan's order.
            let mut pos = vec![usize::MAX; n_vars];
            let mut next = 0;
            for &(v, _) in &bound {
                pos[v] = next;
                next += 1;
            }
            for &v in conn_elim_vars.iter().chain(&rest_order) {
                pos[v] = next;
                next += 1;
            }
            // Probes: every non-driver atom with variables, its columns
            // ordered by plan position.
            let mut semi = Vec::new();
            let mut probed = Vec::new();
            let mut rest_probes = Vec::new();
            for a in 0..n_atoms {
                if a == d || atom_vars[a].is_empty() {
                    continue;
                }
                let mut vs = atom_vars[a].clone();
                vs.sort_unstable_by_key(|&v| pos[v]);
                let cols: Vec<usize> = vs
                    .iter()
                    .map(|&v| var_occ[v].iter().find(|&&(x, _)| x == a).unwrap().1)
                    .collect();
                let trie = match &mut atoms[a] {
                    AtomSlot::Owned(at) => at.register(cols),
                    AtomSlot::Shared(id) => store.register_trie(*id, cols),
                };
                let probe = AtomProbe {
                    atom: a,
                    trie,
                    col_vars: vs,
                };
                if Some(find(&mut comp, a)) == conn_root {
                    if probe.col_vars.iter().all(|&v| pos[v] < bound.len()) {
                        semi.push(probe);
                    } else {
                        probed.push(probe);
                    }
                } else {
                    rest_probes.push(probe);
                }
            }
            let occ_of = |v: usize, probes: &[AtomProbe]| -> Vec<(usize, usize)> {
                var_occ[v]
                    .iter()
                    .map(|&(a, _)| {
                        let slot = probes.iter().position(|p| p.atom == a).unwrap();
                        let level = probes[slot].col_vars.iter().position(|&x| x == v).unwrap();
                        (slot, level)
                    })
                    .collect()
            };
            let conn_elim: Vec<ElimStep> = conn_elim_vars
                .iter()
                .map(|&v| ElimStep {
                    var: v,
                    occ: occ_of(v, &probed),
                })
                .collect();
            let rest_elim: Vec<ElimStep> = rest_order
                .iter()
                .map(|&v| ElimStep {
                    var: v,
                    occ: occ_of(v, &rest_probes),
                })
                .collect();
            let free_atoms: Vec<usize> = (0..n_atoms)
                .filter(|&a| a != d && atom_vars[a].is_empty())
                .collect();
            plans.push(FactorizedPlan {
                bound,
                semi,
                probed,
                conn_elim,
                rest_probes,
                rest_elim,
                free_atoms,
            });
        }
        FactorizedEngine {
            n_atoms,
            n_vars,
            plans,
            atoms,
            work: Cell::new(0),
        }
    }

    /// Number of atom positions.
    pub fn n_atoms(&self) -> usize {
        self.n_atoms
    }

    /// Insert a row (already local-predicate-filtered) into atom
    /// `atom`'s state. Returns `false` if it was already present.
    /// Panics on a store-backed atom — use [`Self::insert_in`].
    pub fn insert(&mut self, atom: usize, codes: &[Code]) -> bool {
        self.atoms[atom].owned_mut().insert(codes)
    }

    /// Remove a row from atom `atom`'s state. Returns `false` if it was
    /// not present. Panics on a store-backed atom — use
    /// [`Self::remove_in`].
    pub fn remove(&mut self, atom: usize, codes: &[Code]) -> bool {
        self.atoms[atom].owned_mut().remove(codes)
    }

    /// [`Self::insert`] resolving store-backed atoms through `store`.
    pub fn insert_in(&mut self, store: &mut TrieStore, atom: usize, codes: &[Code]) -> bool {
        match &mut self.atoms[atom] {
            AtomSlot::Owned(a) => a.insert(codes),
            AtomSlot::Shared(id) => store.insert(*id, codes),
        }
    }

    /// [`Self::remove`] resolving store-backed atoms through `store`.
    pub fn remove_in(&mut self, store: &mut TrieStore, atom: usize, codes: &[Code]) -> bool {
        match &mut self.atoms[atom] {
            AtomSlot::Owned(a) => a.remove(codes),
            AtomSlot::Shared(id) => store.remove(*id, codes),
        }
    }

    /// Is atom `atom` backed by shared store entry — and which?
    pub fn shared_entry(&self, atom: usize) -> Option<usize> {
        match self.atoms[atom] {
            AtomSlot::Owned(_) => None,
            AtomSlot::Shared(id) => Some(id),
        }
    }

    /// Live row count of atom `atom` (owned atoms only).
    pub fn live(&self, atom: usize) -> usize {
        self.atoms[atom].owned().ids.len()
    }

    /// The live rows of atom `atom`, arbitrary order (owned atoms
    /// only).
    pub fn rows_of(&self, atom: usize) -> Vec<Box<[Code]>> {
        self.atoms[atom].owned().ids.keys().cloned().collect()
    }

    /// [`Self::live`] resolving store-backed atoms through `store`.
    pub fn live_in(&self, store: &TrieStore, atom: usize) -> usize {
        self.atoms[atom].resolve(store).ids.len()
    }

    /// [`Self::rows_of`] resolving store-backed atoms through `store`.
    pub fn rows_of_in(&self, store: &TrieStore, atom: usize) -> Vec<Box<[Code]>> {
        self.atoms[atom]
            .resolve(store)
            .ids
            .keys()
            .cloned()
            .collect()
    }

    /// Cumulative enumeration work: candidate values tried, semijoin
    /// lookups, and derivations emitted. The per-driver-row share is
    /// bounded by the plan width — it never tracks intermediate join
    /// size. (Interior counter: `drive` takes `&self`.)
    pub fn work(&self) -> u64 {
        self.work.get()
    }

    fn bump(&self, n: u64) {
        self.work.set(self.work.get() + n);
    }

    /// Join each row of `rows` (playing atom position `driver`) against
    /// the *current* state of every other atom, accumulating `sign` per
    /// derivation into `delta` keyed by the projected output codes.
    /// Driver rows must already pass the local predicates; the driver
    /// atom's own stored state is not consulted. Panics if any atom is
    /// store-backed — use [`Self::drive_in`].
    pub fn drive(
        &self,
        driver: usize,
        rows: &[Box<[Code]>],
        sign: i64,
        out: &[OutCode],
        delta: &mut FxHashMap<Box<[Code]>, i64>,
    ) {
        let atoms: Vec<&EngineAtom> = self.atoms.iter().map(|s| s.owned()).collect();
        self.drive_with(&atoms, driver, rows, sign, out, delta);
    }

    /// [`Self::drive`] resolving store-backed atoms through `store`.
    pub fn drive_in(
        &self,
        store: &TrieStore,
        driver: usize,
        rows: &[Box<[Code]>],
        sign: i64,
        out: &[OutCode],
        delta: &mut FxHashMap<Box<[Code]>, i64>,
    ) {
        let atoms: Vec<&EngineAtom> = self.atoms.iter().map(|s| s.resolve(store)).collect();
        self.drive_with(&atoms, driver, rows, sign, out, delta);
    }

    fn drive_with(
        &self,
        atoms: &[&EngineAtom],
        driver: usize,
        rows: &[Box<[Code]>],
        sign: i64,
        out: &[OutCode],
        delta: &mut FxHashMap<Box<[Code]>, i64>,
    ) {
        if rows.is_empty() {
            return;
        }
        for (a, atom) in atoms.iter().enumerate() {
            if a != driver && atom.ids.is_empty() {
                return;
            }
        }
        let plan = &self.plans[driver];
        let mut var_values = vec![0 as Code; self.n_vars];
        // Driver-free components and variable-free atoms: enumerated
        // once per drive call, not once per driver row.
        let rest: Vec<Vec<u32>> = self.enum_rest(atoms, plan, &mut var_values);
        if !plan.rest_probes.is_empty() && rest.is_empty() {
            return;
        }
        let free_rows: Vec<Vec<u32>> = plan
            .free_atoms
            .iter()
            .map(|&a| atoms[a].ids.values().copied().collect())
            .collect();
        let empty: &[Code] = &[];
        let mut binding: Vec<&[Code]> = vec![empty; self.n_atoms];
        'rows: for row in rows {
            self.bump(1);
            for &(v, attr) in &plan.bound {
                var_values[v] = row[attr];
            }
            // Semijoin-reduce fully-bound atoms against this row.
            let mut semi_buckets: Vec<&Vec<u32>> = Vec::with_capacity(plan.semi.len());
            for p in &plan.semi {
                let key: Box<[Code]> = p.col_vars.iter().map(|&v| var_values[v]).collect();
                match atoms[p.atom].tries[p.trie].buckets.get(&key) {
                    Some(b) => semi_buckets.push(b),
                    None => continue 'rows,
                }
            }
            binding[driver] = row.as_ref();
            self.elim(
                atoms,
                plan,
                0,
                &mut var_values,
                &semi_buckets,
                &rest,
                &free_rows,
                &mut binding,
                sign,
                out,
                delta,
            );
        }
    }

    /// Eliminate `plan.conn_elim[depth..]`, then emit.
    #[allow(clippy::too_many_arguments)]
    fn elim<'s>(
        &self,
        atoms: &[&'s EngineAtom],
        plan: &FactorizedPlan,
        depth: usize,
        var_values: &mut [Code],
        semi_buckets: &[&Vec<u32>],
        rest: &[Vec<u32>],
        free_rows: &[Vec<u32>],
        binding: &mut [&'s [Code]],
        sign: i64,
        out: &[OutCode],
        delta: &mut FxHashMap<Box<[Code]>, i64>,
    ) {
        if depth == plan.conn_elim.len() {
            // All connected variables bound: gather the per-atom row
            // buckets (non-empty by construction — every probed atom
            // participated in the intersections above).
            let mut factors: Vec<(usize, &Vec<u32>)> =
                Vec::with_capacity(plan.probed.len() + plan.semi.len());
            for p in &plan.probed {
                let key: Box<[Code]> = p.col_vars.iter().map(|&v| var_values[v]).collect();
                let Some(b) = atoms[p.atom].tries[p.trie].buckets.get(&key) else {
                    return;
                };
                factors.push((p.atom, b));
            }
            for (p, b) in plan.semi.iter().zip(semi_buckets) {
                factors.push((p.atom, b));
            }
            for (i, &a) in plan.free_atoms.iter().enumerate() {
                factors.push((a, &free_rows[i]));
            }
            self.emit(atoms, plan, &factors, 0, rest, binding, sign, out, delta);
            return;
        }
        let step = &plan.conn_elim[depth];
        let Some(maps) = Self::candidate_maps(atoms, &step.occ, &plan.probed, var_values) else {
            return;
        };
        let smallest = (0..maps.len()).min_by_key(|&i| maps[i].len()).unwrap();
        // Iterating a map yields an arbitrary order; the delta map is
        // order-insensitive.
        for &val in maps[smallest].keys() {
            self.bump(1);
            if maps
                .iter()
                .enumerate()
                .all(|(j, m)| j == smallest || m.contains_key(&val))
            {
                var_values[step.var] = val;
                self.elim(
                    atoms,
                    plan,
                    depth + 1,
                    var_values,
                    semi_buckets,
                    rest,
                    free_rows,
                    binding,
                    sign,
                    out,
                    delta,
                );
            }
        }
    }

    /// The per-occurrence candidate maps for one elimination step, or
    /// `None` if any occurrence has no rows under the current prefix.
    fn candidate_maps<'s>(
        atoms: &[&'s EngineAtom],
        occ: &[(usize, usize)],
        probes: &[AtomProbe],
        var_values: &[Code],
    ) -> Option<Vec<&'s FxHashMap<Code, u32>>> {
        occ.iter()
            .map(|&(slot, level)| {
                let p = &probes[slot];
                let prefix: Box<[Code]> =
                    p.col_vars[..level].iter().map(|&v| var_values[v]).collect();
                atoms[p.atom].tries[p.trie].levels[level].get(&prefix)
            })
            .collect()
    }

    /// Enumerate the driver-free components once: every combination of
    /// one row id per `rest_probes` slot consistent with the rest
    /// variables.
    fn enum_rest(
        &self,
        atoms: &[&EngineAtom],
        plan: &FactorizedPlan,
        var_values: &mut [Code],
    ) -> Vec<Vec<u32>> {
        let mut combos = Vec::new();
        if plan.rest_probes.is_empty() {
            return combos;
        }
        self.rest_rec(atoms, plan, 0, var_values, &mut Vec::new(), &mut combos);
        combos
    }

    fn rest_rec(
        &self,
        atoms: &[&EngineAtom],
        plan: &FactorizedPlan,
        depth: usize,
        var_values: &mut [Code],
        picked: &mut Vec<u32>,
        combos: &mut Vec<Vec<u32>>,
    ) {
        if depth == plan.rest_elim.len() {
            // All rest variables bound: odometer over the buckets.
            let mut buckets: Vec<&Vec<u32>> = Vec::with_capacity(plan.rest_probes.len());
            for p in &plan.rest_probes {
                let key: Box<[Code]> = p.col_vars.iter().map(|&v| var_values[v]).collect();
                let Some(b) = atoms[p.atom].tries[p.trie].buckets.get(&key) else {
                    return;
                };
                buckets.push(b);
            }
            picked.clear();
            picked.resize(buckets.len(), 0);
            self.product_rec(&buckets, 0, picked, combos);
            return;
        }
        let step = &plan.rest_elim[depth];
        let Some(maps) = Self::candidate_maps(atoms, &step.occ, &plan.rest_probes, var_values)
        else {
            return;
        };
        let smallest = (0..maps.len()).min_by_key(|&i| maps[i].len()).unwrap();
        for &val in maps[smallest].keys() {
            self.bump(1);
            if maps
                .iter()
                .enumerate()
                .all(|(j, m)| j == smallest || m.contains_key(&val))
            {
                var_values[step.var] = val;
                self.rest_rec(atoms, plan, depth + 1, var_values, picked, combos);
            }
        }
    }

    fn product_rec(
        &self,
        buckets: &[&Vec<u32>],
        i: usize,
        picked: &mut Vec<u32>,
        combos: &mut Vec<Vec<u32>>,
    ) {
        if i == buckets.len() {
            self.bump(1);
            combos.push(picked.clone());
            return;
        }
        for &id in buckets[i] {
            picked[i] = id;
            self.product_rec(buckets, i + 1, picked, combos);
        }
    }

    /// Cartesian enumeration of the surviving factors, then the rest
    /// combos, projecting each full binding through `out`.
    #[allow(clippy::too_many_arguments)]
    fn emit<'s>(
        &self,
        atoms: &[&'s EngineAtom],
        plan: &FactorizedPlan,
        factors: &[(usize, &Vec<u32>)],
        i: usize,
        rest: &[Vec<u32>],
        binding: &mut [&'s [Code]],
        sign: i64,
        out: &[OutCode],
        delta: &mut FxHashMap<Box<[Code]>, i64>,
    ) {
        if i < factors.len() {
            let (atom, bucket) = factors[i];
            for &id in bucket.iter() {
                binding[atom] = atoms[atom].row(id);
                self.emit(atoms, plan, factors, i + 1, rest, binding, sign, out, delta);
            }
            return;
        }
        let project = |binding: &[&[Code]], delta: &mut FxHashMap<Box<[Code]>, i64>| {
            self.bump(1);
            let key: Box<[Code]> = out
                .iter()
                .map(|oc| match oc {
                    OutCode::Col(a, attr) => binding[*a][*attr],
                    OutCode::Const(c) => *c,
                })
                .collect();
            *delta.entry(key).or_insert(0) += sign;
        };
        if plan.rest_probes.is_empty() {
            project(binding, delta);
            return;
        }
        for combo in rest {
            for (p, &id) in plan.rest_probes.iter().zip(combo.iter()) {
                binding[p.atom] = atoms[p.atom].row(id);
            }
            project(binding, delta);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pc(atom: usize, attr: usize) -> ProdCol {
        ProdCol::new(atom, attr)
    }

    /// R0(a,b) ⋈_b R1(b,c) ⋈_c R2(c,d): vars b = {0.1, 1.0} (id 0) and
    /// c = {1.1, 2.0} (id 1).
    fn path_vars() -> Vec<Vec<ProdCol>> {
        vec![vec![pc(0, 1), pc(1, 0)], vec![pc(1, 1), pc(2, 0)]]
    }

    fn drive_once(
        eng: &FactorizedEngine,
        driver: usize,
        rows: &[&[Code]],
        sign: i64,
        out: &[OutCode],
    ) -> FxHashMap<Box<[Code]>, i64> {
        let rows: Vec<Box<[Code]>> = rows.iter().map(|r| (*r).into()).collect();
        let mut delta = FxHashMap::default();
        eng.drive(driver, &rows, sign, out, &mut delta);
        delta
    }

    #[test]
    fn path_join_emits_only_surviving_bindings() {
        let mut eng = FactorizedEngine::new(3, &path_vars());
        // R1: hot b=7 fans out to c ∈ {1, 2, 3}; R2 keeps only c ∈ {2, 3}.
        for c in [1, 2, 3] {
            assert!(eng.insert(1, &[7, c]));
        }
        assert!(eng.insert(2, &[2, 40]));
        assert!(eng.insert(2, &[3, 41]));
        let out = [OutCode::Col(0, 0), OutCode::Col(1, 1), OutCode::Col(2, 1)];
        let delta = drive_once(&eng, 0, &[&[10, 7]], 1, &out);
        let mut got: Vec<(Vec<Code>, i64)> = delta.iter().map(|(k, &v)| (k.to_vec(), v)).collect();
        got.sort();
        assert_eq!(got, vec![(vec![10, 2, 40], 1), (vec![10, 3, 41], 1)]);
        // A driver row with a cold key dies at the first intersection.
        let delta = drive_once(&eng, 0, &[&[11, 99]], 1, &out);
        assert!(delta.is_empty());
    }

    #[test]
    fn multiplicities_accumulate_per_derivation() {
        let mut eng = FactorizedEngine::new(3, &path_vars());
        eng.insert(1, &[7, 2]);
        // Two R2 rows share c=2 but differ in d; project away d so both
        // derivations collapse onto one output row.
        eng.insert(2, &[2, 40]);
        eng.insert(2, &[2, 41]);
        let out = [OutCode::Col(0, 0), OutCode::Col(1, 1)];
        let delta = drive_once(&eng, 0, &[&[10, 7]], 1, &out);
        assert_eq!(delta.len(), 1);
        assert_eq!(delta.get([10 as Code, 2].as_slice()).copied(), Some(2));
        // Removal unwinds the trie support counts exactly.
        assert!(eng.remove(2, &[2, 41]));
        let delta = drive_once(&eng, 0, &[&[10, 7]], 1, &out);
        assert_eq!(delta.get([10 as Code, 2].as_slice()).copied(), Some(1));
    }

    #[test]
    fn semi_atoms_are_single_lookups() {
        // R0(a,b) ⋈_b R1(b): atom 1 is fully driver-bound.
        let vars = vec![vec![pc(0, 1), pc(1, 0)]];
        let mut eng = FactorizedEngine::new(2, &vars);
        eng.insert(1, &[7]);
        let out = [OutCode::Col(0, 0)];
        let hit = drive_once(&eng, 0, &[&[1, 7]], 1, &out);
        assert_eq!(hit.len(), 1);
        let miss = drive_once(&eng, 0, &[&[1, 8]], 1, &out);
        assert!(miss.is_empty());
    }

    #[test]
    fn rest_components_enumerate_once_per_drive() {
        // Component {0, 1} joined on b; component {2, 3} joined on x,
        // disconnected from the driver.
        let vars = vec![vec![pc(0, 1), pc(1, 0)], vec![pc(2, 0), pc(3, 0)]];
        let mut eng = FactorizedEngine::new(4, &vars);
        eng.insert(1, &[7]);
        for x in 0..50 {
            eng.insert(2, &[x]);
            eng.insert(3, &[x]);
        }
        let out = [OutCode::Col(0, 0), OutCode::Col(2, 0)];
        let rows: Vec<Box<[Code]>> = (0..20)
            .map(|a| Box::from([a, 7 as Code].as_slice()))
            .collect();
        let before = eng.work();
        let mut delta = FxHashMap::default();
        eng.drive(0, &rows, 1, &out, &mut delta);
        let spent = eng.work() - before;
        assert_eq!(delta.len(), 20 * 50);
        // Rest enumeration (~50 candidates + 50 combos) is paid once,
        // not once per driver row: total work stays near the output
        // size (1000 emits) plus the one-off ~100, nowhere near the
        // 20 × 100 a per-row rescan would cost on top.
        assert!(spent < 1000 + 200 + 20 + 50, "work {spent} not cached");
    }

    #[test]
    fn elimination_order_is_deterministic_and_documented() {
        // Pin the documented order on the 3-atom path, driver 0: b is
        // bound; c is the only elimination variable, intersecting R1
        // (level 1 under the bound b) with R2 (level 0).
        let eng = FactorizedEngine::new(3, &path_vars());
        let plan = &eng.plans[0];
        assert_eq!(plan.bound, vec![(0, 1)]);
        assert_eq!(plan.conn_elim.len(), 1);
        assert_eq!(plan.conn_elim[0].var, 1);
        assert!(plan.semi.is_empty());
        assert_eq!(plan.probed.len(), 2);
        assert_eq!(plan.probed[0].atom, 1);
        assert_eq!(plan.probed[0].col_vars, vec![0, 1]);
        assert_eq!(plan.probed[1].atom, 2);
        assert_eq!(plan.probed[1].col_vars, vec![1]);
        assert_eq!(plan.conn_elim[0].occ, vec![(0, 1), (1, 0)]);
        // Middle driver: both b and c bound, both neighbours semi.
        let plan = &eng.plans[1];
        assert_eq!(plan.bound, vec![(0, 0), (1, 1)]);
        assert!(plan.conn_elim.is_empty());
        assert_eq!(plan.semi.len(), 2);
    }

    #[test]
    fn free_atoms_are_cartesian_factors() {
        // Atom 1 shares no variable with the driver: pure product.
        let mut eng = FactorizedEngine::new(2, &[]);
        eng.insert(1, &[5]);
        eng.insert(1, &[6]);
        let out = [OutCode::Col(0, 0), OutCode::Col(1, 0)];
        let delta = drive_once(&eng, 0, &[&[1]], 1, &out);
        assert_eq!(delta.len(), 2);
    }

    #[test]
    fn trie_store_refcounts_and_frees_entries() {
        let mut store = TrieStore::new();
        let key = AtomKey::new(3, &[(0, 7)], &[(2, 1), (1, 2)]);
        let (id, created) = store.acquire(key.clone());
        assert!(created);
        // Same predicates in any written order → same entry.
        let (id2, created2) = store.acquire(AtomKey::new(3, &[(0, 7)], &[(1, 2)]));
        assert_eq!((id, false), (id2, created2));
        assert_eq!((store.entry_count(), store.ref_count()), (1, 2));
        // Different node or predicates → distinct entry.
        let (other, _) = store.acquire(AtomKey::new(4, &[], &[]));
        assert_ne!(id, other);
        store.release(id);
        assert_eq!((store.entry_count(), store.ref_count()), (2, 2));
        store.release(id);
        assert_eq!((store.entry_count(), store.ref_count()), (1, 1));
        // The freed slot is recycled and the key maps to a fresh entry.
        let (id3, created3) = store.acquire(key);
        assert!(created3);
        assert_eq!(id3, id);
    }

    #[test]
    fn trie_store_delta_respects_entry_predicates() {
        let mut store = TrieStore::new();
        let (hot, _) = store.acquire(AtomKey::new(0, &[(1, 7)], &[]));
        let (all, _) = store.acquire(AtomKey::new(0, &[], &[]));
        let rows: Vec<Box<[Code]>> =
            vec![Box::from([1, 7].as_slice()), Box::from([2, 8].as_slice())];
        store.apply_node_delta(0, &[], &rows);
        assert_eq!((store.live(hot), store.live(all)), (1, 2));
        store.apply_node_delta(0, &rows[..1], &[]);
        assert_eq!((store.live(hot), store.live(all)), (0, 1));
    }

    #[test]
    fn sibling_engines_share_entries_and_backfill_late_tries() {
        // Two engines over the same 2-atom join share atom 1's state;
        // the second registers after rows arrived, exercising backfill.
        let vars = vec![vec![pc(0, 1), pc(1, 0)]];
        let mut store = TrieStore::new();
        let (e1, c1) = store.acquire(AtomKey::new(1, &[], &[]));
        assert!(c1);
        let mut a = FactorizedEngine::new_shared(2, &vars, &[None, Some(e1)], &mut store);
        assert!(a.insert_in(&mut store, 1, &[7, 40]));
        let (e2, c2) = store.acquire(AtomKey::new(1, &[], &[]));
        assert!(!c2);
        let b = FactorizedEngine::new_shared(2, &vars, &[None, Some(e2)], &mut store);
        assert_eq!(b.shared_entry(1), Some(e1));
        assert_eq!(b.live_in(&store, 1), 1);
        let out = [OutCode::Col(0, 0), OutCode::Col(1, 1)];
        let row: Vec<Box<[Code]>> = vec![Box::from([1, 7].as_slice())];
        for eng in [&a, &b] {
            let mut delta = FxHashMap::default();
            eng.drive_in(&store, 0, &row, 1, &out, &mut delta);
            assert_eq!(delta.get([1 as Code, 40].as_slice()).copied(), Some(1));
        }
        // One shared state: a removal through either engine is seen by
        // both.
        assert!(a.remove_in(&mut store, 1, &[7, 40]));
        let mut delta = FxHashMap::default();
        b.drive_in(&store, 0, &row, 1, &out, &mut delta);
        assert!(delta.is_empty());
    }

    #[test]
    fn skewed_hot_key_work_is_width_bounded() {
        // The cliff in miniature: hot b fans out to 1000 R1 rows, but
        // R2 admits only 4 distinct c values. Per driver row the
        // factorized plan intersects {1000 c values} ∩ {4 c values} by
        // iterating the smaller side: work per row stays ~4 + emits.
        let mut eng = FactorizedEngine::new(3, &path_vars());
        for c in 0..1000 {
            eng.insert(1, &[7, c]);
        }
        for c in 0..4 {
            eng.insert(2, &[c, 0]);
        }
        let out = [OutCode::Col(0, 0), OutCode::Col(1, 1)];
        let before = eng.work();
        let delta = drive_once(&eng, 0, &[&[1, 7]], 1, &out);
        let spent = eng.work() - before;
        assert_eq!(delta.len(), 4);
        assert!(
            spent <= 1 + 4 + 4 + 4,
            "work {spent} tracks fan-out, not width"
        );
    }
}
