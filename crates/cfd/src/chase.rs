//! A generic CFD chase over instances with variables.
//!
//! The appendix of the paper extends the classical chase to CFDs (proofs of
//! Theorems 3.1, 3.5, 3.7). The engine here works on a *chase instance*: a
//! bag of rows whose cells are union–find nodes ([`TermUf`]) that may be
//! bound to constants. Rows are partitioned into *groups* (one group per
//! relation schema); a set of CFDs is attached to each group.
//!
//! Chase rules, for each group `g`, each CFD `φ = (X → B, tp)` on `g`, and
//! each (unordered, possibly identical) pair of rows `t1, t2` of `g`:
//!
//! * if for every `C ∈ X`: `t1[C]` and `t2[C]` are equal (same class or same
//!   constant) and, when `tp[C]` is a constant `c`, bound to `c` — then
//!   unify `t1[B], t2[B]`, and bind them to `tp[B]` when it is a constant;
//! * for `φ = (A → B, (x ‖ x))`: unify `t[A], t[B]` in every row `t`.
//!
//! A binding/unification conflict makes the chase *undefined* ([`Clash`]),
//! which the decision procedures interpret per the paper (e.g. "the view is
//! necessarily empty").

use crate::cfd::Cfd;
use cfd_relalg::unify::{Clash, TermUf};
use std::borrow::Borrow;

/// A row of a chase instance.
#[derive(Clone, Debug)]
pub struct ChaseRow {
    /// Which group (relation) the row belongs to.
    pub group: usize,
    /// One union–find node per attribute.
    pub cells: Vec<u32>,
}

/// A chase instance: shared term structure + rows.
#[derive(Clone, Debug, Default)]
pub struct ChaseInstance {
    /// The term union–find.
    pub uf: TermUf,
    /// The rows.
    pub rows: Vec<ChaseRow>,
}

impl ChaseInstance {
    /// An empty instance.
    pub fn new() -> Self {
        ChaseInstance::default()
    }

    /// Add a row of pre-allocated nodes.
    pub fn push_row(&mut self, group: usize, cells: Vec<u32>) -> usize {
        self.rows.push(ChaseRow { group, cells });
        self.rows.len() - 1
    }

    /// Run the chase to fixpoint with `sigma[g]` attached to group `g`.
    /// The groups are borrowed: a slice or vector of CFDs, or of `&Cfd`.
    ///
    /// Returns `Err(clash)` when the chase is undefined.
    pub fn chase<G, C>(&mut self, sigma: &[G]) -> Result<(), Clash>
    where
        G: AsRef<[C]>,
        C: Borrow<Cfd>,
    {
        // Row membership per group is fixed for the duration of the chase.
        let mut rows_of: Vec<Vec<usize>> = vec![Vec::new(); sigma.len()];
        for (i, r) in self.rows.iter().enumerate() {
            if r.group < sigma.len() {
                rows_of[r.group].push(i);
            }
        }
        loop {
            let mut changed = false;
            for g in 0..sigma.len() {
                let rows = &rows_of[g];
                for cfd in sigma[g].as_ref() {
                    let cfd = cfd.borrow();
                    if let Some((a, b)) = cfd.as_attr_eq() {
                        for &i in rows {
                            let (ca, cb) = (self.rows[i].cells[a], self.rows[i].cells[b]);
                            changed |= self.uf.union(ca, cb)?;
                        }
                        continue;
                    }
                    for (pi, &i) in rows.iter().enumerate() {
                        for &j in &rows[pi..] {
                            changed |= self.apply_std(cfd, i, j)?;
                        }
                    }
                }
            }
            if !changed {
                return Ok(());
            }
        }
    }

    /// Apply a standard CFD to the row pair `(i, j)` (possibly `i == j`).
    fn apply_std(&mut self, cfd: &Cfd, i: usize, j: usize) -> Result<bool, Clash> {
        // Premise: t_i[X] = t_j[X] ≍ tp[X].
        for (a, pat) in cfd.lhs() {
            let (ca, cb) = (self.rows[i].cells[*a], self.rows[j].cells[*a]);
            if !self.uf.equal(ca, cb) {
                return Ok(false);
            }
            if let Some(c) = pat.as_const() {
                if !self.uf.is_bound_to(ca, c) {
                    return Ok(false);
                }
            }
        }
        // Conclusion: t_i[B] = t_j[B] ≍ tp[B].
        let b = cfd.rhs_attr();
        let (cb1, cb2) = (self.rows[i].cells[b], self.rows[j].cells[b]);
        let mut changed = self.uf.union(cb1, cb2)?;
        if let Some(c) = cfd.rhs_pattern().as_const() {
            changed |= self.uf.bind(cb1, c.clone())?;
        }
        Ok(changed)
    }

    /// Are two cells equal in the current state (same class or same bound
    /// constant)?
    pub fn cells_equal(&mut self, a: u32, b: u32) -> bool {
        self.uf.equal(a, b)
    }

    /// The unbound finite-domain classes of this instance, as
    /// `(representative, domain values)` pairs. These are exactly the
    /// variables the general-setting procedures must instantiate
    /// (appendix proofs of Thms 3.2, 3.3, 3.7).
    pub fn finite_classes(&mut self) -> Vec<(u32, Vec<cfd_relalg::Value>)> {
        let mut seen: Vec<u32> = Vec::new();
        let mut out = Vec::new();
        let nodes: Vec<u32> = self
            .rows
            .iter()
            .flat_map(|r| r.cells.iter().copied())
            .collect();
        for n in nodes {
            let r = self.uf.find(n);
            if seen.contains(&r) || self.uf.binding(r).is_some() {
                continue;
            }
            seen.push(r);
            if let Some(vs) = self.uf.class_domain(r).finite_values() {
                out.push((r, vs));
            }
        }
        out
    }
}

/// Run `f` on every *ground instantiation* of the unbound finite-domain
/// classes of `inst` that can influence rule firing, short-circuiting
/// (returning `true`) as soon as `f` returns `true`.
///
/// This is the nondeterministic-guess step of the paper's coNP upper-bound
/// proofs, made deterministic by exhaustive (depth-first) enumeration, with
/// two completeness-preserving optimizations:
///
/// * **Relevance filtering.** Only classes with a cell in some column that
///   appears on the LHS of a CFD of that row's group are enumerated.
///   A CFD premise compares cells of LHS columns exclusively, so the values
///   of other classes can never enable or disable a rule; their forced
///   values are produced by the chase, and any still-free class can take
///   arbitrary domain values afterwards. (Singleton-domain classes are
///   bound upfront so that "free class" always means "at least two values
///   available" — which is what the violation checks rely on.)
/// * **DFS with propagation.** Classes are bound one at a time, re-chasing
///   after each binding, so conflicting partial assignments are pruned
///   without expanding their exponentially many extensions.
pub fn any_ground_instantiation<G, C>(
    inst: &ChaseInstance,
    sigma: &[G],
    f: &mut dyn FnMut(&mut ChaseInstance) -> bool,
) -> bool
where
    G: AsRef<[C]>,
    C: Borrow<Cfd>,
{
    let mut base = inst.clone();
    if base.chase(sigma).is_err() {
        return false;
    }
    // Bind singleton-domain classes upfront.
    loop {
        let singles: Vec<(u32, Vec<cfd_relalg::Value>)> = base
            .finite_classes()
            .into_iter()
            .filter(|(_, vs)| vs.len() == 1)
            .collect();
        if singles.is_empty() {
            break;
        }
        for (rep, vs) in singles {
            if base.uf.binding(rep).is_none() && base.uf.bind(rep, vs[0].clone()).is_err() {
                return false;
            }
        }
        if base.chase(sigma).is_err() {
            return false;
        }
    }
    // Columns that can gate a rule, per group.
    let mut lhs_cols: Vec<Vec<usize>> = vec![Vec::new(); sigma.len()];
    for (g, cfds) in sigma.iter().enumerate() {
        for c in cfds.as_ref() {
            let c = c.borrow();
            if c.as_attr_eq().is_some() {
                continue; // fires unconditionally
            }
            for a in c.lhs_attrs() {
                if !lhs_cols[g].contains(&a) {
                    lhs_cols[g].push(a);
                }
            }
        }
    }
    let mut relevant_roots: Vec<u32> = Vec::new();
    let rows = base.rows.clone();
    for row in &rows {
        for &col in lhs_cols.get(row.group).map(|v| v.as_slice()).unwrap_or(&[]) {
            let root = base.uf.find(row.cells[col]);
            if base.uf.binding(root).is_none()
                && base.uf.class_domain(root).is_finite()
                && !relevant_roots.contains(&root)
            {
                relevant_roots.push(root);
            }
        }
    }
    dfs(&base, sigma, &relevant_roots, f)
}

fn dfs<G, C>(
    inst: &ChaseInstance,
    sigma: &[G],
    pending: &[u32],
    f: &mut dyn FnMut(&mut ChaseInstance) -> bool,
) -> bool
where
    G: AsRef<[C]>,
    C: Borrow<Cfd>,
{
    // Find the next still-unbound pending class (earlier bindings may have
    // merged or bound later ones through the chase).
    let mut cur = inst.clone();
    let mut idx = None;
    for (i, &root) in pending.iter().enumerate() {
        if cur.uf.binding(root).is_none() {
            idx = Some(i);
            break;
        }
    }
    let Some(i) = idx else {
        let mut trial = cur;
        return f(&mut trial);
    };
    let root = pending[i];
    let values = cur
        .uf
        .class_domain(root)
        .finite_values()
        .expect("pending classes have finite domains");
    for v in values {
        let mut trial = inst.clone();
        if trial.uf.bind(root, v).is_err() {
            continue;
        }
        if trial.chase(sigma).is_err() {
            continue;
        }
        if dfs(&trial, sigma, &pending[i + 1..], f) {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Pattern;
    use cfd_relalg::{DomainKind, Value};

    /// Build an instance with `rows` rows of `arity` fresh int-domain nodes,
    /// all in group 0.
    fn instance(rows: usize, arity: usize) -> ChaseInstance {
        let mut inst = ChaseInstance::new();
        for _ in 0..rows {
            let cells: Vec<u32> = (0..arity).map(|_| inst.uf.add(DomainKind::Int)).collect();
            inst.push_row(0, cells);
        }
        inst
    }

    #[test]
    fn fd_equates_rhs_when_lhs_unified() {
        let mut inst = instance(2, 2);
        let (a0, a1) = (inst.rows[0].cells[0], inst.rows[1].cells[0]);
        inst.uf.union(a0, a1).unwrap();
        let sigma = vec![vec![Cfd::fd(&[0], 1).unwrap()]];
        inst.chase(&sigma).unwrap();
        let (b0, b1) = (inst.rows[0].cells[1], inst.rows[1].cells[1]);
        assert!(inst.cells_equal(b0, b1));
    }

    #[test]
    fn fd_does_not_fire_without_premise() {
        let mut inst = instance(2, 2);
        let sigma = vec![vec![Cfd::fd(&[0], 1).unwrap()]];
        inst.chase(&sigma).unwrap();
        let (b0, b1) = (inst.rows[0].cells[1], inst.rows[1].cells[1]);
        assert!(!inst.cells_equal(b0, b1));
    }

    #[test]
    fn constant_lhs_gates_the_rule() {
        // ([A] → B, (5 ‖ 9)) fires only when A is bound to 5
        let phi = Cfd::new(vec![(0, Pattern::cst(5))], 1, Pattern::cst(9)).unwrap();
        let mut inst = instance(1, 2);
        inst.chase(&[vec![phi.clone()]]).unwrap();
        assert_eq!(inst.uf.binding(inst.rows[0].cells[1]), None);

        let a = inst.rows[0].cells[0];
        inst.uf.bind(a, Value::int(5)).unwrap();
        inst.chase(&[vec![phi]]).unwrap();
        assert_eq!(inst.uf.binding(inst.rows[0].cells[1]), Some(Value::int(9)));
    }

    #[test]
    fn transitive_chain_fires() {
        // A → B, B → C: unifying A of both rows forces C equal
        let mut inst = instance(2, 3);
        let (a0, a1) = (inst.rows[0].cells[0], inst.rows[1].cells[0]);
        inst.uf.union(a0, a1).unwrap();
        let sigma = vec![vec![Cfd::fd(&[0], 1).unwrap(), Cfd::fd(&[1], 2).unwrap()]];
        inst.chase(&sigma).unwrap();
        assert!(inst.cells_equal(inst.rows[0].cells[2], inst.rows[1].cells[2]));
    }

    #[test]
    fn clash_on_conflicting_constants() {
        // two const-col CFDs force A = 1 and A = 2
        let sigma = vec![vec![Cfd::const_col(0, 1i64), Cfd::const_col(0, 2i64)]];
        let mut inst = instance(1, 1);
        assert!(inst.chase(&sigma).is_err());
    }

    #[test]
    fn attr_eq_unifies_within_row() {
        let mut inst = instance(1, 2);
        let sigma = vec![vec![Cfd::attr_eq(0, 1).unwrap()]];
        inst.chase(&sigma).unwrap();
        assert!(inst.cells_equal(inst.rows[0].cells[0], inst.rows[0].cells[1]));
    }

    #[test]
    fn groups_are_independent() {
        let mut inst = ChaseInstance::new();
        for g in 0..2 {
            let cells: Vec<u32> = (0..2).map(|_| inst.uf.add(DomainKind::Int)).collect();
            inst.push_row(g, cells);
        }
        // group 0: constant column; group 1: no CFDs
        let sigma = vec![vec![Cfd::const_col(0, 7i64)], vec![]];
        inst.chase(&sigma).unwrap();
        assert_eq!(inst.uf.binding(inst.rows[0].cells[0]), Some(Value::int(7)));
        assert_eq!(inst.uf.binding(inst.rows[1].cells[0]), None);
    }

    #[test]
    fn identity_pair_applies_constant_rule() {
        // (A → B, (_ ‖ 3)): every single tuple must have B = 3
        let phi = Cfd::new(vec![(0, Pattern::Wild)], 1, Pattern::cst(3)).unwrap();
        let mut inst = instance(1, 2);
        inst.chase(&[vec![phi]]).unwrap();
        assert_eq!(inst.uf.binding(inst.rows[0].cells[1]), Some(Value::int(3)));
    }

    #[test]
    fn premise_matching_uses_constants_not_just_classes() {
        // rows share constant 4 in A without being unified
        let mut inst = instance(2, 2);
        inst.uf.bind(inst.rows[0].cells[0], Value::int(4)).unwrap();
        inst.uf.bind(inst.rows[1].cells[0], Value::int(4)).unwrap();
        let sigma = vec![vec![Cfd::fd(&[0], 1).unwrap()]];
        inst.chase(&sigma).unwrap();
        assert!(inst.cells_equal(inst.rows[0].cells[1], inst.rows[1].cells[1]));
    }
}
