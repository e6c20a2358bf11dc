//! Compiled form of an SPC selection: predicate pushdown and join
//! variables, shared by [`crate::eval`]'s factorized evaluator and by
//! incremental view maintenance (`cfd-clean::matview`).
//!
//! An SPC query's selection `F` is a flat conjunction over the product
//! columns. For evaluation — one-shot or incremental — the useful
//! decomposition is *per atom*:
//!
//! * `A = 'a'` and `A = B` conjuncts whose columns all sit on one atom
//!   are **local predicates**: they filter that atom's rows before any
//!   join work ([`CompiledSelection::local_consts`],
//!   [`CompiledSelection::local_eqs`]).
//! * The remaining `A = B` conjuncts span two atoms: they are the **join
//!   graph** ([`CompiledSelection::cross_eqs`]).
//!
//! Pushdown is computed on the **transitive closure** of the equality
//! graph: the conjuncts partition the product columns into equivalence
//! classes, a constant anywhere in a class pushes `A = 'a'` to *every*
//! atom holding a column of the class, and two columns of one atom in
//! the same class yield a derived local `A = B` even when no explicit
//! conjunct relates them directly. (Before this closure, `A = 'a' ∧
//! A = B` across atoms left atom `B` unfiltered — every probe paid for
//! rows the constant already excluded.) Constant-free classes that span
//! at least two atoms are the query's **join variables**
//! ([`CompiledSelection::join_vars`]), the input to the width-bounded
//! [`super::factorized::FactorizedPlan`].
//!
//! The compiled form speaks only in atom/attribute positions, so the
//! same split drives value-level evaluation ([`crate::eval::eval_spc`])
//! and code-level maintenance over a dictionary pool.

use super::{ProdCol, SelAtom, SpcQuery};
use crate::value::Value;

/// The selection of an [`SpcQuery`], split for pushdown. See the
/// [module docs](self).
#[derive(Clone, Debug, Default)]
pub struct CompiledSelection {
    /// Per atom: `A = 'a'` constraints local to it, as `(attr,
    /// constant)` — explicit conjuncts plus every constant reached
    /// through the equality closure. Two different constants on one
    /// column make the atom's filter (correctly) unsatisfiable.
    pub local_consts: Vec<Vec<(usize, Value)>>,
    /// Per atom: `A = B` constraints with both columns on it — explicit
    /// conjuncts plus pairs derived from the equality closure.
    pub local_eqs: Vec<Vec<(usize, usize)>>,
    /// `A = B` conjuncts spanning two distinct atoms, as written.
    /// Together with the local predicates they are equivalent to the
    /// whole selection; the nested-loop fixpoint evaluator of recursive
    /// views checks them verbatim.
    pub cross_eqs: Vec<(ProdCol, ProdCol)>,
    /// The join variables: constant-free equivalence classes of product
    /// columns spanning ≥ 2 atoms, each sorted, the list sorted by its
    /// first column. Classes subsumed by a constant are excluded — the
    /// pushed-down `local_consts` already enforce them on every side.
    pub join_vars: Vec<Vec<ProdCol>>,
}

impl CompiledSelection {
    /// Split the selection of `q` (which has `q.atoms.len()` atoms),
    /// closing constants and local equalities over the transitive
    /// equality graph. See the [module docs](self).
    pub fn compile(q: &SpcQuery) -> CompiledSelection {
        let n = q.atoms.len();
        let mut out = CompiledSelection {
            local_consts: vec![Vec::new(); n],
            local_eqs: vec![Vec::new(); n],
            cross_eqs: Vec::new(),
            join_vars: Vec::new(),
        };
        // Union-find over every column mentioned by the selection.
        let mut ids: Vec<ProdCol> = Vec::new();
        let mut parent: Vec<usize> = Vec::new();
        let id_of = |c: ProdCol, ids: &mut Vec<ProdCol>, parent: &mut Vec<usize>| -> usize {
            match ids.iter().position(|&p| p == c) {
                Some(i) => i,
                None => {
                    ids.push(c);
                    parent.push(ids.len() - 1);
                    ids.len() - 1
                }
            }
        };
        fn find(parent: &mut [usize], mut i: usize) -> usize {
            while parent[i] != i {
                parent[i] = parent[parent[i]];
                i = parent[i];
            }
            i
        }
        let mut consts: Vec<(usize, Value)> = Vec::new();
        for s in &q.selection {
            match s {
                SelAtom::EqConst(c, v) => {
                    let i = id_of(*c, &mut ids, &mut parent);
                    consts.push((i, v.clone()));
                }
                SelAtom::Eq(a, b) => {
                    if a.atom != b.atom {
                        out.cross_eqs.push((*a, *b));
                    }
                    let ia = id_of(*a, &mut ids, &mut parent);
                    let ib = id_of(*b, &mut ids, &mut parent);
                    let (ra, rb) = (find(&mut parent, ia), find(&mut parent, ib));
                    if ra != rb {
                        parent[ra.max(rb)] = ra.min(rb);
                    }
                }
            }
        }
        // Group columns into classes (ordered by their smallest member:
        // union-by-min keeps roots minimal, and ids grow in first-seen
        // order — sort members for determinism).
        let mut classes: Vec<(usize, Vec<ProdCol>)> = Vec::new();
        for (i, &id) in ids.iter().enumerate() {
            let r = find(&mut parent, i);
            match classes.iter_mut().find(|(root, _)| *root == r) {
                Some((_, m)) => m.push(id),
                None => classes.push((r, vec![id])),
            }
        }
        for (_, members) in &mut classes {
            members.sort_unstable();
        }
        classes.sort_unstable_by_key(|(_, m)| m[0]);
        // Constants per class, deduplicated and ordered.
        for (root, members) in &classes {
            let mut vals: Vec<&Value> = consts
                .iter()
                .filter(|(i, _)| find(&mut parent, *i) == *root)
                .map(|(_, v)| v)
                .collect();
            vals.sort_unstable();
            vals.dedup();
            // Push every class constant down to every member column.
            for v in &vals {
                for c in members.iter() {
                    out.local_consts[c.atom].push((c.attr, (*v).clone()));
                }
            }
            // Two class columns on one atom: derived local equality.
            for (i, a) in members.iter().enumerate() {
                for b in &members[i + 1..] {
                    if a.atom == b.atom {
                        out.local_eqs[a.atom].push((a.attr, b.attr));
                    }
                }
            }
            // Constant-free classes spanning ≥ 2 atoms are join
            // variables.
            let atoms: Vec<usize> = {
                let mut a: Vec<usize> = members.iter().map(|c| c.atom).collect();
                a.dedup();
                a
            };
            if vals.is_empty() && atoms.len() >= 2 {
                out.join_vars.push(members.clone());
            }
        }
        for lc in &mut out.local_consts {
            lc.sort_unstable();
            lc.dedup();
        }
        for le in &mut out.local_eqs {
            le.sort_unstable();
            le.dedup();
        }
        out
    }

    /// Does `row` (a tuple of atom `atom`'s relation) pass that atom's
    /// local predicates?
    pub fn row_passes_local(&self, atom: usize, row: &[Value]) -> bool {
        self.local_consts[atom].iter().all(|(a, v)| &row[*a] == v)
            && self.local_eqs[atom].iter().all(|(a, b)| row[*a] == row[*b])
    }
}

/// Canonical form of one atom's local equalities, for cross-view
/// state-sharing keys: each pair ordered `a < b`, reflexive pairs
/// dropped, the list sorted and deduplicated. Two positions whose
/// selections differ only in how the equality closure happened to emit
/// derived pairs normalize to the same signature (consumed by
/// `cfd-relalg::query::factorized::AtomKey`).
pub fn canonical_local_eqs(eqs: &[(usize, usize)]) -> Vec<(usize, usize)> {
    let mut out: Vec<(usize, usize)> = eqs
        .iter()
        .filter(|&&(a, b)| a != b)
        .map(|&(a, b)| if a < b { (a, b) } else { (b, a) })
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pc(atom: usize, attr: usize) -> ProdCol {
        ProdCol::new(atom, attr)
    }

    /// A schema-less query skeleton: `compile` only reads `atoms.len()`
    /// and `selection`.
    fn bare(n_atoms: usize, selection: Vec<SelAtom>) -> SpcQuery {
        SpcQuery {
            atoms: (0..n_atoms).map(crate::schema::RelId).collect(),
            constants: vec![],
            selection,
            output: vec![],
        }
    }

    #[test]
    fn splits_local_from_cross() {
        use crate::domain::DomainKind;
        use crate::schema::{Attribute, Catalog, RelationSchema};
        let mut c = Catalog::new();
        let r = c
            .add(
                RelationSchema::new(
                    "R",
                    vec![
                        Attribute::new("A", DomainKind::Int),
                        Attribute::new("B", DomainKind::Int),
                    ],
                )
                .unwrap(),
            )
            .unwrap();
        let mut q = SpcQuery::identity(&c, r);
        q.atoms.push(r);
        q.selection = vec![
            SelAtom::EqConst(pc(0, 0), Value::int(7)),
            SelAtom::Eq(pc(0, 0), pc(0, 1)),
            SelAtom::Eq(pc(0, 1), pc(1, 0)),
        ];
        let cs = CompiledSelection::compile(&q);
        // The whole class {0.0, 0.1, 1.0} is pinned to 7 by closure.
        assert_eq!(
            cs.local_consts[0],
            vec![(0, Value::int(7)), (1, Value::int(7))]
        );
        assert_eq!(cs.local_consts[1], vec![(0, Value::int(7))]);
        assert_eq!(cs.local_eqs[0], vec![(0, 1)]);
        assert_eq!(cs.cross_eqs, vec![(pc(0, 1), pc(1, 0))]);
        // A constant-subsumed class is not a join variable.
        assert!(cs.join_vars.is_empty());
        assert!(cs.row_passes_local(0, &[Value::int(7), Value::int(7)]));
        assert!(!cs.row_passes_local(0, &[Value::int(7), Value::int(8)]));
        assert!(cs.row_passes_local(1, &[Value::int(7), Value::int(2)]));
        assert!(!cs.row_passes_local(1, &[Value::int(1), Value::int(2)]));
    }

    #[test]
    fn transitive_const_reaches_the_far_atom() {
        // Regression: A='a' ∧ A=B across atoms must push B='a' down to
        // atom 1, not leave it unfiltered.
        let q = bare(
            2,
            vec![
                SelAtom::EqConst(pc(0, 0), Value::str("a")),
                SelAtom::Eq(pc(0, 0), pc(1, 1)),
            ],
        );
        let cs = CompiledSelection::compile(&q);
        assert_eq!(cs.local_consts[1], vec![(1, Value::str("a"))]);
        assert!(cs.row_passes_local(1, &[Value::str("x"), Value::str("a")]));
        assert!(!cs.row_passes_local(1, &[Value::str("x"), Value::str("b")]));
        // The constant subsumes the equality: no join variable remains,
        // but the verbatim cross_eqs list is untouched.
        assert!(cs.join_vars.is_empty());
        assert_eq!(cs.cross_eqs.len(), 1);
    }

    #[test]
    fn closure_derives_local_eqs_and_join_vars() {
        // 0.0 = 1.0 ∧ 1.0 = 0.1: atom 0 gains the derived local 0=1,
        // and the whole class is one join variable.
        let q = bare(
            2,
            vec![
                SelAtom::Eq(pc(0, 0), pc(1, 0)),
                SelAtom::Eq(pc(1, 0), pc(0, 1)),
            ],
        );
        let cs = CompiledSelection::compile(&q);
        assert_eq!(cs.local_eqs[0], vec![(0, 1)]);
        assert_eq!(cs.join_vars, vec![vec![pc(0, 0), pc(0, 1), pc(1, 0)]]);
        assert_eq!(cs.cross_eqs.len(), 2);
    }

    #[test]
    fn conflicting_class_constants_are_unsatisfiable() {
        let q = bare(
            2,
            vec![
                SelAtom::EqConst(pc(0, 0), Value::int(1)),
                SelAtom::Eq(pc(0, 0), pc(1, 0)),
                SelAtom::EqConst(pc(1, 0), Value::int(2)),
            ],
        );
        let cs = CompiledSelection::compile(&q);
        // Both constants land on both columns: no row passes anywhere.
        assert!(!cs.row_passes_local(0, &[Value::int(1)]));
        assert!(!cs.row_passes_local(0, &[Value::int(2)]));
        assert!(!cs.row_passes_local(1, &[Value::int(1)]));
    }
}
