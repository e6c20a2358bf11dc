//! SPC and SPCU queries in the paper's normal form (§2.2).
//!
//! An SPC query is `πY(Rc × Es)` with `Es = σF(Ec)`, `Ec = R1 × ... × Rn`,
//! where:
//! * `Rc` is a constant relation `{(A1: a1, ..., Am: am)}`,
//! * each `Rj` is a renamed copy `ρj(S)` of a base relation (we keep atoms
//!   positionally, so renaming-apart is implicit: product column `(j, k)` is
//!   the `k`-th attribute of the `j`-th atom),
//! * `F` is a conjunction of equality atoms `A = B` and `A = 'a'`,
//! * `Y` projects output columns from `Rc × Ec`.
//!
//! An SPCU query is a union `V1 ∪ ... ∪ Vn` of union-compatible SPC queries.

mod builder;
pub mod compiled;
pub mod factorized;
mod fragment;

pub use builder::{RaCond, RaExpr};
pub use compiled::{canonical_local_eqs, CompiledSelection};
pub use factorized::{AtomKey, FactorizedEngine, FactorizedPlan, OutCode, TrieStore};
pub use fragment::Fragment;

use crate::domain::DomainKind;
use crate::error::RelalgError;
use crate::schema::{Catalog, RelId};
use crate::value::Value;
use std::fmt;

/// A column of the product `Ec = R1 × ... × Rn`: atom position + attribute
/// position within that atom's base relation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProdCol {
    /// Index of the relation atom in the product.
    pub atom: usize,
    /// Attribute position within the atom's base relation schema.
    pub attr: usize,
}

impl ProdCol {
    /// Construct a product column reference.
    pub fn new(atom: usize, attr: usize) -> Self {
        ProdCol { atom, attr }
    }
}

/// One conjunct of the selection condition `F`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SelAtom {
    /// `A = B` over two product columns.
    Eq(ProdCol, ProdCol),
    /// `A = 'a'` for a constant `a ∈ dom(A)`.
    EqConst(ProdCol, Value),
}

/// A cell of the constant relation `Rc`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConstCell {
    /// Output attribute name.
    pub name: String,
    /// The constant value.
    pub value: Value,
    /// Domain of the introduced attribute.
    pub domain: DomainKind,
}

/// Source of an output column: either a product column or a constant cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColRef {
    /// A column of `Ec`.
    Prod(ProdCol),
    /// Index into [`SpcQuery::constants`].
    Const(usize),
}

/// A named output column of an SPC query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OutputCol {
    /// Name in the view schema.
    pub name: String,
    /// Where the value comes from.
    pub src: ColRef,
}

/// An SPC query in normal form. See the module docs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpcQuery {
    /// The relation atoms `R1, ..., Rn` (base relations; renamed apart
    /// positionally).
    pub atoms: Vec<RelId>,
    /// The constant relation `Rc`.
    pub constants: Vec<ConstCell>,
    /// The selection condition `F` (conjunction).
    pub selection: Vec<SelAtom>,
    /// The projection list `Y`.
    pub output: Vec<OutputCol>,
}

impl SpcQuery {
    /// A query over a single base relation projecting all its columns
    /// (the identity mapping on `rel`).
    pub fn identity(catalog: &Catalog, rel: RelId) -> Self {
        let schema = catalog.schema(rel);
        SpcQuery {
            atoms: vec![rel],
            constants: vec![],
            selection: vec![],
            output: schema
                .attributes
                .iter()
                .enumerate()
                .map(|(i, a)| OutputCol {
                    name: a.name.clone(),
                    src: ColRef::Prod(ProdCol::new(0, i)),
                })
                .collect(),
        }
    }

    /// Validate internal references and naming against `catalog`.
    pub fn validate(&self, catalog: &Catalog) -> Result<(), RelalgError> {
        let check_col = |c: &ProdCol| -> Result<(), RelalgError> {
            let rel = *self
                .atoms
                .get(c.atom)
                .ok_or_else(|| RelalgError::BadColumnRef(format!("atom {}", c.atom)))?;
            if c.attr >= catalog.schema(rel).arity() {
                return Err(RelalgError::BadColumnRef(format!(
                    "atom {} attr {}",
                    c.atom, c.attr
                )));
            }
            Ok(())
        };
        for s in &self.selection {
            match s {
                SelAtom::Eq(a, b) => {
                    check_col(a)?;
                    check_col(b)?;
                }
                SelAtom::EqConst(a, v) => {
                    check_col(a)?;
                    let rel = self.atoms[a.atom];
                    let attr = &catalog.schema(rel).attributes[a.attr];
                    if !attr.domain.contains(v) {
                        return Err(RelalgError::SelectionDomainMismatch {
                            attribute: attr.name.clone(),
                            value: v.to_string(),
                        });
                    }
                }
            }
        }
        for (i, o) in self.output.iter().enumerate() {
            if self.output[..i].iter().any(|p| p.name == o.name) {
                return Err(RelalgError::NameCollision(o.name.clone()));
            }
            match o.src {
                ColRef::Prod(c) => check_col(&c)?,
                ColRef::Const(k) => {
                    if k >= self.constants.len() {
                        return Err(RelalgError::BadColumnRef(format!("const {k}")));
                    }
                }
            }
        }
        for (i, c) in self.constants.iter().enumerate() {
            if !c.domain.contains(&c.value) {
                return Err(RelalgError::SelectionDomainMismatch {
                    attribute: c.name.clone(),
                    value: c.value.to_string(),
                });
            }
            if self.constants[..i].iter().any(|p| p.name == c.name) {
                return Err(RelalgError::NameCollision(c.name.clone()));
            }
        }
        Ok(())
    }

    /// The view schema: output attribute names and domains.
    pub fn view_schema(&self, catalog: &Catalog) -> ViewSchema {
        let columns = self
            .output
            .iter()
            .map(|o| {
                let domain = match o.src {
                    ColRef::Prod(c) => catalog.schema(self.atoms[c.atom]).attributes[c.attr]
                        .domain
                        .clone(),
                    ColRef::Const(k) => self.constants[k].domain.clone(),
                };
                (o.name.clone(), domain)
            })
            .collect();
        ViewSchema { columns }
    }

    /// Which operators the query uses (see [`Fragment`]).
    pub fn fragment(&self, catalog: &Catalog) -> Fragment {
        fragment::classify_spc(self, catalog)
    }

    /// Output position of column `name`.
    pub fn output_index(&self, name: &str) -> Option<usize> {
        self.output.iter().position(|o| o.name == name)
    }

    /// Total number of product columns (`|attr(Ec)|`).
    pub fn product_width(&self, catalog: &Catalog) -> usize {
        self.atoms.iter().map(|r| catalog.schema(*r).arity()).sum()
    }
}

/// The schema of a view: named, typed output columns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ViewSchema {
    /// Output column names and domains, in order.
    pub columns: Vec<(String, DomainKind)>,
}

impl ViewSchema {
    /// Number of output columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Position of column `name`.
    pub fn col_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|(n, _)| n == name)
    }

    /// Column names in order.
    pub fn names(&self) -> Vec<String> {
        self.columns.iter().map(|(n, _)| n.clone()).collect()
    }

    /// Does any output column have a finite domain?
    pub fn has_finite_domain_attr(&self) -> bool {
        self.columns.iter().any(|(_, d)| d.is_finite())
    }
}

/// An SPCU query: a union of union-compatible SPC branches.
///
/// Zero branches denote the empty query (arises when normalization discovers
/// a branch whose selection is unsatisfiable on constants); such a query has
/// no intrinsic schema, so constructors require an explicit schema.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpcuQuery {
    /// The union branches.
    pub branches: Vec<SpcQuery>,
    schema: ViewSchema,
}

impl SpcuQuery {
    /// Wrap a single SPC query.
    pub fn single(catalog: &Catalog, q: SpcQuery) -> Result<Self, RelalgError> {
        q.validate(catalog)?;
        let schema = q.view_schema(catalog);
        Ok(SpcuQuery {
            branches: vec![q],
            schema,
        })
    }

    /// Build a union, checking compatibility (same column names & domains).
    pub fn union(catalog: &Catalog, branches: Vec<SpcQuery>) -> Result<Self, RelalgError> {
        let first = branches
            .first()
            .ok_or_else(|| RelalgError::UnionIncompatible("empty union".into()))?;
        first.validate(catalog)?;
        let schema = first.view_schema(catalog);
        for b in &branches[1..] {
            b.validate(catalog)?;
            let s = b.view_schema(catalog);
            if s != schema {
                return Err(RelalgError::UnionIncompatible(format!(
                    "branch schema {:?} differs from {:?}",
                    s.names(),
                    schema.names()
                )));
            }
        }
        Ok(SpcuQuery { branches, schema })
    }

    /// An empty query with the given schema.
    pub fn empty(schema: ViewSchema) -> Self {
        SpcuQuery {
            branches: vec![],
            schema,
        }
    }

    /// The (shared) view schema.
    pub fn schema(&self) -> &ViewSchema {
        &self.schema
    }

    /// Operator usage across all branches.
    pub fn fragment(&self, catalog: &Catalog) -> Fragment {
        let mut f = self
            .branches
            .iter()
            .map(|b| b.fragment(catalog))
            .fold(Fragment::default(), Fragment::join);
        f.union = self.branches.len() > 1;
        f
    }
}

impl fmt::Display for SpcQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "π[")?;
        for (i, o) in self.output.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match o.src {
                ColRef::Prod(c) => write!(f, "{}=col[{}.{}]", o.name, c.atom, c.attr)?,
                ColRef::Const(k) => write!(f, "{}={}", o.name, self.constants[k].value)?,
            }
        }
        write!(f, "] σ[")?;
        for (i, s) in self.selection.iter().enumerate() {
            if i > 0 {
                write!(f, " ∧ ")?;
            }
            match s {
                SelAtom::Eq(a, b) => write!(f, "{}.{}={}.{}", a.atom, a.attr, b.atom, b.attr)?,
                SelAtom::EqConst(a, v) => write!(f, "{}.{}={}", a.atom, a.attr, v)?,
            }
        }
        write!(
            f,
            "] × atoms {:?}",
            self.atoms.iter().map(|r| r.0).collect::<Vec<_>>()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Attribute, RelationSchema};

    fn catalog() -> (Catalog, RelId, RelId) {
        let mut c = Catalog::new();
        let r1 = c
            .add(
                RelationSchema::new(
                    "R1",
                    vec![
                        Attribute::new("A", DomainKind::Int),
                        Attribute::new("B", DomainKind::Int),
                    ],
                )
                .unwrap(),
            )
            .unwrap();
        let r2 = c
            .add(
                RelationSchema::new(
                    "R2",
                    vec![
                        Attribute::new("C", DomainKind::Int),
                        Attribute::new("D", DomainKind::Bool),
                    ],
                )
                .unwrap(),
            )
            .unwrap();
        (c, r1, r2)
    }

    #[test]
    fn identity_query_schema() {
        let (c, r1, _) = catalog();
        let q = SpcQuery::identity(&c, r1);
        q.validate(&c).unwrap();
        let s = q.view_schema(&c);
        assert_eq!(s.names(), vec!["A", "B"]);
        assert!(!q.fragment(&c).selection);
        assert!(!q.fragment(&c).projection);
        assert!(!q.fragment(&c).product);
    }

    #[test]
    fn validation_rejects_bad_refs() {
        let (c, r1, _) = catalog();
        let mut q = SpcQuery::identity(&c, r1);
        q.selection
            .push(SelAtom::EqConst(ProdCol::new(0, 9), Value::int(1)));
        assert!(q.validate(&c).is_err());

        let mut q = SpcQuery::identity(&c, r1);
        q.selection
            .push(SelAtom::EqConst(ProdCol::new(0, 0), Value::str("oops")));
        assert!(matches!(
            q.validate(&c),
            Err(RelalgError::SelectionDomainMismatch { .. })
        ));
    }

    #[test]
    fn validation_rejects_duplicate_output_names() {
        let (c, r1, _) = catalog();
        let mut q = SpcQuery::identity(&c, r1);
        q.output[1].name = "A".into();
        assert!(matches!(q.validate(&c), Err(RelalgError::NameCollision(_))));
    }

    #[test]
    fn union_compatibility() {
        let (c, r1, r2) = catalog();
        let q1 = SpcQuery::identity(&c, r1);
        let q2 = SpcQuery::identity(&c, r2);
        assert!(SpcuQuery::union(&c, vec![q1.clone(), q1.clone()]).is_ok());
        assert!(SpcuQuery::union(&c, vec![q1, q2]).is_err());
    }

    #[test]
    fn constant_cell_domain_checked() {
        let (c, r1, _) = catalog();
        let mut q = SpcQuery::identity(&c, r1);
        q.constants.push(ConstCell {
            name: "CC".into(),
            value: Value::int(44),
            domain: DomainKind::Text,
        });
        q.output.push(OutputCol {
            name: "CC".into(),
            src: ColRef::Const(0),
        });
        assert!(q.validate(&c).is_err());
    }
}
