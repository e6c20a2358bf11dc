//! Evaluation of SPC and SPCU queries over database instances.
//!
//! This is the semantic ground truth used by the test suite: a dependency φ
//! is propagated (`Σ |=V φ`) iff `V(D) |= φ` for *every* `D |= Σ`; the
//! decision procedures are cross-validated against actual evaluation on
//! witness databases.

use crate::instance::{Database, Relation, Tuple};
use crate::pool::{Code, ValuePool};
use crate::query::{
    ColRef, CompiledSelection, FactorizedEngine, OutCode, SelAtom, SpcQuery, SpcuQuery, ViewSchema,
};
use crate::schema::{Attribute, Catalog, RelId, RelationSchema};
use crate::value::Value;
use crate::RelalgError;
use rustc_hash::FxHashMap;

/// Evaluate an SPC query on `db`, producing the view instance (set
/// semantics).
///
/// Multi-atom queries dispatch to the width-bounded factorized
/// evaluator ([`eval_spc_factorized`]): per driver row, work is bounded
/// by per-variable intersections plus derivations actually emitted —
/// never intermediate join size. Single-atom (and pure-constant)
/// queries fall back to [`eval_spc_nested`], whose enumeration *is* the
/// answer in that case. The nested-loop evaluator stays public as the
/// property-tested reference.
pub fn eval_spc(q: &SpcQuery, catalog: &Catalog, db: &Database) -> Relation {
    if q.atoms.len() >= 2 {
        return eval_spc_factorized(q, catalog, db);
    }
    eval_spc_nested(q, catalog, db)
}

/// Factorized evaluation: compile the selection (with transitive
/// constant pushdown), intern the filtered atom rows into a scratch
/// pool, and drive a [`FactorizedEngine`] with the first atom's rows.
pub fn eval_spc_factorized(q: &SpcQuery, catalog: &Catalog, db: &Database) -> Relation {
    let n = q.atoms.len();
    if n == 0 {
        return eval_spc_nested(q, catalog, db);
    }
    let sel = CompiledSelection::compile(q);
    let mut pool = ValuePool::new();
    let mut engine = FactorizedEngine::new(n, &sel.join_vars);
    let mut driver_rows: Vec<Box<[Code]>> = Vec::new();
    for (j, rel) in q.atoms.iter().enumerate() {
        for t in db.relation(*rel).tuples() {
            if !sel.row_passes_local(j, t) {
                continue;
            }
            let codes: Box<[Code]> = t.iter().map(|v| pool.intern(v)).collect();
            if j == 0 {
                driver_rows.push(codes.clone());
            }
            engine.insert(j, &codes);
        }
    }
    let out: Vec<OutCode> = q
        .output
        .iter()
        .map(|o| match o.src {
            ColRef::Prod(c) => OutCode::Col(c.atom, c.attr),
            ColRef::Const(k) => OutCode::Const(pool.intern(&q.constants[k].value)),
        })
        .collect();
    let mut delta: FxHashMap<Box<[Code]>, i64> = FxHashMap::default();
    engine.drive(0, &driver_rows, 1, &out, &mut delta);
    let mut rel = Relation::new();
    for (key, cnt) in &delta {
        debug_assert!(*cnt > 0, "one-shot derivation counts are positive");
        rel.insert(key.iter().map(|&c| pool.value(c).clone()).collect());
    }
    let _ = catalog;
    rel
}

/// Evaluate an SPC query by plain product enumeration (the semantic
/// reference the factorized fast path is property-tested against).
pub fn eval_spc_nested(q: &SpcQuery, catalog: &Catalog, db: &Database) -> Relation {
    let mut out = Relation::new();
    // Materialize the atom instances as slices of tuples.
    let atom_tuples: Vec<Vec<&Tuple>> = q
        .atoms
        .iter()
        .map(|r| db.relation(*r).tuples().collect())
        .collect();
    // Guard: an empty atom relation makes the whole product empty.
    if atom_tuples.iter().any(|ts| ts.is_empty()) && !q.atoms.is_empty() {
        return out;
    }
    let _ = catalog; // atoms are positionally resolved; catalog kept for symmetry
    let n = q.atoms.len();
    let mut idx = vec![0usize; n];
    loop {
        // Current combination of tuples.
        let combo: Vec<&Tuple> = (0..n).map(|j| atom_tuples[j][idx[j]]).collect();
        if selection_holds(&q.selection, &combo) {
            let row: Tuple = q
                .output
                .iter()
                .map(|o| match o.src {
                    ColRef::Prod(c) => combo[c.atom][c.attr].clone(),
                    ColRef::Const(k) => q.constants[k].value.clone(),
                })
                .collect();
            out.insert(row);
        }
        // Advance the odometer; with n == 0 run the single empty combination
        // once (a pure constant relation yields exactly one tuple).
        if n == 0 {
            break;
        }
        let mut j = n;
        loop {
            if j == 0 {
                return out;
            }
            j -= 1;
            idx[j] += 1;
            if idx[j] < atom_tuples[j].len() {
                break;
            }
            idx[j] = 0;
        }
    }
    out
}

fn selection_holds(selection: &[SelAtom], combo: &[&Tuple]) -> bool {
    selection.iter().all(|s| match s {
        SelAtom::Eq(a, b) => combo[a.atom][a.attr] == combo[b.atom][b.attr],
        SelAtom::EqConst(a, v) => &combo[a.atom][a.attr] == v,
    })
}

/// Evaluate an SPCU query on `db` (union of the branch results).
pub fn eval_spcu(q: &SpcuQuery, catalog: &Catalog, db: &Database) -> Relation {
    let mut out = Relation::new();
    for b in &q.branches {
        for t in eval_spc(b, catalog, db).tuples() {
            out.insert(t.clone());
        }
    }
    out
}

/// Extend `base` with one relation schema per named view, in order:
/// view `k` becomes `RelId(base.len() + k)`. This is the catalog of
/// the *extended node space* a stacked-view store evaluates in — base
/// relations first, then every view slot.
pub fn catalog_with_views(
    base: &Catalog,
    views: &[(String, ViewSchema)],
) -> Result<Catalog, RelalgError> {
    let mut ext = base.clone();
    for (name, schema) in views {
        let attrs = schema
            .columns
            .iter()
            .map(|(n, d)| Attribute::new(n.clone(), d.clone()))
            .collect();
        ext.add(RelationSchema::new(name.clone(), attrs)?)?;
    }
    Ok(ext)
}

/// Bottom-up reference evaluation of a stack of SPCU views whose atoms
/// may be base relations *or other views*: view `k` reads node
/// `RelId(n_base + k)` of `ext` (see [`catalog_with_views`]). Repeated
/// [`eval_spcu`] passes run to a fixed point, so the result is exact
/// for any dependency DAG in any order — and, because SPCU is
/// monotone, it is the *least* fixed point for cyclic stacks too
/// (naive Kleene iteration from the empty instance). This is the
/// fresh-eval oracle the differential harnesses compare maintained
/// views against.
pub fn eval_stacked(
    ext: &Catalog,
    n_base: usize,
    views: &[SpcuQuery],
    db: &Database,
) -> Vec<Relation> {
    let mut work = Database::empty(ext);
    for i in 0..n_base {
        *work.relation_mut(RelId(i)) = db.relation(RelId(i)).clone();
    }
    loop {
        let mut changed = false;
        for (k, q) in views.iter().enumerate() {
            let out = eval_spcu(q, ext, &work);
            let slot = RelId(n_base + k);
            if &out != work.relation(slot) {
                *work.relation_mut(slot) = out;
                changed = true;
            }
        }
        if !changed {
            return (0..views.len())
                .map(|k| work.relation(RelId(n_base + k)).clone())
                .collect();
        }
    }
}

/// Helper for tests/examples: collect a relation into sorted `Vec<Tuple>`.
pub fn sorted_tuples(r: &Relation) -> Vec<Tuple> {
    r.tuples().cloned().collect()
}

/// Helper for constructing tuples out of displayable values.
pub fn row(values: &[Value]) -> Tuple {
    values.to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::DomainKind;
    use crate::query::{RaCond, RaExpr};
    use crate::schema::{Attribute, RelId, RelationSchema};

    fn setup() -> (Catalog, RelId, RelId) {
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
                        Attribute::new("D", DomainKind::Int),
                    ],
                )
                .unwrap(),
            )
            .unwrap();
        (c, r1, r2)
    }

    #[test]
    fn select_project_evaluates() {
        let (c, r1, _) = setup();
        let mut db = Database::empty(&c);
        db.insert(r1, vec![Value::int(5), Value::int(10)]);
        db.insert(r1, vec![Value::int(6), Value::int(20)]);
        let v = RaExpr::rel("R1")
            .select(vec![RaCond::EqConst("A".into(), Value::int(5))])
            .project(&["B"])
            .normalize(&c)
            .unwrap();
        let out = eval_spcu(&v, &c, &db);
        assert_eq!(sorted_tuples(&out), vec![vec![Value::int(10)]]);
    }

    #[test]
    fn product_with_join_condition() {
        let (c, r1, r2) = setup();
        let mut db = Database::empty(&c);
        db.insert(r1, vec![Value::int(1), Value::int(2)]);
        db.insert(r1, vec![Value::int(3), Value::int(4)]);
        db.insert(r2, vec![Value::int(1), Value::int(9)]);
        let v = RaExpr::rel("R1")
            .product(RaExpr::rel("R2"))
            .select(vec![RaCond::Eq("A".into(), "C".into())])
            .project(&["A", "D"])
            .normalize(&c)
            .unwrap();
        let out = eval_spcu(&v, &c, &db);
        assert_eq!(
            sorted_tuples(&out),
            vec![vec![Value::int(1), Value::int(9)]]
        );
    }

    #[test]
    fn constant_column_appended() {
        let (c, r1, _) = setup();
        let mut db = Database::empty(&c);
        db.insert(r1, vec![Value::int(1), Value::int(2)]);
        let v = RaExpr::rel("R1")
            .with_const("CC", Value::int(44), DomainKind::Int)
            .normalize(&c)
            .unwrap();
        let out = eval_spcu(&v, &c, &db);
        assert_eq!(
            sorted_tuples(&out),
            vec![vec![Value::int(1), Value::int(2), Value::int(44)]]
        );
    }

    #[test]
    fn pure_constant_relation_yields_one_tuple() {
        let (c, _, _) = setup();
        let db = Database::empty(&c);
        let v = RaExpr::ConstRel(vec![("X".into(), Value::int(7), DomainKind::Int)])
            .normalize(&c)
            .unwrap();
        let out = eval_spcu(&v, &c, &db);
        assert_eq!(sorted_tuples(&out), vec![vec![Value::int(7)]]);
    }

    #[test]
    fn union_dedups() {
        let (c, r1, _) = setup();
        let mut db = Database::empty(&c);
        db.insert(r1, vec![Value::int(1), Value::int(2)]);
        let v = RaExpr::rel("R1")
            .union(RaExpr::rel("R1"))
            .normalize(&c)
            .unwrap();
        let out = eval_spcu(&v, &c, &db);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn empty_query_evaluates_empty() {
        let (c, r1, _) = setup();
        let mut db = Database::empty(&c);
        db.insert(r1, vec![Value::int(1), Value::int(2)]);
        let v = RaExpr::rel("R1")
            .with_const("CC", Value::int(44), DomainKind::Int)
            .select(vec![RaCond::EqConst("CC".into(), Value::int(31))])
            .normalize(&c)
            .unwrap();
        assert!(eval_spcu(&v, &c, &db).is_empty());
    }

    #[test]
    fn empty_atom_relation_gives_empty_view() {
        let (c, _, _) = setup();
        let db = Database::empty(&c);
        let v = RaExpr::rel("R1").normalize(&c).unwrap();
        assert!(eval_spcu(&v, &c, &db).is_empty());
    }

    #[test]
    fn projection_dedups() {
        let (c, r1, _) = setup();
        let mut db = Database::empty(&c);
        db.insert(r1, vec![Value::int(1), Value::int(2)]);
        db.insert(r1, vec![Value::int(1), Value::int(3)]);
        let v = RaExpr::rel("R1").project(&["A"]).normalize(&c).unwrap();
        assert_eq!(eval_spcu(&v, &c, &db).len(), 1);
    }
}
