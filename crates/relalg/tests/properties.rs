//! Property-based tests for the relational substrate: union–find
//! invariants, normalization vs. evaluation agreement, and tableau
//! soundness (the tableau evaluated as a query equals the original query).

use cfd_relalg::columnar::ColumnarRelation;
use cfd_relalg::domain::DomainKind;
use cfd_relalg::eval::{eval_spc, eval_spc_nested, eval_spcu};
use cfd_relalg::instance::{Database, Relation};
use cfd_relalg::pool::ValuePool;
use cfd_relalg::query::{ColRef, OutputCol, ProdCol, SelAtom, SpcQuery};
use cfd_relalg::query::{RaCond, RaExpr};
use cfd_relalg::schema::{Attribute, Catalog, RelationSchema};
use cfd_relalg::tableau::{Tableau, Term};
use cfd_relalg::unify::TermUf;
use cfd_relalg::value::Value;
use proptest::prelude::*;
use std::collections::HashMap;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    for (name, arity) in [("R", 3usize), ("S", 2usize)] {
        c.add(
            RelationSchema::new(
                name,
                (0..arity)
                    .map(|i| Attribute::new(format!("{name}{i}"), DomainKind::Int))
                    .collect(),
            )
            .unwrap(),
        )
        .unwrap();
    }
    c
}

/// Strategy: a database over `catalog()` with small integer values.
fn database() -> impl Strategy<Value = Database> {
    (
        proptest::collection::vec(proptest::collection::vec(0i64..4, 3..=3), 0..5),
        proptest::collection::vec(proptest::collection::vec(0i64..4, 2..=2), 0..5),
    )
        .prop_map(|(r_rows, s_rows)| {
            let c = catalog();
            let mut db = Database::empty(&c);
            for row in r_rows {
                db.insert(
                    c.rel_id("R").unwrap(),
                    row.into_iter().map(Value::Int).collect(),
                );
            }
            for row in s_rows {
                db.insert(
                    c.rel_id("S").unwrap(),
                    row.into_iter().map(Value::Int).collect(),
                );
            }
            db
        })
}

/// Strategy: a random [`SpcQuery`] in normal form over the `catalog()`
/// relations — 1–3 atoms drawn from {R, S} with replacement, a random
/// mix of cross-atom joins, local equalities and constant selections,
/// and a random projection. Exercises both `eval_spc` paths
/// (single-atom queries take the nested-loop fallback; the rest take
/// the factorized evaluator, including disconnected atoms and
/// doubly-constrained join columns).
fn spc_query() -> impl Strategy<Value = SpcQuery> {
    let atom = 0usize..2; // 0 = R (arity 3), 1 = S (arity 2)
    (
        proptest::collection::vec(atom, 1..=3),
        proptest::collection::vec((0usize..6, 0usize..6), 0..4),
        proptest::collection::vec((0usize..6, 0i64..4), 0..2),
        proptest::collection::vec(0usize..6, 1..4),
    )
        .prop_map(|(atoms, eqs, consts, proj)| {
            let c = catalog();
            let rels = [c.rel_id("R").unwrap(), c.rel_id("S").unwrap()];
            let arity = |a: usize| if atoms[a] == 0 { 3 } else { 2 };
            // Map a free index onto a valid (atom, attr) product column.
            let col = |i: usize| {
                let a = i % atoms.len();
                ProdCol::new(a, i % arity(a))
            };
            let mut selection: Vec<SelAtom> = Vec::new();
            for (x, y) in eqs {
                let (a, b) = (col(x), col(y));
                if a != b {
                    selection.push(SelAtom::Eq(a, b));
                }
            }
            for (x, v) in consts {
                selection.push(SelAtom::EqConst(col(x), Value::Int(v)));
            }
            let output = proj
                .into_iter()
                .enumerate()
                .map(|(i, x)| OutputCol {
                    name: format!("y{i}"),
                    src: ColRef::Prod(col(x)),
                })
                .collect();
            SpcQuery {
                atoms: atoms.into_iter().map(|a| rels[a]).collect(),
                constants: vec![],
                selection,
                output,
            }
        })
}

/// Strategy: a random SPC expression over `R × S` — optional selections on
/// known columns, optional projection — always normalizable.
fn ra_expr() -> impl Strategy<Value = RaExpr> {
    (
        proptest::collection::vec((0usize..5, 0i64..4), 0..3),
        proptest::collection::btree_set(0usize..5, 1..4),
        any::<bool>(),
    )
        .prop_map(|(sels, proj, join)| {
            let cols = ["R0", "R1", "R2", "S0", "S1"];
            let mut e = RaExpr::rel("R").product(RaExpr::rel("S"));
            if join {
                e = e.select(vec![RaCond::Eq("R0".into(), "S0".into())]);
            }
            for (col, v) in sels {
                e = e.select(vec![RaCond::EqConst(cols[col].into(), Value::Int(v))]);
            }
            let keep: Vec<&str> = proj.into_iter().map(|i| cols[i]).collect();
            e.project(&keep)
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, .. ProptestConfig::default() })]

    /// Union–find: `union` makes `equal` true, is idempotent, and
    /// transitive chains collapse to one class.
    #[test]
    fn union_find_invariants(pairs in proptest::collection::vec((0u32..8, 0u32..8), 0..12)) {
        let mut uf = TermUf::new();
        for _ in 0..8 {
            uf.add(DomainKind::Int);
        }
        for (a, b) in &pairs {
            uf.union(*a, *b).unwrap();
        }
        for (a, b) in &pairs {
            prop_assert!(uf.same(*a, *b));
            prop_assert!(uf.equal(*a, *b));
        }
        // find is stable under path compression
        for x in 0..8u32 {
            let r1 = uf.find(x);
            let r2 = uf.find(x);
            prop_assert_eq!(r1, r2);
            prop_assert_eq!(uf.find(r1), r1, "root is its own representative");
        }
    }

    /// Bindings behave like constants: once bound, `equal` to any node
    /// bound to the same value; rebinding differently clashes.
    #[test]
    fn union_find_bindings(vals in proptest::collection::vec(0i64..3, 4..=4)) {
        let mut uf = TermUf::new();
        let nodes: Vec<u32> = (0..4).map(|_| uf.add(DomainKind::Int)).collect();
        for (n, v) in nodes.iter().zip(&vals) {
            uf.bind(*n, Value::Int(*v)).unwrap();
        }
        for (i, a) in nodes.iter().enumerate() {
            for (j, b) in nodes.iter().enumerate() {
                prop_assert_eq!(uf.equal(*a, *b), vals[i] == vals[j]);
                // union succeeds iff the values agree
                let mut probe = uf.clone();
                prop_assert_eq!(probe.union(*a, *b).is_ok(), vals[i] == vals[j]);
            }
        }
    }

    /// Selection followed by projection evaluates the same whether composed
    /// through the builder or applied manually to evaluation results.
    #[test]
    fn normalization_agrees_with_manual_evaluation(db in database(), sel in 0i64..4) {
        let c = catalog();
        let q = RaExpr::rel("R")
            .select(vec![RaCond::EqConst("R0".into(), Value::Int(sel))])
            .project(&["R1", "R2"])
            .normalize(&c)
            .unwrap();
        let fast = eval_spcu(&q, &c, &db);
        // manual semantics
        let mut manual = Relation::new();
        for t in db.relation(c.rel_id("R").unwrap()).tuples() {
            if t[0] == Value::Int(sel) {
                manual.insert(vec![t[1].clone(), t[2].clone()]);
            }
        }
        prop_assert_eq!(fast, manual);
    }

    /// Product evaluation has the expected cardinality when no selection
    /// applies, and every output tuple concatenates one tuple from each
    /// side.
    #[test]
    fn product_cardinality(db in database()) {
        let c = catalog();
        let q = RaExpr::rel("R").product(RaExpr::rel("S")).normalize(&c).unwrap();
        let out = eval_spcu(&q, &c, &db);
        let r = db.relation(c.rel_id("R").unwrap());
        let s = db.relation(c.rel_id("S").unwrap());
        // set semantics: distinct pairs
        prop_assert_eq!(out.len(), r.len() * s.len());
    }

    /// Tableau soundness: instantiating the tableau rows with any
    /// assignment of its variables yields tuples whose summary appears in
    /// the query result on that instance — here checked in the converse,
    /// executable direction: evaluating the query on a database built from
    /// a ground instantiation of the tableau contains the instantiated
    /// summary row.
    #[test]
    fn tableau_ground_instantiation_round_trip(assign in proptest::collection::vec(0i64..5, 8)) {
        let c = catalog();
        let q = RaExpr::rel("R")
            .product(RaExpr::rel("S"))
            .select(vec![
                RaCond::Eq("R0".into(), "S0".into()),
                RaCond::EqConst("R1".into(), Value::Int(2)),
            ])
            .project(&["R0", "R2", "S1"])
            .normalize(&c)
            .unwrap();
        let branch = &q.branches[0];
        let t = Tableau::from_spc(branch, &c).unwrap();
        // ground the variables
        let valuation: HashMap<u32, Value> = (0..t.num_vars() as u32)
            .map(|v| (v, Value::Int(assign[v as usize % assign.len()])))
            .collect();
        let ground = |term: &Term| -> Value {
            match term {
                Term::Const(v) => v.clone(),
                Term::Var(v) => valuation[&v.0].clone(),
            }
        };
        let mut db = Database::empty(&c);
        for (rel, row) in &t.rows {
            db.insert(*rel, row.iter().map(&ground).collect());
        }
        let expected: Vec<Value> = t.summary.iter().map(&ground).collect();
        let out = eval_spc(branch, &c, &db);
        prop_assert!(
            out.contains(&expected),
            "summary {:?} missing from {:?}", expected, out
        );
    }

    /// Random RA expressions (filtered to normalizable ones) never panic
    /// during normalization or evaluation, and evaluation respects the
    /// schema arity.
    #[test]
    fn normalize_and_eval_total(e in ra_expr(), db in database()) {
        let c = catalog();
        if let Ok(q) = e.normalize(&c) {
            let out = eval_spcu(&q, &c, &db);
            for t in out.tuples() {
                prop_assert_eq!(t.len(), q.schema().arity());
            }
        }
    }

    /// ISSUE 1: dictionary encoding is lossless — `Relation →
    /// ColumnarRelation → Relation` is the identity, and re-encoding the
    /// decoded relation against the same pool reproduces the same codes.
    #[test]
    fn columnar_round_trip(rows in proptest::collection::vec(
        proptest::collection::vec(0i64..5, 3..=3),
        0..20,
    )) {
        let rel: Relation = rows
            .into_iter()
            .map(|r| r.into_iter().map(Value::Int).collect::<Vec<_>>())
            .collect();
        let mut pool = ValuePool::new();
        let cols = ColumnarRelation::from_relation(&rel, &mut pool);
        prop_assert_eq!(cols.len(), rel.len());
        let decoded = cols.to_relation(&pool);
        prop_assert_eq!(&decoded, &rel, "decode must invert encode");
        let cols2 = ColumnarRelation::from_relation(&decoded, &mut pool);
        prop_assert_eq!(cols2, cols, "re-encoding against the same pool is stable");
    }

    /// The fast path of `eval_spc` agrees with the
    /// nested-loop product enumeration on random SPC queries (random
    /// atoms, selections mixing cross-atom joins, local equalities and
    /// constants, random projections).
    #[test]
    fn hash_join_eval_equals_nested_loop(
        db in database(),
        q in spc_query(),
    ) {
        let c = catalog();
        prop_assume!(q.validate(&c).is_ok());
        let fast = eval_spc(&q, &c, &db);
        let slow = eval_spc_nested(&q, &c, &db);
        prop_assert_eq!(fast, slow, "fast eval diverged on {}", q);
    }
}
