//! Differential property tests for SPC evaluation: on random ≥3-atom
//! queries — including skewed value distributions and disconnected
//! join graphs — the width-bounded factorized evaluator and the
//! nested-loop reference must agree exactly.
//!
//! The generators deliberately stress the factorized plan's hard
//! cases:
//!
//! * 3–4 atoms so that the factorized plan has multi-variable
//!   elimination orders;
//! * a tiny skewed domain (`0` is drawn far more often than other
//!   values) so that hot join keys with large fan-out appear even in
//!   small instances;
//! * equality conjuncts drawn freely over all product columns, which
//!   regularly produces disconnected join graphs (≥2 components) and
//!   transitive constant/equality chains across atoms.

use cfd_relalg::domain::DomainKind;
use cfd_relalg::eval::{eval_spc_factorized, eval_spc_nested};
use cfd_relalg::instance::Database;
use cfd_relalg::query::{ColRef, OutputCol, ProdCol, SelAtom, SpcQuery};
use cfd_relalg::schema::{Attribute, Catalog, RelationSchema};
use cfd_relalg::value::Value;
use proptest::prelude::*;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    for (name, arity) in [("P", 2usize), ("Q", 3usize), ("T", 2usize)] {
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

const ARITIES: [usize; 3] = [2, 3, 2];

/// Strategy: a skewed small-int value — `0` with probability ~1/2,
/// otherwise uniform over `0..4`. Hot keys with fan-out appear in
/// nearly every instance.
fn skewed_val() -> impl Strategy<Value = i64> {
    prop_oneof![2 => Just(0i64), 2 => 0i64..4]
}

/// Strategy: a database over `catalog()` with skewed values so joins
/// on `0` have multi-row fan-out on several atoms at once.
fn database() -> impl Strategy<Value = Database> {
    (
        proptest::collection::vec(proptest::collection::vec(skewed_val(), 2..=2), 0..7),
        proptest::collection::vec(proptest::collection::vec(skewed_val(), 3..=3), 0..7),
        proptest::collection::vec(proptest::collection::vec(skewed_val(), 2..=2), 0..7),
    )
        .prop_map(|(p_rows, q_rows, t_rows)| {
            let c = catalog();
            let mut db = Database::empty(&c);
            for (name, rows) in [("P", p_rows), ("Q", q_rows), ("T", t_rows)] {
                let rel = c.rel_id(name).unwrap();
                for row in rows {
                    db.insert(rel, row.into_iter().map(Value::Int).collect());
                }
            }
            db
        })
}

/// Strategy: a random ≥3-atom [`SpcQuery`] over `catalog()` — 3–4
/// atoms drawn with replacement, random cross-atom equalities (often
/// leaving the join graph disconnected), random constants, and a
/// random projection.
fn spc_query() -> impl Strategy<Value = SpcQuery> {
    let atom = 0usize..3;
    (
        proptest::collection::vec(atom, 3..=4),
        proptest::collection::vec((0usize..8, 0usize..8), 0..5),
        proptest::collection::vec((0usize..8, 0i64..3), 0..3),
        proptest::collection::vec(0usize..8, 1..4),
    )
        .prop_map(|(atoms, eqs, consts, proj)| {
            let c = catalog();
            let rels = [
                c.rel_id("P").unwrap(),
                c.rel_id("Q").unwrap(),
                c.rel_id("T").unwrap(),
            ];
            let col = |i: usize| {
                let a = i % atoms.len();
                ProdCol::new(a, i % ARITIES[atoms[a]])
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, .. ProptestConfig::default() })]

    /// On random ≥3-atom queries with skew and disconnected
    /// components, `factorized ≡ nested`.
    #[test]
    fn factorized_and_nested_agree(db in database(), q in spc_query()) {
        let c = catalog();
        prop_assume!(q.validate(&c).is_ok());
        let nested = eval_spc_nested(&q, &c, &db);
        let fact = eval_spc_factorized(&q, &c, &db);
        prop_assert_eq!(&fact, &nested, "factorized diverged from nested on {}", q);
    }
}

/// A fully disconnected 2-component join graph (P ⋈ Q on one side,
/// T with only a local constant on the other) — the disconnected-step
/// regression shape — agrees across both evaluators.
#[test]
fn disconnected_components_agree() {
    let c = catalog();
    let (p, q_rel, t) = (
        c.rel_id("P").unwrap(),
        c.rel_id("Q").unwrap(),
        c.rel_id("T").unwrap(),
    );
    let mut db = Database::empty(&c);
    for i in 0..5i64 {
        db.insert(p, vec![Value::Int(i % 2), Value::Int(i)]);
        db.insert(q_rel, vec![Value::Int(i % 2), Value::Int(i), Value::Int(7)]);
        db.insert(t, vec![Value::Int(i % 3), Value::Int(i)]);
    }
    let q = SpcQuery {
        atoms: vec![p, q_rel, t],
        constants: vec![],
        selection: vec![
            SelAtom::Eq(ProdCol::new(0, 0), ProdCol::new(1, 0)),
            SelAtom::EqConst(ProdCol::new(2, 0), Value::Int(1)),
        ],
        output: vec![
            OutputCol {
                name: "a".into(),
                src: ColRef::Prod(ProdCol::new(0, 1)),
            },
            OutputCol {
                name: "b".into(),
                src: ColRef::Prod(ProdCol::new(1, 1)),
            },
            OutputCol {
                name: "c".into(),
                src: ColRef::Prod(ProdCol::new(2, 1)),
            },
        ],
    };
    q.validate(&c).unwrap();
    let nested = eval_spc_nested(&q, &c, &db);
    assert!(!nested.is_empty(), "fixture must produce rows");
    assert_eq!(eval_spc_factorized(&q, &c, &db), nested);
}
