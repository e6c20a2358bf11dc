//! Property-based tests for the CFD algebra: pattern-cell laws, implication
//! as a preorder, MinCover equivalence, and satisfaction/implication
//! coherence on concrete instances. The compiled implication engine behind
//! `implies` and `min_cover` is checked against a two-tuple
//! `ChaseInstance` oracle built here from the public chase API.

use cfd_datagen::{gen_cfds, gen_schema, CfdGenConfig, SchemaGenConfig};
use cfd_model::chase::ChaseInstance;
use cfd_model::columnar::{find_violating_rows, satisfies_coded, CodedCfd};
use cfd_model::implication::{equivalent, implies, is_consistent};
use cfd_model::mincover::min_cover;
use cfd_model::satisfy;
use cfd_model::{Cfd, Pattern};
use cfd_relalg::instance::Relation;
use cfd_relalg::{ColumnarRelation, DomainKind, Value, ValuePool};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const ARITY: usize = 4;

fn domains() -> Vec<DomainKind> {
    vec![DomainKind::Int; ARITY]
}

/// Strategy: a pattern cell over small integers.
fn pattern() -> impl Strategy<Value = Pattern> {
    prop_oneof![
        3 => Just(Pattern::Wild),
        2 => (1i64..4).prop_map(|v| Pattern::Const(Value::Int(v))),
    ]
}

/// Strategy: a normal-form CFD over `ARITY` int attributes.
fn cfd() -> impl Strategy<Value = Cfd> {
    (
        proptest::collection::btree_map(0usize..ARITY, pattern(), 0..3),
        0usize..ARITY,
        pattern(),
    )
        .prop_map(|(lhs, rhs, rhs_pat)| {
            let lhs: Vec<(usize, Pattern)> = lhs.into_iter().filter(|(a, _)| *a != rhs).collect();
            Cfd::new(lhs, rhs, rhs_pat).expect("valid")
        })
}

/// Strategy: a small set of CFDs.
fn sigma() -> impl Strategy<Value = Vec<Cfd>> {
    proptest::collection::vec(cfd(), 0..6)
}

/// Strategy: a small relation instance over `ARITY` int attributes.
fn relation() -> impl Strategy<Value = Relation> {
    proptest::collection::vec(proptest::collection::vec(1i64..4, ARITY..=ARITY), 0..6).prop_map(
        |rows| {
            rows.into_iter()
                .map(|r| r.into_iter().map(Value::Int).collect::<Vec<_>>())
                .collect()
        },
    )
}

/// Strategy: a relation large enough to cross the columnar dispatch
/// cutoff in `satisfy::satisfies` (a wider value pool keeps groups
/// nontrivial at this size).
fn big_relation() -> impl Strategy<Value = Relation> {
    proptest::collection::vec(proptest::collection::vec(1i64..6, ARITY..=ARITY), 0..40).prop_map(
        |rows| {
            rows.into_iter()
                .map(|r| r.into_iter().map(Value::Int).collect::<Vec<_>>())
                .collect()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, .. ProptestConfig::default() })]

    /// `⊕` (merge_min) is commutative, idempotent, and a lower bound of
    /// both arguments w.r.t. `≤`.
    #[test]
    fn pattern_merge_laws(a in pattern(), b in pattern()) {
        prop_assert_eq!(a.merge_min(&b), b.merge_min(&a));
        prop_assert_eq!(a.merge_min(&a), Some(a.clone()));
        if let Some(m) = a.merge_min(&b) {
            prop_assert!(m.leq(&a) && m.leq(&b));
        }
        // ≤ is antisymmetric on these cells
        if a.leq(&b) && b.leq(&a) {
            prop_assert_eq!(&a, &b);
        }
        // compatible (≍) iff a merge exists
        prop_assert_eq!(a.compatible(&b), a.merge_min(&b).is_some());
    }

    /// Implication is reflexive and transitive (a preorder) and monotone
    /// under set extension.
    #[test]
    fn implication_is_a_preorder(s in sigma(), phi in cfd(), extra in cfd()) {
        let d = domains();
        for member in &s {
            prop_assert!(implies(&s, member, &d), "reflexivity: {member}");
        }
        if implies(&s, &phi, &d) {
            // monotonicity: adding CFDs never loses consequences
            let mut bigger = s.clone();
            bigger.push(extra);
            prop_assert!(implies(&bigger, &phi, &d), "monotonicity: {phi}");
        }
    }

    /// Semantic soundness of implication: if Σ |= φ then every instance
    /// satisfying Σ satisfies φ.
    #[test]
    fn implication_sound_on_instances(s in sigma(), phi in cfd(), rel in relation()) {
        let d = domains();
        if implies(&s, &phi, &d) && satisfy::satisfies_all(&rel, &s) {
            prop_assert!(
                satisfy::satisfies(&rel, &phi),
                "Σ |= {} but a Σ-instance violates it", phi
            );
        }
    }

    /// MinCover returns an equivalent subset-closed-under-implication set
    /// that is no larger, contains no trivial CFDs, and is idempotent.
    #[test]
    fn min_cover_equivalence(s in sigma()) {
        let d = domains();
        let mc = min_cover(&s, &d);
        prop_assert!(mc.len() <= s.len());
        prop_assert!(equivalent(&mc, &s, &d), "cover not equivalent: {:?} vs {:?}", mc, s);
        prop_assert!(mc.iter().all(|c| !c.is_trivial()));
        // no redundant members
        for (i, c) in mc.iter().enumerate() {
            let rest: Vec<Cfd> =
                mc.iter().enumerate().filter(|(j, _)| *j != i).map(|(_, x)| x.clone()).collect();
            prop_assert!(!implies(&rest, c, &d), "redundant member {c} in {:?}", mc);
        }
        // idempotence up to equivalence and size
        let mc2 = min_cover(&mc, &d);
        prop_assert_eq!(mc2.len(), mc.len());
        prop_assert!(equivalent(&mc2, &mc, &d));
    }

    /// Consistency: a witnessable property — if Σ is consistent we can
    /// check all CFDs hold on the empty and often on singleton instances;
    /// if inconsistent, no singleton instance can satisfy Σ.
    #[test]
    fn consistency_vs_singletons(s in sigma(), row in proptest::collection::vec(1i64..4, ARITY..=ARITY)) {
        let d = domains();
        if !is_consistent(&s, &d) {
            let rel: Relation =
                std::iter::once(row.into_iter().map(Value::Int).collect::<Vec<_>>()).collect();
            prop_assert!(
                !satisfy::satisfies_all(&rel, &s),
                "inconsistent Σ satisfied by a singleton: {:?}", s
            );
        }
    }

    /// `normalize_const_rhs` and `to_paper_form` preserve semantics
    /// (mutual implication as singleton sets).
    #[test]
    fn normal_forms_preserve_semantics(phi in cfd()) {
        let d = domains();
        let n = phi.normalize_const_rhs();
        prop_assert!(implies(std::slice::from_ref(&phi), &n, &d), "{phi} vs {n}");
        prop_assert!(implies(std::slice::from_ref(&n), &phi, &d), "{n} vs {phi}");
        let p = n.to_paper_form();
        prop_assert!(implies(std::slice::from_ref(&n), &p, &d));
        prop_assert!(implies(std::slice::from_ref(&p), &n, &d));
    }

    /// Satisfaction brute-force agreement: `find_violation` returns a pair
    /// iff scanning all pairs finds one.
    #[test]
    fn violation_search_is_exhaustive(phi in cfd(), rel in relation()) {
        let found = satisfy::find_violation(&rel, &phi).is_some();
        let tuples: Vec<_> = rel.tuples().collect();
        let mut brute = false;
        for t1 in &tuples {
            for t2 in &tuples {
                let premise = phi.lhs().iter().all(|(a, p)| {
                    t1[*a] == t2[*a] && p.matches_value(&t1[*a])
                });
                if premise {
                    let b = phi.rhs_attr();
                    if t1[b] != t2[b] || !phi.rhs_pattern().matches_value(&t1[b]) {
                        brute = true;
                    }
                }
            }
        }
        prop_assert_eq!(found, brute, "{} on {:?}", phi, tuples);
    }

    /// ISSUE 1: the columnar single-pass checker agrees *exactly* with the
    /// §2.1 pairwise reference on random instances and CFDs.
    #[test]
    fn columnar_satisfaction_agrees_with_pairwise(phi in cfd(), rel in big_relation()) {
        let mut pool = ValuePool::new();
        let cols = ColumnarRelation::from_relation(&rel, &mut pool);
        prop_assert_eq!(
            satisfies_coded(&cols, &pool, &phi),
            satisfy::satisfies_pairwise(&rel, &phi),
            "columnar vs pairwise on {} over {:?}", phi, rel
        );
        // The public dispatcher (pairwise below the size cutoff, columnar
        // above) must agree with the reference on both sides of the cutoff.
        prop_assert_eq!(
            satisfy::satisfies(&rel, &phi),
            satisfy::satisfies_pairwise(&rel, &phi)
        );
    }

    /// The witness pair reported by the columnar checker is a real
    /// violation of the CFD.
    #[test]
    fn columnar_witness_rows_violate(phi in cfd(), rel in big_relation()) {
        let mut pool = ValuePool::new();
        let cols = ColumnarRelation::from_relation(&rel, &mut pool);
        let coded = CodedCfd::compile(&phi, &pool);
        if let Some((r1, r2)) = find_violating_rows(&cols, &coded) {
            let pair: Relation = [cols.decode_row(r1, &pool), cols.decode_row(r2, &pool)]
                .into_iter()
                .collect();
            prop_assert!(
                !satisfy::satisfies_pairwise(&pair, &phi),
                "reported rows do not violate {} : {:?}", phi, pair
            );
        }
    }
}

/// The oracle: `Σ |= φ` by the generic chase on a two-tuple instance (one
/// tuple for `(A → B, (x ‖ x))`), with no shortcuts.
fn oracle_implies(sigma: &[Cfd], phi: &Cfd, domains: &[DomainKind]) -> bool {
    let groups = [sigma];
    let mut inst = ChaseInstance::new();
    let rows = if phi.as_attr_eq().is_some() { 1 } else { 2 };
    for _ in 0..rows {
        let cells: Vec<u32> = domains.iter().map(|d| inst.uf.add(d.clone())).collect();
        inst.push_row(0, cells);
    }
    if let Some((a, b)) = phi.as_attr_eq() {
        if inst.chase(&groups).is_err() {
            return true;
        }
        let (ca, cb) = (inst.rows[0].cells[a], inst.rows[0].cells[b]);
        return inst.uf.equal(ca, cb);
    }
    for (a, pat) in phi.lhs() {
        let (c0, c1) = (inst.rows[0].cells[*a], inst.rows[1].cells[*a]);
        if inst.uf.union(c0, c1).is_err() {
            return true;
        }
        if let Some(v) = pat.as_const() {
            if inst.uf.bind(c0, v.clone()).is_err() {
                return true;
            }
        }
    }
    if inst.chase(&groups).is_err() {
        return true;
    }
    let b = phi.rhs_attr();
    let (c0, c1) = (inst.rows[0].cells[b], inst.rows[1].cells[b]);
    inst.uf.equal(c0, c1)
        && match phi.rhs_pattern().as_const() {
            None => true,
            Some(want) => inst.uf.is_bound_to(c0, want),
        }
}

/// The oracle `MinCover`: the same three steps as `min_cover`, with every
/// implication test answered by [`oracle_implies`] on a rebuilt Σ.
fn oracle_min_cover(sigma: &[Cfd], domains: &[DomainKind]) -> Vec<Cfd> {
    let mut work: Vec<Cfd> = Vec::new();
    for c in sigma {
        if !c.is_trivial() && !work.contains(c) {
            work.push(c.clone());
        }
    }
    let mut i = 0;
    'next_cfd: while i < work.len() {
        if work[i].as_attr_eq().is_some() {
            i += 1;
            continue;
        }
        loop {
            let mut reduced = None;
            for drop in work[i].lhs_attrs().collect::<Vec<_>>() {
                let lhs: Vec<(usize, Pattern)> = work[i]
                    .lhs()
                    .iter()
                    .filter(|(a, _)| *a != drop)
                    .cloned()
                    .collect();
                let cand = Cfd::new(lhs, work[i].rhs_attr(), work[i].rhs_pattern().clone())
                    .expect("valid");
                if !cand.is_trivial() && oracle_implies(&work, &cand, domains) {
                    reduced = Some(cand);
                    break;
                }
            }
            match reduced {
                Some(c) if work.contains(&c) => {
                    work.remove(i);
                    continue 'next_cfd;
                }
                Some(c) => work[i] = c,
                None => break,
            }
        }
        i += 1;
    }
    let mut i = 0;
    while i < work.len() {
        let phi = work.remove(i);
        if !oracle_implies(&work, &phi, domains) {
            work.insert(i, phi);
            i += 1;
        }
    }
    work
}

/// Attributes of the mixed-domain schema.
const MIXED: usize = 6;

/// Where the mixed attributes sit in the wide schema: across the 64-bit
/// word boundaries of the compiled LHS bitsets.
const SPREAD: [usize; MIXED] = [0, 63, 64, 65, 127, 129];

/// Strategy: an attribute domain, finite or infinite, with overlapping
/// enum carriers so that `(x ‖ x)` unions narrow, clash or pass.
fn mixed_domain() -> impl Strategy<Value = DomainKind> {
    prop_oneof![
        3 => Just(DomainKind::Int),
        1 => Just(DomainKind::Text),
        1 => Just(DomainKind::Bool),
        1 => Just(DomainKind::Enum(vec![Value::int(1), Value::int(2)])),
        1 => Just(DomainKind::Enum(vec![Value::int(2), Value::str("a"), Value::Bool(true)])),
    ]
}

/// Strategy: a constant of any type (often outside the attribute domain).
fn mixed_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        3 => (1i64..4).prop_map(Value::Int),
        1 => Just(Value::str("a")),
        1 => Just(Value::Bool(true)),
        1 => Just(Value::Bool(false)),
    ]
}

/// Strategy: a mixed-schema pattern cell.
fn mixed_pattern() -> impl Strategy<Value = Pattern> {
    prop_oneof![
        3 => Just(Pattern::Wild),
        2 => mixed_value().prop_map(Pattern::Const),
    ]
}

/// Strategy: a standard CFD (RHS may also sit on the LHS), an
/// `(A → B, (x ‖ x))` CFD, or a constant column.
fn mixed_cfd() -> impl Strategy<Value = Cfd> {
    prop_oneof![
        6 => (
            proptest::collection::btree_map(0usize..MIXED, mixed_pattern(), 0..4),
            0usize..MIXED,
            mixed_pattern(),
        )
            .prop_map(|(lhs, rhs, rhs_pat)| {
                Cfd::new(lhs.into_iter().collect(), rhs, rhs_pat).expect("valid")
            }),
        1 => (0usize..MIXED, 1usize..MIXED)
            .prop_map(|(a, d)| Cfd::attr_eq(a, (a + d) % MIXED).expect("distinct")),
        1 => (0usize..MIXED, mixed_value()).prop_map(|(a, v)| Cfd::const_col(a, v)),
    ]
}

/// `phi` with attribute `a` moved to `SPREAD[a]`.
fn spread(phi: &Cfd) -> Cfd {
    let lhs = phi
        .lhs()
        .iter()
        .map(|(a, p)| (SPREAD[*a], p.clone()))
        .collect();
    Cfd::new(lhs, SPREAD[phi.rhs_attr()], phi.rhs_pattern().clone()).expect("valid")
}

/// A mixed case, either as generated over `MIXED` attributes or spread
/// over a 130-attribute schema whose other attributes are `int`.
fn layout(
    wide: bool,
    domains: Vec<DomainKind>,
    sigma: Vec<Cfd>,
    goals: Vec<Cfd>,
) -> (Vec<DomainKind>, Vec<Cfd>, Vec<Cfd>) {
    if !wide {
        return (domains, sigma, goals);
    }
    let mut wide_domains = vec![DomainKind::Int; SPREAD[MIXED - 1] + 1];
    for (a, d) in domains.into_iter().enumerate() {
        wide_domains[SPREAD[a]] = d;
    }
    let sigma = sigma.iter().map(spread).collect();
    let goals = goals.iter().map(spread).collect();
    (wide_domains, sigma, goals)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 400, .. ProptestConfig::default() })]

    /// The compiled `implies` answers exactly as the two-tuple chase oracle
    /// on mixed Int/Text/Bool/Enum schemas with `(x ‖ x)` CFDs, constant
    /// columns and clashing constants, on both sides of the 64-attribute
    /// word boundary. Goals include Σ's members with their LHS shrunk, the
    /// tests `MinCover` asks.
    #[test]
    fn compiled_implies_matches_chase_oracle(
        domains in proptest::collection::vec(mixed_domain(), MIXED..=MIXED),
        sigma in proptest::collection::vec(mixed_cfd(), 0..7),
        goals in proptest::collection::vec(mixed_cfd(), 1..5),
        wide in any::<bool>(),
    ) {
        let (d, s, mut goals) = layout(wide, domains, sigma, goals);
        for c in &s {
            for drop in c.lhs_attrs() {
                let lhs = c.lhs().iter().filter(|(a, _)| *a != drop).cloned().collect();
                if let Ok(shrunk) = Cfd::new(lhs, c.rhs_attr(), c.rhs_pattern().clone()) {
                    goals.push(shrunk);
                }
            }
        }
        for phi in &goals {
            prop_assert_eq!(
                implies(&s, phi, &d),
                oracle_implies(&s, phi, &d),
                "Σ = {:?}, φ = {}, domains = {:?}", s, phi, d
            );
        }
    }

    /// `min_cover` over the compiled engine is exactly the oracle's cover:
    /// same CFDs, same order.
    #[test]
    fn min_cover_equals_chase_oracle_min_cover(
        domains in proptest::collection::vec(mixed_domain(), MIXED..=MIXED),
        sigma in proptest::collection::vec(mixed_cfd(), 0..9),
        wide in any::<bool>(),
    ) {
        let (d, s, _) = layout(wide, domains, sigma, Vec::new());
        prop_assert_eq!(min_cover(&s, &d), oracle_min_cover(&s, &d), "Σ = {:?}, domains = {:?}", s, d);
    }
}

/// The same two checks on Σ from the §5 generator (10 relations of 10–20
/// attributes, LHS up to 9, `var%` 40 and 50), per relation, with the
/// infinite domains of §5 and with a fifth of the attributes boolean, and
/// with the §5 constant range as well as a narrow one (more constants
/// shared between CFDs, so more rules fire).
#[test]
fn compiled_engine_matches_oracle_on_generated_sigma() {
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = SchemaGenConfig {
            finite_ratio: if seed % 2 == 0 { 0.0 } else { 0.2 },
            ..SchemaGenConfig::default()
        };
        let catalog = gen_schema(&schema, &mut rng);
        let cfds = CfdGenConfig {
            count: 120,
            lhs_max: 9,
            var_pct: if seed % 4 < 2 { 0.4 } else { 0.5 },
            const_range: if seed < 4 { 100_000 } else { 20 },
            ..CfdGenConfig::default()
        };
        let sigma = gen_cfds(&catalog, &cfds, &mut rng);
        for (rel, schema) in catalog.relations() {
            let local: Vec<Cfd> = sigma
                .iter()
                .filter(|s| s.rel == rel)
                .map(|s| s.cfd.clone())
                .collect();
            let d: Vec<DomainKind> = schema.attributes.iter().map(|a| a.domain.clone()).collect();
            let mc = min_cover(&local, &d);
            assert_eq!(
                mc,
                oracle_min_cover(&local, &d),
                "seed {seed}, {}",
                schema.name
            );
            for (i, phi) in local.iter().enumerate() {
                let rest: Vec<Cfd> = local
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i)
                    .map(|(_, c)| c.clone())
                    .collect();
                assert_eq!(
                    implies(&rest, phi, &d),
                    oracle_implies(&rest, phi, &d),
                    "seed {seed}, {}: {phi}",
                    schema.name
                );
                for goal in [phi.normalize_const_rhs(), phi.to_paper_form()] {
                    assert_eq!(implies(&mc, &goal, &d), oracle_implies(&mc, &goal, &d));
                }
            }
        }
    }
}
