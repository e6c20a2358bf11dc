//! The dependency propagation problem (§3): given source dependencies Σ on
//! a schema R, a view V, and a view CFD φ, decide `Σ |=V φ` — is `V(D)`
//! guaranteed to satisfy φ for *every* `D |= Σ`?
//!
//! The procedure follows the appendix proofs of Theorems 3.1/3.3/3.5:
//!
//! 1. Represent each SPC disjunct of V as a tableau (selection conditions
//!    pre-applied).
//! 2. For a standard view CFD `(X → B, tp)`, and for every pair of
//!    disjuncts `(e_i, e_j)` (including `i = j`), build a chase instance
//!    containing *fresh* copies of both tableaux (the `ρ1`/`ρ2` mappings),
//!    unify the summary columns of `X` across the copies, and bind the
//!    constants of `tp[X]`. An impossible unification means no pair of view
//!    tuples from these disjuncts can match the premise.
//! 3. Chase with Σ. An undefined chase likewise means the premise is
//!    unmatchable in any model of Σ.
//! 4. Otherwise φ is propagated (for this pair) iff the conclusion is
//!    forced: summary `B` cells equal and, for a constant `tp[B]`, bound to
//!    that constant. If not forced, instantiating the remaining variables
//!    with fresh distinct constants yields a **counterexample database**.
//!
//! In the *general setting* (finite-domain attributes present) the same
//! check runs once per instantiation of the finite-domain variables — the
//! coNP procedure of Theorems 3.2/3.3 and Corollary 3.6; `Σ |=V φ` fails
//! iff some instantiation yields a realizable violation.
//!
//! View CFDs of the special forms are handled per §2.1: `(A → B, (x ‖ x))`
//! uses a single tableau copy and asks whether `A = B` is forced on every
//! view tuple; `(A → A, (_ ‖ a))` is the standard machinery (RHS ∈ LHS).

use crate::error::PropError;
use crate::instance_builder::{add_tableau_copy, materialize, FreshPool, TableauCopy};
use cfd_model::chase::{any_ground_instantiation, ChaseInstance};
use cfd_model::{Cfd, SourceCfd};
use cfd_relalg::instance::Database;
use cfd_relalg::query::{SelAtom, SpcuQuery};
use cfd_relalg::schema::Catalog;
use cfd_relalg::tableau::Tableau;
use cfd_relalg::value::Value;
use std::collections::BTreeSet;

/// Which of the paper's two settings the analysis runs in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Setting {
    /// No finite-domain attributes assumed (PTIME procedures, §3.1/§3.2).
    ///
    /// With finite-domain attributes present, `Propagated` answers remain
    /// sound but `NotPropagated` witnesses may be unrealizable.
    InfiniteDomain,
    /// Finite-domain attributes allowed (coNP procedures; exponential in
    /// the number of finite-domain tableau variables).
    General,
}

impl Setting {
    /// The setting matching a catalog: [`Setting::General`] iff some
    /// attribute has a finite domain.
    pub fn for_catalog(catalog: &Catalog) -> Setting {
        if catalog.has_finite_domain_attr() {
            Setting::General
        } else {
            Setting::InfiniteDomain
        }
    }
}

/// A counterexample to propagation.
#[derive(Clone, Debug)]
pub struct Witness {
    /// A source database with `database |= Σ` whose view violates φ.
    pub database: Database,
}

/// The answer to a propagation question.
#[derive(Clone, Debug)]
pub enum Verdict {
    /// `Σ |=V φ`.
    Propagated,
    /// Not propagated; the witness exhibits the failure.
    NotPropagated(Box<Witness>),
}

impl Verdict {
    /// Is this the positive verdict?
    pub fn is_propagated(&self) -> bool {
        matches!(self, Verdict::Propagated)
    }
}

/// Group source CFDs by relation (the chase's group structure), borrowing
/// them from `sigma`.
pub fn sigma_by_relation<'a>(catalog: &Catalog, sigma: &'a [SourceCfd]) -> Vec<Vec<&'a Cfd>> {
    let mut groups = vec![Vec::new(); catalog.len()];
    for s in sigma {
        groups[s.rel.0].push(&s.cfd);
    }
    groups
}

/// All constants appearing in Σ, the view, and φ — reserved so that fresh
/// witness values cannot collide with them.
fn reserved_constants(sigma: &[SourceCfd], view: &SpcuQuery, phi: &Cfd) -> BTreeSet<Value> {
    let mut out = BTreeSet::new();
    let mut add_cfd = |c: &Cfd| {
        for (_, p) in c.lhs() {
            if let Some(v) = p.as_const() {
                out.insert(v.clone());
            }
        }
        if let Some(v) = c.rhs_pattern().as_const() {
            out.insert(v.clone());
        }
    };
    for s in sigma {
        add_cfd(&s.cfd);
    }
    add_cfd(phi);
    for b in &view.branches {
        for c in &b.constants {
            out.insert(c.value.clone());
        }
        for s in &b.selection {
            if let SelAtom::EqConst(_, v) = s {
                out.insert(v.clone());
            }
        }
    }
    out
}

/// Validate Σ and φ against the catalog and the view schema.
pub fn validate_inputs(
    catalog: &Catalog,
    sigma: &[SourceCfd],
    view: &SpcuQuery,
    phi: Option<&Cfd>,
) -> Result<(), PropError> {
    for s in sigma {
        let schema = catalog.schema(s.rel);
        s.cfd
            .validate_arity(schema.arity())
            .map_err(|_| PropError::SourceCfdOutOfRange {
                relation: schema.name.clone(),
                attr: s.cfd.max_attr(),
                arity: schema.arity(),
            })?;
    }
    if let Some(phi) = phi {
        let arity = view.schema().arity();
        phi.validate_arity(arity)
            .map_err(|_| PropError::ViewCfdOutOfRange {
                attr: phi.max_attr(),
                arity,
            })?;
    }
    Ok(())
}

/// The PTIME special cases of the general setting (Theorem 3.3(a)/(b) and
/// the remark following it): when the source dependencies are plain FDs and
/// the view is a single SPC branch using at most {S, P} or {P, C} (never
/// selection *and* product together, never union), the chase alone is
/// complete even with finite-domain attributes, *provided every finite
/// domain has at least two values* — "the instantiations of finite domain
/// variables are not necessary because each domain has at least two
/// elements: we can simply construct the two tuples with distinct values
/// whenever necessary" (proof of Thm 3.3).
fn general_ptime_case(catalog: &Catalog, sigma: &[SourceCfd], view: &SpcuQuery) -> bool {
    if !sigma.iter().all(|s| s.cfd.is_plain_fd()) {
        return false; // CFD sources: coNP already for S, P, C (Cor 3.6)
    }
    if view.branches.len() != 1 {
        return false;
    }
    let frag = view.branches[0].fragment(catalog);
    if frag.selection && frag.product {
        return false; // SC/SPC: coNP-complete (Thm 3.2 / Thm 3.3)
    }
    // Degenerate singleton domains defeat the "two distinct values" step.
    for (_, schema) in catalog.relations() {
        for a in &schema.attributes {
            if matches!(a.domain.cardinality(), Some(n) if n < 2) {
                return false;
            }
        }
    }
    true
}

/// Decide `Σ |=V φ`.
///
/// Runs in polynomial time for [`Setting::InfiniteDomain`] (Thms 3.1/3.5)
/// and exponential time in the number of finite-domain tableau variables for
/// [`Setting::General`] (the coNP procedures of Thm 3.3 / Cor 3.6) — except
/// in the PTIME sub-cases of Thm 3.3(a)/(b), which are detected and routed
/// to the chase-only procedure.
pub fn propagates(
    catalog: &Catalog,
    sigma: &[SourceCfd],
    view: &SpcuQuery,
    phi: &Cfd,
    setting: Setting,
) -> Result<Verdict, PropError> {
    validate_inputs(catalog, sigma, view, Some(phi))?;
    let setting = match setting {
        Setting::General if general_ptime_case(catalog, sigma, view) => Setting::InfiniteDomain,
        s => s,
    };
    let groups = sigma_by_relation(catalog, sigma);
    let tableaux: Vec<Option<Tableau>> = view
        .branches
        .iter()
        .map(|b| Tableau::from_spc(b, catalog))
        .collect();
    let reserved = reserved_constants(sigma, view, phi);

    if let Some((a, b)) = phi.as_attr_eq() {
        // Single-copy check per disjunct: is t[A] = t[B] forced on every
        // view tuple?
        for t in tableaux.iter().flatten() {
            let mut inst = ChaseInstance::new();
            let copy = add_tableau_copy(&mut inst, t);
            if inst.chase(&groups).is_err() {
                continue; // this disjunct is necessarily empty
            }
            let violable = |trial: &mut ChaseInstance| -> bool {
                !trial.uf.equal(copy.summary[a], copy.summary[b])
            };
            if let Some(w) =
                find_violation(&mut inst, &groups, catalog, &reserved, setting, violable)
            {
                return Ok(Verdict::NotPropagated(Box::new(w)));
            }
        }
        return Ok(Verdict::Propagated);
    }

    // Standard CFD: all unordered pairs of disjuncts, including identical.
    for i in 0..tableaux.len() {
        let Some(ti) = &tableaux[i] else { continue };
        for tj in tableaux[i..].iter().flatten() {
            let mut inst = ChaseInstance::new();
            let c1 = add_tableau_copy(&mut inst, ti);
            let c2 = add_tableau_copy(&mut inst, tj);
            if unify_premise(&mut inst, &c1, &c2, phi).is_err() {
                continue; // no pair from these disjuncts matches tp[X]
            }
            if inst.chase(&groups).is_err() {
                continue; // premise unmatchable in any model of Σ
            }
            let b = phi.rhs_attr();
            let want = phi.rhs_pattern().as_const().cloned();
            let (n1, n2) = (c1.summary[b], c2.summary[b]);
            let violable = move |trial: &mut ChaseInstance| -> bool {
                if !trial.uf.equal(n1, n2) {
                    return true;
                }
                match &want {
                    None => false,
                    Some(w) => trial.uf.binding(n1).as_ref() != Some(w),
                }
            };
            if let Some(w) =
                find_violation(&mut inst, &groups, catalog, &reserved, setting, violable)
            {
                return Ok(Verdict::NotPropagated(Box::new(w)));
            }
        }
    }
    Ok(Verdict::Propagated)
}

/// Unify the premise of `phi` across the two summary rows; `Err` means the
/// premise cannot be matched by tuples from these disjuncts.
fn unify_premise(
    inst: &mut ChaseInstance,
    c1: &TableauCopy,
    c2: &TableauCopy,
    phi: &Cfd,
) -> Result<(), ()> {
    for (a, pat) in phi.lhs() {
        inst.uf
            .union(c1.summary[*a], c2.summary[*a])
            .map_err(|_| ())?;
        if let Some(v) = pat.as_const() {
            inst.uf.bind(c1.summary[*a], v.clone()).map_err(|_| ())?;
        }
    }
    Ok(())
}

/// Search for a realizable violation of the (already chased, defined)
/// instance, per setting; on success, materialize the counterexample.
fn find_violation(
    inst: &mut ChaseInstance,
    groups: &[Vec<&Cfd>],
    catalog: &Catalog,
    reserved: &BTreeSet<Value>,
    setting: Setting,
    mut violable: impl FnMut(&mut ChaseInstance) -> bool,
) -> Option<Witness> {
    match setting {
        Setting::InfiniteDomain => {
            if violable(inst) {
                let mut pool = FreshPool::avoiding(reserved.iter().cloned());
                let database = materialize(inst, catalog, &mut pool);
                Some(Witness { database })
            } else {
                None
            }
        }
        Setting::General => {
            let mut found: Option<Witness> = None;
            any_ground_instantiation(inst, groups, &mut |trial| {
                if violable(trial) {
                    let mut pool = FreshPool::avoiding(reserved.iter().cloned());
                    let database = materialize(trial, catalog, &mut pool);
                    found = Some(Witness { database });
                    true
                } else {
                    false
                }
            });
            found
        }
    }
}

/// Convenience: decide with the setting inferred from the catalog.
pub fn propagates_auto(
    catalog: &Catalog,
    sigma: &[SourceCfd],
    view: &SpcuQuery,
    phi: &Cfd,
) -> Result<Verdict, PropError> {
    propagates(catalog, sigma, view, phi, Setting::for_catalog(catalog))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_model::pattern::Pattern;
    use cfd_model::satisfy;
    use cfd_relalg::eval::eval_spcu;
    use cfd_relalg::query::{RaCond, RaExpr};
    use cfd_relalg::schema::{Attribute, RelId, RelationSchema};
    use cfd_relalg::DomainKind;

    fn catalog_two_rels() -> (Catalog, RelId, RelId) {
        let mut c = Catalog::new();
        let mk = |name: &str, attrs: &[&str]| {
            RelationSchema::new(
                name,
                attrs
                    .iter()
                    .map(|a| Attribute::new(*a, DomainKind::Int))
                    .collect(),
            )
            .unwrap()
        };
        let r1 = c.add(mk("R1", &["A", "B", "C"])).unwrap();
        let r2 = c.add(mk("R2", &["D", "E", "F"])).unwrap();
        (c, r1, r2)
    }

    /// Assert the witness really is a counterexample: satisfies Σ, and the
    /// view violates φ.
    fn assert_valid_witness(
        catalog: &Catalog,
        sigma: &[SourceCfd],
        view: &SpcuQuery,
        phi: &Cfd,
        w: &Witness,
    ) {
        w.database
            .validate(catalog)
            .expect("witness conforms to catalog");
        for s in sigma {
            assert!(
                satisfy::satisfies(w.database.relation(s.rel), &s.cfd),
                "witness violates source CFD {}",
                s.cfd
            );
        }
        let v = eval_spcu(view, catalog, &w.database);
        assert!(
            !satisfy::satisfies(&v, phi),
            "witness view does not violate {}",
            phi
        );
    }

    #[test]
    fn fd_propagates_through_projection_keeping_attrs() {
        let (c, r1, _) = catalog_two_rels();
        let view = RaExpr::rel("R1")
            .project(&["A", "B"])
            .normalize(&c)
            .unwrap();
        let sigma = vec![SourceCfd::new(r1, Cfd::fd(&[0], 1).unwrap())];
        let phi = Cfd::fd(&[0], 1).unwrap(); // A → B on the view
        assert!(propagates(&c, &sigma, &view, &phi, Setting::InfiniteDomain)
            .unwrap()
            .is_propagated());
    }

    #[test]
    fn fd_not_propagated_without_source_fd() {
        let (c, _, _) = catalog_two_rels();
        let view = RaExpr::rel("R1")
            .project(&["A", "B"])
            .normalize(&c)
            .unwrap();
        let phi = Cfd::fd(&[0], 1).unwrap();
        let v = propagates(&c, &[], &view, &phi, Setting::InfiniteDomain).unwrap();
        match v {
            Verdict::NotPropagated(w) => assert_valid_witness(&c, &[], &view, &phi, &w),
            Verdict::Propagated => panic!("expected counterexample"),
        }
    }

    #[test]
    fn transitive_fd_through_dropped_attribute() {
        // A → C, C → B on R1; view projects {A, B}: A → B propagated.
        let (c, r1, _) = catalog_two_rels();
        let view = RaExpr::rel("R1")
            .project(&["A", "B"])
            .normalize(&c)
            .unwrap();
        let sigma = vec![
            SourceCfd::new(r1, Cfd::fd(&[0], 2).unwrap()),
            SourceCfd::new(r1, Cfd::fd(&[2], 1).unwrap()),
        ];
        let phi = Cfd::fd(&[0], 1).unwrap();
        assert!(propagates(&c, &sigma, &view, &phi, Setting::InfiniteDomain)
            .unwrap()
            .is_propagated());
    }

    #[test]
    fn selection_makes_fd_conditional() {
        // Source FD holds only under the selection's scope: the view
        // σ(A = 5)(R1) keeps B → C iff R1 satisfies it on A=5 tuples; with
        // no source dependency the CFD ([B] → C, (_ ‖ _)) fails but the
        // *conditional* view is still constrained by source FD B → C.
        let (c, r1, _) = catalog_two_rels();
        let view = RaExpr::rel("R1")
            .select(vec![RaCond::EqConst("A".into(), Value::int(5))])
            .normalize(&c)
            .unwrap();
        let sigma = vec![SourceCfd::new(r1, Cfd::fd(&[1], 2).unwrap())];
        let phi = Cfd::fd(&[1], 2).unwrap();
        assert!(propagates(&c, &sigma, &view, &phi, Setting::InfiniteDomain)
            .unwrap()
            .is_propagated());
        // and the selection constant itself is propagated: (A → A, (_ ‖ 5))
        let const_a = Cfd::const_col(0, 5i64);
        assert!(
            propagates(&c, &sigma, &view, &const_a, Setting::InfiniteDomain)
                .unwrap()
                .is_propagated()
        );
    }

    #[test]
    fn union_breaks_fd_but_keeps_conditional_version() {
        // Example 1.1 in miniature: V = (R1 × {CC:44}) ∪ (R2-as-R1 × {CC:1});
        // zip → street holds on R1 only; on the view it survives only with
        // the CC = 44 condition.
        let (c, r1, _r2) = catalog_two_rels();
        let q1 = RaExpr::rel("R1").with_const("CC", Value::int(44), DomainKind::Int);
        let q2 = RaExpr::rel("R2")
            .rename(&[("D", "A"), ("E", "B"), ("F", "C")])
            .with_const("CC", Value::int(1), DomainKind::Int);
        let view = q1.union(q2).normalize(&c).unwrap();
        assert_eq!(view.schema().names(), vec!["A", "B", "C", "CC"]);
        let sigma = vec![SourceCfd::new(r1, Cfd::fd(&[0], 1).unwrap())]; // A → B on R1 only

        // plain FD A → B on the view: NOT propagated (R2 tuples unconstrained)
        let fd = Cfd::fd(&[0], 1).unwrap();
        let verdict = propagates(&c, &sigma, &view, &fd, Setting::InfiniteDomain).unwrap();
        match verdict {
            Verdict::NotPropagated(w) => assert_valid_witness(&c, &sigma, &view, &fd, &w),
            Verdict::Propagated => panic!("plain FD should fail across the union"),
        }

        // CFD ([CC, A] → B, (44, _ ‖ _)): propagated
        let cfd = Cfd::new(
            vec![(3, Pattern::cst(44)), (0, Pattern::Wild)],
            1,
            Pattern::Wild,
        )
        .unwrap();
        assert!(propagates(&c, &sigma, &view, &cfd, Setting::InfiniteDomain)
            .unwrap()
            .is_propagated());

        // and with the wrong country code it fails
        let wrong = Cfd::new(
            vec![(3, Pattern::cst(1)), (0, Pattern::Wild)],
            1,
            Pattern::Wild,
        )
        .unwrap();
        let verdict = propagates(&c, &sigma, &view, &wrong, Setting::InfiniteDomain).unwrap();
        match verdict {
            Verdict::NotPropagated(w) => assert_valid_witness(&c, &sigma, &view, &wrong, &w),
            Verdict::Propagated => panic!("CC=1 branch is unconstrained"),
        }
    }

    #[test]
    fn attr_eq_propagated_from_selection() {
        let (c, _, _) = catalog_two_rels();
        let view = RaExpr::rel("R1")
            .select(vec![RaCond::Eq("A".into(), "B".into())])
            .normalize(&c)
            .unwrap();
        let phi = Cfd::attr_eq(0, 1).unwrap();
        assert!(propagates(&c, &[], &view, &phi, Setting::InfiniteDomain)
            .unwrap()
            .is_propagated());
        let not = Cfd::attr_eq(0, 2).unwrap();
        let verdict = propagates(&c, &[], &view, &not, Setting::InfiniteDomain).unwrap();
        match verdict {
            Verdict::NotPropagated(w) => assert_valid_witness(&c, &[], &view, &not, &w),
            Verdict::Propagated => panic!("A = C not enforced"),
        }
    }

    #[test]
    fn join_transfers_dependency_across_relations() {
        // V = π_{A,E}(σ_{C=D}(R1 × R2)); Σ: A → C on R1, D → E on R2.
        // Then A → E on the view.
        let (c, r1, r2) = catalog_two_rels();
        let view = RaExpr::rel("R1")
            .product(RaExpr::rel("R2"))
            .select(vec![RaCond::Eq("C".into(), "D".into())])
            .project(&["A", "E"])
            .normalize(&c)
            .unwrap();
        let sigma = vec![
            SourceCfd::new(r1, Cfd::fd(&[0], 2).unwrap()),
            SourceCfd::new(r2, Cfd::fd(&[0], 1).unwrap()),
        ];
        let phi = Cfd::fd(&[0], 1).unwrap();
        assert!(propagates(&c, &sigma, &view, &phi, Setting::InfiniteDomain)
            .unwrap()
            .is_propagated());
        // dropping either source FD breaks it
        for kept in &sigma {
            let partial = vec![kept.clone()];
            let verdict = propagates(&c, &partial, &view, &phi, Setting::InfiniteDomain).unwrap();
            match verdict {
                Verdict::NotPropagated(w) => assert_valid_witness(&c, &partial, &view, &phi, &w),
                Verdict::Propagated => panic!("join FD should need both source FDs"),
            }
        }
    }

    #[test]
    fn finite_domain_requires_general_setting() {
        // R(A: bool, B: int) with Σ = {([A] → B, (true ‖ 1)),
        // ([A] → B, (false ‖ 1))}; view = identity. (B → B, (_ ‖ 1)) is
        // propagated only by case analysis — the infinite-domain chase
        // misses it, the general setting finds it.
        let mut c = Catalog::new();
        let r = c
            .add(
                RelationSchema::new(
                    "R",
                    vec![
                        Attribute::new("A", DomainKind::Bool),
                        Attribute::new("B", DomainKind::Int),
                    ],
                )
                .unwrap(),
            )
            .unwrap();
        let view = RaExpr::rel("R").normalize(&c).unwrap();
        let sigma = vec![
            SourceCfd::new(
                r,
                Cfd::new(
                    vec![(0, Pattern::cst(Value::Bool(true)))],
                    1,
                    Pattern::cst(1),
                )
                .unwrap(),
            ),
            SourceCfd::new(
                r,
                Cfd::new(
                    vec![(0, Pattern::cst(Value::Bool(false)))],
                    1,
                    Pattern::cst(1),
                )
                .unwrap(),
            ),
        ];
        let phi = Cfd::const_col(1, 1i64);
        assert!(
            !propagates(&c, &sigma, &view, &phi, Setting::InfiniteDomain)
                .unwrap()
                .is_propagated(),
            "chase alone cannot do the case split"
        );
        assert!(propagates(&c, &sigma, &view, &phi, Setting::General)
            .unwrap()
            .is_propagated());
        assert_eq!(Setting::for_catalog(&c), Setting::General);
        // the auto entry point picks the right setting
        assert!(propagates_auto(&c, &sigma, &view, &phi)
            .unwrap()
            .is_propagated());
    }

    #[test]
    fn general_setting_witnesses_are_valid() {
        let mut c = Catalog::new();
        let _ = c
            .add(
                RelationSchema::new(
                    "R",
                    vec![
                        Attribute::new("A", DomainKind::Bool),
                        Attribute::new("B", DomainKind::Int),
                    ],
                )
                .unwrap(),
            )
            .unwrap();
        let view = RaExpr::rel("R").normalize(&c).unwrap();
        let phi = Cfd::fd(&[0], 1).unwrap();
        let verdict = propagates(&c, &[], &view, &phi, Setting::General).unwrap();
        match verdict {
            Verdict::NotPropagated(w) => assert_valid_witness(&c, &[], &view, &phi, &w),
            Verdict::Propagated => panic!("A → B unconstrained"),
        }
    }

    #[test]
    fn arity_validation() {
        let (c, r1, _) = catalog_two_rels();
        let view = RaExpr::rel("R1").project(&["A"]).normalize(&c).unwrap();
        let phi = Cfd::fd(&[0], 2).unwrap(); // view has arity 1
        assert!(matches!(
            propagates(&c, &[], &view, &phi, Setting::InfiniteDomain),
            Err(PropError::ViewCfdOutOfRange { .. })
        ));
        let bad_sigma = vec![SourceCfd::new(r1, Cfd::fd(&[0], 9).unwrap())];
        let ok_phi = Cfd::new(vec![(0, Pattern::Wild)], 0, Pattern::cst(1)).unwrap();
        assert!(matches!(
            propagates(&c, &bad_sigma, &view, &ok_phi, Setting::InfiniteDomain),
            Err(PropError::SourceCfdOutOfRange { .. })
        ));
    }

    #[test]
    fn empty_view_propagates_everything() {
        // Example 3.1: Σ = {(A → B, (_ ‖ b1))}, V = σ(B = b2)(R), b1 ≠ b2:
        // the view is always empty, so every CFD is propagated.
        let (c, r1, _) = catalog_two_rels();
        let view = RaExpr::rel("R1")
            .select(vec![RaCond::EqConst("B".into(), Value::int(2))])
            .normalize(&c)
            .unwrap();
        let sigma = vec![SourceCfd::new(
            r1,
            Cfd::new(vec![(0, Pattern::Wild)], 1, Pattern::cst(1)).unwrap(),
        )];
        for phi in [
            Cfd::fd(&[0], 2).unwrap(),
            Cfd::const_col(2, 77i64),
            Cfd::attr_eq(0, 2).unwrap(),
        ] {
            assert!(
                propagates(&c, &sigma, &view, &phi, Setting::InfiniteDomain)
                    .unwrap()
                    .is_propagated(),
                "{phi} should hold on an always-empty view"
            );
        }
    }
}
