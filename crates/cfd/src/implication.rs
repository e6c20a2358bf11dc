//! Implication and consistency of CFDs.
//!
//! * **Infinite-domain setting**: `Σ |= φ` is decidable in quadratic time
//!   \[8\]; [`implies`] realizes it as a two-tuple chase. The answer `true`
//!   is sound in *both* settings (chase derivations are sound); the answer
//!   `false` is conclusive only without finite-domain attributes. The chase
//!   runs on Σ compiled once per call site (`CompiledSigma`, private):
//!   constants interned to `u32`, each LHS a bitset, and a union–find over
//!   the `2·arity` cells. One chase round costs one bitset AND per CFD and
//!   64 attributes plus a lookup per LHS constant; most tests end after one
//!   round. `MinCover` keeps the compiled Σ for its whole run. The generic
//!   [`ChaseInstance`] is the test oracle for this engine
//!   (`tests/properties.rs` checks that both answer alike) and runs the
//!   general setting below.
//! * **General setting**: coNP-complete \[8\]; [`implies_general`] enumerates
//!   instantiations of finite-domain variables on top of the same chase
//!   (the technique used throughout the paper's appendix).
//! * **Consistency** (`∃ nonempty D |= Σ`): NP-complete in general, PTIME
//!   without finite domains \[8\]; decided by a one-tuple chase because CFD
//!   satisfaction is closed under sub-instances.

use crate::cfd::Cfd;
use crate::chase::ChaseInstance;
use crate::compiled::CompiledSigma;
use cfd_relalg::domain::DomainKind;

/// Outcome of checking a conclusion against a chased pair instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Conclusion {
    /// The conclusion necessarily holds.
    Forced,
    /// A realizable counterexample exists (conclusion can be violated).
    Violable,
}

/// Build the two-tuple premise instance for a standard CFD.
///
/// Returns `None` when the premise is unsatisfiable by itself (so the CFD
/// holds vacuously).
fn premise_instance(phi: &Cfd, domains: &[DomainKind]) -> Option<ChaseInstance> {
    let mut inst = ChaseInstance::new();
    for _ in 0..2 {
        let cells: Vec<u32> = domains.iter().map(|d| inst.uf.add(d.clone())).collect();
        inst.push_row(0, cells);
    }
    for (a, pat) in phi.lhs() {
        let (c0, c1) = (inst.rows[0].cells[*a], inst.rows[1].cells[*a]);
        if inst.uf.union(c0, c1).is_err() {
            return None;
        }
        if let Some(v) = pat.as_const() {
            if inst.uf.bind(c0, v.clone()).is_err() {
                return None;
            }
        }
    }
    Some(inst)
}

/// Check the conclusion of `phi` on a chased (defined) pair instance.
fn check_conclusion(inst: &mut ChaseInstance, phi: &Cfd) -> Conclusion {
    let b = phi.rhs_attr();
    let (c0, c1) = (inst.rows[0].cells[b], inst.rows[1].cells[b]);
    if !inst.uf.equal(c0, c1) {
        // Two distinct unbound-or-differently-bound cells: realizable as a
        // violation (infinite domains give fresh values; with finite domains
        // callers instantiate finite cells before calling this).
        return Conclusion::Violable;
    }
    match phi.rhs_pattern().as_const() {
        None => Conclusion::Forced,
        Some(want) => match inst.uf.binding(c0) {
            Some(v) if &v == want => Conclusion::Forced,
            // Bound to a different constant, or still free: the matched pair
            // (which exists — the chase was defined) violates `≍ tp[B]`.
            _ => Conclusion::Violable,
        },
    }
}

/// Infinite-domain implication test `Σ |= φ` via a two-tuple chase
/// (one-tuple for the `(A → B, (x ‖ x))` form), run on Σ compiled by
/// `CompiledSigma` (the private `compiled` module).
///
/// Complete when no attribute of `domains` is finite; otherwise `true`
/// answers remain sound while `false` answers may be spurious (use
/// [`implies_general`]).
pub fn implies(sigma: &[Cfd], phi: &Cfd, domains: &[DomainKind]) -> bool {
    if phi.is_trivial() || sigma.contains(phi) {
        return true;
    }
    CompiledSigma::new(sigma, domains).implies(phi, None)
}

use crate::chase::any_ground_instantiation as any_instantiation;

/// General-setting implication test (complete with finite-domain
/// attributes; exponential in the number of finite-domain cells).
pub fn implies_general(sigma: &[Cfd], phi: &Cfd, domains: &[DomainKind]) -> bool {
    if phi.is_trivial() || sigma.contains(phi) {
        return true;
    }
    if !domains.iter().any(DomainKind::is_finite) {
        return implies(sigma, phi, domains);
    }
    let groups = [sigma];
    if let Some((a, b)) = phi.as_attr_eq() {
        let mut inst = ChaseInstance::new();
        let cells: Vec<u32> = domains.iter().map(|d| inst.uf.add(d.clone())).collect();
        inst.push_row(0, cells);
        if inst.chase(&groups).is_err() {
            return true;
        }
        return !any_instantiation(&inst, &groups, &mut |trial| {
            let (ca, cb) = (trial.rows[0].cells[a], trial.rows[0].cells[b]);
            !trial.uf.equal(ca, cb)
        });
    }
    let Some(mut inst) = premise_instance(phi, domains) else {
        return true;
    };
    if inst.chase(&groups).is_err() {
        return true;
    }
    !any_instantiation(&inst, &groups, &mut |trial| {
        check_conclusion(trial, phi) == Conclusion::Violable
    })
}

/// Infinite-domain consistency: is there a nonempty instance satisfying Σ?
/// (Complete without finite domains; `true` is sound... see
/// [`is_consistent_general`] for the general setting.)
pub fn is_consistent(sigma: &[Cfd], domains: &[DomainKind]) -> bool {
    let mut inst = ChaseInstance::new();
    let cells: Vec<u32> = domains.iter().map(|d| inst.uf.add(d.clone())).collect();
    inst.push_row(0, cells);
    inst.chase(&[sigma]).is_ok()
}

/// General-setting consistency (NP procedure of \[8\]: instantiate
/// finite-domain cells, then chase).
pub fn is_consistent_general(sigma: &[Cfd], domains: &[DomainKind]) -> bool {
    if !domains.iter().any(DomainKind::is_finite) {
        return is_consistent(sigma, domains);
    }
    let mut inst = ChaseInstance::new();
    let cells: Vec<u32> = domains.iter().map(|d| inst.uf.add(d.clone())).collect();
    inst.push_row(0, cells);
    let groups = [sigma];
    if inst.chase(&groups).is_err() {
        return false;
    }
    any_instantiation(&inst, &groups, &mut |_| true)
}

/// `Σ |= φ` for every `φ` in `phis` (infinite-domain test).
pub fn implies_all(sigma: &[Cfd], phis: &[Cfd], domains: &[DomainKind]) -> bool {
    phis.iter().all(|p| implies(sigma, p, domains))
}

/// Are two CFD sets equivalent (mutual implication, infinite-domain test)?
pub fn equivalent(a: &[Cfd], b: &[Cfd], domains: &[DomainKind]) -> bool {
    implies_all(a, b, domains) && implies_all(b, a, domains)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Pattern;
    use cfd_relalg::Value;

    const INT3: [DomainKind; 3] = [DomainKind::Int, DomainKind::Int, DomainKind::Int];

    #[test]
    fn fd_transitivity() {
        let sigma = vec![Cfd::fd(&[0], 1).unwrap(), Cfd::fd(&[1], 2).unwrap()];
        assert!(implies(&sigma, &Cfd::fd(&[0], 2).unwrap(), &INT3));
        assert!(!implies(&sigma, &Cfd::fd(&[2], 0).unwrap(), &INT3));
    }

    #[test]
    fn fd_augmentation_and_reflexivity() {
        let sigma = vec![Cfd::fd(&[0], 1).unwrap()];
        assert!(implies(&sigma, &Cfd::fd(&[0, 2], 1).unwrap(), &INT3));
        // trivial FD A → A
        assert!(implies(
            &[],
            &Cfd::new(vec![(0, Pattern::Wild)], 0, Pattern::Wild).unwrap(),
            &INT3
        ));
    }

    #[test]
    fn cfd_pattern_refinement() {
        // ([A] → B, (_ ‖ _)) implies ([A] → B, (5 ‖ _)) but not conversely
        let gen = Cfd::fd(&[0], 1).unwrap();
        let spec = Cfd::new(vec![(0, Pattern::cst(5))], 1, Pattern::Wild).unwrap();
        assert!(implies(std::slice::from_ref(&gen), &spec, &INT3));
        assert!(!implies(&[spec], &gen, &INT3));
    }

    #[test]
    fn constant_transitivity() {
        // ([A] → B, (5 ‖ 7)) and ([B] → C, (7 ‖ 9)) imply ([A] → C, (5 ‖ 9))
        let sigma = vec![
            Cfd::new(vec![(0, Pattern::cst(5))], 1, Pattern::cst(7)).unwrap(),
            Cfd::new(vec![(1, Pattern::cst(7))], 2, Pattern::cst(9)).unwrap(),
        ];
        let phi = Cfd::new(vec![(0, Pattern::cst(5))], 2, Pattern::cst(9)).unwrap();
        assert!(implies(&sigma, &phi, &INT3));
        // but the constant must line up
        let bad = Cfd::new(vec![(0, Pattern::cst(5))], 2, Pattern::cst(8)).unwrap();
        assert!(!implies(&sigma, &bad, &INT3));
    }

    #[test]
    fn blocked_constant_transitivity() {
        // ([A] → B, (5 ‖ _)) and ([B] → C, (7 ‖ _)): the wildcard output of
        // the first does not satisfy the constant premise of the second
        let sigma = vec![
            Cfd::new(vec![(0, Pattern::cst(5))], 1, Pattern::Wild).unwrap(),
            Cfd::new(vec![(1, Pattern::cst(7))], 2, Pattern::Wild).unwrap(),
        ];
        let phi = Cfd::new(vec![(0, Pattern::cst(5))], 2, Pattern::Wild).unwrap();
        assert!(!implies(&sigma, &phi, &INT3));
    }

    #[test]
    fn vacuous_premise_implies_anything() {
        // premise forces A = 1 and (via Σ const-col) A = 2: unsatisfiable
        let sigma = vec![Cfd::const_col(0, 2i64)];
        let phi = Cfd::new(vec![(0, Pattern::cst(1))], 1, Pattern::cst(99)).unwrap();
        assert!(implies(&sigma, &phi, &INT3));
    }

    #[test]
    fn attr_eq_implication() {
        // A = B and B = C imply A = C
        let sigma = vec![Cfd::attr_eq(0, 1).unwrap(), Cfd::attr_eq(1, 2).unwrap()];
        assert!(implies(&sigma, &Cfd::attr_eq(0, 2).unwrap(), &INT3));
        assert!(!implies(&sigma[..1], &Cfd::attr_eq(0, 2).unwrap(), &INT3));
    }

    #[test]
    fn attr_eq_from_constants() {
        // A = 5 and B = 5 imply A = B
        let sigma = vec![Cfd::const_col(0, 5i64), Cfd::const_col(1, 5i64)];
        assert!(implies(&sigma, &Cfd::attr_eq(0, 1).unwrap(), &INT3));
        let sigma2 = vec![Cfd::const_col(0, 5i64), Cfd::const_col(1, 6i64)];
        assert!(!implies(&sigma2, &Cfd::attr_eq(0, 1).unwrap(), &INT3));
    }

    #[test]
    fn finite_domain_case_split_needs_general_test() {
        // R(A: bool, B: int); ([A] → B, (true ‖ 1)) and ([A] → B, (false ‖ 1))
        // imply ([B] → B, (_ ‖ 1)) — but only by case analysis on A.
        let domains = [DomainKind::Bool, DomainKind::Int];
        let sigma = vec![
            Cfd::new(
                vec![(0, Pattern::cst(Value::Bool(true)))],
                1,
                Pattern::cst(1),
            )
            .unwrap(),
            Cfd::new(
                vec![(0, Pattern::cst(Value::Bool(false)))],
                1,
                Pattern::cst(1),
            )
            .unwrap(),
        ];
        let phi = Cfd::const_col(1, 1i64);
        assert!(
            !implies(&sigma, &phi, &domains),
            "chase alone is incomplete here"
        );
        assert!(
            implies_general(&sigma, &phi, &domains),
            "instantiation completes it"
        );
        // and general does not over-approximate
        let wrong = Cfd::const_col(1, 2i64);
        assert!(!implies_general(&sigma, &wrong, &domains));
    }

    #[test]
    fn general_equals_infinite_without_finite_domains() {
        let sigma = vec![Cfd::fd(&[0], 1).unwrap(), Cfd::fd(&[1], 2).unwrap()];
        let phi = Cfd::fd(&[0], 2).unwrap();
        assert_eq!(
            implies(&sigma, &phi, &INT3),
            implies_general(&sigma, &phi, &INT3)
        );
    }

    #[test]
    fn consistency_basics() {
        let d = [DomainKind::Int];
        assert!(is_consistent(&[], &d));
        assert!(is_consistent(&[Cfd::const_col(0, 1i64)], &d));
        assert!(!is_consistent(
            &[Cfd::const_col(0, 1i64), Cfd::const_col(0, 2i64)],
            &d
        ));
    }

    #[test]
    fn finite_domain_consistency() {
        // A: enum{1}; (A → A, (_ ‖ 2)) forces A = 2 ∉ dom(A): inconsistent
        let d = [DomainKind::Enum(vec![Value::int(1)])];
        assert!(!is_consistent_general(&[Cfd::const_col(0, 2i64)], &d));
        assert!(is_consistent_general(&[Cfd::const_col(0, 1i64)], &d));
    }

    #[test]
    fn finite_domain_consistency_by_case_exhaustion() {
        // A: bool; tuples with A=true need B=1, and B≠1 via const-col B=2;
        // tuples with A=false need B=2: consistent (choose A=false).
        let d = [DomainKind::Bool, DomainKind::Int];
        let sigma = vec![
            Cfd::new(
                vec![(0, Pattern::cst(Value::Bool(true)))],
                1,
                Pattern::cst(1),
            )
            .unwrap(),
            Cfd::const_col(1, 2i64),
        ];
        assert!(is_consistent_general(&sigma, &d));
        // now forbid both cases
        let sigma2 = vec![
            Cfd::new(
                vec![(0, Pattern::cst(Value::Bool(true)))],
                1,
                Pattern::cst(1),
            )
            .unwrap(),
            Cfd::new(
                vec![(0, Pattern::cst(Value::Bool(false)))],
                1,
                Pattern::cst(1),
            )
            .unwrap(),
            Cfd::const_col(1, 2i64),
        ];
        assert!(!is_consistent_general(&sigma2, &d));
    }

    #[test]
    fn equivalence_of_reordered_sets() {
        let a = vec![Cfd::fd(&[0], 1).unwrap(), Cfd::fd(&[1], 2).unwrap()];
        let b = vec![Cfd::fd(&[1], 2).unwrap(), Cfd::fd(&[0], 1).unwrap()];
        assert!(equivalent(&a, &b, &INT3));
        assert!(!equivalent(&a, &[Cfd::fd(&[0], 1).unwrap()], &INT3));
    }

    #[test]
    fn member_is_implied() {
        let sigma = vec![Cfd::fd(&[0], 1).unwrap()];
        assert!(implies(&sigma, &sigma[0], &INT3));
    }
}
