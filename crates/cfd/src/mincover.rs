//! Minimal covers of CFD sets (procedure `MinCover` of \[8\], used at lines 1
//! and 13 of `PropCFD_SPC`, Fig. 2).
//!
//! A *minimal cover* `Σmc` of `Σ` (§4.1) is an equivalent subset such that
//! * no proper subset of `Σmc` is a cover (no redundant CFDs), and
//! * no CFD `φ = (X → A, tp)` in `Σmc` can have its LHS shrunk to some
//!   `Z ⊂ X` while preserving equivalence (no redundant attributes).
//!
//! Only nontrivial CFDs are kept. All implication tests use the
//! infinite-domain chase of [`crate::implication`] — the same setting §4 of
//! the paper assumes — on Σ compiled once per call: an LHS shrink
//! recompiles only that member, and the redundancy test of member `i`
//! skips index `i` instead of rebuilding Σ without it. A test costs one
//! two-tuple chase, `O(|Σ|)` bitset and constant checks per round, and the
//! whole procedure makes `O(|Σ|·|X|²)` tests for LHS size `|X|`. The result is exactly
//! what the same steps give with the generic [`crate::chase`] as the
//! implication test (`tests/properties.rs`).

use crate::cfd::Cfd;
use crate::compiled::CompiledSigma;
use crate::pattern::Pattern;
use cfd_relalg::domain::DomainKind;

/// Compute a minimal cover of `sigma` over a single relation schema with
/// attribute `domains`.
pub fn min_cover(sigma: &[Cfd], domains: &[DomainKind]) -> Vec<Cfd> {
    // 1. Drop trivial CFDs and duplicates.
    let mut work: Vec<Cfd> = Vec::with_capacity(sigma.len());
    for c in sigma {
        if !c.is_trivial() && !work.contains(c) {
            work.push(c.clone());
        }
    }
    // `compiled` mirrors `work` entry for entry from here on.
    let mut compiled = CompiledSigma::new(&work, domains);

    // 2. Remove redundant LHS attributes: replace (X → A, tp) by
    //    (X∖{B} → A, tp') whenever the current set implies the shrunk CFD
    //    (the shrunk CFD always implies the original, so equivalence is
    //    preserved exactly when the set implies it).
    let mut i = 0;
    'next_cfd: while i < work.len() {
        if work[i].as_attr_eq().is_some() {
            i += 1;
            continue; // the (x ‖ x) form has a fixed single-attribute LHS
        }
        loop {
            let lhs: Vec<usize> = work[i].lhs_attrs().collect();
            let mut reduced = None;
            for drop_attr in lhs {
                let cand = shrink_lhs(&work[i], drop_attr);
                if cand.is_trivial() {
                    continue;
                }
                if compiled.implies(&cand, None) {
                    reduced = Some(cand);
                    break;
                }
            }
            match reduced {
                Some(c) => {
                    if work.contains(&c) {
                        // shrunk form already present: the original is
                        // redundant outright; re-examine the CFD that slid
                        // into position i
                        work.remove(i);
                        compiled.remove(i);
                        continue 'next_cfd;
                    }
                    compiled.replace(i, &c);
                    work[i] = c;
                }
                None => break,
            }
        }
        i += 1;
    }

    // 3. Remove redundant CFDs: is work[i] implied by the others?
    let mut i = 0;
    while i < work.len() {
        if compiled.implies(&work[i], Some(i)) {
            // drop it; do not advance (work[i] is now the next candidate)
            work.remove(i);
            compiled.remove(i);
        } else {
            i += 1;
        }
    }
    work
}

/// `(X∖{drop} → A, (tp[X∖{drop}] ‖ tp[A]))`.
fn shrink_lhs(phi: &Cfd, drop: usize) -> Cfd {
    let lhs: Vec<(usize, Pattern)> = phi
        .lhs()
        .iter()
        .filter(|(a, _)| *a != drop)
        .cloned()
        .collect();
    Cfd::new(lhs, phi.rhs_attr(), phi.rhs_pattern().clone())
        .expect("shrinking a valid LHS keeps it valid")
}

/// Partitioned minimal cover: split `sigma` into chunks of size `chunk` and
/// minimize each independently (the §4.3 optimization used inside `RBR` to
/// bound intermediate growth in `O(|Γ|·k0²)` instead of `O(|Γ|³)`).
///
/// The result is a cover of `sigma` (each chunk stays equivalent) but not
/// necessarily minimal across chunks.
pub fn min_cover_partitioned(sigma: &[Cfd], domains: &[DomainKind], chunk: usize) -> Vec<Cfd> {
    assert!(chunk > 0, "chunk size must be positive");
    let mut out = Vec::with_capacity(sigma.len());
    for part in sigma.chunks(chunk) {
        out.extend(min_cover(part, domains));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::implication::equivalent;

    const INT4: [DomainKind; 4] = [
        DomainKind::Int,
        DomainKind::Int,
        DomainKind::Int,
        DomainKind::Int,
    ];

    #[test]
    fn drops_trivial_and_duplicate() {
        let trivial = Cfd::new(vec![(0, Pattern::Wild)], 0, Pattern::Wild).unwrap();
        let fd = Cfd::fd(&[0], 1).unwrap();
        let out = min_cover(&[trivial, fd.clone(), fd.clone()], &INT4);
        assert_eq!(out, vec![fd]);
    }

    #[test]
    fn removes_redundant_cfd() {
        // A → B, B → C, A → C: the last is implied
        let sigma = vec![
            Cfd::fd(&[0], 1).unwrap(),
            Cfd::fd(&[1], 2).unwrap(),
            Cfd::fd(&[0], 2).unwrap(),
        ];
        let out = min_cover(&sigma, &INT4);
        assert_eq!(out.len(), 2);
        assert!(equivalent(&out, &sigma, &INT4));
    }

    #[test]
    fn shrinks_lhs() {
        // A → B makes AC → B reducible to A → B (then redundant)
        let sigma = vec![Cfd::fd(&[0], 1).unwrap(), Cfd::fd(&[0, 2], 1).unwrap()];
        let out = min_cover(&sigma, &INT4);
        assert_eq!(out, vec![Cfd::fd(&[0], 1).unwrap()]);
    }

    #[test]
    fn shrink_respects_patterns() {
        // ([A,C] → B, (5, _ ‖ _)) with ([A] → B, (5 ‖ _)) present: reducible
        let spec = Cfd::new(vec![(0, Pattern::cst(5))], 1, Pattern::Wild).unwrap();
        let wide = Cfd::new(
            vec![(0, Pattern::cst(5)), (2, Pattern::Wild)],
            1,
            Pattern::Wild,
        )
        .unwrap();
        let out = min_cover(&[spec.clone(), wide], &INT4);
        assert_eq!(out, vec![spec]);
    }

    #[test]
    fn keeps_independent_cfds() {
        let sigma = vec![Cfd::fd(&[0], 1).unwrap(), Cfd::fd(&[2], 3).unwrap()];
        let out = min_cover(&sigma, &INT4);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn output_is_equivalent_cover() {
        let sigma = vec![
            Cfd::fd(&[0, 1], 2).unwrap(),
            Cfd::fd(&[0], 1).unwrap(),
            Cfd::fd(&[0], 2).unwrap(),
            Cfd::new(vec![(0, Pattern::cst(1))], 3, Pattern::cst(9)).unwrap(),
        ];
        let out = min_cover(&sigma, &INT4);
        assert!(equivalent(&out, &sigma, &INT4));
        assert!(out.len() <= sigma.len());
    }

    #[test]
    fn attr_eq_kept_but_not_shrunk() {
        let sigma = vec![Cfd::attr_eq(0, 1).unwrap()];
        let out = min_cover(&sigma, &INT4);
        assert_eq!(out, sigma);
    }

    #[test]
    fn partitioned_is_a_cover() {
        let sigma = vec![
            Cfd::fd(&[0], 1).unwrap(),
            Cfd::fd(&[0], 1).unwrap(),
            Cfd::fd(&[1], 2).unwrap(),
            Cfd::fd(&[0], 2).unwrap(),
        ];
        let out = min_cover_partitioned(&sigma, &INT4, 2);
        assert!(equivalent(&out, &sigma, &INT4));
    }

    #[test]
    fn redundant_via_constants() {
        // A = 5 (const col) makes ([A] → B, (5 ‖ _)) equivalent to
        // ([A] → B, (_ ‖ _)); cover keeps an equivalent, smaller set
        let sigma = vec![
            Cfd::const_col(0, 5i64),
            Cfd::new(vec![(0, Pattern::cst(5))], 1, Pattern::Wild).unwrap(),
            Cfd::fd(&[0], 1).unwrap(),
        ];
        let out = min_cover(&sigma, &INT4);
        assert!(equivalent(&out, &sigma, &INT4));
        assert!(out.len() < sigma.len());
    }
}
