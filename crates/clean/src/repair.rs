//! Greedy attribute-modification repair.
//!
//! A simplified equivalence-class repair in the spirit of Bohannon et al.
//! (SIGMOD 2005), adapted to CFDs: every violation found by code-level
//! detection is resolved by overwriting right-hand-side cells —
//!
//! * a constant clash is fixed by writing the pattern constant,
//! * a pair conflict is fixed by writing the group's *plurality* RHS value
//!   into the minority tuples (ties break to the smallest value, so the
//!   result is deterministic),
//! * an `(A → B, (x ‖ x))` clash is fixed by writing `t[A]` into `t[B]`.
//!
//! Fixes can cascade (a rewritten cell may appear on another CFD's LHS), so
//! the procedure iterates in rounds up to a caller-supplied bound. It is a
//! *heuristic*: finding a minimum-cost repair is NP-complete already for
//! plain FDs, and some CFD sets admit no repair at all (e.g. two constant
//! patterns demanding different values for one column) — the outcome then
//! reports `clean = false` with the best instance reached.
//!
//! The whole loop runs on dictionary codes: the input relation is encoded
//! once into a [`ColumnarRelation`] (with every pattern constant interned
//! up front, since a fix may write a constant absent from the data), rounds
//! detect and patch `u32` code rows, and [`Value`](cfd_relalg::Value)s
//! are materialized once at the end.

use crate::violations::{detect_all_coded, CodedViolation, CodedViolationKind};
use cfd_model::cfd::Cfd;
use cfd_model::columnar::{CodeCell, CodedCfd};
use cfd_relalg::columnar::ColumnarRelation;
use cfd_relalg::instance::Relation;
use cfd_relalg::pool::{Code, ValuePool};
use rustc_hash::FxHashMap;

/// The result of a repair run.
#[derive(Clone, Debug)]
pub struct RepairOutcome {
    /// The repaired (or best-effort) instance.
    pub relation: Relation,
    /// Total number of cell overwrites performed.
    pub cell_changes: usize,
    /// Rounds of detect-and-fix executed.
    pub rounds: usize,
    /// Did the final instance satisfy every CFD?
    pub clean: bool,
}

/// Repair `rel` against `sigma`, iterating at most `max_rounds` rounds.
///
/// Under set semantics repaired tuples may merge, so the output can be
/// smaller than the input — that is the correct behaviour for duplicate
/// resolution.
///
/// Builds a throwaway [`ValuePool`] per call; callers that repair
/// repeatedly over the same value universe (cleaning rounds, benchmark
/// replays, a store-resident dictionary) should use
/// [`repair_with_pool`] and amortize the interning.
pub fn repair(rel: &Relation, sigma: &[Cfd], max_rounds: usize) -> RepairOutcome {
    let mut pool = ValuePool::new();
    repair_with_pool(rel, sigma, max_rounds, &mut pool)
}

/// [`repair`] against a caller-provided dictionary pool.
///
/// The relation's values and Σ's pattern constants are interned into
/// `pool` — codes it already assigned are reused, so a second repair
/// over the same value universe re-interns nothing, and the pool is
/// *never* rebuilt across the detect-and-fix rounds inside one call
/// (rounds work on code rows throughout; values materialize once at
/// the end).
pub fn repair_with_pool(
    rel: &Relation,
    sigma: &[Cfd],
    max_rounds: usize,
    pool: &mut ValuePool,
) -> RepairOutcome {
    let base = ColumnarRelation::from_relation(rel, pool);
    // Intern every pattern constant: fixes write them, and compiled CFDs
    // must never see an Absent cell that later becomes present.
    for cfd in sigma {
        for (_, p) in cfd.lhs() {
            if let Some(v) = p.as_const() {
                pool.intern(v);
            }
        }
        if let Some(v) = cfd.rhs_pattern().as_const() {
            pool.intern(v);
        }
    }
    let coded: Vec<CodedCfd> = sigma.iter().map(|c| CodedCfd::compile(c, pool)).collect();
    let mut rows: Vec<Vec<Code>> = (0..base.len())
        .map(|r| base.row_codes(r).collect())
        .collect();

    let mut cell_changes = 0;
    for round in 0..max_rounds {
        let cols = ColumnarRelation::from_code_rows(&rows);
        // The batched detector shares one grouping pass across CFDs with a
        // common LHS and fans out across threads on large instances.
        let violations: Vec<CodedViolation> = detect_all_coded(&cols, &coded);
        if violations.is_empty() {
            return RepairOutcome {
                relation: cols.to_relation(pool),
                cell_changes,
                rounds: round,
                clean: true,
            };
        }
        // Plan cell overwrites: row → (attr → new code). *Forced* fixes
        // (constant patterns, attribute equalities) are planned first; pair
        // conflicts then adopt any pending forced value as their target, so
        // a constant CFD and the plurality heuristic cannot oscillate by
        // pulling one group in opposite directions round after round.
        let mut plan: FxHashMap<usize, FxHashMap<usize, Code>> = FxHashMap::default();
        for v in &violations {
            let cfd = &coded[v.cfd_index];
            match &v.kind {
                CodedViolationKind::ConstantClash { .. } => {
                    let expected = match cfd.rhs() {
                        CodeCell::Const(c) => c,
                        _ => unreachable!("constant clash from constant-RHS CFD"),
                    };
                    plan.entry(v.rows[0])
                        .or_default()
                        .insert(cfd.rhs_attr(), expected);
                }
                CodedViolationKind::AttrEqClash { .. } => {
                    let (a, b) = cfd.attr_eq().expect("attr-eq violation from attr-eq CFD");
                    let row = v.rows[0];
                    let left = rows[row][a];
                    plan.entry(row).or_default().insert(b, left);
                }
                CodedViolationKind::PairConflict { .. } => {} // second pass
            }
        }
        for v in &violations {
            if !matches!(v.kind, CodedViolationKind::PairConflict { .. }) {
                continue;
            }
            let rhs = coded[v.cfd_index].rhs_attr();
            let forced = v
                .rows
                .iter()
                .find_map(|r| plan.get(r).and_then(|ov| ov.get(&rhs)).copied());
            let target = forced.unwrap_or_else(|| plurality_code(&v.rows, rhs, &rows, pool));
            for &r in &v.rows {
                let current = plan
                    .get(&r)
                    .and_then(|ov| ov.get(&rhs).copied())
                    .unwrap_or(rows[r][rhs]);
                if current != target {
                    plan.entry(r).or_default().insert(rhs, target);
                }
            }
        }
        if plan.is_empty() {
            break; // nothing actionable (should not happen)
        }
        for (row, overwrites) in &plan {
            for (attr, code) in overwrites {
                if rows[*row][*attr] != *code {
                    rows[*row][*attr] = *code;
                    cell_changes += 1;
                }
            }
        }
        // Set semantics: repaired rows may merge.
        rows.sort_unstable();
        rows.dedup();
    }
    let cols = ColumnarRelation::from_code_rows(&rows);
    let clean = detect_all_coded(&cols, &coded).is_empty();
    RepairOutcome {
        relation: cols.to_relation(pool),
        cell_changes,
        rounds: max_rounds,
        clean,
    }
}

/// The most frequent code in column `attr` of the given rows; ties break
/// to the smallest *value* (codes are compared through the pool, since
/// code order is assignment order, not value order).
fn plurality_code(group: &[usize], attr: usize, rows: &[Vec<Code>], pool: &ValuePool) -> Code {
    let mut counts: FxHashMap<Code, usize> = FxHashMap::default();
    for &r in group {
        *counts.entry(rows[r][attr]).or_default() += 1;
    }
    counts
        .into_iter()
        .max_by(|(va, ca), (vb, cb)| ca.cmp(cb).then_with(|| pool.cmp_values(*vb, *va)))
        .map(|(v, _)| v)
        .expect("nonempty violation group")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_model::pattern::Pattern;
    use cfd_model::satisfy;
    use cfd_relalg::instance::Tuple;
    use cfd_relalg::Value;

    fn rel(rows: &[&[i64]]) -> Relation {
        rows.iter()
            .map(|r| r.iter().map(|v| Value::int(*v)).collect::<Tuple>())
            .collect()
    }

    #[test]
    fn already_clean_is_untouched() {
        let r = rel(&[&[1, 2], &[2, 3]]);
        let sigma = vec![Cfd::fd(&[0], 1).unwrap()];
        let out = repair(&r, &sigma, 5);
        assert!(out.clean);
        assert_eq!(out.cell_changes, 0);
        assert_eq!(out.relation, r);
    }

    #[test]
    fn plurality_wins_pair_conflicts() {
        // key 1 maps to 2, 2, 3 → the 3 is overwritten with 2
        let r = rel(&[&[1, 2, 0], &[1, 2, 1], &[1, 3, 2]]);
        let sigma = vec![Cfd::fd(&[0], 1).unwrap()];
        let out = repair(&r, &sigma, 5);
        assert!(out.clean);
        assert_eq!(out.cell_changes, 1);
        assert!(out.relation.tuples().all(|t| t[1] == Value::int(2)));
    }

    #[test]
    fn constant_clash_fixed_with_pattern_constant() {
        let phi = Cfd::new(vec![(0, Pattern::cst(1))], 1, Pattern::cst(9)).unwrap();
        let r = rel(&[&[1, 8], &[1, 7]]);
        let out = repair(&r, std::slice::from_ref(&phi), 5);
        assert!(out.clean);
        assert_eq!(out.cell_changes, 2);
        assert!(satisfy::satisfies(&out.relation, &phi));
        // both tuples became (1, 9) and merged under set semantics
        assert_eq!(out.relation.len(), 1);
    }

    #[test]
    fn attr_eq_clash_copies_left_to_right() {
        let phi = Cfd::attr_eq(0, 1).unwrap();
        let r = rel(&[&[4, 5]]);
        let out = repair(&r, &[phi], 5);
        assert!(out.clean);
        let t = out.relation.tuples().next().unwrap();
        assert_eq!(t[0], t[1]);
    }

    #[test]
    fn repair_writes_constants_absent_from_the_data() {
        // ([A] → B, (1 ‖ 9)) with 9 nowhere in the input: the fix must
        // still be able to write it.
        let phi = Cfd::new(vec![(0, Pattern::cst(1))], 1, Pattern::cst(9)).unwrap();
        let r = rel(&[&[1, 8]]);
        let out = repair(&r, std::slice::from_ref(&phi), 5);
        assert!(out.clean);
        let t = out.relation.tuples().next().unwrap();
        assert_eq!(t[1], Value::int(9));
    }

    #[test]
    fn cascading_fix_converges() {
        // ([A] → B, (1 ‖ 9)) and B → C: fixing B creates a B-group that then
        // forces C to agree.
        let phi1 = Cfd::new(vec![(0, Pattern::cst(1))], 1, Pattern::cst(9)).unwrap();
        let phi2 = Cfd::fd(&[1], 2).unwrap();
        let r = rel(&[&[1, 8, 5], &[2, 9, 6]]);
        let out = repair(&r, &[phi1.clone(), phi2.clone()], 10);
        assert!(out.clean, "cascade should settle: {:?}", out.relation);
        assert!(satisfy::satisfies_all(&out.relation, [&phi1, &phi2]));
    }

    #[test]
    fn unsatisfiable_demands_reported_not_clean() {
        // Two constant columns demanding different values for attribute 1.
        let a = Cfd::const_col(1, 1i64);
        let b = Cfd::const_col(1, 2i64);
        let r = rel(&[&[0, 1]]);
        let out = repair(&r, &[a, b], 4);
        assert!(!out.clean, "no repair exists");
        assert_eq!(out.rounds, 4);
    }

    #[test]
    fn repaired_instance_satisfies_sigma_when_clean() {
        let sigma = vec![
            Cfd::fd(&[0], 1).unwrap(),
            Cfd::new(vec![(0, Pattern::cst(3))], 2, Pattern::cst(0)).unwrap(),
        ];
        let r = rel(&[&[1, 2, 9], &[1, 4, 9], &[3, 0, 7], &[3, 0, 0]]);
        let out = repair(&r, &sigma, 10);
        assert!(out.clean);
        assert!(satisfy::satisfies_all(&out.relation, &sigma));
        assert!(out.cell_changes >= 2);
    }

    #[test]
    fn constant_and_plurality_do_not_oscillate() {
        // Regression: FD A → B plus constant ([A] → B, (20 ‖ 9)). The
        // plurality tie-break alone would pick the *smaller* value (8) for
        // the group while the constant demands 9, swapping forever. The
        // forced fix must win and the repair must converge.
        let fd = Cfd::fd(&[0], 1).unwrap();
        let k = Cfd::new(vec![(0, Pattern::cst(20))], 1, Pattern::cst(9)).unwrap();
        let r = rel(&[&[20, 9], &[20, 8], &[31, 5]]);
        let out = repair(&r, &[fd.clone(), k.clone()], 4);
        assert!(out.clean, "must converge: {:?}", out.relation);
        assert!(satisfy::satisfies_all(&out.relation, [&fd, &k]));
        assert!(out
            .relation
            .tuples()
            .all(|t| t[0] != Value::int(20) || t[1] == Value::int(9)));
        assert_eq!(out.cell_changes, 1, "one forced overwrite suffices");
    }

    #[test]
    fn caller_pool_is_reused_not_rebuilt() {
        // Regression (ISSUE 5): `repair` used to build a fresh pool and
        // re-intern the whole relation on every call. With a caller
        // pool, codes assigned once are reused: a second repair over
        // the same value universe interns nothing, and the multi-round
        // cascade inside one call never rebuilds the pool either.
        let phi1 = Cfd::new(vec![(0, Pattern::cst(1))], 1, Pattern::cst(9)).unwrap();
        let phi2 = Cfd::fd(&[1], 2).unwrap();
        let r = rel(&[&[1, 8, 5], &[2, 9, 6]]);
        let mut pool = ValuePool::new();
        let out1 = repair_with_pool(&r, &[phi1.clone(), phi2.clone()], 10, &mut pool);
        assert!(out1.clean);
        assert!(out1.rounds >= 2, "the cascade takes multiple rounds");
        let after_first = pool.len();
        // Every value the repair can touch is now interned; the codes
        // the pool hands out are stable.
        let code_of_9 = pool.lookup(&Value::int(9)).expect("pattern constant");
        let out2 = repair_with_pool(&r, &[phi1, phi2], 10, &mut pool);
        assert!(out2.clean);
        assert_eq!(out2.relation, out1.relation, "pooled repair is stable");
        assert_eq!(
            pool.len(),
            after_first,
            "second repair over the same universe interns nothing"
        );
        assert_eq!(pool.lookup(&Value::int(9)), Some(code_of_9));
        // The wrapper still behaves identically.
        let out3 = repair(&r, &[Cfd::fd(&[1], 2).unwrap()], 4);
        assert!(out3.clean);
    }

    #[test]
    fn empty_relation_is_trivially_clean() {
        let out = repair(&Relation::new(), &[Cfd::fd(&[0], 1).unwrap()], 3);
        assert!(out.clean);
        assert_eq!(out.cell_changes, 0);
        assert_eq!(out.rounds, 0);
    }
}
