//! Σ compiled for the infinite-domain implication test `Σ |= φ`.
//!
//! The test is a chase on a two-tuple instance (one tuple for
//! `(A → B, (x ‖ x))` goals). With only two tuples of one schema, every
//! chase step reduces to a few machine operations once Σ is compiled:
//!
//! * constants are interned to `u32` ids;
//! * a standard CFD `(X → B, tp)` becomes the bitset of `X`, the list of
//!   `(attribute, constant id)` pairs of `tp[X]`, the attribute `B` and the
//!   constant id of `tp[B]` (if any);
//! * `(A → B, (x ‖ x))` becomes the attribute pair `(A, B)`.
//!
//! The state is a union–find over the `2·arity` cells with `u32` bindings,
//! one domain per class, and the bitset `E` of attributes on which the two
//! tuples are equal (same class or the same constant). A CFD fires on the
//! pair `(t0, t1)` when `X ⊆ E` — one AND per 64 attributes — and the
//! constants of `tp[X]` match, and on `(ti, ti)` when the constants match.
//! Clashes (`ConstConflict`, `EmptyDomain`, `OutOfDomain`) arise exactly
//! where [`TermUf`](cfd_relalg::unify::TermUf) raises them, so the answers
//! equal those of the generic [`ChaseInstance`](crate::chase::ChaseInstance)
//! on the same instance.
//!
//! Because the chase is a least fixpoint of monotone rules, the order in
//! which CFDs fire does not change the outcome, and a conclusion that holds
//! once holds at the fixpoint (or the chase becomes undefined, which also
//! answers `true`). [`CompiledSigma::implies`] stops at that point.

use crate::cfd::Cfd;
use cfd_relalg::domain::DomainKind;
use cfd_relalg::unify::Clash;
use cfd_relalg::Value;
use std::collections::BTreeMap;

/// "No constant" in binding and constant-id slots.
const NONE: u32 = u32::MAX;

/// One compiled CFD of Σ.
#[derive(Debug)]
enum Rule {
    /// `(A → B, (x ‖ x))`: `t[A] = t[B]` in every tuple.
    AttrEq(u32, u32),
    /// `(X → B, tp)`; the bitset of `X` lives in [`CompiledSigma::masks`].
    Std {
        /// `(attribute, constant id)` for each constant of `tp[X]`.
        consts: Box<[(u32, u32)]>,
        /// `B`.
        rhs: u32,
        /// Constant id of `tp[B]`, or [`NONE`] for `_`.
        rhs_const: u32,
    },
}

/// Interned constants and domains shared by Σ and the goals.
#[derive(Debug, Default)]
struct Tables {
    consts: Vec<Value>,
    ids: BTreeMap<Value, u32>,
    /// The distinct attribute domains.
    doms: Vec<DomainKind>,
    /// Index into `doms` per attribute.
    attr_dom: Vec<u32>,
}

impl Tables {
    fn new(domains: &[DomainKind]) -> Self {
        let mut t = Tables::default();
        for d in domains {
            let id = match t.doms.iter().position(|x| x == d) {
                Some(i) => i,
                None => {
                    t.doms.push(d.clone());
                    t.doms.len() - 1
                }
            };
            t.attr_dom.push(id as u32);
        }
        t
    }

    fn intern(&mut self, v: &Value) -> u32 {
        if let Some(&id) = self.ids.get(v) {
            return id;
        }
        let id = self.consts.len() as u32;
        self.consts.push(v.clone());
        self.ids.insert(v.clone(), id);
        id
    }
}

/// The two-tuple chase state: cell `r·arity + a` is attribute `a` of tuple
/// `r`.
#[derive(Debug, Default)]
struct TwoRow {
    arity: usize,
    parent: Vec<u32>,
    bound: Vec<u32>,
    /// Domain per class root: an index into `Tables::doms`, or past its end
    /// into `meets`.
    dom: Vec<u32>,
    /// Domain intersections created by unions of differently typed classes.
    meets: Vec<DomainKind>,
    /// Attributes on which the two tuples are equal.
    eq: Vec<u64>,
    /// `eq` must be recomputed before its next use.
    eq_stale: bool,
}

impl TwoRow {
    fn reset(&mut self, t: &Tables) {
        let n = t.attr_dom.len();
        self.arity = n;
        self.parent.clear();
        self.parent.extend(0..2 * n as u32);
        self.bound.clear();
        self.bound.resize(2 * n, NONE);
        self.dom.clear();
        self.dom.extend(t.attr_dom.iter().chain(&t.attr_dom));
        self.meets.clear();
        self.eq.clear();
        self.eq.resize(n.div_ceil(64), 0);
        self.eq_stale = false;
    }

    fn find(&mut self, x: u32) -> u32 {
        let mut x = x;
        while self.parent[x as usize] != x {
            let up = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = up;
            x = up;
        }
        x
    }

    fn domain<'a>(&'a self, t: &'a Tables, d: u32) -> &'a DomainKind {
        match t.doms.get(d as usize) {
            Some(dom) => dom,
            None => &self.meets[d as usize - t.doms.len()],
        }
    }

    /// Same class, or both bound to the same constant.
    fn equal(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        ra == rb
            || (self.bound[ra as usize] != NONE
                && self.bound[ra as usize] == self.bound[rb as usize])
    }

    fn bound_to(&mut self, x: u32, c: u32) -> bool {
        let r = self.find(x);
        self.bound[r as usize] == c
    }

    /// `TermUf::union`.
    fn union(&mut self, t: &Tables, a: u32, b: u32) -> Result<bool, Clash> {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return Ok(false);
        }
        let (da, db) = (self.dom[ra as usize], self.dom[rb as usize]);
        let dom = if da == db {
            da
        } else {
            let meet = self
                .domain(t, da)
                .intersect(self.domain(t, db))
                .ok_or(Clash::EmptyDomain)?;
            if meet == *self.domain(t, da) {
                da
            } else if meet == *self.domain(t, db) {
                db
            } else {
                self.meets.push(meet);
                (t.doms.len() + self.meets.len() - 1) as u32
            }
        };
        let (ba, bb) = (self.bound[ra as usize], self.bound[rb as usize]);
        let bound = match (ba, bb) {
            (NONE, b) => b,
            (a, NONE) => a,
            (a, b) if a == b => a,
            (a, b) => {
                let (x, y) = (&t.consts[a as usize], &t.consts[b as usize]);
                return Err(Clash::ConstConflict(x.clone(), y.clone()));
            }
        };
        // A bound class's domain holds its constant, so only a narrowed
        // domain needs the check.
        if bound != NONE && da != db && !self.domain(t, dom).contains(&t.consts[bound as usize]) {
            return Err(Clash::OutOfDomain(t.consts[bound as usize].clone()));
        }
        self.parent[rb as usize] = ra;
        self.bound[ra as usize] = bound;
        self.dom[ra as usize] = dom;
        self.eq_stale = true;
        Ok(true)
    }

    /// `TermUf::bind`.
    fn bind(&mut self, t: &Tables, x: u32, c: u32) -> Result<bool, Clash> {
        let r = self.find(x) as usize;
        let v = &t.consts[c as usize];
        if !self.domain(t, self.dom[r]).contains(v) {
            return Err(Clash::OutOfDomain(v.clone()));
        }
        match self.bound[r] {
            NONE => {
                self.bound[r] = c;
                self.eq_stale = true;
                Ok(true)
            }
            old if old == c => Ok(false),
            old => Err(Clash::ConstConflict(
                t.consts[old as usize].clone(),
                v.clone(),
            )),
        }
    }

    /// Is `mask ⊆ E`?
    fn eq_covers(&mut self, mask: &[u64]) -> bool {
        if self.eq_stale {
            self.eq_stale = false;
            let n = self.arity as u32;
            for a in 0..n {
                let bit = 1u64 << (a % 64);
                if self.equal(a, n + a) {
                    self.eq[(a / 64) as usize] |= bit;
                }
            }
        }
        mask.iter().zip(&self.eq).all(|(m, e)| m & !e == 0)
    }
}

/// Σ over one relation schema, compiled once and queried many times.
///
/// [`CompiledSigma::replace`] and [`CompiledSigma::remove`] keep it in step
/// with an edited Σ; a query can leave one member out (`skip`), which is
/// how `MinCover` tests a member for redundancy.
#[derive(Debug)]
pub(crate) struct CompiledSigma {
    t: Tables,
    rules: Vec<Rule>,
    /// `words` bitset words per rule, in rule order (empty for `AttrEq`).
    masks: Vec<u64>,
    words: usize,
    st: TwoRow,
}

impl CompiledSigma {
    /// Compile `sigma` over attribute `domains`.
    pub(crate) fn new(sigma: &[Cfd], domains: &[DomainKind]) -> Self {
        let words = domains.len().div_ceil(64);
        let mut out = CompiledSigma {
            t: Tables::new(domains),
            rules: Vec::with_capacity(sigma.len()),
            masks: Vec::with_capacity(sigma.len() * words),
            words,
            st: TwoRow::default(),
        };
        for cfd in sigma {
            let (rule, mask) = out.compile(cfd);
            out.rules.push(rule);
            out.masks.extend(mask);
        }
        out
    }

    fn compile(&mut self, cfd: &Cfd) -> (Rule, Vec<u64>) {
        let mut mask = vec![0u64; self.words];
        if let Some((a, b)) = cfd.as_attr_eq() {
            return (Rule::AttrEq(a as u32, b as u32), mask);
        }
        let mut consts = Vec::new();
        for (a, pat) in cfd.lhs() {
            mask[a / 64] |= 1 << (a % 64);
            if let Some(v) = pat.as_const() {
                consts.push((*a as u32, self.t.intern(v)));
            }
        }
        let rhs_const = match cfd.rhs_pattern().as_const() {
            Some(v) => self.t.intern(v),
            None => NONE,
        };
        let rule = Rule::Std {
            consts: consts.into(),
            rhs: cfd.rhs_attr() as u32,
            rhs_const,
        };
        (rule, mask)
    }

    /// Replace member `i` of Σ by `cfd`.
    pub(crate) fn replace(&mut self, i: usize, cfd: &Cfd) {
        let (rule, mask) = self.compile(cfd);
        self.rules[i] = rule;
        self.masks[i * self.words..(i + 1) * self.words].copy_from_slice(&mask);
    }

    /// Remove member `i` of Σ (later members shift down by one).
    pub(crate) fn remove(&mut self, i: usize) {
        self.rules.remove(i);
        self.masks.drain(i * self.words..(i + 1) * self.words);
    }

    /// `Σ ∖ {Σ[skip]} |= phi` in the infinite-domain setting (`true` stays
    /// sound with finite domains).
    pub(crate) fn implies(&mut self, phi: &Cfd, skip: Option<usize>) -> bool {
        self.st.reset(&self.t);
        let n = self.st.arity as u32;
        if let Some((a, b)) = phi.as_attr_eq() {
            // One tuple: is t[A] = t[B] forced?
            let (a, b) = (a as u32, b as u32);
            // A clash: no tuple can exist at all.
            return self.chase(skip, false, |st| st.equal(a, b)).unwrap_or(true);
        }
        // Premise: t0[X] = t1[X] ≍ tp[X].
        for (a, pat) in phi.lhs() {
            let a = *a as u32;
            if self.st.union(&self.t, a, n + a).is_err() {
                return true;
            }
            if let Some(v) = pat.as_const() {
                let c = self.t.intern(v);
                if self.st.bind(&self.t, a, c).is_err() {
                    return true; // the premise alone is unsatisfiable
                }
            }
        }
        // Conclusion: t0[B] = t1[B] ≍ tp[B].
        let b = phi.rhs_attr() as u32;
        let want = match phi.rhs_pattern().as_const() {
            Some(v) => self.t.intern(v),
            None => NONE,
        };
        let forced = |st: &mut TwoRow| st.equal(b, n + b) && (want == NONE || st.bound_to(b, want));
        // A clash: no pair can match the premise in any model.
        self.chase(skip, true, forced).unwrap_or(true)
    }

    /// Chase to fixpoint, or until `done` holds. `pair` selects the
    /// two-tuple instance; otherwise only tuple 0 takes part.
    fn chase(
        &mut self,
        skip: Option<usize>,
        pair: bool,
        done: impl Fn(&mut TwoRow) -> bool,
    ) -> Result<bool, Clash> {
        let (t, st, words) = (&self.t, &mut self.st, self.words);
        let n = st.arity as u32;
        let offsets = [0, n];
        let rows = if pair { &offsets[..] } else { &offsets[..1] };
        loop {
            if done(st) {
                return Ok(true);
            }
            let mut changed = false;
            for (k, rule) in self.rules.iter().enumerate() {
                if skip == Some(k) {
                    continue;
                }
                match rule {
                    Rule::AttrEq(a, b) => {
                        for off in rows {
                            changed |= st.union(t, off + a, off + b)?;
                        }
                    }
                    Rule::Std {
                        consts,
                        rhs,
                        rhs_const,
                    } => {
                        // (ti, ti): only a constant tp[B] can change anything.
                        if *rhs_const != NONE {
                            for off in rows {
                                if consts.iter().all(|&(a, c)| st.bound_to(off + a, c)) {
                                    changed |= st.bind(t, off + rhs, *rhs_const)?;
                                }
                            }
                        }
                        // (t0, t1): X ⊆ E and t0[X] ≍ tp[X].
                        if pair
                            && st.eq_covers(&self.masks[k * words..(k + 1) * words])
                            && consts.iter().all(|&(a, c)| st.bound_to(a, c))
                        {
                            changed |= st.union(t, *rhs, n + rhs)?;
                            if *rhs_const != NONE {
                                changed |= st.bind(t, *rhs, *rhs_const)?;
                            }
                        }
                    }
                }
            }
            if !changed {
                return Ok(done(st));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_relalg::unify::TermUf;

    /// Cheap deterministic stream for the operation sequences below.
    fn lcg(seed: &mut u64) -> u64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *seed >> 33
    }

    /// Random unions and binds on the two-tuple state and on `TermUf`
    /// raise the same clashes and leave the same equalities.
    #[test]
    fn state_matches_term_uf() {
        let domains = vec![
            DomainKind::Int,
            DomainKind::Text,
            DomainKind::Bool,
            DomainKind::new_enum(vec![Value::int(1), Value::int(2), Value::Bool(true)]).unwrap(),
            DomainKind::new_enum(vec![Value::int(2), Value::str("a")]).unwrap(),
            DomainKind::Int,
        ];
        let pool = [
            Value::int(1),
            Value::int(2),
            Value::int(3),
            Value::str("a"),
            Value::Bool(true),
            Value::Bool(false),
        ];
        for seed in 0..400u64 {
            let mut s = seed;
            let mut t = Tables::new(&domains);
            let mut st = TwoRow::default();
            st.reset(&t);
            let mut uf = TermUf::new();
            for _ in 0..2 {
                for d in &domains {
                    uf.add(d.clone());
                }
            }
            let cells = 2 * domains.len() as u64;
            for _ in 0..6 {
                let x = (lcg(&mut s) % cells) as u32;
                let (got, want) = if lcg(&mut s) & 1 == 0 {
                    let y = (lcg(&mut s) % cells) as u32;
                    (st.union(&t, x, y), uf.union(x, y))
                } else {
                    let v = &pool[(lcg(&mut s) % pool.len() as u64) as usize];
                    let c = t.intern(v);
                    (st.bind(&t, x, c), uf.bind(x, v.clone()))
                };
                assert_eq!(got, want, "seed {seed}");
                if want.is_err() {
                    break;
                }
                for a in 0..cells as u32 {
                    for b in 0..cells as u32 {
                        assert_eq!(st.equal(a, b), uf.equal(a, b), "seed {seed}");
                    }
                }
            }
        }
    }
}
