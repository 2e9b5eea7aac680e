//! Grounding: eliminates the non-linear term constructors from a
//! quantifier-free formula so every atom is linear.
//!
//! | construct | treatment | exactness |
//! |---|---|---|
//! | `e / d`, `d > 0` const | fresh `q` with the truncated-division axioms | exact |
//! | `e % d`, `d > 0` const | rewritten to `e − d·q` | exact |
//! | `a[i]` | fresh var per `(a, i)` + Ackermann congruence over pairs | exact (read-only arrays) |
//! | `len(a)` | name-deterministic non-negative var `len!a` | exact |
//! | `x · y` (both non-const) | fresh var per unordered pair + congruence | **weakening** |
//! | `e / t`, `e % t` (non-const or ≤ 0 divisor) | fresh var | **weakening** |
//!
//! Weakening rewrites admit more models, so they keep UNSAT verdicts sound
//! and set [`Grounding::incomplete`] to block SAT claims.

use crate::ast::{BTerm, ITerm};
use crate::preprocess::FreshNames;
use std::collections::BTreeMap;

/// The output of grounding.
#[derive(Clone, Debug)]
pub struct Grounding {
    /// The rewritten formula (only linear atoms).
    pub formula: BTerm,
    /// Definitional constraints for the introduced variables.
    pub defs: BTerm,
    /// True when a weakening rewrite fired.
    pub incomplete: bool,
}

#[derive(Default)]
struct Grounder {
    div_cache: BTreeMap<(ITerm, i64), String>,
    mul_cache: BTreeMap<(ITerm, ITerm), String>,
    select_cache: BTreeMap<(String, ITerm), String>,
    selects_by_array: BTreeMap<String, Vec<(ITerm, String)>>,
    len_cache: BTreeMap<String, String>,
    opaque_count: u64,
    defs: Vec<BTerm>,
    incomplete: bool,
}

impl Grounder {
    fn term(&mut self, t: &ITerm, fresh: &mut FreshNames) -> ITerm {
        match t {
            ITerm::Const(_) | ITerm::Var(_) => t.clone(),
            ITerm::Add(a, b) => self.term(a, fresh).add(self.term(b, fresh)),
            ITerm::Sub(a, b) => self.term(a, fresh).sub(self.term(b, fresh)),
            ITerm::Neg(a) => ITerm::Neg(Box::new(self.term(a, fresh))),
            ITerm::Mul(a, b) => {
                let ga = self.term(a, fresh);
                let gb = self.term(b, fresh);
                if is_constant(&ga) || is_constant(&gb) {
                    return ga.mul(gb);
                }
                // Nonlinear: uninterpreted, canonical under commutativity.
                let key = if ga <= gb {
                    (ga.clone(), gb.clone())
                } else {
                    (gb.clone(), ga.clone())
                };
                self.incomplete = true;
                let name = self
                    .mul_cache
                    .entry(key)
                    .or_insert_with(|| fresh.fresh("mul"))
                    .clone();
                ITerm::Var(name)
            }
            ITerm::Div(a, b) => {
                let ga = self.term(a, fresh);
                let gb = self.term(b, fresh);
                if let ITerm::Const(d) = gb {
                    if d > 0 {
                        return ITerm::Var(self.div_var(ga, d, fresh));
                    }
                }
                self.opaque(fresh)
            }
            ITerm::Mod(a, b) => {
                let ga = self.term(a, fresh);
                let gb = self.term(b, fresh);
                if let ITerm::Const(d) = gb {
                    if d > 0 {
                        // e % d = e − d·(e / d), exact for truncated division.
                        let q = self.div_var(ga.clone(), d, fresh);
                        return ga.sub(ITerm::Const(d).mul(ITerm::Var(q)));
                    }
                }
                self.opaque(fresh)
            }
            ITerm::Select(arr, idx) => {
                let gidx = self.term(idx, fresh);
                let key = (arr.clone(), gidx.clone());
                if let Some(name) = self.select_cache.get(&key) {
                    return ITerm::Var(name.clone());
                }
                let name = fresh.fresh(&format!("sel_{arr}"));
                self.select_cache.insert(key, name.clone());
                self.selects_by_array
                    .entry(arr.clone())
                    .or_default()
                    .push((gidx, name.clone()));
                ITerm::Var(name)
            }
            ITerm::Len(arr) => {
                if let Some(name) = self.len_cache.get(arr) {
                    return ITerm::Var(name.clone());
                }
                // Name-deterministic, not counter-fresh: `len` is a source
                // keyword, so `len!{arr}` can never collide with a program
                // variable or a relational rename, and two groundings of the
                // same array's length — even in separate `assert` calls of
                // one incremental session — agree on the variable. That
                // agreement is what lets sessions assert a hypothesis one
                // conjunct at a time without severing length facts.
                let name = format!("len!{arr}");
                self.len_cache.insert(arr.clone(), name.clone());
                self.defs.push(ITerm::Var(name.clone()).ge(ITerm::Const(0)));
                ITerm::Var(name)
            }
        }
    }

    fn opaque(&mut self, fresh: &mut FreshNames) -> ITerm {
        self.incomplete = true;
        self.opaque_count += 1;
        ITerm::Var(fresh.fresh("opaque"))
    }

    fn div_var(&mut self, e: ITerm, d: i64, fresh: &mut FreshNames) -> String {
        if let Some(name) = self.div_cache.get(&(e.clone(), d)) {
            return name.clone();
        }
        let name = fresh.fresh("div");
        self.div_cache.insert((e.clone(), d), name.clone());
        let q = ITerm::Var(name.clone());
        let dq = ITerm::Const(d).mul(q);
        // Truncated division, d > 0:
        //   e ≥ 0 ⇒ d·q ≤ e ≤ d·q + (d−1)
        //   e ≤ 0 ⇒ d·q − (d−1) ≤ e ≤ d·q
        let nonneg = e.clone().ge(ITerm::Const(0)).implies(
            dq.clone()
                .le(e.clone())
                .and(e.clone().le(dq.clone().add(ITerm::Const(d - 1)))),
        );
        let nonpos = e.clone().le(ITerm::Const(0)).implies(
            dq.clone()
                .sub(ITerm::Const(d - 1))
                .le(e.clone())
                .and(e.le(dq)),
        );
        self.defs.push(nonneg.and(nonpos));
        name
    }

    fn formula(&mut self, b: &BTerm, fresh: &mut FreshNames) -> BTerm {
        match b {
            BTerm::True | BTerm::False => b.clone(),
            BTerm::Atom(rel, lhs, rhs) => {
                BTerm::Atom(*rel, self.term(lhs, fresh), self.term(rhs, fresh))
            }
            BTerm::And(a, c) => BTerm::And(
                Box::new(self.formula(a, fresh)),
                Box::new(self.formula(c, fresh)),
            ),
            BTerm::Or(a, c) => BTerm::Or(
                Box::new(self.formula(a, fresh)),
                Box::new(self.formula(c, fresh)),
            ),
            BTerm::Implies(a, c) => BTerm::Implies(
                Box::new(self.formula(a, fresh)),
                Box::new(self.formula(c, fresh)),
            ),
            BTerm::Not(a) => BTerm::Not(Box::new(self.formula(a, fresh))),
            BTerm::Exists(_, _) | BTerm::Forall(_, _) => {
                unreachable!("groundify requires a quantifier-free input")
            }
        }
    }

    fn congruence_defs(&mut self) {
        // Ackermann congruence for array reads: i₁ = i₂ ⇒ a[i₁] = a[i₂].
        for reads in self.selects_by_array.values() {
            for (i, (idx1, v1)) in reads.iter().enumerate() {
                for (idx2, v2) in reads.iter().skip(i + 1) {
                    let antecedent = idx1.clone().eq_term(idx2.clone());
                    let consequent = ITerm::Var(v1.clone()).eq_term(ITerm::Var(v2.clone()));
                    self.defs.push(antecedent.implies(consequent));
                }
            }
        }
        // Congruence for uninterpreted products.
        let entries: Vec<((ITerm, ITerm), String)> = self
            .mul_cache
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        for (i, ((a1, b1), v1)) in entries.iter().enumerate() {
            for ((a2, b2), v2) in entries.iter().skip(i + 1) {
                let antecedent = a1
                    .clone()
                    .eq_term(a2.clone())
                    .and(b1.clone().eq_term(b2.clone()));
                let consequent = ITerm::Var(v1.clone()).eq_term(ITerm::Var(v2.clone()));
                self.defs.push(antecedent.implies(consequent));
            }
        }
    }
}

fn is_constant(t: &ITerm) -> bool {
    // Constant in the linear sense: its polynomial view has no variables.
    crate::linear::linear_view(t, &crate::linear::var_name).is_some_and(|(m, _)| m.is_empty())
}

/// Grounds a quantifier-free formula.
///
/// # Panics
///
/// Panics when the input still contains quantifiers.
pub fn groundify(b: &BTerm, fresh: &mut FreshNames) -> Grounding {
    let mut g = Grounder::default();
    let formula = g.formula(b, fresh);
    g.congruence_defs();
    Grounding {
        formula,
        defs: BTerm::conj(g.defs.clone()),
        incomplete: g.incomplete,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Rel;

    fn x() -> ITerm {
        ITerm::var("x")
    }

    #[test]
    fn linear_formula_is_untouched() {
        let b = x().add(ITerm::Const(3)).le(ITerm::var("y"));
        let mut fresh = FreshNames::new();
        let g = groundify(&b, &mut fresh);
        assert_eq!(g.formula, b);
        assert_eq!(g.defs, BTerm::True);
        assert!(!g.incomplete);
    }

    #[test]
    fn const_mul_stays_linear() {
        let b = ITerm::Const(2).mul(x()).le(ITerm::Const(7));
        let mut fresh = FreshNames::new();
        let g = groundify(&b, &mut fresh);
        assert!(!g.incomplete);
        assert_eq!(g.defs, BTerm::True);
    }

    #[test]
    fn nonlinear_mul_is_weakened_and_cached() {
        let b = x().mul(ITerm::var("y")).le(ITerm::var("y").mul(x()));
        let mut fresh = FreshNames::new();
        let g = groundify(&b, &mut fresh);
        assert!(g.incomplete);
        // Commutativity: both occurrences map to the same fresh var, so the
        // atom is v ≤ v.
        match &g.formula {
            BTerm::Atom(Rel::Le, ITerm::Var(a), ITerm::Var(bv)) => assert_eq!(a, bv),
            other => panic!("expected atom over one var, got {other:?}"),
        }
    }

    #[test]
    fn div_by_positive_constant_is_exact() {
        let q = ITerm::Div(Box::new(x()), Box::new(ITerm::Const(3)));
        let mut fresh = FreshNames::new();
        let g = groundify(&q.eq_term(ITerm::var("r")), &mut fresh);
        assert!(!g.incomplete, "constant division is exact");
        assert_ne!(g.defs, BTerm::True, "division axioms must be emitted");
    }

    #[test]
    fn mod_rewrites_through_div() {
        let m = ITerm::Mod(Box::new(x()), Box::new(ITerm::Const(4)));
        let mut fresh = FreshNames::new();
        let g = groundify(&m.eq_term(ITerm::Const(1)), &mut fresh);
        assert!(!g.incomplete);
        assert_ne!(g.defs, BTerm::True);
    }

    #[test]
    fn div_by_nonconstant_is_weakened() {
        let q = ITerm::Div(Box::new(x()), Box::new(ITerm::var("y")));
        let mut fresh = FreshNames::new();
        let g = groundify(&q.eq_term(ITerm::Const(1)), &mut fresh);
        assert!(g.incomplete);
    }

    #[test]
    fn selects_get_congruence() {
        let a_i = ITerm::Select("a".into(), Box::new(x()));
        let a_j = ITerm::Select("a".into(), Box::new(ITerm::var("j")));
        let b = a_i.le(a_j);
        let mut fresh = FreshNames::new();
        let g = groundify(&b, &mut fresh);
        assert!(!g.incomplete, "array reads are exact via Ackermann");
        // The defs must contain an implication (the congruence axiom).
        let mut found = false;
        fn scan(b: &BTerm, found: &mut bool) {
            match b {
                BTerm::Implies(_, _) => *found = true,
                BTerm::And(l, r) => {
                    scan(l, found);
                    scan(r, found);
                }
                _ => {}
            }
        }
        scan(&g.defs, &mut found);
        assert!(found, "expected congruence axiom in defs");
    }

    #[test]
    fn same_select_shares_one_variable() {
        let a_i = ITerm::Select("a".into(), Box::new(x()));
        let b = a_i.clone().eq_term(a_i);
        let mut fresh = FreshNames::new();
        let g = groundify(&b, &mut fresh);
        match &g.formula {
            BTerm::Atom(Rel::Eq, ITerm::Var(v1), ITerm::Var(v2)) => assert_eq!(v1, v2),
            other => panic!("expected var equality, got {other:?}"),
        }
    }

    #[test]
    fn len_is_nonnegative() {
        let b = ITerm::Len("a".into()).le(ITerm::Const(10));
        let mut fresh = FreshNames::new();
        let g = groundify(&b, &mut fresh);
        assert!(!g.incomplete);
        assert_ne!(g.defs, BTerm::True);
    }
}
