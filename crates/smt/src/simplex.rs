//! A general simplex solver for linear arithmetic over ℚ with
//! branch-and-bound for integrality, in the style of Dutertre & de Moura
//! (“A fast linear-arithmetic solver for DPLL(T)”, CAV 2006).
//!
//! * Every *bound assertion* carries an optional external `Tag` (the
//!   DPLL(T) driver passes the index of the bound's literal); rational
//!   conflicts report the set of tags whose bounds participate in the
//!   infeasibility (a Farkas-style explanation read off the failing row).
//! * `push`/`pop` snapshot only the bound state — the tableau and the
//!   current β assignment carry over, which is what makes branch-and-bound
//!   and CDCL backtracking cheap. The DPLL(T) driver opens one scope per
//!   asserted literal and calls the rational [`Simplex::check`] at every
//!   propagation fixpoint, so bounds arrive a few at a time.
//! * [`Simplex::check`] does not rescan the tableau: it keeps the set of
//!   basic variables whose bound was tightened or whose value moved since
//!   they were last seen within bounds. Every violated basic variable is
//!   in that set, so Bland's rule (smallest violated index) picks the same
//!   pivots as a full scan would.
//! * All variables are integer-sorted; `check_int` layers branch-and-bound
//!   over the rational `check`, with a node budget to bound divergence on
//!   pathological unbounded problems (exceeding it yields
//!   [`IntCheck::Unknown`], which callers must treat as "not proved").

use crate::linear::{LinForm, VarId};
use crate::rational::Rat;
use std::collections::{BTreeSet, HashMap};

/// External reason attached to a bound (in DPLL(T), the position of the
/// bound's literal among the literals asserted so far).
pub type Tag = u32;

/// An infeasibility explanation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Conflict {
    /// External tags of the participating bounds.
    pub tags: Vec<Tag>,
    /// Whether any internal (untagged, branch-and-bound) bound participated.
    pub used_internal: bool,
}

impl Conflict {
    fn merge(mut self, other: Conflict) -> Conflict {
        self.tags.extend(other.tags);
        self.tags.sort_unstable();
        self.tags.dedup();
        self.used_internal |= other.used_internal;
        self
    }
}

/// Result of an integer feasibility check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IntCheck {
    /// Integer-feasible; the model assigns every variable an integer.
    Feasible(Vec<i128>),
    /// Integer-infeasible with an explanation.
    Infeasible(Conflict),
    /// The branch budget ran out before a verdict.
    Unknown,
}

#[derive(Clone, Debug)]
struct Bound {
    val: Rat,
    tag: Option<Tag>,
}

#[derive(Clone, Copy, Debug)]
enum Dir {
    Lower,
    Upper,
}

#[derive(Debug)]
struct UndoBound {
    var: VarId,
    dir: Dir,
    prev: Option<Bound>,
}

/// The simplex state.
#[derive(Debug, Default)]
pub struct Simplex {
    /// Row per basic variable: `basic = Σ coeff · nonbasic`.
    rows: HashMap<VarId, HashMap<VarId, Rat>>,
    values: Vec<Rat>,
    lower: Vec<Option<Bound>>,
    upper: Vec<Option<Bound>>,
    trail: Vec<UndoBound>,
    scopes: Vec<usize>,
    /// Basic variables that may violate a bound: a superset of the
    /// violated ones, in index order for Bland's rule.
    candidates: BTreeSet<VarId>,
    /// Statistics: pivot operations performed.
    pub pivots: u64,
    /// Statistics: branch-and-bound nodes explored.
    pub branch_nodes: u64,
}

impl Simplex {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Simplex::default()
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.values.len()
    }

    /// Allocates a fresh unbounded variable with value 0.
    pub fn new_var(&mut self) -> VarId {
        let id = self.values.len() as VarId;
        self.values.push(Rat::ZERO);
        self.lower.push(None);
        self.upper.push(None);
        id
    }

    /// Allocates a variable defined as the linear form `f` over existing
    /// variables. The new variable becomes basic with that defining row.
    ///
    /// # Panics
    ///
    /// Panics if `f` references an unknown variable.
    pub fn def_var(&mut self, f: &LinForm) -> VarId {
        let id = self.new_var();
        let mut row: HashMap<VarId, Rat> = HashMap::new();
        for (x, c) in f.iter() {
            assert!(
                (x as usize) < self.values.len() - 1,
                "unknown variable in def"
            );
            let c = Rat::int(c);
            if let Some(xrow) = self.rows.get(&x) {
                // x is basic: substitute its row.
                let xrow = xrow.clone();
                for (y, a) in xrow {
                    let e = row.entry(y).or_insert(Rat::ZERO);
                    *e += c * a;
                }
            } else {
                let e = row.entry(x).or_insert(Rat::ZERO);
                *e += c;
            }
        }
        row.retain(|_, c| !c.is_zero());
        self.values[id as usize] = row
            .iter()
            .map(|(&y, &a)| a * self.values[y as usize])
            .fold(Rat::ZERO, |acc, v| acc + v);
        self.rows.insert(id, row);
        id
    }

    /// The current value β(x).
    pub fn value(&self, x: VarId) -> Rat {
        self.values[x as usize]
    }

    /// Opens a backtracking scope.
    pub fn push(&mut self) {
        self.scopes.push(self.trail.len());
    }

    /// Restores bounds to the last [`Simplex::push`]. Restored bounds are
    /// looser, so no basic variable becomes violated.
    ///
    /// # Panics
    ///
    /// Panics when no scope is open.
    pub fn pop(&mut self) {
        let mark = self.scopes.pop().expect("pop without push");
        while self.trail.len() > mark {
            let undo = self.trail.pop().expect("trail length checked");
            match undo.dir {
                Dir::Lower => self.lower[undo.var as usize] = undo.prev,
                Dir::Upper => self.upper[undo.var as usize] = undo.prev,
            }
        }
    }

    fn is_basic(&self, x: VarId) -> bool {
        self.rows.contains_key(&x)
    }

    /// Asserts `x ≤ val`.
    ///
    /// # Errors
    ///
    /// Returns the conflicting pair of bounds when `val` is below the
    /// current lower bound of `x`.
    pub fn assert_upper(&mut self, x: VarId, val: Rat, tag: Option<Tag>) -> Result<(), Conflict> {
        let xi = x as usize;
        if let Some(u) = &self.upper[xi] {
            if u.val <= val {
                return Ok(());
            }
        }
        if let Some(l) = &self.lower[xi] {
            if val < l.val {
                let mut tags: Vec<Tag> = tag.into_iter().collect();
                let mut used_internal = tag.is_none();
                match l.tag {
                    Some(t) => tags.push(t),
                    None => used_internal = true,
                }
                return Err(Conflict {
                    tags,
                    used_internal,
                });
            }
        }
        self.trail.push(UndoBound {
            var: x,
            dir: Dir::Upper,
            prev: self.upper[xi].clone(),
        });
        self.upper[xi] = Some(Bound { val, tag });
        if self.is_basic(x) {
            self.candidates.insert(x);
        } else if self.values[xi] > val {
            self.update_nonbasic(x, val);
        }
        Ok(())
    }

    /// Asserts `x ≥ val`.
    ///
    /// # Errors
    ///
    /// Returns the conflicting pair of bounds when `val` is above the
    /// current upper bound of `x`.
    pub fn assert_lower(&mut self, x: VarId, val: Rat, tag: Option<Tag>) -> Result<(), Conflict> {
        let xi = x as usize;
        if let Some(l) = &self.lower[xi] {
            if l.val >= val {
                return Ok(());
            }
        }
        if let Some(u) = &self.upper[xi] {
            if val > u.val {
                let mut tags: Vec<Tag> = tag.into_iter().collect();
                let mut used_internal = tag.is_none();
                match u.tag {
                    Some(t) => tags.push(t),
                    None => used_internal = true,
                }
                return Err(Conflict {
                    tags,
                    used_internal,
                });
            }
        }
        self.trail.push(UndoBound {
            var: x,
            dir: Dir::Lower,
            prev: self.lower[xi].clone(),
        });
        self.lower[xi] = Some(Bound { val, tag });
        if self.is_basic(x) {
            self.candidates.insert(x);
        } else if self.values[xi] < val {
            self.update_nonbasic(x, val);
        }
        Ok(())
    }

    /// Sets a nonbasic variable to `val`, updating dependent basics.
    fn update_nonbasic(&mut self, x: VarId, val: Rat) {
        let delta = val - self.values[x as usize];
        if delta.is_zero() {
            return;
        }
        for (&b, row) in &self.rows {
            if let Some(&a) = row.get(&x) {
                self.values[b as usize] += a * delta;
                self.candidates.insert(b);
            }
        }
        self.values[x as usize] = val;
    }

    /// The basic variable violating a bound, smallest index first (Bland's
    /// rule); the bool is whether it is violated below. Drops the
    /// candidates it finds within bounds (or no longer basic).
    fn oob_basic(&mut self) -> Option<(VarId, bool)> {
        while let Some(&b) = self.candidates.first() {
            if self.is_basic(b) {
                let bi = b as usize;
                let beta = self.values[bi];
                if self.lower[bi].as_ref().is_some_and(|l| beta < l.val) {
                    return Some((b, true));
                }
                if self.upper[bi].as_ref().is_some_and(|u| beta > u.val) {
                    return Some((b, false));
                }
            }
            self.candidates.pop_first();
        }
        None
    }

    /// Rational feasibility check.
    ///
    /// # Errors
    ///
    /// Returns a [`Conflict`] naming the bounds responsible when the
    /// asserted bounds are infeasible over ℚ.
    pub fn check(&mut self) -> Result<(), Conflict> {
        loop {
            let Some((xi, below)) = self.oob_basic() else {
                return Ok(());
            };
            let row = self.rows.get(&xi).expect("oob var is basic").clone();
            let target = if below {
                self.lower[xi as usize]
                    .as_ref()
                    .expect("violated below")
                    .val
            } else {
                self.upper[xi as usize]
                    .as_ref()
                    .expect("violated above")
                    .val
            };
            // Find an entering variable (Bland: smallest index).
            let mut entering: Option<VarId> = None;
            let mut candidates: Vec<(VarId, Rat)> = row.iter().map(|(&y, &a)| (y, a)).collect();
            candidates.sort_by_key(|&(y, _)| y);
            for &(y, a) in &candidates {
                let yi = y as usize;
                let ok = if below {
                    // β(xi) must increase.
                    (a.signum() > 0 && self.can_increase(yi))
                        || (a.signum() < 0 && self.can_decrease(yi))
                } else {
                    (a.signum() > 0 && self.can_decrease(yi))
                        || (a.signum() < 0 && self.can_increase(yi))
                };
                if ok {
                    entering = Some(y);
                    break;
                }
            }
            match entering {
                Some(xj) => self.pivot_and_update(xi, target, xj),
                None => {
                    // Infeasible: every nonbasic is at its limiting bound.
                    let mut conflict = Conflict::default();
                    let own = if below {
                        self.lower[xi as usize].as_ref()
                    } else {
                        self.upper[xi as usize].as_ref()
                    };
                    match own.and_then(|b| b.tag) {
                        Some(t) => conflict.tags.push(t),
                        None => conflict.used_internal = true,
                    }
                    for &(y, a) in &candidates {
                        let yi = y as usize;
                        // When xi is violated below, positive coefficients are
                        // stuck at their upper bound and negative ones at
                        // their lower bound; dually above.
                        let bound = if below == (a.signum() > 0) {
                            self.upper[yi].as_ref()
                        } else {
                            self.lower[yi].as_ref()
                        };
                        match bound.map(|b| b.tag) {
                            Some(Some(t)) => conflict.tags.push(t),
                            _ => conflict.used_internal = true,
                        }
                    }
                    conflict.tags.sort_unstable();
                    conflict.tags.dedup();
                    return Err(conflict);
                }
            }
        }
    }

    fn can_increase(&self, yi: usize) -> bool {
        match &self.upper[yi] {
            None => true,
            Some(u) => self.values[yi] < u.val,
        }
    }

    fn can_decrease(&self, yi: usize) -> bool {
        match &self.lower[yi] {
            None => true,
            Some(l) => self.values[yi] > l.val,
        }
    }

    /// Pivots basic `xi` out (setting β(xi) = v) and nonbasic `xj` in.
    fn pivot_and_update(&mut self, xi: VarId, v: Rat, xj: VarId) {
        self.pivots += 1;
        let row = self.rows.remove(&xi).expect("xi must be basic");
        let a_ij = *row.get(&xj).expect("xj must appear in row");
        let theta = (v - self.values[xi as usize]) / a_ij;
        self.values[xi as usize] = v;
        self.values[xj as usize] += theta;
        self.candidates.insert(xj);
        for (&b, brow) in &self.rows {
            if let Some(&a) = brow.get(&xj) {
                self.values[b as usize] += a * theta;
                self.candidates.insert(b);
            }
        }
        // New row for xj: xj = (xi - Σ_{k≠j} a_k x_k) / a_ij.
        let mut new_row: HashMap<VarId, Rat> = HashMap::new();
        new_row.insert(xi, a_ij.recip());
        for (&k, &a) in &row {
            if k != xj {
                new_row.insert(k, -a / a_ij);
            }
        }
        // Substitute into every other row containing xj.
        let keys: Vec<VarId> = self.rows.keys().copied().collect();
        for b in keys {
            let brow = self.rows.get_mut(&b).expect("key enumerated");
            if let Some(coef) = brow.remove(&xj) {
                for (&k, &a) in &new_row {
                    let e = brow.entry(k).or_insert(Rat::ZERO);
                    *e += coef * a;
                }
                brow.retain(|_, c| !c.is_zero());
            }
        }
        self.rows.insert(xj, new_row);
    }

    /// Integer feasibility via branch-and-bound with a node `budget`.
    pub fn check_int(&mut self, budget: &mut u64) -> IntCheck {
        self.branch_nodes += 1;
        match self.check() {
            Err(c) => IntCheck::Infeasible(c),
            Ok(()) => {
                let frac = (0..self.values.len() as VarId)
                    .find(|&x| !self.values[x as usize].is_integer());
                let Some(x) = frac else {
                    return IntCheck::Feasible(self.values.iter().map(|v| v.numer()).collect());
                };
                if *budget == 0 {
                    return IntCheck::Unknown;
                }
                *budget -= 1;
                let beta = self.values[x as usize];
                // Branch x ≤ ⌊β⌋.
                self.push();
                let down = match self.assert_upper(x, Rat::int(beta.floor()), None) {
                    Err(c) => IntCheck::Infeasible(c),
                    Ok(()) => self.check_int(budget),
                };
                self.pop();
                if let IntCheck::Feasible(m) = down {
                    return IntCheck::Feasible(m);
                }
                // Branch x ≥ ⌈β⌉.
                self.push();
                let up = match self.assert_lower(x, Rat::int(beta.ceil()), None) {
                    Err(c) => IntCheck::Infeasible(c),
                    Ok(()) => self.check_int(budget),
                };
                self.pop();
                match (down, up) {
                    (IntCheck::Infeasible(a), IntCheck::Infeasible(b)) => {
                        let mut merged = a.merge(b);
                        // Branch bounds are internal by construction.
                        merged.used_internal = true;
                        IntCheck::Infeasible(merged)
                    }
                    (_, IntCheck::Feasible(m)) => IntCheck::Feasible(m),
                    _ => IntCheck::Unknown,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lin(pairs: &[(VarId, i128)]) -> LinForm {
        let mut f = LinForm::zero();
        for &(x, c) in pairs {
            f.add_term(x, c);
        }
        f
    }

    #[test]
    fn feasible_box() {
        let mut s = Simplex::new();
        let x = s.new_var();
        let y = s.new_var();
        // x + y with 1 ≤ x+y ≤ 3, 0 ≤ x ≤ 1, 0 ≤ y ≤ 5.
        let sum = s.def_var(&lin(&[(x, 1), (y, 1)]));
        s.assert_lower(sum, Rat::int(1), Some(0)).unwrap();
        s.assert_upper(sum, Rat::int(3), Some(1)).unwrap();
        s.assert_lower(x, Rat::int(0), Some(2)).unwrap();
        s.assert_upper(x, Rat::int(1), Some(3)).unwrap();
        s.assert_lower(y, Rat::int(0), Some(4)).unwrap();
        s.assert_upper(y, Rat::int(5), Some(5)).unwrap();
        assert!(s.check().is_ok());
        let vx = s.value(x);
        let vy = s.value(y);
        assert!(vx + vy >= Rat::int(1) && vx + vy <= Rat::int(3));
    }

    #[test]
    fn direct_bound_conflict() {
        let mut s = Simplex::new();
        let x = s.new_var();
        s.assert_lower(x, Rat::int(5), Some(7)).unwrap();
        let err = s.assert_upper(x, Rat::int(3), Some(9)).unwrap_err();
        assert_eq!(err.tags, vec![9, 7]);
        assert!(!err.used_internal);
    }

    #[test]
    fn row_conflict_reports_participating_tags() {
        let mut s = Simplex::new();
        let x = s.new_var();
        let y = s.new_var();
        let sum = s.def_var(&lin(&[(x, 1), (y, 1)]));
        // x ≤ 1 (tag 10), y ≤ 1 (tag 11), x + y ≥ 3 (tag 12): infeasible.
        s.assert_upper(x, Rat::int(1), Some(10)).unwrap();
        s.assert_upper(y, Rat::int(1), Some(11)).unwrap();
        s.assert_lower(sum, Rat::int(3), Some(12)).unwrap();
        let err = s.check().unwrap_err();
        assert!(!err.used_internal);
        let mut tags = err.tags.clone();
        tags.sort_unstable();
        assert_eq!(tags, vec![10, 11, 12]);
    }

    #[test]
    fn push_pop_restores_feasibility() {
        let mut s = Simplex::new();
        let x = s.new_var();
        s.assert_lower(x, Rat::int(0), Some(0)).unwrap();
        s.assert_upper(x, Rat::int(10), Some(1)).unwrap();
        assert!(s.check().is_ok());
        s.push();
        s.assert_lower(x, Rat::int(20), None).unwrap_err();
        s.pop();
        assert!(s.check().is_ok());
        // The tighter bound must be gone: x = 15 is now assertable.
        s.push();
        assert!(s.assert_lower(x, Rat::int(5), None).is_ok());
        s.pop();
    }

    #[test]
    fn integer_branching_finds_integral_point() {
        let mut s = Simplex::new();
        let x = s.new_var();
        let y = s.new_var();
        // 2x + 2y = 5 has rational but no integer solutions in a box.
        let f = s.def_var(&lin(&[(x, 2), (y, 2)]));
        s.assert_lower(f, Rat::int(5), Some(0)).unwrap();
        s.assert_upper(f, Rat::int(5), Some(1)).unwrap();
        s.assert_lower(x, Rat::int(0), Some(2)).unwrap();
        s.assert_upper(x, Rat::int(5), Some(3)).unwrap();
        s.assert_lower(y, Rat::int(0), Some(4)).unwrap();
        s.assert_upper(y, Rat::int(5), Some(5)).unwrap();
        let mut budget = 1000;
        match s.check_int(&mut budget) {
            IntCheck::Infeasible(c) => assert!(c.used_internal),
            other => panic!("expected integer infeasibility, got {other:?}"),
        }
    }

    #[test]
    fn integer_feasible_model_is_integral() {
        let mut s = Simplex::new();
        let x = s.new_var();
        let y = s.new_var();
        // 2x + 3y = 7, 0 ≤ x,y ≤ 5 → (2,1) works.
        let f = s.def_var(&lin(&[(x, 2), (y, 3)]));
        s.assert_lower(f, Rat::int(7), Some(0)).unwrap();
        s.assert_upper(f, Rat::int(7), Some(1)).unwrap();
        for (v, t) in [(x, 2u32), (y, 4u32)] {
            s.assert_lower(v, Rat::int(0), Some(t)).unwrap();
            s.assert_upper(v, Rat::int(5), Some(t + 1)).unwrap();
        }
        let mut budget = 1000;
        match s.check_int(&mut budget) {
            IntCheck::Feasible(m) => {
                let vx = m[x as usize];
                let vy = m[y as usize];
                assert_eq!(2 * vx + 3 * vy, 7);
                assert!((0..=5).contains(&vx) && (0..=5).contains(&vy));
            }
            other => panic!("expected feasible, got {other:?}"),
        }
    }

    /// Random assert/push/pop sequences on a tableau with three defined
    /// variables: after every step, `check` must agree with a freshly
    /// built tableau holding the same live bounds, and an `Ok` must leave
    /// every variable within its bounds and every defining row satisfied.
    /// Pops and failed checks leave stale candidates and violated basics
    /// behind, which the candidate set must still see.
    #[test]
    fn random_scoped_bounds_agree_with_a_fresh_tableau() {
        use relaxed_interp::rng::SplitMix64;
        const BASE: u32 = 3;
        fn build(forms: &[LinForm]) -> Simplex {
            let mut s = Simplex::new();
            for _ in 0..BASE {
                s.new_var();
            }
            for f in forms {
                s.def_var(f);
            }
            s
        }
        fn assert_bound(s: &mut Simplex, (x, upper, val): (VarId, bool, i64), tag: Tag) -> bool {
            let val = Rat::int(i128::from(val));
            if upper {
                s.assert_upper(x, val, Some(tag)).is_ok()
            } else {
                s.assert_lower(x, val, Some(tag)).is_ok()
            }
        }
        let mut rng = SplitMix64::seed_from_u64(0x51AB_0001);
        let (mut feasible, mut infeasible) = (0, 0);
        for round in 0..200 {
            let forms: Vec<LinForm> = (0..3)
                .map(|_| {
                    let mut f = LinForm::zero();
                    while f.is_zero() {
                        for x in 0..BASE {
                            f.add_term(x, i128::from(rng.gen_range(-3..=3)));
                        }
                    }
                    f
                })
                .collect();
            let nvars = BASE + forms.len() as u32;
            let mut s = build(&forms);
            // The bounds in force, in assertion order, and the length of
            // that list at each open scope.
            let mut live: Vec<(VarId, bool, i64)> = Vec::new();
            let mut scopes: Vec<usize> = Vec::new();
            for step in 0..40u32 {
                match rng.gen_u32_below(6) {
                    0 => {
                        s.push();
                        scopes.push(live.len());
                    }
                    1 => {
                        if let Some(len) = scopes.pop() {
                            s.pop();
                            live.truncate(len);
                        }
                    }
                    _ => {
                        let bound = (
                            rng.gen_u32_below(nvars),
                            rng.gen_u32_below(2) == 0,
                            rng.gen_range(-6..=6),
                        );
                        if assert_bound(&mut s, bound, step) {
                            live.push(bound);
                        }
                    }
                }
                let mut fresh = build(&forms);
                for (tag, &bound) in live.iter().enumerate() {
                    assert!(
                        assert_bound(&mut fresh, bound, tag as Tag),
                        "round {round} step {step}: live bound {bound:?} rejected on replay"
                    );
                }
                let got = s.check();
                assert_eq!(
                    got.is_ok(),
                    fresh.check().is_ok(),
                    "round {round} step {step}: live bounds {live:?}"
                );
                if got.is_err() {
                    infeasible += 1;
                    continue;
                }
                feasible += 1;
                for x in 0..nvars as usize {
                    let beta = s.values[x];
                    assert!(s.lower[x].as_ref().is_none_or(|l| l.val <= beta));
                    assert!(s.upper[x].as_ref().is_none_or(|u| beta <= u.val));
                }
                for (k, f) in forms.iter().enumerate() {
                    let sum = f.iter().fold(Rat::ZERO, |acc, (x, c)| {
                        acc + Rat::int(c) * s.values[x as usize]
                    });
                    assert_eq!(s.values[BASE as usize + k], sum, "row {k} broken");
                }
            }
        }
        assert!(
            feasible >= 1000 && infeasible >= 1000,
            "{feasible} / {infeasible}"
        );
    }

    #[test]
    fn unbounded_problem_is_feasible() {
        let mut s = Simplex::new();
        let x = s.new_var();
        let y = s.new_var();
        let f = s.def_var(&lin(&[(x, 1), (y, -1)]));
        s.assert_lower(f, Rat::int(100), Some(0)).unwrap();
        let mut budget = 100;
        assert!(matches!(s.check_int(&mut budget), IntCheck::Feasible(_)));
    }
}
