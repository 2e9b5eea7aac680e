//! Quantifier preprocessing: negation normal form, the one-point rule,
//! exact elimination for unit-coefficient quantifiers, skolemization, and
//! sound finite instantiation as a last resort.
//!
//! Which rewrite an `∃` gets depends on its position in the NNF of the
//! satisfiability query. An `∃` under no `∀` is skolemized at once: a
//! fresh constant and one substitution walk, exact and with no DNF. The
//! VCs of `relax` statements and loop rules reach the solver negated, so
//! their quantifiers over new values are of this kind. An `∃` under a
//! `∀` can depend on the `∀` variable, so a constant would strengthen the
//! query. It gets exact elimination, or stays pending until the `∀` is
//! instantiated, and is then skolemized once per instance. Exact
//! elimination also serves the dual `∃x.¬B` of every `∀x.B`.
//!
//! The pipeline's contract is *soundness for UNSAT*: every rewrite either
//! preserves satisfiability exactly, or weakens the formula (admits more
//! models) and sets the `incomplete` flag. An `Unsat` verdict on the
//! processed formula is therefore always trustworthy; a `Sat` verdict is
//! only reported when no weakening rewrite fired.
//!
//! Exact `∃x` elimination works on an *indexed DNF*: one table of the
//! body's atoms, borrowed rather than copied, and the cubes as index lists
//! into it. Each table atom is solved for `x` once (does it mention `x`,
//! is the coefficient `±1`, which bound and direction does it give), so an
//! atom shared by many cubes is analysed once and cloned only into the
//! output formula.

use crate::ast::{BTerm, ITerm, Rel};
use crate::linear::linear_diff;
use std::collections::{BTreeMap, BTreeSet};

/// Caps on the exact-elimination expansions, beyond which the preprocessor
/// falls back to instantiation.
const MAX_CUBES: usize = 128;
const MAX_CUBE_LITERALS: usize = 128;
const MAX_INSTANTIATION_CANDIDATES: usize = 12;

/// Allocates fresh solver-internal names. The `!` separator cannot appear
/// in source-language identifiers, so fresh names never collide.
#[derive(Debug, Default)]
pub struct FreshNames {
    counter: u64,
}

impl FreshNames {
    /// Creates an allocator.
    pub fn new() -> Self {
        FreshNames::default()
    }

    /// Returns a fresh name with the given diagnostic prefix.
    pub fn fresh(&mut self, prefix: &str) -> String {
        let n = self.counter;
        self.counter += 1;
        format!("{prefix}!{n}")
    }
}

/// Free variables of an integer term.
pub fn term_vars(t: &ITerm, out: &mut BTreeSet<String>) {
    match t {
        ITerm::Const(_) => {}
        ITerm::Var(v) => {
            out.insert(v.clone());
        }
        ITerm::Add(a, b)
        | ITerm::Sub(a, b)
        | ITerm::Mul(a, b)
        | ITerm::Div(a, b)
        | ITerm::Mod(a, b) => {
            term_vars(a, out);
            term_vars(b, out);
        }
        ITerm::Neg(a) => term_vars(a, out),
        ITerm::Select(arr, idx) => {
            out.insert(arr.clone());
            term_vars(idx, out);
        }
        ITerm::Len(arr) => {
            out.insert(arr.clone());
        }
    }
}

/// Free variables of a formula (bound variables excluded).
pub fn formula_vars(b: &BTerm, out: &mut BTreeSet<String>) {
    match b {
        BTerm::True | BTerm::False => {}
        BTerm::Atom(_, lhs, rhs) => {
            term_vars(lhs, out);
            term_vars(rhs, out);
        }
        BTerm::And(a, b2) | BTerm::Or(a, b2) | BTerm::Implies(a, b2) => {
            formula_vars(a, out);
            formula_vars(b2, out);
        }
        BTerm::Not(a) => formula_vars(a, out),
        BTerm::Exists(x, body) | BTerm::Forall(x, body) => {
            let mut inner = BTreeSet::new();
            formula_vars(body, &mut inner);
            inner.remove(x);
            out.extend(inner);
        }
    }
}

/// Substitutes `t` for free occurrences of the *integer* variable `x`.
///
/// Solver-level substitution does not need capture avoidance for our use:
/// the replacement terms are always ground (fresh constants or
/// quantifier-free candidate terms whose variables are free in the whole
/// problem), and bound variables are freshly named by the encoder.
pub fn subst_term(t: &ITerm, x: &str, r: &ITerm) -> ITerm {
    match t {
        ITerm::Const(_) | ITerm::Len(_) => t.clone(),
        ITerm::Var(v) => {
            if v == x {
                r.clone()
            } else {
                t.clone()
            }
        }
        ITerm::Add(a, b) => {
            ITerm::Add(Box::new(subst_term(a, x, r)), Box::new(subst_term(b, x, r)))
        }
        ITerm::Sub(a, b) => {
            ITerm::Sub(Box::new(subst_term(a, x, r)), Box::new(subst_term(b, x, r)))
        }
        ITerm::Mul(a, b) => {
            ITerm::Mul(Box::new(subst_term(a, x, r)), Box::new(subst_term(b, x, r)))
        }
        ITerm::Div(a, b) => {
            ITerm::Div(Box::new(subst_term(a, x, r)), Box::new(subst_term(b, x, r)))
        }
        ITerm::Mod(a, b) => {
            ITerm::Mod(Box::new(subst_term(a, x, r)), Box::new(subst_term(b, x, r)))
        }
        ITerm::Neg(a) => ITerm::Neg(Box::new(subst_term(a, x, r))),
        ITerm::Select(arr, idx) => ITerm::Select(arr.clone(), Box::new(subst_term(idx, x, r))),
    }
}

/// Substitutes in a formula (stopping at binders of `x`).
pub fn subst_formula(b: &BTerm, x: &str, r: &ITerm) -> BTerm {
    match b {
        BTerm::True | BTerm::False => b.clone(),
        BTerm::Atom(rel, lhs, rhs) => {
            BTerm::Atom(*rel, subst_term(lhs, x, r), subst_term(rhs, x, r))
        }
        BTerm::And(a, c) => BTerm::And(
            Box::new(subst_formula(a, x, r)),
            Box::new(subst_formula(c, x, r)),
        ),
        BTerm::Or(a, c) => BTerm::Or(
            Box::new(subst_formula(a, x, r)),
            Box::new(subst_formula(c, x, r)),
        ),
        BTerm::Implies(a, c) => BTerm::Implies(
            Box::new(subst_formula(a, x, r)),
            Box::new(subst_formula(c, x, r)),
        ),
        BTerm::Not(a) => BTerm::Not(Box::new(subst_formula(a, x, r))),
        BTerm::Exists(y, body) => {
            if y == x {
                b.clone()
            } else {
                BTerm::Exists(y.clone(), Box::new(subst_formula(body, x, r)))
            }
        }
        BTerm::Forall(y, body) => {
            if y == x {
                b.clone()
            } else {
                BTerm::Forall(y.clone(), Box::new(subst_formula(body, x, r)))
            }
        }
    }
}

fn flip(rel: Rel) -> Rel {
    match rel {
        Rel::Lt => Rel::Ge,
        Rel::Le => Rel::Gt,
        Rel::Gt => Rel::Le,
        Rel::Ge => Rel::Lt,
        Rel::Eq => Rel::Ne,
        Rel::Ne => Rel::Eq,
    }
}

/// Negation normal form: no `Not`/`Implies` nodes remain; negation is
/// absorbed into atom relations.
pub fn nnf(b: &BTerm, negate: bool) -> BTerm {
    match b {
        BTerm::True => {
            if negate {
                BTerm::False
            } else {
                BTerm::True
            }
        }
        BTerm::False => {
            if negate {
                BTerm::True
            } else {
                BTerm::False
            }
        }
        BTerm::Atom(rel, lhs, rhs) => {
            let rel = if negate { flip(*rel) } else { *rel };
            BTerm::Atom(rel, lhs.clone(), rhs.clone())
        }
        BTerm::And(a, c) => {
            let (l, r) = (nnf(a, negate), nnf(c, negate));
            if negate {
                l.or(r)
            } else {
                l.and(r)
            }
        }
        BTerm::Or(a, c) => {
            let (l, r) = (nnf(a, negate), nnf(c, negate));
            if negate {
                l.and(r)
            } else {
                l.or(r)
            }
        }
        BTerm::Implies(a, c) => {
            // a ⇒ c ≡ ¬a ∨ c
            let (l, r) = (nnf(a, !negate), nnf(c, negate));
            if negate {
                // ¬(a ⇒ c) ≡ a ∧ ¬c; note nnf(a, !negate) with negate=true is nnf(a,false).
                l.and(r)
            } else {
                l.or(r)
            }
        }
        BTerm::Not(a) => nnf(a, !negate),
        BTerm::Exists(x, body) => {
            let inner = nnf(body, negate);
            if negate {
                BTerm::Forall(x.clone(), Box::new(inner))
            } else {
                BTerm::Exists(x.clone(), Box::new(inner))
            }
        }
        BTerm::Forall(x, body) => {
            let inner = nnf(body, negate);
            if negate {
                BTerm::Exists(x.clone(), Box::new(inner))
            } else {
                BTerm::Forall(x.clone(), Box::new(inner))
            }
        }
    }
}

/// Whether `t` mentions a name `hit` accepts, as a variable or as an
/// array base: the names [`term_vars`] would collect, without building
/// the set.
fn term_mentions(t: &ITerm, hit: &impl Fn(&str) -> bool) -> bool {
    match t {
        ITerm::Const(_) => false,
        ITerm::Var(v) | ITerm::Len(v) => hit(v),
        ITerm::Add(a, b)
        | ITerm::Sub(a, b)
        | ITerm::Mul(a, b)
        | ITerm::Div(a, b)
        | ITerm::Mod(a, b) => term_mentions(a, hit) || term_mentions(b, hit),
        ITerm::Neg(a) => term_mentions(a, hit),
        ITerm::Select(arr, idx) => hit(arr) || term_mentions(idx, hit),
    }
}

/// Whether `t` mentions the name `x`.
fn mentions(t: &ITerm, x: &str) -> bool {
    term_mentions(t, &|v| v == x)
}

/// An atom `lhs rel rhs` solved for the variable `x` over *base terms*:
/// plain variables stay variables, while opaque subterms (array reads,
/// divisions, non-linear products, lengths) count as pseudo-variables
/// keyed by their own syntax. This lets unit-coefficient elimination see
/// through atoms like `a ≤ col[i] + e`.
enum Solved {
    /// The atom does not mention `x`.
    Free,
    /// `x` occurs, but its coefficient is not `±1`, or the bound does not
    /// fit the `i64` constants of [`ITerm`].
    NonUnit,
    /// The atom is `x rel bound`, with `rel` flipped when `flip` is set
    /// (the coefficient of `x` was −1).
    Unit { flip: bool, bound: ITerm },
}

/// Solves `lhs − rhs` for `x`. `None` when `x` hides inside an opaque base
/// term (or a coefficient overflows): no exact elimination can remove it.
fn solve_for(x: &str, lhs: &ITerm, rhs: &ITerm) -> Option<Solved> {
    if !mentions(lhs, x) && !mentions(rhs, x) {
        return Some(Solved::Free);
    }
    let (mut view, k) = linear_diff(lhs, rhs, &Some)?;
    let x_key = view
        .keys()
        .copied()
        .find(|t| matches!(t, ITerm::Var(v) if v == x));
    let c = x_key.and_then(|t| view.remove(t));
    if view.keys().any(|t| mentions(t, x)) {
        return None;
    }
    // c·x + R + k  rel  0, with R the rest of the view.
    // If c = 1:  x  rel  -(R + k);  if c = -1:  x  flip(rel)  (R + k).
    let solved = match c {
        Some(1) => k.checked_neg().and_then(|k| unpoly_terms(&view, -1, k)),
        Some(-1) => unpoly_terms(&view, 1, k),
        _ => None,
    };
    Some(match solved {
        Some(bound) => Solved::Unit {
            flip: c == Some(-1),
            bound,
        },
        None => Solved::NonUnit,
    })
}

/// Rebuilds `sign · R + k` as a term from a base-term view `R`. `None`
/// when a constant or coefficient does not fit `i64`: narrowing it would
/// wrap to a different bound and make the elimination unsound.
fn unpoly_terms(view: &BTreeMap<&ITerm, i128>, sign: i128, k: i128) -> Option<ITerm> {
    let mut acc: Option<ITerm> = if k != 0 {
        Some(ITerm::Const(i64::try_from(k).ok()?))
    } else {
        None
    };
    for (&base, &c) in view {
        let piece = match c.checked_mul(sign)? {
            1 => base.clone(),
            -1 => ITerm::Neg(Box::new(base.clone())),
            c => ITerm::Mul(
                Box::new(ITerm::Const(i64::try_from(c).ok()?)),
                Box::new(base.clone()),
            ),
        };
        acc = Some(match acc {
            None => piece,
            Some(prev) => prev.add(piece),
        });
    }
    Some(acc.unwrap_or(ITerm::Const(0)))
}

/// How one atom of an elimination body constrains `x`.
enum Occurrence {
    /// The atom does not mention `x`.
    Free,
    /// Exact elimination fails on any cube that reaches the atom.
    NonUnit,
    /// `x = t`.
    Eq(ITerm),
    /// `x ≤ t`.
    Upper(ITerm),
    /// `x ≥ t`.
    Lower(ITerm),
}

impl Occurrence {
    fn of(rel: Rel, solved: &Solved) -> Occurrence {
        let Solved::Unit { flip, bound } = solved else {
            return match solved {
                Solved::Free => Occurrence::Free,
                _ => Occurrence::NonUnit,
            };
        };
        let rel = if *flip { flipped_by_sign(rel) } else { rel };
        match rel {
            Rel::Le => Occurrence::Upper(bound.clone()),
            Rel::Lt => Occurrence::Upper(bound.clone().sub(ITerm::Const(1))),
            Rel::Ge => Occurrence::Lower(bound.clone()),
            Rel::Gt => Occurrence::Lower(bound.clone().add(ITerm::Const(1))),
            Rel::Eq => Occurrence::Eq(bound.clone()),
            // `dnf_cubes` splits every `Ne` atom that mentions x.
            Rel::Ne => Occurrence::NonUnit,
        }
    }
}

/// One atom of the DNF table: borrowed from the body, classified once.
struct TableAtom<'a> {
    rel: Rel,
    lhs: &'a ITerm,
    rhs: &'a ITerm,
    occurrence: Occurrence,
}

/// The DNF of an elimination body: one table of its atoms, and the cubes
/// as index lists into it.
struct Dnf<'a> {
    atoms: Vec<TableAtom<'a>>,
    cubes: Vec<Vec<u32>>,
}

impl Dnf<'_> {
    #[cfg(test)]
    fn len(&self) -> usize {
        self.cubes.len()
    }
}

/// Converts an NNF formula into DNF cubes, splitting `Ne` atoms that
/// mention `x` into `< ∨ >`. Returns `None` on blowup or when `x` occurs
/// in a non-linear position.
fn dnf_cubes<'a>(x: &str, b: &'a BTerm) -> Option<Dnf<'a>> {
    let mut atoms = Vec::new();
    let cubes = cubes_of(x, b, &mut atoms)?;
    Some(Dnf { atoms, cubes })
}

fn cubes_of<'a>(x: &str, b: &'a BTerm, atoms: &mut Vec<TableAtom<'a>>) -> Option<Vec<Vec<u32>>> {
    match b {
        BTerm::True => Some(vec![vec![]]),
        BTerm::False => Some(vec![]),
        BTerm::Atom(rel, lhs, rhs) => {
            let solved = solve_for(x, lhs, rhs)?;
            let mut leaf = |rel| {
                atoms.push(TableAtom {
                    rel,
                    lhs,
                    rhs,
                    occurrence: Occurrence::of(rel, &solved),
                });
                vec![atoms.len() as u32 - 1]
            };
            if *rel == Rel::Ne && !matches!(solved, Solved::Free) {
                Some(vec![leaf(Rel::Lt), leaf(Rel::Gt)])
            } else {
                Some(vec![leaf(*rel)])
            }
        }
        BTerm::Or(a, c) => {
            let mut cubes = cubes_of(x, a, atoms)?;
            cubes.extend(cubes_of(x, c, atoms)?);
            if cubes.len() > MAX_CUBES {
                None
            } else {
                Some(cubes)
            }
        }
        BTerm::And(a, c) => {
            let left = cubes_of(x, a, atoms)?;
            let right = cubes_of(x, c, atoms)?;
            let mut cubes = Vec::with_capacity(left.len() * right.len());
            for l in &left {
                for r in &right {
                    if l.len() + r.len() > MAX_CUBE_LITERALS {
                        return None;
                    }
                    let mut cube = Vec::with_capacity(l.len() + r.len());
                    cube.extend_from_slice(l);
                    cube.extend_from_slice(r);
                    cubes.push(cube);
                }
            }
            if cubes.len() > MAX_CUBES {
                None
            } else {
                Some(cubes)
            }
        }
        // Quantifiers inside (nested) and residual Not/Implies block DNF.
        _ => None,
    }
}

/// Exact elimination of `∃x` from a single cube whose `x`-coefficients are
/// all `±1`. Returns `None` when a coefficient is not `±1`.
fn elim_cube(x: &str, table: &[TableAtom<'_>], cube: &[u32]) -> Option<BTerm> {
    let mut lowers: Vec<&ITerm> = Vec::new(); // x ≥ t
    let mut uppers: Vec<&ITerm> = Vec::new(); // x ≤ t
    let mut rest: Vec<&TableAtom<'_>> = Vec::new();
    for (i, &a) in cube.iter().enumerate() {
        let atom = &table[a as usize];
        match &atom.occurrence {
            Occurrence::Free => rest.push(atom),
            Occurrence::NonUnit => return None,
            Occurrence::Upper(t) => uppers.push(t),
            Occurrence::Lower(t) => lowers.push(t),
            Occurrence::Eq(bound) => {
                // One-point within the cube: x = bound. Substituting into
                // every *other* atom removes x from the whole cube (bound is
                // x-free because its linear view had x removed).
                let conj = BTerm::conj(cube.iter().enumerate().filter(|(j, _)| *j != i).map(
                    |(_, &b)| {
                        let other = &table[b as usize];
                        BTerm::Atom(
                            other.rel,
                            subst_term(other.lhs, x, bound),
                            subst_term(other.rhs, x, bound),
                        )
                    },
                ));
                return Some(conj);
            }
        }
    }
    // ∃x over ℤ with unit bounds: all lower ≤ all upper.
    let mut out = BTerm::conj(
        rest.into_iter()
            .map(|a| BTerm::Atom(a.rel, a.lhs.clone(), a.rhs.clone())),
    );
    for &lo in &lowers {
        for &hi in &uppers {
            out = out.and(BTerm::Atom(Rel::Le, lo.clone(), hi.clone()));
        }
    }
    Some(out)
}

/// Adjusts a relation when the variable coefficient is −1 (multiply the
/// atom by −1): `-x + R rel 0 ⟺ x flip_by_sign(rel) R`.
fn flipped_by_sign(rel: Rel) -> Rel {
    match rel {
        Rel::Lt => Rel::Gt,
        Rel::Le => Rel::Ge,
        Rel::Gt => Rel::Lt,
        Rel::Ge => Rel::Le,
        Rel::Eq => Rel::Eq,
        Rel::Ne => Rel::Ne,
    }
}

/// Tries exact elimination of `∃x. body` (body in NNF, quantifier-free).
fn try_exact_exists(x: &str, body: &BTerm) -> Option<BTerm> {
    let dnf = dnf_cubes(x, body)?;
    let mut out = BTerm::False;
    for cube in &dnf.cubes {
        out = out.or(elim_cube(x, &dnf.atoms, cube)?);
    }
    Some(out)
}

/// Candidate ground terms for instantiating `∀x. body`: bound terms solved
/// out of atoms that mention `x` with coefficient `±1` (each ±1), ground
/// indices of arrays that `body` reads at `x` (drawn from the whole
/// problem's `pool`), plus 0. A bound that mentions a variable bound
/// inside `body` (by a pending ∃) is no candidate: substituted into
/// `body`, it would be captured by its binder.
fn instantiation_candidates(
    x: &str,
    body: &BTerm,
    pool: &BTreeMap<String, Vec<ITerm>>,
) -> Vec<ITerm> {
    let mut atoms = Vec::new();
    collect_atoms(body, &mut atoms);
    let mut binders = Vec::new();
    collect_binders(body, &mut binders);
    let mut candidates: Vec<ITerm> = Vec::new();
    for (lhs, rhs) in atoms {
        match solve_for(x, lhs, rhs) {
            Some(Solved::Free) => continue,
            Some(Solved::Unit { bound, .. })
                if term_mentions(&bound, &|v| binders.contains(&v)) => {}
            Some(Solved::Unit { bound, .. }) => {
                candidates.push(bound.clone().sub(ITerm::Const(1)));
                candidates.push(bound.clone());
                candidates.push(bound.add(ITerm::Const(1)));
            }
            Some(Solved::NonUnit) | None => {}
        }
        if candidates.len() >= MAX_INSTANTIATION_CANDIDATES {
            break;
        }
    }
    let mut arrays = BTreeSet::new();
    arrays_indexed_by(body, x, &mut arrays);
    for arr in arrays {
        if let Some(terms) = pool.get(arr) {
            candidates.extend(terms.iter().filter(|t| !mentions(t, x)).cloned());
        }
    }
    candidates.push(ITerm::Const(0));
    candidates.truncate(2 * MAX_INSTANTIATION_CANDIDATES);
    candidates.dedup();
    candidates
}

/// Ground select-index terms per array, collected from the whole problem
/// (the candidate pool for array-driven ∀-instantiation, an E-matching
/// light).
fn collect_select_pool(
    b: &BTerm,
    bound: &mut BTreeSet<String>,
    pool: &mut BTreeMap<String, Vec<ITerm>>,
) {
    fn term(t: &ITerm, bound: &BTreeSet<String>, pool: &mut BTreeMap<String, Vec<ITerm>>) {
        match t {
            ITerm::Const(_) | ITerm::Var(_) | ITerm::Len(_) => {}
            ITerm::Add(a, b)
            | ITerm::Sub(a, b)
            | ITerm::Mul(a, b)
            | ITerm::Div(a, b)
            | ITerm::Mod(a, b) => {
                term(a, bound, pool);
                term(b, bound, pool);
            }
            ITerm::Neg(a) => term(a, bound, pool),
            ITerm::Select(arr, idx) => {
                term(idx, bound, pool);
                if !term_mentions(idx, &|v| bound.contains(v)) {
                    let entry = pool.entry(arr.clone()).or_default();
                    if !entry.contains(idx) && entry.len() < 16 {
                        entry.push((**idx).clone());
                    }
                }
            }
        }
    }
    match b {
        BTerm::True | BTerm::False => {}
        BTerm::Atom(_, lhs, rhs) => {
            term(lhs, bound, pool);
            term(rhs, bound, pool);
        }
        BTerm::And(a, c) | BTerm::Or(a, c) | BTerm::Implies(a, c) => {
            collect_select_pool(a, bound, pool);
            collect_select_pool(c, bound, pool);
        }
        BTerm::Not(a) => collect_select_pool(a, bound, pool),
        BTerm::Exists(x, body) | BTerm::Forall(x, body) => {
            let fresh = bound.insert(x.clone());
            collect_select_pool(body, bound, pool);
            if fresh {
                bound.remove(x);
            }
        }
    }
}

/// Arrays read at an index that mentions the variable `x` inside `b`.
fn arrays_indexed_by<'a>(b: &'a BTerm, x: &str, out: &mut BTreeSet<&'a str>) {
    fn term<'a>(t: &'a ITerm, x: &str, out: &mut BTreeSet<&'a str>) {
        match t {
            ITerm::Const(_) | ITerm::Var(_) | ITerm::Len(_) => {}
            ITerm::Add(a, b)
            | ITerm::Sub(a, b)
            | ITerm::Mul(a, b)
            | ITerm::Div(a, b)
            | ITerm::Mod(a, b) => {
                term(a, x, out);
                term(b, x, out);
            }
            ITerm::Neg(a) => term(a, x, out),
            ITerm::Select(arr, idx) => {
                if mentions(idx, x) {
                    out.insert(arr);
                }
                term(idx, x, out);
            }
        }
    }
    match b {
        BTerm::True | BTerm::False => {}
        BTerm::Atom(_, lhs, rhs) => {
            term(lhs, x, out);
            term(rhs, x, out);
        }
        BTerm::And(a, c) | BTerm::Or(a, c) | BTerm::Implies(a, c) => {
            arrays_indexed_by(a, x, out);
            arrays_indexed_by(c, x, out);
        }
        BTerm::Not(a) => arrays_indexed_by(a, x, out),
        BTerm::Exists(y, body) | BTerm::Forall(y, body) => {
            if y != x {
                arrays_indexed_by(body, x, out);
            }
        }
    }
}

/// The atoms of `b` as borrowed `(lhs, rhs)` pairs, in order.
fn collect_atoms<'a>(b: &'a BTerm, out: &mut Vec<(&'a ITerm, &'a ITerm)>) {
    match b {
        BTerm::Atom(_, lhs, rhs) => out.push((lhs, rhs)),
        BTerm::And(a, c) | BTerm::Or(a, c) | BTerm::Implies(a, c) => {
            collect_atoms(a, out);
            collect_atoms(c, out);
        }
        BTerm::Not(a) => collect_atoms(a, out),
        BTerm::Exists(_, a) | BTerm::Forall(_, a) => collect_atoms(a, out),
        BTerm::True | BTerm::False => {}
    }
}

/// The variables bound by the quantifiers of `b`.
fn collect_binders<'a>(b: &'a BTerm, out: &mut Vec<&'a str>) {
    match b {
        BTerm::True | BTerm::False | BTerm::Atom(_, _, _) => {}
        BTerm::And(a, c) | BTerm::Or(a, c) | BTerm::Implies(a, c) => {
            collect_binders(a, out);
            collect_binders(c, out);
        }
        BTerm::Not(a) => collect_binders(a, out),
        BTerm::Exists(x, a) | BTerm::Forall(x, a) => {
            out.push(x);
            collect_binders(a, out);
        }
    }
}

/// The result of quantifier elimination.
#[derive(Clone, Debug)]
pub struct QfResult {
    /// The quantifier-free formula.
    pub formula: BTerm,
    /// True when a weakening rewrite fired (finite ∀-instantiation): a
    /// `Sat` verdict downstream must be reported as unknown.
    pub incomplete: bool,
}

/// Eliminates all quantifiers from `b` (assumed a *satisfiability* query:
/// top-level free variables are implicitly existential).
///
/// Strategy, top-down on the NNF:
/// 1. `∃x` under no `∀`: skolemize `x` to a fresh constant at once. This
///    is exact, since such an ∃ sits under only ∧/∨ (and, in phase 2,
///    under ∀s that were already instantiated away).
/// 2. `∃x` under a `∀`: try exact unit-coefficient elimination (via
///    DNF); otherwise leave the ∃ pending inside its ∀. A constant would
///    ignore the ∀ variables the witness may depend on and strengthen
///    the query.
/// 3. `∀x`: `∀x.B ≡ ¬∃x.¬B`; try exact elimination of the dual;
///    otherwise leave the ∀ pending until phase 2, which instantiates it
///    finitely (weakening, sets `incomplete`) and eliminates each
///    instance at the ∀'s own position, so a pending ∃ inside is
///    skolemized once per instance.
pub fn eliminate_quantifiers(b: &BTerm, fresh: &mut FreshNames) -> QfResult {
    let normal = nnf(b, false);
    let mut incomplete = false;
    // Phase 1: exact eliminations and skolemization only — pending ∀s (and
    // the ∃s pending under them) are left in place so phase 2 can see the
    // skolem constants they must be instantiated with.
    let phase1 = Elim {
        fresh,
        incomplete: &mut incomplete,
        pool: None,
    }
    .run(&normal, 0, false);
    if is_quantifier_free(&phase1) {
        return QfResult {
            formula: phase1,
            incomplete,
        };
    }
    // Phase 2: instantiate remaining ∀s against the problem-wide pool of
    // ground select indices (array-driven triggers) and atom bounds.
    let mut pool = BTreeMap::new();
    collect_select_pool(&phase1, &mut BTreeSet::new(), &mut pool);
    let formula = Elim {
        fresh,
        incomplete: &mut incomplete,
        pool: Some(&pool),
    }
    .run(&phase1, 0, false);
    QfResult {
        formula,
        incomplete,
    }
}

fn is_quantifier_free(b: &BTerm) -> bool {
    match b {
        BTerm::True | BTerm::False | BTerm::Atom(_, _, _) => true,
        BTerm::And(a, c) | BTerm::Or(a, c) | BTerm::Implies(a, c) => {
            is_quantifier_free(a) && is_quantifier_free(c)
        }
        BTerm::Not(a) => is_quantifier_free(a),
        BTerm::Exists(_, _) | BTerm::Forall(_, _) => false,
    }
}

const MAX_DEPTH: usize = 64;

/// One elimination pass: phase 1 without an instantiation pool, phase 2
/// with one.
struct Elim<'a> {
    fresh: &'a mut FreshNames,
    incomplete: &'a mut bool,
    pool: Option<&'a BTreeMap<String, Vec<ITerm>>>,
}

impl Elim<'_> {
    /// Rewrites `b`. `under_forall` says whether `b` sits under a ∀ of
    /// the query that is still in place.
    fn run(&mut self, b: &BTerm, depth: usize, under_forall: bool) -> BTerm {
        if depth > MAX_DEPTH {
            // Give up: replace with True (weakening) and flag incompleteness.
            *self.incomplete = true;
            return BTerm::True;
        }
        let depth = depth + 1;
        match b {
            BTerm::True | BTerm::False | BTerm::Atom(_, _, _) => b.clone(),
            BTerm::And(x, y) => {
                let x = self.run(x, depth, under_forall);
                x.and(self.run(y, depth, under_forall))
            }
            BTerm::Or(x, y) => {
                let x = self.run(x, depth, under_forall);
                x.or(self.run(y, depth, under_forall))
            }
            BTerm::Not(inner) => self.run(&nnf(inner, true), depth, under_forall),
            BTerm::Implies(x, y) => {
                let x = self.run(&nnf(x, true), depth, under_forall);
                x.or(self.run(y, depth, under_forall))
            }
            BTerm::Exists(x, body) if !under_forall => {
                // Skolemization is exact here: no ∀ variable is in scope
                // for the witness to depend on.
                let sk = ITerm::Var(self.fresh.fresh(&format!("sk_{x}")));
                self.run(&subst_formula(body, x, &sk), depth, false)
            }
            BTerm::Exists(x, body) => {
                let body = self.run(body, depth, true);
                try_exact_exists(x, &body)
                    .unwrap_or_else(|| BTerm::Exists(x.clone(), Box::new(body)))
            }
            BTerm::Forall(x, body) => {
                let body = self.run(body, depth, true);
                // ∀x.B ≡ ¬∃x.¬B — try the exact dual elimination.
                let dual = nnf(&body, true);
                if let Some(result) = try_exact_exists(x, &dual) {
                    return nnf(&result, true);
                }
                match self.pool {
                    // Phase 1: leave the ∀ pending for the pooled phase.
                    None => BTerm::Forall(x.clone(), Box::new(body)),
                    // Phase 2: weakening finite instantiation.
                    Some(pool) => {
                        *self.incomplete = true;
                        let candidates = instantiation_candidates(x, &body, pool);
                        BTerm::conj(candidates.into_iter().map(|t| {
                            let inst = subst_formula(&body, x, &t);
                            self.run(&inst, depth, under_forall)
                        }))
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> ITerm {
        ITerm::var("x")
    }
    fn y() -> ITerm {
        ITerm::var("y")
    }

    #[test]
    fn nnf_pushes_negation_into_atoms() {
        let b = x().le(ITerm::Const(3)).and(y().ge(ITerm::Const(0))).not();
        let n = nnf(&b, false);
        assert_eq!(
            n,
            x().rel(Rel::Gt, ITerm::Const(3))
                .or(y().rel(Rel::Lt, ITerm::Const(0)))
        );
    }

    #[test]
    fn nnf_implication() {
        let b = x().le(ITerm::Const(3)).implies(y().ge(ITerm::Const(0)));
        let n = nnf(&b, false);
        assert_eq!(
            n,
            x().rel(Rel::Gt, ITerm::Const(3))
                .or(y().ge(ITerm::Const(0)))
        );
        let neg = nnf(&b, true);
        assert_eq!(
            neg,
            x().le(ITerm::Const(3))
                .and(y().rel(Rel::Lt, ITerm::Const(0)))
        );
    }

    #[test]
    fn nnf_swaps_quantifiers_under_negation() {
        let b = x().le(y()).exists("x").not();
        match nnf(&b, false) {
            BTerm::Forall(v, body) => {
                assert_eq!(v, "x");
                assert_eq!(*body, x().rel(Rel::Gt, y()));
            }
            other => panic!("expected forall, got {other:?}"),
        }
    }

    #[test]
    fn exists_bounds_eliminate_exactly() {
        // ∃x. y ≤ x ∧ x ≤ z  ⟺  y ≤ z
        let body = y().le(x()).and(x().le(ITerm::var("z")));
        let result = try_exact_exists("x", &body).expect("unit coefficients");
        assert_eq!(result, y().le(ITerm::var("z")));
    }

    #[test]
    fn exists_equality_uses_one_point() {
        // ∃x. x == y + 1 ∧ x ≤ 5  ⟺  y + 1 ≤ 5
        let body = x()
            .eq_term(y().add(ITerm::Const(1)))
            .and(x().le(ITerm::Const(5)));
        let result = try_exact_exists("x", &body).expect("unit coefficients");
        // The result must not mention x and must be equivalent to y + 1 ≤ 5.
        let mut vars = BTreeSet::new();
        formula_vars(&result, &mut vars);
        assert!(!vars.contains("x"));
        assert!(vars.contains("y"));
    }

    #[test]
    fn exists_unbounded_side_is_true() {
        // ∃x. x ≥ y (no upper bounds) ⟺ true (over ℤ).
        let body = x().ge(y());
        let result = try_exact_exists("x", &body).expect("unit coefficients");
        assert_eq!(result, BTerm::True);
    }

    #[test]
    fn exists_nonunit_coefficient_falls_back() {
        // ∃x. 2x == y has no unit-coefficient elimination.
        let body = ITerm::Const(2).mul(x()).eq_term(y());
        assert_eq!(try_exact_exists("x", &body), None);
    }

    #[test]
    fn full_pipeline_skolemizes_nonunit_exists() {
        let mut fresh = FreshNames::new();
        let b = ITerm::Const(2).mul(x()).eq_term(y()).exists("x");
        let out = eliminate_quantifiers(&b, &mut fresh);
        assert!(!out.incomplete, "skolemization is exact");
        let mut vars = BTreeSet::new();
        formula_vars(&out.formula, &mut vars);
        assert!(vars.iter().any(|v| v.starts_with("sk_x!")));
    }

    #[test]
    fn outermost_exists_is_skolemized_without_dnf() {
        // ∃x. y ≤ x ∧ x ≤ z: one constant replaces x, no bound pairing.
        let z = ITerm::var("z");
        let b = y().le(x()).and(x().le(z.clone())).exists("x");
        let out = eliminate_quantifiers(&b, &mut FreshNames::new());
        assert!(!out.incomplete);
        let sk = ITerm::var("sk_x!0");
        assert_eq!(out.formula, y().le(sk.clone()).and(sk.le(z)));
    }

    #[test]
    fn unit_exists_under_forall_eliminates_exactly() {
        // ∀y. ∃x. y ≤ x ∧ x ≤ z: both quantifiers go exactly.
        let b = y()
            .le(x())
            .and(x().le(ITerm::var("z")))
            .exists("x")
            .forall("y");
        let out = eliminate_quantifiers(&b, &mut FreshNames::new());
        assert!(!out.incomplete);
        assert!(is_quantifier_free(&out.formula));
        let mut vars = BTreeSet::new();
        formula_vars(&out.formula, &mut vars);
        assert!(
            vars.iter().all(|v| v == "z"),
            "no skolem constant: {vars:?}"
        );
    }

    #[test]
    fn forall_dual_elimination_is_exact() {
        // ∀x. (x ≥ y ⇒ x ≥ z) with exact elimination: ¬∃x. x ≥ y ∧ x < z
        // ⟺ ¬(y ≤ z - 1) ⟺ y > z - 1 ⟺ y ≥ z.
        let b = x().ge(y()).implies(x().ge(ITerm::var("z"))).forall("x");
        let mut fresh = FreshNames::new();
        let out = eliminate_quantifiers(&b, &mut fresh);
        assert!(!out.incomplete, "unit-coefficient forall must be exact");
        let mut vars = BTreeSet::new();
        formula_vars(&out.formula, &mut vars);
        assert!(!vars.contains("x"));
    }

    #[test]
    fn forall_nonunit_instantiates_and_flags() {
        let b = ITerm::Const(2)
            .mul(x())
            .rel(Rel::Ne, ITerm::Const(1))
            .forall("x");
        let mut fresh = FreshNames::new();
        let out = eliminate_quantifiers(&b, &mut fresh);
        assert!(out.incomplete, "instantiation must flag incompleteness");
    }

    #[test]
    fn substitution_stops_at_binders() {
        let b = x().le(y()).exists("x");
        let s = subst_formula(&b, "x", &ITerm::Const(7));
        assert_eq!(s, b);
        let s2 = subst_formula(&b, "y", &ITerm::Const(7));
        assert_eq!(s2, x().le(ITerm::Const(7)).exists("x"));
    }

    #[test]
    fn ne_atoms_split_in_dnf() {
        let body = x().rel(Rel::Ne, y());
        let cubes = dnf_cubes("x", &body).unwrap();
        assert_eq!(cubes.len(), 2);
        let elim = try_exact_exists("x", &body).unwrap();
        // ∃x. x ≠ y is true over ℤ.
        assert_eq!(elim, BTerm::True);
    }
}
