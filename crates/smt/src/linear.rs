//! Linear integer forms and canonical inequality atoms.
//!
//! Ground arithmetic atoms are normalized into bounds on *linear forms*
//! `Σ cᵢ·xᵢ ⋈ b` with integer coefficients. Normalization exploits
//! integrality: `3x ≤ 5` tightens to `x ≤ 1`, `3x ≥ 5` to `x ≥ 2`, and an
//! equality with non-divisible constant is simply false. Each distinct
//! linear form receives one *slack variable* in the simplex tableau, and
//! asserting a literal just sets a bound on that slack, so a form and its
//! negation share all solver state.
//!
//! `linear_view` and `linear_diff` read an [`ITerm`] as such a form in
//! one walk over the borrowed term: each leaf is keyed by a caller-chosen
//! borrowed key (a variable name for the CNF encoder, the leaf term itself
//! for quantifier elimination), so no term or name is copied on the way.

use crate::ast::{ITerm, Rel};
use crate::rational::Rat;
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::fmt;

/// Identifier for a solver-level integer variable.
pub type VarId = u32;

/// Interns variable names to dense [`VarId`]s.
#[derive(Clone, Debug, Default)]
pub struct VarPool {
    names: Vec<String>,
    ids: HashMap<String, VarId>,
}

impl VarPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        VarPool::default()
    }

    /// Returns the id for `name`, allocating one if needed.
    pub fn intern(&mut self, name: &str) -> VarId {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.names.len() as VarId;
        self.names.push(name.to_string());
        self.ids.insert(name.to_string(), id);
        id
    }

    /// Allocates a fresh variable with a diagnostic prefix.
    pub fn fresh(&mut self, prefix: &str) -> VarId {
        let name = format!("{prefix}!{}", self.names.len());
        self.intern(&name)
    }

    /// The name of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this pool.
    pub fn name(&self, id: VarId) -> &str {
        &self.names[id as usize]
    }

    /// Number of interned variables.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over `(id, name)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (i as VarId, n.as_str()))
    }
}

/// A linear form `Σ cᵢ·xᵢ` with integer coefficients and no constant.
///
/// The map never stores zero coefficients.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct LinForm {
    terms: BTreeMap<VarId, i128>,
}

impl LinForm {
    /// The zero form.
    pub fn zero() -> Self {
        LinForm::default()
    }

    /// The form `1·x`.
    pub fn var(x: VarId) -> Self {
        let mut terms = BTreeMap::new();
        terms.insert(x, 1);
        LinForm { terms }
    }

    /// Adds `c·x` to the form.
    pub fn add_term(&mut self, x: VarId, c: i128) {
        let entry = self.terms.entry(x).or_insert(0);
        *entry += c;
        if *entry == 0 {
            self.terms.remove(&x);
        }
    }

    /// Adds `scale * other` to the form.
    pub fn add_scaled(&mut self, other: &LinForm, scale: i128) {
        if scale == 0 {
            return;
        }
        for (&x, &c) in &other.terms {
            self.add_term(
                x,
                c.checked_mul(scale).expect("linear coefficient overflow"),
            );
        }
    }

    /// Whether the form has no terms.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// Number of terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the form is empty (alias of [`LinForm::is_zero`]).
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Iterates over `(var, coeff)` pairs in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, i128)> + '_ {
        self.terms.iter().map(|(&x, &c)| (x, c))
    }

    /// The coefficient of `x` (zero when absent).
    pub fn coeff(&self, x: VarId) -> i128 {
        self.terms.get(&x).copied().unwrap_or(0)
    }

    /// gcd of the absolute coefficient values (0 for the zero form).
    pub fn content(&self) -> i128 {
        let mut g: i128 = 0;
        for &c in self.terms.values() {
            g = gcd(g, c);
        }
        g
    }

    /// Divides all coefficients by `d`.
    ///
    /// # Panics
    ///
    /// Panics when a coefficient is not divisible by `d`.
    pub fn exact_div(&mut self, d: i128) {
        for c in self.terms.values_mut() {
            assert!(*c % d == 0, "non-exact division of linear form");
            *c /= d;
        }
    }

    /// Negates all coefficients.
    pub fn negate(&mut self) {
        for c in self.terms.values_mut() {
            *c = -*c;
        }
    }

    /// The sign of the lowest-variable coefficient (0 for the zero form).
    pub fn leading_sign(&self) -> i128 {
        self.terms.values().next().map_or(0, |c| c.signum())
    }

    /// Evaluates the form under an assignment.
    pub fn eval<F: Fn(VarId) -> Rat>(&self, lookup: F) -> Rat {
        let mut acc = Rat::ZERO;
        for (&x, &c) in &self.terms {
            acc += lookup(x) * Rat::int(c);
        }
        acc
    }
}

fn gcd(mut a: i128, mut b: i128) -> i128 {
    a = a.abs();
    b = b.abs();
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl fmt::Display for LinForm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return f.write_str("0");
        }
        for (i, (&x, &c)) in self.terms.iter().enumerate() {
            if i == 0 {
                if c < 0 {
                    write!(f, "-")?;
                }
            } else if c < 0 {
                write!(f, " - ")?;
            } else {
                write!(f, " + ")?;
            }
            let a = c.abs();
            if a != 1 {
                write!(f, "{a}*")?;
            }
            write!(f, "v{x}")?;
        }
        Ok(())
    }
}

/// A linear view of `t`: a coefficient per leaf key plus a constant, with
/// zero coefficients dropped.
///
/// Leaves are variables, array reads, lengths, divisions, remainders, and
/// products of two non-constant factors; `key` names each leaf, or returns
/// `None` for a leaf the caller cannot treat as a variable. The view is
/// `None` when a leaf has no key or a coefficient overflows `i128`.
pub(crate) fn linear_view<'a, K: Ord>(
    t: &'a ITerm,
    key: &impl Fn(&'a ITerm) -> Option<K>,
) -> Option<(BTreeMap<K, i128>, i128)> {
    let (mut coeffs, mut k) = (BTreeMap::new(), 0);
    accumulate(t, 1, key, &mut coeffs, &mut k)?;
    coeffs.retain(|_, c| *c != 0);
    Some((coeffs, k))
}

/// The `linear_view` of `lhs − rhs`, walking both sides once without
/// building the difference term.
pub(crate) fn linear_diff<'a, K: Ord>(
    lhs: &'a ITerm,
    rhs: &'a ITerm,
    key: &impl Fn(&'a ITerm) -> Option<K>,
) -> Option<(BTreeMap<K, i128>, i128)> {
    let (mut coeffs, mut k) = (BTreeMap::new(), 0);
    accumulate(lhs, 1, key, &mut coeffs, &mut k)?;
    accumulate(rhs, -1, key, &mut coeffs, &mut k)?;
    coeffs.retain(|_, c| *c != 0);
    Some((coeffs, k))
}

/// The key of a plain variable leaf: its name. Every other leaf has none,
/// which makes the view fail on it (the CNF encoder's linear atoms).
pub(crate) fn var_name(t: &ITerm) -> Option<&str> {
    match t {
        ITerm::Var(v) => Some(v),
        _ => None,
    }
}

/// Adds `scale · t` to `coeffs` and `k`.
fn accumulate<'a, K: Ord>(
    t: &'a ITerm,
    scale: i128,
    key: &impl Fn(&'a ITerm) -> Option<K>,
    coeffs: &mut BTreeMap<K, i128>,
    k: &mut i128,
) -> Option<()> {
    match t {
        ITerm::Const(n) => *k = k.checked_add(scale.checked_mul(i128::from(*n))?)?,
        ITerm::Add(a, b) => {
            accumulate(a, scale, key, coeffs, k)?;
            accumulate(b, scale, key, coeffs, k)?;
        }
        ITerm::Sub(a, b) => {
            accumulate(a, scale, key, coeffs, k)?;
            accumulate(b, scale.checked_neg()?, key, coeffs, k)?;
        }
        ITerm::Neg(a) => accumulate(a, scale.checked_neg()?, key, coeffs, k)?,
        ITerm::Mul(a, b) => match (&**a, &**b) {
            (ITerm::Const(c), other) | (other, ITerm::Const(c)) => {
                accumulate(other, scale.checked_mul(i128::from(*c))?, key, coeffs, k)?;
            }
            _ => {
                // A product is linear when one factor's view has no leaves.
                let (ma, ka) = linear_view(a, key)?;
                let (mb, kb) = linear_view(b, key)?;
                let (leaves, factor) = if ma.is_empty() {
                    (mb, ka)
                } else if mb.is_empty() {
                    (ma, kb)
                } else {
                    return add_leaf(coeffs, key(t)?, scale);
                };
                let factor = scale.checked_mul(factor)?;
                for (leaf, c) in leaves {
                    add_leaf(coeffs, leaf, c.checked_mul(factor)?)?;
                }
                *k = k.checked_add(ka.checked_mul(kb)?.checked_mul(scale)?)?;
            }
        },
        ITerm::Var(_)
        | ITerm::Select(_, _)
        | ITerm::Len(_)
        | ITerm::Div(_, _)
        | ITerm::Mod(_, _) => {
            add_leaf(coeffs, key(t)?, scale)?;
        }
    }
    Some(())
}

fn add_leaf<K: Ord>(coeffs: &mut BTreeMap<K, i128>, leaf: K, c: i128) -> Option<()> {
    let e = coeffs.entry(leaf).or_insert(0);
    *e = e.checked_add(c)?;
    Some(())
}

/// The direction of a bound on a linear form.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BoundKind {
    /// `form ≤ bound`
    Upper,
    /// `form ≥ bound`
    Lower,
}

impl BoundKind {
    /// The opposite direction.
    #[must_use]
    pub fn flipped(self) -> BoundKind {
        match self {
            BoundKind::Upper => BoundKind::Lower,
            BoundKind::Lower => BoundKind::Upper,
        }
    }
}

/// A canonical inequality atom: `form ⋈ bound` with sign-canonical,
/// content-reduced `form`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct IneqAtom {
    /// The linear form (leading coefficient positive, content 1).
    pub form: LinForm,
    /// Bound direction.
    pub kind: BoundKind,
    /// The integer bound.
    pub bound: i128,
}

impl IneqAtom {
    /// The logically complementary atom over the same form:
    /// `¬(f ≤ b) = f ≥ b+1`, `¬(f ≥ b) = f ≤ b−1`.
    #[must_use]
    pub fn negated(&self) -> IneqAtom {
        match self.kind {
            BoundKind::Upper => IneqAtom {
                form: self.form.clone(),
                kind: BoundKind::Lower,
                bound: self.bound + 1,
            },
            BoundKind::Lower => IneqAtom {
                form: self.form.clone(),
                kind: BoundKind::Upper,
                bound: self.bound - 1,
            },
        }
    }

    /// Whether the assignment satisfies the atom.
    pub fn holds<F: Fn(VarId) -> Rat>(&self, lookup: F) -> bool {
        let v = self.form.eval(lookup);
        match self.kind {
            BoundKind::Upper => v <= Rat::int(self.bound),
            BoundKind::Lower => v >= Rat::int(self.bound),
        }
    }
}

/// The result of canonicalizing a (possibly trivial) inequality.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CanonAtom {
    /// The atom is constantly true.
    True,
    /// The atom is constantly false.
    False,
    /// A proper inequality.
    Ineq(IneqAtom),
}

/// Canonicalizes `form + constant ⋈ 0` style atoms.
///
/// Input: a linear form `f`, a constant `k`, and a relation, representing
/// `f + k rel 0`. `Eq`/`Ne` must be split by the caller beforehand.
///
/// # Panics
///
/// Panics when `rel` is `Eq` or `Ne`.
pub fn canon_ineq(mut form: LinForm, k: i128, rel: Rel) -> CanonAtom {
    // Convert to `form ≤ b` or `form ≥ b`.
    let (mut kind, mut bound) = match rel {
        Rel::Le => (BoundKind::Upper, -k),
        Rel::Lt => (BoundKind::Upper, -k - 1),
        Rel::Ge => (BoundKind::Lower, -k),
        Rel::Gt => (BoundKind::Lower, -k + 1),
        Rel::Eq | Rel::Ne => panic!("equality atoms must be split before canonicalization"),
    };
    if form.is_zero() {
        let holds = match kind {
            BoundKind::Upper => 0 <= bound,
            BoundKind::Lower => 0 >= bound,
        };
        return if holds {
            CanonAtom::True
        } else {
            CanonAtom::False
        };
    }
    // Integer tightening: divide by the content.
    let g = form.content();
    if g > 1 {
        form.exact_div(g);
        bound = match kind {
            BoundKind::Upper => Rat::new(bound, g).floor(),
            BoundKind::Lower => Rat::new(bound, g).ceil(),
        };
    }
    // Sign canonicalization: leading coefficient positive.
    if form.leading_sign() < 0 {
        form.negate();
        bound = -bound;
        kind = kind.flipped();
    }
    CanonAtom::Ineq(IneqAtom { form, kind, bound })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn form(pairs: &[(VarId, i128)]) -> LinForm {
        let mut f = LinForm::zero();
        for &(x, c) in pairs {
            f.add_term(x, c);
        }
        f
    }

    #[test]
    fn linform_combines_and_cancels() {
        let mut f = form(&[(0, 2), (1, -1)]);
        f.add_term(1, 1);
        assert_eq!(f, form(&[(0, 2)]));
        f.add_scaled(&form(&[(0, 1), (2, 3)]), -2);
        assert_eq!(f, form(&[(2, -6)]));
    }

    #[test]
    fn tightening_upper_bound() {
        // 3x ≤ 5 → x ≤ 1
        let a = canon_ineq(form(&[(0, 3)]), -5, Rel::Le);
        match a {
            CanonAtom::Ineq(atom) => {
                assert_eq!(atom.form, form(&[(0, 1)]));
                assert_eq!(atom.kind, BoundKind::Upper);
                assert_eq!(atom.bound, 1);
            }
            other => panic!("expected inequality, got {other:?}"),
        }
    }

    #[test]
    fn tightening_lower_bound() {
        // 3x ≥ 5 → x ≥ 2  (encoded as 3x - 5 ≥ 0)
        let a = canon_ineq(form(&[(0, 3)]), -5, Rel::Ge);
        match a {
            CanonAtom::Ineq(atom) => {
                assert_eq!(atom.kind, BoundKind::Lower);
                assert_eq!(atom.bound, 2);
            }
            other => panic!("expected inequality, got {other:?}"),
        }
    }

    #[test]
    fn sign_canonicalization_shares_form() {
        // -x ≤ 3  →  x ≥ -3 (leading coefficient positive)
        let a = canon_ineq(form(&[(0, -1)]), -3, Rel::Le);
        match a {
            CanonAtom::Ineq(atom) => {
                assert_eq!(atom.form, form(&[(0, 1)]));
                assert_eq!(atom.kind, BoundKind::Lower);
                assert_eq!(atom.bound, -3);
            }
            other => panic!("expected inequality, got {other:?}"),
        }
    }

    #[test]
    fn trivial_atoms_fold() {
        assert_eq!(canon_ineq(LinForm::zero(), -1, Rel::Le), CanonAtom::True); // 0 ≤ 1
        assert_eq!(canon_ineq(LinForm::zero(), 1, Rel::Le), CanonAtom::False); // 0 ≤ -1
        assert_eq!(canon_ineq(LinForm::zero(), 0, Rel::Lt), CanonAtom::False); // 0 < 0
        assert_eq!(canon_ineq(LinForm::zero(), 0, Rel::Ge), CanonAtom::True); // 0 ≥ 0
    }

    #[test]
    fn negated_atom_is_complementary() {
        let CanonAtom::Ineq(atom) = canon_ineq(form(&[(0, 1)]), -3, Rel::Le) else {
            panic!("expected inequality");
        };
        let neg = atom.negated();
        for v in -5..=5 {
            let lookup = |_| Rat::int(v);
            assert_ne!(atom.holds(lookup), neg.holds(lookup), "value {v}");
        }
    }

    #[test]
    fn pool_interning_is_stable() {
        let mut pool = VarPool::new();
        let a = pool.intern("a");
        let b = pool.intern("b");
        assert_eq!(pool.intern("a"), a);
        assert_ne!(a, b);
        assert_eq!(pool.name(b), "b");
        let f = pool.fresh("tmp");
        assert!(pool.name(f).starts_with("tmp!"));
    }
}
