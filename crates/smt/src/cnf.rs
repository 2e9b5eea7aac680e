//! Atom canonicalization and Tseitin CNF encoding.
//!
//! Each distinct canonical linear atom maps to one SAT variable;
//! syntactically complementary atoms (`f ≤ b` vs `f ≥ b+1`) map to the two
//! polarities of the *same* variable, so propositional reasoning sees the
//! complement structure for free.
//!
//! Each atom is linearized once: one walk over the borrowed `lhs` and `rhs`
//! sums coefficients per borrowed variable name (see
//! [`linear_diff`](crate::linear)), and the names are interned in sorted
//! order. `Eq` and `Ne` atoms split into two bounds of that one form, and
//! `a ⇒ b` is encoded as the gate for `¬a ∨ b` without rewriting the tree.

use crate::ast::{BTerm, ITerm, Rel};
use crate::linear::{
    canon_ineq, linear_diff, var_name, BoundKind, CanonAtom, IneqAtom, LinForm, VarPool,
};
use crate::sat::{BVar, Lit, SatSolver};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;

/// Encoding failure: an atom was not linear after grounding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EncodeError {
    /// Description of the offending atom.
    pub message: String,
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "encoding error: {}", self.message)
    }
}

impl std::error::Error for EncodeError {}

/// Builds CNF from a grounded quantifier-free formula.
#[derive(Debug)]
pub struct CnfBuilder {
    /// The underlying SAT solver being populated.
    pub sat: SatSolver,
    /// Interned theory (integer) variables.
    pub pool: VarPool,
    /// Per SAT variable: the theory atom it stands for (upper-bound
    /// canonical), or `None` for pure propositional (Tseitin) variables.
    pub atoms: Vec<Option<IneqAtom>>,
    atom_vars: HashMap<(LinForm, i128), BVar>,
    true_var: Option<BVar>,
}

impl Default for CnfBuilder {
    fn default() -> Self {
        CnfBuilder::new()
    }
}

impl CnfBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        CnfBuilder {
            sat: SatSolver::new(),
            pool: VarPool::new(),
            atoms: Vec::new(),
            atom_vars: HashMap::new(),
            true_var: None,
        }
    }

    fn new_bool_var(&mut self) -> BVar {
        let v = self.sat.new_var();
        self.atoms.push(None);
        v
    }

    fn true_lit(&mut self) -> Lit {
        match self.true_var {
            Some(v) => Lit::new(v, true),
            None => {
                let v = self.new_bool_var();
                self.true_var = Some(v);
                let l = Lit::new(v, true);
                self.sat.add_clause(vec![l]);
                l
            }
        }
    }

    /// The literal for a canonical inequality atom. Complementary atoms
    /// share a variable with opposite polarity.
    fn atom_lit(&mut self, atom: IneqAtom) -> Lit {
        // Canonical key: the Upper representative.
        let (key, positive) = match atom.kind {
            BoundKind::Upper => ((atom.form, atom.bound), true),
            // f ≥ b ⟺ ¬(f ≤ b−1)
            BoundKind::Lower => ((atom.form, atom.bound - 1), false),
        };
        let v = match self.atom_vars.entry(key) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let v = self.sat.new_var();
                self.atoms.push(Some(IneqAtom {
                    form: e.key().0.clone(),
                    kind: BoundKind::Upper,
                    bound: e.key().1,
                }));
                *e.insert(v)
            }
        };
        Lit::new(v, positive)
    }

    /// The literal for `form + k rel 0` (`rel` neither `Eq` nor `Ne`).
    fn ineq_lit(&mut self, form: LinForm, k: i128, rel: Rel) -> Lit {
        match canon_ineq(form, k, rel) {
            CanonAtom::True => self.true_lit(),
            CanonAtom::False => self.true_lit().negated(),
            CanonAtom::Ineq(atom) => self.atom_lit(atom),
        }
    }

    /// `lhs − rhs` as a linear form over interned variables plus a
    /// constant, in one walk over the borrowed terms. Names are interned
    /// in sorted order, and only those whose coefficient does not cancel.
    fn linearize(&mut self, lhs: &ITerm, rhs: &ITerm) -> Result<(LinForm, i128), EncodeError> {
        let (coeffs, k) = linear_diff(lhs, rhs, &var_name).ok_or_else(|| EncodeError {
            message: format!("non-linear atom after grounding: {lhs:?} - {rhs:?}"),
        })?;
        let mut form = LinForm::zero();
        for (name, c) in coeffs {
            form.add_term(self.pool.intern(name), c);
        }
        Ok((form, k))
    }

    /// A Tseitin gate `g ⟺ a ∧ b`.
    fn and_gate(&mut self, a: Lit, b: Lit) -> Lit {
        let g = Lit::new(self.new_bool_var(), true);
        self.sat.add_clause(vec![g.negated(), a]);
        self.sat.add_clause(vec![g.negated(), b]);
        self.sat.add_clause(vec![a.negated(), b.negated(), g]);
        g
    }

    /// A Tseitin gate `g ⟺ a ∨ b`.
    fn or_gate(&mut self, a: Lit, b: Lit) -> Lit {
        let g = Lit::new(self.new_bool_var(), true);
        self.sat.add_clause(vec![g.negated(), a, b]);
        self.sat.add_clause(vec![a.negated(), g]);
        self.sat.add_clause(vec![b.negated(), g]);
        g
    }

    /// Tseitin-encodes a formula, returning its literal.
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError`] when a non-linear atom survives grounding or
    /// a quantifier is present.
    pub fn encode(&mut self, b: &BTerm) -> Result<Lit, EncodeError> {
        match b {
            BTerm::True => Ok(self.true_lit()),
            BTerm::False => Ok(self.true_lit().negated()),
            BTerm::Atom(rel, lhs, rhs) => {
                let (form, k) = self.linearize(lhs, rhs)?;
                Ok(match rel {
                    // f = 0 ⟺ f ≤ 0 ∧ f ≥ 0, and f ≠ 0 ⟺ f < 0 ∨ f > 0.
                    Rel::Eq => {
                        let le = self.ineq_lit(form.clone(), k, Rel::Le);
                        let ge = self.ineq_lit(form, k, Rel::Ge);
                        self.and_gate(le, ge)
                    }
                    Rel::Ne => {
                        let lt = self.ineq_lit(form.clone(), k, Rel::Lt);
                        let gt = self.ineq_lit(form, k, Rel::Gt);
                        self.or_gate(lt, gt)
                    }
                    _ => self.ineq_lit(form, k, *rel),
                })
            }
            BTerm::And(x, y) => {
                let lx = self.encode(x)?;
                let ly = self.encode(y)?;
                Ok(self.and_gate(lx, ly))
            }
            BTerm::Or(x, y) => {
                let lx = self.encode(x)?;
                let ly = self.encode(y)?;
                Ok(self.or_gate(lx, ly))
            }
            // x ⇒ y ⟺ ¬x ∨ y
            BTerm::Implies(x, y) => {
                let lx = self.encode(x)?.negated();
                let ly = self.encode(y)?;
                Ok(self.or_gate(lx, ly))
            }
            BTerm::Not(x) => Ok(self.encode(x)?.negated()),
            BTerm::Exists(_, _) | BTerm::Forall(_, _) => Err(EncodeError {
                message: "quantifier reached the CNF encoder".to_string(),
            }),
        }
    }

    /// Asserts a literal as a root constraint.
    pub fn assert_root(&mut self, lit: Lit) {
        self.sat.add_clause(vec![lit]);
    }

    /// Marks the current encoder + SAT state for a later
    /// [`CnfBuilder::pop_to`]. The theory [`VarPool`] is deliberately
    /// *not* marked: interned integer variables are global name
    /// identities, and keeping them across pops lets a session's simplex
    /// tableau reuse stable columns.
    pub(crate) fn mark(&mut self) -> CnfMark {
        CnfMark {
            sat: self.sat.mark(),
            natoms: self.atoms.len(),
            true_var: self.true_var,
        }
    }

    /// Restores the builder to `mark`: SAT clauses/variables added since
    /// are dropped, and the atom table shrinks in lock-step (atoms are
    /// 1:1 with SAT variables).
    pub(crate) fn pop_to(&mut self, mark: &CnfMark) {
        self.sat.pop_to(mark.sat);
        self.atoms.truncate(mark.natoms);
        self.atom_vars.retain(|_, v| (*v as usize) < mark.natoms);
        self.true_var = mark.true_var;
    }
}

/// A restorable mark of a [`CnfBuilder`]'s state (SAT mark + atom-table
/// length + the interned `true` literal, if any).
#[derive(Clone, Copy, Debug)]
pub(crate) struct CnfMark {
    sat: crate::sat::SatMark,
    natoms: usize,
    true_var: Option<BVar>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::SatOutcome;

    fn x() -> ITerm {
        ITerm::var("x")
    }

    #[test]
    fn complementary_atoms_share_a_variable() {
        let mut cnf = CnfBuilder::new();
        // x ≤ 3 and x ≥ 4 are complementary.
        let a = cnf.encode(&x().le(ITerm::Const(3))).unwrap();
        let b = cnf.encode(&x().ge(ITerm::Const(4))).unwrap();
        assert_eq!(a.var(), b.var());
        assert_ne!(a.is_positive(), b.is_positive());
    }

    #[test]
    fn distinct_bounds_get_distinct_variables() {
        let mut cnf = CnfBuilder::new();
        let a = cnf.encode(&x().le(ITerm::Const(3))).unwrap();
        let b = cnf.encode(&x().le(ITerm::Const(5))).unwrap();
        assert_ne!(a.var(), b.var());
    }

    #[test]
    fn trivial_atoms_fold_to_constants() {
        let mut cnf = CnfBuilder::new();
        let t = cnf.encode(&ITerm::Const(1).le(ITerm::Const(2))).unwrap();
        let f = cnf.encode(&ITerm::Const(2).le(ITerm::Const(1))).unwrap();
        assert_eq!(t, f.negated());
    }

    #[test]
    fn propositional_structure_solves() {
        // (x ≤ 3 ∨ x ≥ 10) ∧ ¬(x ≤ 3): boolean-satisfiable.
        let mut cnf = CnfBuilder::new();
        let phi = x()
            .le(ITerm::Const(3))
            .or(x().ge(ITerm::Const(10)))
            .and(BTerm::Not(Box::new(x().le(ITerm::Const(3)))));
        let root = cnf.encode(&phi).unwrap();
        cnf.assert_root(root);
        assert!(matches!(cnf.sat.solve(), SatOutcome::Sat(_)));
    }

    #[test]
    fn boolean_contradiction_is_unsat_without_theory() {
        let mut cnf = CnfBuilder::new();
        let a = x().le(ITerm::Const(3));
        let phi = a.clone().and(BTerm::Not(Box::new(a)));
        let root = cnf.encode(&phi).unwrap();
        cnf.assert_root(root);
        assert_eq!(cnf.sat.solve(), SatOutcome::Unsat);
    }

    #[test]
    fn equality_splits_into_two_bounds() {
        let mut cnf = CnfBuilder::new();
        let root = cnf.encode(&x().eq_term(ITerm::Const(5))).unwrap();
        cnf.assert_root(root);
        // Two theory atoms: x ≤ 5 and x ≤ 4 (for x ≥ 5).
        let natoms = cnf.atoms.iter().flatten().count();
        assert_eq!(natoms, 2);
    }

    #[test]
    fn disequality_is_two_atoms_over_one_form() {
        let mut cnf = CnfBuilder::new();
        cnf.encode(&x().rel(Rel::Ne, ITerm::Const(5))).unwrap();
        // x < 5 is x ≤ 4; x > 5 is ¬(x ≤ 5).
        let atoms: Vec<&IneqAtom> = cnf.atoms.iter().flatten().collect();
        assert_eq!(atoms.len(), 2);
        assert_eq!(atoms[0].form, atoms[1].form);
        assert_eq!((atoms[0].bound, atoms[1].bound), (4, 5));
        assert_eq!(cnf.pool.len(), 1);
    }

    #[test]
    fn non_linear_atom_is_an_encoding_error() {
        let mut cnf = CnfBuilder::new();
        let product = x().mul(ITerm::var("y")).le(ITerm::Const(3));
        let err = cnf.encode(&product).unwrap_err();
        assert!(err.message.contains("non-linear"), "{err}");
        assert!(cnf.atoms.is_empty() && cnf.pool.is_empty());
    }

    #[test]
    fn implication_encodes_as_its_disjunction() {
        let a = x().le(ITerm::Const(3));
        let b = ITerm::var("y").ge(x());
        let mut implied = CnfBuilder::new();
        let li = implied.encode(&a.clone().implies(b.clone())).unwrap();
        let mut disjoined = CnfBuilder::new();
        let ld = disjoined.encode(&a.not().or(b)).unwrap();
        assert_eq!(li, ld);
        assert_eq!(implied.atoms, disjoined.atoms);
        let names = |c: &CnfBuilder| {
            c.pool
                .iter()
                .map(|(_, n)| n.to_string())
                .collect::<Vec<_>>()
        };
        assert_eq!(names(&implied), names(&disjoined));
        assert_eq!(implied.sat.num_vars(), disjoined.sat.num_vars());
    }

    #[test]
    fn quantifier_is_an_encoding_error() {
        let mut cnf = CnfBuilder::new();
        let q = x().le(ITerm::Const(3)).exists("x");
        assert!(cnf.encode(&q).is_err());
    }
}
