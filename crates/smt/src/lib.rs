//! # relaxed-smt
//!
//! A self-contained SMT solver for quantified linear integer arithmetic
//! with array reads — the decision-procedure substrate of the
//! relaxed-programs verification framework.
//!
//! The PLDI 2012 paper this workspace reproduces discharges entailment
//! side conditions "by an automated theorem prover" (§5.1) from within
//! Coq. No external prover is available to this reproduction, so this
//! crate implements the required fragment from scratch:
//!
//! * [`sat`] — a CDCL SAT solver (two-watched literals, heap-ordered
//!   VSIDS, 1UIP learning, restarts) that feeds a pluggable theory its
//!   trail incrementally, checks it at every propagation fixpoint, and
//!   backjumps on its conflict clauses;
//! * [`simplex`] — a Dutertre–de Moura general simplex over exact
//!   rationals ([`rational`]) with branch-and-bound integrality;
//! * [`preprocess`] — NNF, the one-point rule, *exact* quantifier
//!   elimination for unit-coefficient quantifiers, skolemization, and
//!   sound finite instantiation as a last resort;
//! * [`ground`] — exact encodings for constant division/remainder, array
//!   reads (Ackermann), and array lengths; uninterpreted weakening for
//!   the rest;
//! * [`solver`] — the DPLL(T) driver and the public
//!   [`Solver::check_sat`]/[`Solver::check_valid`] API, plus the
//!   incremental [`Solver::session`] API ([`ScopedSolver`]) with
//!   `assert`/`push`/`pop` assumption scopes;
//! * [`intern`] — hash-consed term interning and the α-invariant
//!   canonical goal renderer the verdict cache keys on.
//!
//! ## Soundness contract
//!
//! `Unsat` (hence [`Validity::Valid`]) verdicts are always sound: every
//! preprocessing rewrite either preserves satisfiability or *weakens* the
//! formula. Weakening steps taint the run, and a tainted `Sat` is reported
//! as [`SmtResult::Unknown`] instead — the solver never claims a model it
//! cannot justify.
//!
//! ## Example
//!
//! ```
//! use relaxed_smt::{Solver, Validity, ast::ITerm};
//!
//! let mut solver = Solver::new();
//! // ∀x. x ≥ y ⇒ x + 1 > y
//! let phi = ITerm::var("x").ge(ITerm::var("y"))
//!     .implies(ITerm::var("x").add(ITerm::Const(1)).rel(relaxed_smt::ast::Rel::Gt, ITerm::var("y")))
//!     .forall("x");
//! assert_eq!(solver.check_valid(&phi), Validity::Valid);
//! ```

#![warn(missing_docs)]
// Library code must not print: route diagnostics through `relaxed_core::diag`
// (see README "Observability"). Bin entry points opt out locally.
#![warn(clippy::print_stdout, clippy::print_stderr)]

pub mod ast;
pub mod cnf;
pub mod ground;
pub mod intern;
pub mod linear;
pub mod preprocess;
pub mod rational;
pub mod sat;
pub mod simplex;
pub mod solver;

pub use ast::{BTerm, ITerm, Rel};
pub use intern::{NodeId, TermArena};
pub use rational::Rat;
pub use solver::{Model, ScopedSolver, SmtResult, Solver, SolverStats, Validity, SOLVER_VERSION};
