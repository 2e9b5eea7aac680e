//! Differential tests: the DPLL(T) pipeline against brute-force
//! enumeration on random quantifier-free linear formulas, exact
//! quantifier elimination against enumeration of the bound variable,
//! `∀∃`/`∃∀` alternation against enumeration of both bound variables, and
//! the CDCL core — alone, with a theory consulted on complete
//! assignments, and with a theory fed incrementally along the trail —
//! against truth-table enumeration on random CNFs.
//!
//! These are the soundness anchors for the whole verification stack: if
//! the solver ever disagrees with exhaustive enumeration on a bounded
//! domain, everything built on top of it is suspect.

use relaxed_interp::rng::SplitMix64;
use relaxed_smt::ast::{BTerm, ITerm, Rel};
use relaxed_smt::preprocess::{eliminate_quantifiers, formula_vars, FreshNames};
use relaxed_smt::sat::{BVar, Lit, SatOutcome, SatSolver, SatStats, Theory, TheoryVerdict};
use relaxed_smt::{SmtResult, Solver};

const NAMES: &[&str] = &["x", "y", "z"];
const DOMAIN: std::ops::RangeInclusive<i64> = -4..=4;

fn gen_rel(rng: &mut SplitMix64) -> Rel {
    match rng.gen_u32_below(6) {
        0 => Rel::Lt,
        1 => Rel::Le,
        2 => Rel::Gt,
        3 => Rel::Ge,
        4 => Rel::Eq,
        _ => Rel::Ne,
    }
}

/// Linear terms: c0 + c1*x + c2*y + c3*z with small coefficients.
fn gen_linear_term(rng: &mut SplitMix64) -> ITerm {
    let mut acc = ITerm::Const(rng.gen_range(-4..=4));
    for _ in 0..rng.gen_u32_below(3) {
        let c = rng.gen_range(-3..=3);
        let vi = rng.gen_u32_below(NAMES.len() as u32) as usize;
        acc = acc.add(ITerm::Const(c).mul(ITerm::var(NAMES[vi])));
    }
    acc
}

/// Random quantifier-free formulas over And/Or/Implies/Not, depth ≤ 3.
fn gen_qf_formula(rng: &mut SplitMix64, depth: u32) -> BTerm {
    if depth == 0 || rng.gen_u32_below(3) == 0 {
        return BTerm::Atom(gen_rel(rng), gen_linear_term(rng), gen_linear_term(rng));
    }
    match rng.gen_u32_below(4) {
        0 => BTerm::And(
            Box::new(gen_qf_formula(rng, depth - 1)),
            Box::new(gen_qf_formula(rng, depth - 1)),
        ),
        1 => BTerm::Or(
            Box::new(gen_qf_formula(rng, depth - 1)),
            Box::new(gen_qf_formula(rng, depth - 1)),
        ),
        2 => BTerm::Implies(
            Box::new(gen_qf_formula(rng, depth - 1)),
            Box::new(gen_qf_formula(rng, depth - 1)),
        ),
        _ => BTerm::Not(Box::new(gen_qf_formula(rng, depth - 1))),
    }
}

fn eval_term(t: &ITerm, env: &dyn Fn(&str) -> i128) -> i128 {
    match t {
        ITerm::Const(n) => i128::from(*n),
        ITerm::Var(v) => env(v),
        ITerm::Add(a, b) => eval_term(a, env) + eval_term(b, env),
        ITerm::Sub(a, b) => eval_term(a, env) - eval_term(b, env),
        ITerm::Neg(a) => -eval_term(a, env),
        ITerm::Mul(a, b) => eval_term(a, env) * eval_term(b, env),
        other => panic!("unexpected term in oracle: {other:?}"),
    }
}

fn eval_formula(b: &BTerm, env: &dyn Fn(&str) -> i128) -> bool {
    match b {
        BTerm::True => true,
        BTerm::False => false,
        BTerm::Atom(rel, lhs, rhs) => {
            let l = eval_term(lhs, env);
            let r = eval_term(rhs, env);
            match rel {
                Rel::Lt => l < r,
                Rel::Le => l <= r,
                Rel::Gt => l > r,
                Rel::Ge => l >= r,
                Rel::Eq => l == r,
                Rel::Ne => l != r,
            }
        }
        BTerm::And(a, c) => eval_formula(a, env) && eval_formula(c, env),
        BTerm::Or(a, c) => eval_formula(a, env) || eval_formula(c, env),
        BTerm::Implies(a, c) => !eval_formula(a, env) || eval_formula(c, env),
        BTerm::Not(a) => !eval_formula(a, env),
        other => panic!("unexpected formula in oracle: {other:?}"),
    }
}

/// Brute-force satisfiability over the bounded domain.
fn brute_force_sat(b: &BTerm) -> bool {
    for x in DOMAIN {
        for y in DOMAIN {
            for z in DOMAIN {
                let env = move |name: &str| match name {
                    "x" => i128::from(x),
                    "y" => i128::from(y),
                    "z" => i128::from(z),
                    other => panic!("unknown variable {other}"),
                };
                if eval_formula(b, &env) {
                    return true;
                }
            }
        }
    }
    false
}

/// Constrains all three variables into the brute-force domain, so the
/// solver and the oracle quantify over the same space.
fn boxed(b: &BTerm) -> BTerm {
    let mut out = b.clone();
    for name in NAMES {
        out = out
            .and(ITerm::var(*name).ge(ITerm::Const(*DOMAIN.start())))
            .and(ITerm::var(*name).le(ITerm::Const(*DOMAIN.end())));
    }
    out
}

/// The solver and brute-force enumeration agree on bounded problems.
#[test]
fn solver_matches_brute_force() {
    let mut rng = SplitMix64::seed_from_u64(0x5EED_0001);
    for case in 0..192 {
        let b = gen_qf_formula(&mut rng, 3);
        let problem = boxed(&b);
        let expected = brute_force_sat(&b);
        let mut solver = Solver::new();
        match solver.check_sat(&problem) {
            SmtResult::Sat(model) => {
                assert!(
                    expected,
                    "case {case}: solver says sat, brute force says unsat: {b:?}"
                );
                // The model must actually satisfy the formula.
                let env = |name: &str| model.get(name).unwrap_or(0);
                assert!(
                    eval_formula(&b, &env),
                    "case {case}: model {model} does not satisfy {b:?}"
                );
            }
            SmtResult::Unsat => {
                assert!(
                    !expected,
                    "case {case}: solver says unsat, brute force found a model: {b:?}"
                );
            }
            SmtResult::Unknown(reason) => {
                panic!("case {case}: solver returned unknown on a linear problem: {reason}");
            }
        }
    }
}

/// Validity of `b ∨ ¬b` style combinations: `check_valid(φ ∨ ¬φ)` must
/// always be valid and `check_valid(φ ∧ ¬φ)` never.
#[test]
fn excluded_middle() {
    let mut rng = SplitMix64::seed_from_u64(0x5EED_0002);
    for case in 0..192 {
        let b = gen_qf_formula(&mut rng, 3);
        let mut solver = Solver::new();
        let lem = b.clone().or(BTerm::Not(Box::new(b.clone())));
        assert_eq!(
            solver.check_valid(&lem),
            relaxed_smt::Validity::Valid,
            "case {case}: {b:?}"
        );
        let contradiction = b.clone().and(BTerm::Not(Box::new(b.clone())));
        assert!(
            !solver.check_valid(&contradiction).is_valid(),
            "case {case}: {b:?}"
        );
    }
}

/// Factors whose pairwise products exceed `i64::MAX` in magnitude.
const BIG_FACTORS: &[i64] = &[3_037_000_500, -3_037_000_500, 4_000_000_000];
/// The range the quantified `x` is boxed into, and enumerated over.
const QE_X: std::ops::RangeInclusive<i64> = -20..=20;
/// The range of the free variables `y` and `z`.
const QE_FREE: std::ops::RangeInclusive<i64> = -3..=3;

/// `c ± y ± z` with a small constant `c`, or with `c` a product of two
/// [`BIG_FACTORS`] in one side of three when `big`.
fn gen_qe_side(rng: &mut SplitMix64, big: bool) -> ITerm {
    let pick = |rng: &mut SplitMix64| BIG_FACTORS[rng.gen_u32_below(3) as usize];
    let mut acc = if big && rng.gen_u32_below(3) == 0 {
        ITerm::Const(pick(rng)).mul(ITerm::Const(pick(rng)))
    } else {
        ITerm::Const(rng.gen_range(-5..=5))
    };
    for name in ["y", "z"] {
        match rng.gen_u32_below(3) {
            0 => {}
            1 => acc = acc.add(ITerm::var(name)),
            _ => acc = acc.sub(ITerm::var(name)),
        }
    }
    acc
}

/// An atom that mentions `x` with coefficient ±1 three times in four.
fn gen_qe_atom(rng: &mut SplitMix64, big: bool) -> BTerm {
    let x = ITerm::var("x");
    let with_x = match rng.gen_u32_below(4) {
        0 => x,
        1 => ITerm::Neg(Box::new(x)),
        2 => x.add(gen_qe_side(rng, big)),
        _ => gen_qe_side(rng, big),
    };
    let other = gen_qe_side(rng, big);
    if rng.gen_bool() {
        BTerm::Atom(gen_rel(rng), with_x, other)
    } else {
        BTerm::Atom(gen_rel(rng), other, with_x)
    }
}

/// Random unit-coefficient formulas φ(x, y, z), depth ≤ 2.
fn gen_qe_formula(rng: &mut SplitMix64, depth: u32, big: bool) -> BTerm {
    if depth == 0 || rng.gen_u32_below(3) == 0 {
        return gen_qe_atom(rng, big);
    }
    let (a, b) = (
        gen_qe_formula(rng, depth - 1, big),
        gen_qe_formula(rng, depth - 1, big),
    );
    match rng.gen_u32_below(4) {
        0 => BTerm::And(Box::new(a), Box::new(b)),
        1 => BTerm::Or(Box::new(a), Box::new(b)),
        2 => BTerm::Implies(Box::new(a), Box::new(b)),
        _ => BTerm::Not(Box::new(a)),
    }
}

/// Whether the quantifier-free `b` holds at `y`, `z`. Formulas over `y`
/// and `z` alone are evaluated; skolem constants left by elimination are
/// existential, so those go to the solver with `y` and `z` fixed.
fn qe_result_holds(b: &BTerm, y: i64, z: i64) -> bool {
    let mut vars = std::collections::BTreeSet::new();
    formula_vars(b, &mut vars);
    if vars.iter().all(|v| v == "y" || v == "z") {
        let env = |name: &str| i128::from(if name == "y" { y } else { z });
        return eval_formula(b, &env);
    }
    let fixed = b
        .clone()
        .and(ITerm::var("y").eq_term(ITerm::Const(y)))
        .and(ITerm::var("z").eq_term(ITerm::Const(z)));
    match Solver::new().check_sat(&fixed) {
        SmtResult::Sat(_) => true,
        SmtResult::Unsat => false,
        SmtResult::Unknown(reason) => panic!("unknown on a quantifier-free problem: {reason}"),
    }
}

/// Exact quantifier elimination against enumeration of `x`: whenever
/// `eliminate_quantifiers` claims completeness for `∃x. box ∧ φ` or
/// `∀x. box ⇒ φ` (with `x` boxed into [`QE_X`]), its result must agree
/// with brute force at every `(y, z)`. One round in three draws constants
/// that are products past `i64`, so an eliminated bound that narrowed
/// such a constant would wrap to a different value and disagree.
#[test]
fn quantifier_elimination_matches_brute_force() {
    let mut rng = SplitMix64::seed_from_u64(0x5EED_0003);
    let x = || ITerm::var("x");
    let in_box = x()
        .ge(ITerm::Const(*QE_X.start()))
        .and(x().le(ITerm::Const(*QE_X.end())));
    let (mut checked, mut checked_big) = (0, 0);
    for round in 0..240 {
        let big = round % 3 == 0;
        let exists = round % 2 == 0;
        let phi = gen_qe_formula(&mut rng, 2, big);
        let quantified = if exists {
            in_box.clone().and(phi.clone()).exists("x")
        } else {
            in_box.clone().implies(phi.clone()).forall("x")
        };
        let qe = eliminate_quantifiers(&quantified, &mut FreshNames::new());
        if qe.incomplete {
            continue;
        }
        for y in QE_FREE {
            for z in QE_FREE {
                let env = |name: &str, xv: i64| {
                    i128::from(match name {
                        "x" => xv,
                        "y" => y,
                        "z" => z,
                        other => panic!("unknown variable {other}"),
                    })
                };
                let mut values = QE_X.map(|xv| eval_formula(&phi, &|n| env(n, xv)));
                let expected = if exists {
                    values.any(|v| v)
                } else {
                    values.all(|v| v)
                };
                assert_eq!(
                    qe_result_holds(&qe.formula, y, z),
                    expected,
                    "round {round} at y = {y}, z = {z}: {quantified:?}\n  eliminated to {:?}",
                    qe.formula
                );
            }
        }
        checked += 1;
        checked_big += usize::from(big);
    }
    assert!(
        checked >= 160 && checked_big >= 40,
        "only {checked} complete eliminations ({checked_big} with large constants)"
    );
}

/// The range of the alternation oracle's `x`, the variable bound innermost
/// by `∀y.∃x` and outermost by `∃x.∀y`.
const ALT_X: std::ops::RangeInclusive<i64> = -6..=6;
/// The range of its other bound variable `y`.
const ALT_Y: std::ops::RangeInclusive<i64> = -3..=3;
/// The range of its free variable `z`.
const ALT_Z: std::ops::RangeInclusive<i64> = -2..=2;

/// `c_x·x + c_y·y + c_z·z rel k`, each variable present two times in
/// three, with `|c| ∈ {1, 2, 3}`: unit coefficients take the exact
/// elimination paths, the others the fallbacks.
fn gen_alt_atom(rng: &mut SplitMix64) -> BTerm {
    let mut lhs = ITerm::Const(0);
    for name in ["x", "y", "z"] {
        if rng.gen_u32_below(3) > 0 {
            let c = rng.gen_range(1..=3) * if rng.gen_bool() { 1 } else { -1 };
            lhs = lhs.add(ITerm::Const(c).mul(ITerm::var(name)));
        }
    }
    BTerm::Atom(gen_rel(rng), lhs, ITerm::Const(rng.gen_range(-4..=4)))
}

/// Random formulas φ(x, y, z) over [`gen_alt_atom`], depth ≤ 2.
fn gen_alt_formula(rng: &mut SplitMix64, depth: u32) -> BTerm {
    if depth == 0 || rng.gen_u32_below(3) == 0 {
        return gen_alt_atom(rng);
    }
    let (a, b) = (
        gen_alt_formula(rng, depth - 1),
        gen_alt_formula(rng, depth - 1),
    );
    match rng.gen_u32_below(4) {
        0 => BTerm::And(Box::new(a), Box::new(b)),
        1 => BTerm::Or(Box::new(a), Box::new(b)),
        2 => BTerm::Implies(Box::new(a), Box::new(b)),
        _ => BTerm::Not(Box::new(a)),
    }
}

/// `lo ≤ v ≤ hi` for the range `r`.
fn in_range(v: &str, r: &std::ops::RangeInclusive<i64>) -> BTerm {
    ITerm::var(v)
        .ge(ITerm::Const(*r.start()))
        .and(ITerm::var(v).le(ITerm::Const(*r.end())))
}

/// Quantifier alternation against enumeration: `∀y.∃x. φ` and `∃x.∀y. φ`,
/// each bound variable boxed into its range and `z` boxed into [`ALT_Z`].
/// `Unsat` must mean the sentence is false at every `z`, `Sat` must come
/// with a `z` at which it is true. `Unknown` is allowed (a non-unit `∀`
/// is instantiated finitely), but at least 40 rounds must be decided
/// each way. An `∃`
/// under a `∀` skolemized to one constant would make true `∀∃` sentences
/// `Unsat`.
#[test]
fn quantifier_alternation_matches_brute_force() {
    let mut rng = SplitMix64::seed_from_u64(0x5EED_0004);
    let (mut sat, mut unsat, mut unknown) = (0, 0, 0);
    for round in 0..240 {
        let forall_exists = round % 2 == 0;
        let phi = gen_alt_formula(&mut rng, 2);
        let sentence = if forall_exists {
            in_range("y", &ALT_Y)
                .implies(in_range("x", &ALT_X).and(phi.clone()).exists("x"))
                .forall("y")
        } else {
            in_range("x", &ALT_X)
                .and(in_range("y", &ALT_Y).implies(phi.clone()).forall("y"))
                .exists("x")
        };
        let holds_at = |z: i64| {
            let at = |x: i64, y: i64| {
                eval_formula(&phi, &|name: &str| {
                    i128::from(match name {
                        "x" => x,
                        "y" => y,
                        _ => z,
                    })
                })
            };
            if forall_exists {
                ALT_Y
                    .into_iter()
                    .all(|y| ALT_X.into_iter().any(|x| at(x, y)))
            } else {
                ALT_X
                    .into_iter()
                    .any(|x| ALT_Y.into_iter().all(|y| at(x, y)))
            }
        };
        let problem = sentence.clone().and(in_range("z", &ALT_Z));
        match Solver::new().check_sat(&problem) {
            SmtResult::Sat(model) => {
                let z = model.get("z").expect("z in the model");
                let z = i64::try_from(z).expect("z in its box");
                assert!(
                    holds_at(z),
                    "round {round}: solver says sat at z = {z}, enumeration says false: \
                     {sentence:?}"
                );
                sat += 1;
            }
            SmtResult::Unsat => {
                let witness = ALT_Z.into_iter().find(|&z| holds_at(z));
                assert_eq!(
                    witness, None,
                    "round {round}: solver says unsat, enumeration holds: {sentence:?}"
                );
                unsat += 1;
            }
            SmtResult::Unknown(_) => unknown += 1,
        }
    }
    assert!(
        sat >= 40 && unsat >= 40,
        "{sat} sat / {unsat} unsat / {unknown} unknown"
    );
}

/// Random 3-CNF against truth-table enumeration.
#[test]
fn cdcl_matches_truth_table_on_random_cnfs() {
    let mut rng = SplitMix64::seed_from_u64(0xDEADBEEF);
    for round in 0..200 {
        let nvars = 3 + (round % 5) as u32; // 3..=7 variables
        let nclauses = 2 + rng.gen_u32_below(4 * nvars) as usize;
        let mut clauses: Vec<Vec<(u32, bool)>> = Vec::new();
        for _ in 0..nclauses {
            let len = 1 + rng.gen_u32_below(3) as usize;
            let mut clause = Vec::new();
            for _ in 0..len {
                clause.push((rng.gen_u32_below(nvars), rng.gen_u32_below(2) == 0));
            }
            clauses.push(clause);
        }
        // Truth table.
        let mut expected = false;
        'outer: for bits in 0..(1u32 << nvars) {
            for clause in &clauses {
                let sat = clause.iter().any(|&(v, pos)| ((bits >> v) & 1 == 1) == pos);
                if !sat {
                    continue 'outer;
                }
            }
            expected = true;
            break;
        }
        // CDCL.
        let mut solver = SatSolver::new();
        for _ in 0..nvars {
            solver.new_var();
        }
        let mut ok = true;
        for clause in &clauses {
            let lits: Vec<Lit> = clause.iter().map(|&(v, pos)| Lit::new(v, pos)).collect();
            ok &= solver.add_clause(lits);
        }
        let outcome = if ok {
            solver.solve()
        } else {
            SatOutcome::Unsat
        };
        match outcome {
            SatOutcome::Sat(model) => {
                assert!(expected, "round {round}: solver sat, table unsat");
                for clause in &clauses {
                    assert!(
                        clause.iter().any(|&(v, pos)| model[v as usize] == pos),
                        "round {round}: model does not satisfy clause"
                    );
                }
            }
            SatOutcome::Unsat => assert!(!expected, "round {round}: solver unsat, table sat"),
            SatOutcome::Unknown => panic!("round {round}: unexpected unknown"),
        }
    }
}

/// A literal list as a pair of variable bitmasks (positive, negative).
fn masks(lits: &[(u32, bool)]) -> (u32, u32) {
    lits.iter().fold((0, 0), |(pos, neg), &(v, positive)| {
        if positive {
            (pos | 1 << v, neg)
        } else {
            (pos, neg | 1 << v)
        }
    })
}

/// A theory forbidding cubes (conjunctions of literals): a complete
/// assignment satisfying one is rejected with the cube's negation. The
/// cube's variables are typically set at different decision levels, so
/// the conflict clauses exercise backjumping from a theory conflict.
struct ForbiddenCubes {
    cubes: Vec<Vec<(u32, bool)>>,
}

impl Theory for ForbiddenCubes {
    fn final_check(&mut self, value: &dyn Fn(BVar) -> bool) -> TheoryVerdict {
        for cube in &self.cubes {
            if cube.iter().all(|&(v, positive)| value(v) == positive) {
                return TheoryVerdict::Conflict(
                    cube.iter()
                        .map(|&(v, positive)| Lit::new(v, !positive))
                        .collect(),
                );
            }
        }
        TheoryVerdict::Consistent
    }
}

/// The cube-forbidding theory driven through the incremental hooks: it
/// mirrors the trail from the fed literals and reports a cube as soon as
/// all of its literals are on the trail, usually long before the
/// assignment is complete.
struct IncrementalCubes {
    cubes: Vec<Vec<(u32, bool)>>,
    /// The fed literals, in trail order.
    trail: Vec<Lit>,
    /// Per variable: its value on the mirrored trail.
    value: Vec<Option<bool>>,
    partial_conflicts: u64,
}

impl IncrementalCubes {
    fn new(cubes: Vec<Vec<(u32, bool)>>, nvars: u32) -> Self {
        IncrementalCubes {
            cubes,
            trail: Vec::new(),
            value: vec![None; nvars as usize],
            partial_conflicts: 0,
        }
    }

    /// The negation of the first cube all of whose literals are on the
    /// mirrored trail.
    fn violated(&self) -> Option<Vec<Lit>> {
        self.cubes
            .iter()
            .find(|cube| {
                cube.iter()
                    .all(|&(v, positive)| self.value[v as usize] == Some(positive))
            })
            .map(|cube| {
                cube.iter()
                    .map(|&(v, positive)| Lit::new(v, !positive))
                    .collect()
            })
    }
}

impl Theory for IncrementalCubes {
    fn assert_lit(&mut self, lit: Lit) -> bool {
        let slot = &mut self.value[lit.var() as usize];
        assert!(slot.is_none(), "{lit} fed again without being retracted");
        *slot = Some(lit.is_positive());
        self.trail.push(lit);
        true
    }

    fn partial_check(&mut self) -> TheoryVerdict {
        match self.violated() {
            Some(clause) => {
                self.partial_conflicts += 1;
                TheoryVerdict::Conflict(clause)
            }
            None => TheoryVerdict::Consistent,
        }
    }

    fn backtrack(&mut self, kept: usize) {
        for lit in self.trail.drain(kept..) {
            self.value[lit.var() as usize] = None;
        }
    }

    fn final_check(&mut self, value: &dyn Fn(BVar) -> bool) -> TheoryVerdict {
        for (v, &mirrored) in self.value.iter().enumerate() {
            assert_eq!(
                mirrored,
                Some(value(v as BVar)),
                "the fed literals diverged from the assignment at b{v}"
            );
        }
        self.violated()
            .map_or(TheoryVerdict::Consistent, TheoryVerdict::Conflict)
    }
}

/// One random instance: a CNF plus forbidden cubes over 8..=14 variables.
struct CubeRound {
    nvars: u32,
    clauses: Vec<Vec<(u32, bool)>>,
    cubes: Vec<Vec<(u32, bool)>>,
}

impl CubeRound {
    fn generate(rng: &mut SplitMix64, round: u32) -> CubeRound {
        let gen_lits = |rng: &mut SplitMix64, nvars: u32, len: usize| -> Vec<(u32, bool)> {
            (0..len)
                .map(|_| (rng.gen_u32_below(nvars), rng.gen_u32_below(2) == 0))
                .collect()
        };
        let nvars = 8 + round % 7; // 8..=14 variables
        let nclauses = nvars as usize + rng.gen_u32_below(2 * nvars) as usize;
        let clauses = (0..nclauses)
            .map(|_| {
                let len = 2 + rng.gen_u32_below(3) as usize;
                gen_lits(rng, nvars, len)
            })
            .collect();
        let ncubes = 4 + rng.gen_u32_below(24) as usize;
        let cubes = (0..ncubes)
            .map(|_| {
                // Mostly 2–4 literals; one-literal cubes now and then.
                let len = match rng.gen_u32_below(10) {
                    0 => 1,
                    n => 2 + (n % 3) as usize,
                };
                gen_lits(rng, nvars, len)
            })
            .collect();
        CubeRound {
            nvars,
            clauses,
            cubes,
        }
    }

    /// The truth table: every clause holds and no cube does.
    fn allowed(&self, bits: u32) -> bool {
        self.clauses.iter().all(|c| {
            let (pos, neg) = masks(c);
            bits & pos != 0 || !bits & neg != 0
        }) && !self.cubes.iter().any(|c| {
            let (pos, neg) = masks(c);
            bits & pos == pos && !bits & neg == neg
        })
    }

    /// Runs CDCL with `theory` and checks the outcome against the truth
    /// table. Returns whether the instance was satisfiable and the
    /// search statistics.
    fn check(&self, round: u32, theory: &mut dyn Theory) -> (bool, SatStats) {
        let expected = (0..1u32 << self.nvars).any(|bits| self.allowed(bits));
        let mut solver = SatSolver::new();
        for _ in 0..self.nvars {
            solver.new_var();
        }
        let mut ok = true;
        for clause in &self.clauses {
            let lits: Vec<Lit> = clause.iter().map(|&(v, pos)| Lit::new(v, pos)).collect();
            ok &= solver.add_clause(lits);
        }
        let outcome = if ok {
            solver.solve_with(theory)
        } else {
            SatOutcome::Unsat
        };
        match outcome {
            SatOutcome::Sat(model) => {
                assert!(expected, "round {round}: solver sat, table unsat");
                let bits =
                    (0..self.nvars).fold(0u32, |acc, v| acc | u32::from(model[v as usize]) << v);
                assert!(
                    self.allowed(bits),
                    "round {round}: model violates a clause or satisfies a forbidden cube"
                );
            }
            SatOutcome::Unsat => assert!(!expected, "round {round}: solver unsat, table sat"),
            SatOutcome::Unknown => panic!("round {round}: unexpected unknown"),
        }
        (expected, solver.stats)
    }
}

/// Random CNFs plus a random cube-forbidding theory against the truth
/// table of "every clause holds and no cube does". The theory sees
/// complete assignments only.
#[test]
fn cdcl_with_theory_matches_truth_table() {
    let mut rng = SplitMix64::seed_from_u64(0x7EA0_0001);
    let (mut sat_rounds, mut unsat_rounds, mut theory_conflicts) = (0, 0, 0);
    for round in 0..240 {
        let instance = CubeRound::generate(&mut rng, round);
        let mut theory = ForbiddenCubes {
            cubes: instance.cubes.clone(),
        };
        let (sat, stats) = instance.check(round, &mut theory);
        theory_conflicts += stats.theory_checks.saturating_sub(1);
        if sat {
            sat_rounds += 1;
        } else {
            unsat_rounds += 1;
        }
    }
    // The generator must exercise both verdicts and the theory path.
    assert!(
        sat_rounds >= 40 && unsat_rounds >= 40,
        "{sat_rounds} sat / {unsat_rounds} unsat"
    );
    assert!(
        theory_conflicts >= 300,
        "only {theory_conflicts} theory conflicts"
    );
}

/// The same instances with the theory asserted incrementally: literals
/// are fed at every propagation fixpoint, cubes are refuted by partial
/// checks, and every backjump must retract the literals it removes from
/// the trail (the theory panics on a literal fed twice and checks its
/// mirror against every complete assignment).
#[test]
fn cdcl_with_incremental_theory_matches_truth_table() {
    let mut rng = SplitMix64::seed_from_u64(0x7EA0_0001);
    let (mut sat_rounds, mut unsat_rounds, mut partial_conflicts) = (0, 0, 0);
    for round in 0..240 {
        let instance = CubeRound::generate(&mut rng, round);
        let mut theory = IncrementalCubes::new(instance.cubes.clone(), instance.nvars);
        let (sat, _) = instance.check(round, &mut theory);
        assert!(
            theory.trail.is_empty(),
            "round {round}: the search must retract every fed literal"
        );
        partial_conflicts += theory.partial_conflicts;
        if sat {
            sat_rounds += 1;
        } else {
            unsat_rounds += 1;
        }
    }
    assert!(
        sat_rounds >= 40 && unsat_rounds >= 40,
        "{sat_rounds} sat / {unsat_rounds} unsat"
    );
    assert!(
        partial_conflicts >= 300,
        "only {partial_conflicts} partial-check conflicts"
    );
}
