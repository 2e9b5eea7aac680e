//! A CDCL SAT solver with two-watched-literal propagation, VSIDS
//! decisions taken from an activity-ordered variable heap (MiniSat's
//! order heap; Eén & Sörensson, SAT 2003), first-UIP clause learning,
//! phase saving, and geometric restarts.
//!
//! The solver doubles as the propositional engine of the DPLL(T) driver in
//! [`crate::solver`], which follows Dutertre & de Moura (CAV 2006). At
//! every propagation fixpoint the literals assigned since the previous
//! fixpoint are fed to the [`Theory`] in trail order; when one of them
//! constrains the theory, a cheap partial check runs on the partial
//! assignment. Backjumps retract the literals beyond the kept trail
//! prefix. The theory's final check runs only on complete assignments.
//! A theory conflict, partial or final, is handled like a Boolean one:
//! the search backtracks to the clause's highest decision level, learns
//! its first-UIP clause and backjumps, keeping the rest of the
//! assignment. Theory conflicts do not count toward
//! [`SatSolver::max_conflicts`].

use std::fmt;

/// A propositional variable index.
pub type BVar = u32;

/// A literal: a variable with a polarity.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Lit(u32);

impl Lit {
    /// Creates a literal for `var` with the given polarity.
    pub fn new(var: BVar, positive: bool) -> Lit {
        Lit(var * 2 + u32::from(!positive))
    }

    /// The underlying variable.
    pub fn var(self) -> BVar {
        self.0 / 2
    }

    /// Whether the literal is positive.
    pub fn is_positive(self) -> bool {
        self.0.is_multiple_of(2)
    }

    /// The complementary literal.
    #[must_use]
    pub fn negated(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_positive() {
            write!(f, "b{}", self.var())
        } else {
            write!(f, "!b{}", self.var())
        }
    }
}

/// The verdict a theory returns for a (partial or complete) propositional
/// assignment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TheoryVerdict {
    /// The assignment is theory-consistent.
    Consistent,
    /// Theory-inconsistent; the clause (over existing literals) must be
    /// added. It should be falsified by the current assignment.
    Conflict(Vec<Lit>),
    /// The theory could not decide (e.g. branch budget exhausted). A
    /// partial check answering this is treated as consistent.
    Unknown,
}

/// A theory plugged into the CDCL search.
///
/// [`SatSolver::solve_with`] feeds the theory every trail literal once, in
/// trail order, through [`Theory::assert_lit`]: the literal at trail
/// position `i` is the `i`-th literal fed. Feeding happens at propagation
/// fixpoints, and [`Theory::partial_check`] follows whenever a fed literal
/// constrained the theory. Each feed starts with [`Theory::backtrack`],
/// which retracts the fed literals that backjumps have since removed from
/// the trail. A search starts with nothing fed and retracts everything
/// before it returns.
///
/// The incremental hooks default to no-ops, so a theory implementing only
/// [`Theory::final_check`] is consulted on complete assignments only.
pub trait Theory {
    /// Asserts the next trail literal. Returns whether the literal
    /// constrains the theory, i.e. whether a partial check is due.
    fn assert_lit(&mut self, _lit: Lit) -> bool {
        false
    }

    /// A cheap consistency check of the literals asserted so far. A
    /// conflict clause must consist of negations of asserted literals.
    fn partial_check(&mut self) -> TheoryVerdict {
        TheoryVerdict::Consistent
    }

    /// Retracts every asserted literal but the first `kept` (a no-op when
    /// no more than `kept` are asserted).
    fn backtrack(&mut self, _kept: usize) {}

    /// Checks a complete assignment; `value(v)` is the assignment. Every
    /// trail literal has been asserted, and partial-checked if due.
    fn final_check(&mut self, value: &dyn Fn(BVar) -> bool) -> TheoryVerdict;
}

/// A trivial theory that accepts every assignment (pure SAT solving).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoTheory;

impl Theory for NoTheory {
    fn final_check(&mut self, _value: &dyn Fn(BVar) -> bool) -> TheoryVerdict {
        TheoryVerdict::Consistent
    }
}

/// Result of a SAT search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SatOutcome {
    /// Satisfiable; the vector assigns every variable.
    Sat(Vec<bool>),
    /// Unsatisfiable.
    Unsat,
    /// Resource limit reached or theory returned unknown.
    Unknown,
}

/// Search statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SatStats {
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of conflicts analyzed.
    pub conflicts: u64,
    /// Number of literal propagations.
    pub propagations: u64,
    /// Number of restarts.
    pub restarts: u64,
    /// Number of theory consistency checks: partial checks at
    /// propagation fixpoints plus final checks of complete assignments.
    pub theory_checks: u64,
}

impl SatStats {
    /// Adds every counter of `other` into `self`.
    pub fn absorb(&mut self, other: &SatStats) {
        self.decisions += other.decisions;
        self.conflicts += other.conflicts;
        self.propagations += other.propagations;
        self.restarts += other.restarts;
        self.theory_checks += other.theory_checks;
    }

    /// The per-field difference `self - before`, for folding one check's
    /// contribution out of a long-lived (session) solver whose counters
    /// keep accumulating. `before` must be an earlier snapshot of the
    /// same counters.
    #[must_use]
    pub fn delta_since(&self, before: &SatStats) -> SatStats {
        SatStats {
            decisions: self.decisions - before.decisions,
            conflicts: self.conflicts - before.conflicts,
            propagations: self.propagations - before.propagations,
            restarts: self.restarts - before.restarts,
            theory_checks: self.theory_checks - before.theory_checks,
        }
    }
}

const UNDEF: i8 = 0;

/// The value of `l` under `assigns`: 1 true, -1 false, [`UNDEF`] unset.
fn lit_value(assigns: &[i8], l: Lit) -> i8 {
    let a = assigns[l.var() as usize];
    if l.is_positive() {
        a
    } else {
        -a
    }
}

/// `VarOrder::pos` entry of a variable outside the heap.
const NOT_IN_HEAP: u32 = u32::MAX;

/// The decision order: an indexed binary max-heap of variables keyed by
/// (activity descending, index ascending) — the MiniSat order heap (Eén
/// & Sörensson, SAT 2003). The index tie-break makes the order total, so
/// the top is unique whatever the heap's shape.
///
/// Invariant kept by [`SatSolver`]: every unassigned variable is in the
/// heap. Assigned variables may linger until popped by
/// [`SatSolver::decide`] and are re-inserted when backtracking frees them.
#[derive(Debug, Default)]
struct VarOrder {
    heap: Vec<BVar>,
    /// Heap slot of each variable, or [`NOT_IN_HEAP`].
    pos: Vec<u32>,
}

impl VarOrder {
    fn before(activity: &[f64], a: BVar, b: BVar) -> bool {
        let (x, y) = (activity[a as usize], activity[b as usize]);
        x > y || (x == y && a < b)
    }

    /// Registers one more variable (outside the heap).
    fn grow(&mut self) {
        self.pos.push(NOT_IN_HEAP);
    }

    fn insert(&mut self, v: BVar, activity: &[f64]) {
        if self.pos[v as usize] != NOT_IN_HEAP {
            return;
        }
        self.pos[v as usize] = self.heap.len() as u32;
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, activity);
    }

    /// Restores the heap after `v`'s activity grew.
    fn increased(&mut self, v: BVar, activity: &[f64]) {
        let i = self.pos[v as usize];
        if i != NOT_IN_HEAP {
            self.sift_up(i as usize, activity);
        }
    }

    /// Removes and returns the top variable.
    fn pop(&mut self, activity: &[f64]) -> Option<BVar> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("heap non-empty");
        self.pos[top as usize] = NOT_IN_HEAP;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(0, activity);
        }
        Some(top)
    }

    /// Forgets the variables `nvars..` (freed by a pop).
    fn truncate(&mut self, nvars: usize, activity: &[f64]) {
        self.pos.truncate(nvars);
        self.heap.retain(|&v| (v as usize) < nvars);
        self.rebuild(activity);
    }

    /// Re-heapifies the current members from scratch.
    fn rebuild(&mut self, activity: &[f64]) {
        for (i, &v) in self.heap.iter().enumerate() {
            self.pos[v as usize] = i as u32;
        }
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i, activity);
        }
    }

    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            let p = self.heap[parent];
            if !Self::before(activity, v, p) {
                break;
            }
            self.heap[i] = p;
            self.pos[p as usize] = i as u32;
            i = parent;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as u32;
    }

    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        loop {
            let left = 2 * i + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let child = if right < self.heap.len()
                && Self::before(activity, self.heap[right], self.heap[left])
            {
                right
            } else {
                left
            };
            let c = self.heap[child];
            if !Self::before(activity, c, v) {
                break;
            }
            self.heap[i] = c;
            self.pos[c as usize] = i as u32;
            i = child;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as u32;
    }
}

/// A restorable mark of a [`SatSolver`]'s root-level state: the variable
/// and clause counts, the length of the level-0 trail prefix, and the
/// ok flag. Created by [`SatSolver::mark`], consumed (possibly many
/// times) by [`SatSolver::pop_to`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct SatMark {
    nvars: usize,
    nclauses: usize,
    trail_len: usize,
    ok: bool,
}

/// The CDCL solver.
#[derive(Debug, Default)]
pub struct SatSolver {
    clauses: Vec<Vec<Lit>>,
    watches: Vec<Vec<u32>>,
    assigns: Vec<i8>,
    level: Vec<u32>,
    reason: Vec<Option<u32>>,
    trail: Vec<Lit>,
    lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    order: VarOrder,
    phase: Vec<bool>,
    /// Scratch marks for [`SatSolver::analyze`]; all `false` between
    /// calls.
    seen: Vec<bool>,
    /// Length of the trail prefix fed to the theory of the running
    /// [`SatSolver::solve_with`] that is still on the trail: backtracking
    /// lowers it to the trail length.
    theory_fed: usize,
    ok: bool,
    /// Maximum conflicts before giving up (`None` = unlimited).
    pub max_conflicts: Option<u64>,
    /// Statistics for the last / current solve.
    pub stats: SatStats,
}

impl SatSolver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        SatSolver {
            var_inc: 1.0,
            ok: true,
            ..SatSolver::default()
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> BVar {
        let v = self.assigns.len() as BVar;
        self.assigns.push(UNDEF);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.order.grow();
        self.order.insert(v, &self.activity);
        self.phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        v
    }

    fn value_lit(&self, l: Lit) -> i8 {
        lit_value(&self.assigns, l)
    }

    fn decision_level(&self) -> u32 {
        self.lim.len() as u32
    }

    /// Adds a clause. Must be called at decision level 0.
    ///
    /// Returns `false` when the clause system became unsatisfiable.
    ///
    /// # Panics
    ///
    /// Panics when called above decision level 0 or with an out-of-range
    /// variable.
    pub fn add_clause(&mut self, mut lits: Vec<Lit>) -> bool {
        assert_eq!(self.decision_level(), 0, "clauses are added at level 0");
        if !self.ok {
            return false;
        }
        lits.sort_unstable();
        lits.dedup();
        // Tautology / level-0 simplification.
        let mut simplified = Vec::with_capacity(lits.len());
        for (i, &l) in lits.iter().enumerate() {
            assert!((l.var() as usize) < self.assigns.len(), "unknown variable");
            if i + 1 < lits.len() && lits[i + 1] == l.negated() {
                return true; // tautology
            }
            match self.value_lit(l) {
                1 => return true, // already satisfied at level 0
                -1 => {}          // drop falsified literal
                _ => simplified.push(l),
            }
        }
        match simplified.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.enqueue(simplified[0], None);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                let idx = self.clauses.len() as u32;
                self.watches[simplified[0].index()].push(idx);
                self.watches[simplified[1].index()].push(idx);
                self.clauses.push(simplified);
                true
            }
        }
    }

    fn enqueue(&mut self, l: Lit, reason: Option<u32>) {
        debug_assert_eq!(self.value_lit(l), UNDEF);
        let v = l.var() as usize;
        self.assigns[v] = if l.is_positive() { 1 } else { -1 };
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.phase[v] = l.is_positive();
        self.trail.push(l);
    }

    /// Unit propagation; returns the index of a conflicting clause, if any.
    ///
    /// Each watch list is compacted in place (MiniSat's `i`/`j` scheme):
    /// `i` reads, `j` writes back the clauses that keep this watch.
    fn propagate(&mut self) -> Option<u32> {
        let mut conflict = None;
        while conflict.is_none() && self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = p.negated();
            let mut ws = std::mem::take(&mut self.watches[false_lit.index()]);
            let (mut i, mut j) = (0, 0);
            while i < ws.len() {
                let ci = ws[i];
                i += 1;
                let clause = &mut self.clauses[ci as usize];
                // Normalize: the falsified literal goes to position 1.
                if clause[0] == false_lit {
                    clause.swap(0, 1);
                }
                debug_assert_eq!(clause[1], false_lit);
                // Satisfied by the other watch?
                let first = clause[0];
                let first_value = lit_value(&self.assigns, first);
                if first_value == 1 {
                    ws[j] = ci;
                    j += 1;
                    continue;
                }
                // Look for a replacement watch.
                if let Some(k) =
                    (2..clause.len()).find(|&k| lit_value(&self.assigns, clause[k]) != -1)
                {
                    let cand = clause[k];
                    clause.swap(1, k);
                    self.watches[cand.index()].push(ci);
                    continue;
                }
                ws[j] = ci;
                j += 1;
                // Unit or conflict.
                if first_value == -1 {
                    conflict = Some(ci);
                    ws.copy_within(i.., j);
                    j += ws.len() - i;
                    break;
                }
                self.enqueue(first, Some(ci));
            }
            ws.truncate(j);
            self.watches[false_lit.index()] = ws;
        }
        if conflict.is_some() {
            self.qhead = self.trail.len();
        }
        conflict
    }

    fn bump(&mut self, v: BVar) {
        self.activity[v as usize] += self.var_inc;
        if self.activity[v as usize] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
            // Rescaling may round distinct activities to ties, which the
            // index tie-break then orders differently.
            self.order.rebuild(&self.activity);
        } else {
            self.order.increased(v, &self.activity);
        }
    }

    /// First-UIP conflict analysis.
    fn analyze(&mut self, confl: u32) -> (Vec<Lit>, u32) {
        // Slot 0 is reserved for the asserting literal.
        let mut learnt: Vec<Lit> = vec![Lit(0)];
        let mut path_count = 0u32;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut confl = Some(confl);
        let current = self.decision_level();
        loop {
            let ci = confl.expect("reason must exist on the conflict path") as usize;
            for k in 0..self.clauses[ci].len() {
                let q = self.clauses[ci][k];
                if Some(q) == p {
                    continue;
                }
                let v = q.var() as usize;
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump(q.var());
                    if self.level[v] >= current {
                        path_count += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            loop {
                index -= 1;
                if self.seen[self.trail[index].var() as usize] {
                    break;
                }
            }
            let pl = self.trail[index];
            self.seen[pl.var() as usize] = false;
            path_count -= 1;
            if path_count == 0 {
                learnt[0] = pl.negated();
                break;
            }
            confl = self.reason[pl.var() as usize];
            p = Some(pl);
        }
        // Every current-level mark was cleared on the trail walk; clear
        // the lower-level ones, which are exactly the learnt tail.
        for l in &learnt[1..] {
            self.seen[l.var() as usize] = false;
        }
        let backjump = learnt[1..]
            .iter()
            .map(|l| self.level[l.var() as usize])
            .max()
            .unwrap_or(0);
        // Put a maximum-level literal at index 1 (the second watch).
        if learnt.len() > 1 {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var() as usize] > self.level[learnt[max_i].var() as usize] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
        }
        (learnt, backjump)
    }

    /// Returns to decision level 0, keeping level-0 assignments. Needed
    /// before adding clauses after a `solve_with` that ended in `Sat` or
    /// `Unknown` (those outcomes leave the search trail in place).
    pub(crate) fn reset_to_root(&mut self) {
        self.backtrack_to(0);
    }

    /// Marks the current level-0 state for a later [`SatSolver::pop_to`].
    /// Backtracks to level 0 first, so the mark captures exactly the
    /// root-level clauses, variables, and implied assignments.
    pub(crate) fn mark(&mut self) -> SatMark {
        self.reset_to_root();
        SatMark {
            nvars: self.num_vars(),
            nclauses: self.clauses.len(),
            trail_len: self.trail.len(),
            ok: self.ok,
        }
    }

    /// Restores the solver to `mark`: drops every clause added since —
    /// including clauses learned since, which may depend on popped
    /// assertions (conservative but sound) — un-assigns root-level
    /// implications enqueued since, frees variables allocated since, and
    /// restores the ok flag.
    pub(crate) fn pop_to(&mut self, mark: SatMark) {
        self.backtrack_to(0);
        // Un-assign root trail entries made after the mark (do this
        // before truncating the per-variable arrays: the entries may
        // involve variables about to be freed).
        while self.trail.len() > mark.trail_len {
            let l = self.trail.pop().expect("trail non-empty");
            let v = l.var() as usize;
            self.assigns[v] = UNDEF;
            self.reason[v] = None;
            self.order.insert(l.var(), &self.activity);
        }
        self.qhead = self.trail.len();
        self.clauses.truncate(mark.nclauses);
        self.assigns.truncate(mark.nvars);
        self.level.truncate(mark.nvars);
        self.reason.truncate(mark.nvars);
        self.activity.truncate(mark.nvars);
        self.order.truncate(mark.nvars, &self.activity);
        self.phase.truncate(mark.nvars);
        self.seen.truncate(mark.nvars);
        self.watches.truncate(mark.nvars * 2);
        for w in &mut self.watches {
            w.retain(|&ci| (ci as usize) < mark.nclauses);
        }
        self.ok = mark.ok;
    }

    fn backtrack_to(&mut self, target: u32) {
        while self.decision_level() > target {
            let mark = self.lim.pop().expect("level > 0");
            while self.trail.len() > mark {
                let l = self.trail.pop().expect("trail non-empty");
                let v = l.var() as usize;
                self.assigns[v] = UNDEF;
                self.reason[v] = None;
                self.order.insert(l.var(), &self.activity);
            }
        }
        self.qhead = self.trail.len();
        self.theory_fed = self.theory_fed.min(self.trail.len());
    }

    /// Feeds the theory the trail literals assigned since the last feed,
    /// after retracting the ones a backjump removed. Returns whether a
    /// partial check is due.
    fn feed_theory(&mut self, theory: &mut dyn Theory) -> bool {
        theory.backtrack(self.theory_fed);
        let mut due = false;
        while self.theory_fed < self.trail.len() {
            due |= theory.assert_lit(self.trail[self.theory_fed]);
            self.theory_fed += 1;
        }
        due
    }

    /// Decides the unassigned variable of highest activity (lowest index
    /// among equals) at its saved phase. Returns `false` when every
    /// variable is assigned.
    fn decide(&mut self) -> bool {
        // The heap holds every unassigned variable, plus assigned ones
        // not yet popped; discard those on the way to the top.
        while let Some(v) = self.order.pop(&self.activity) {
            if self.assigns[v as usize] == UNDEF {
                self.stats.decisions += 1;
                self.lim.push(self.trail.len());
                let lit = Lit::new(v, self.phase[v as usize]);
                self.enqueue(lit, None);
                return true;
            }
        }
        false
    }

    fn record_learnt(&mut self, learnt: Vec<Lit>) -> bool {
        if learnt.len() == 1 {
            debug_assert_eq!(self.decision_level(), 0);
            if self.value_lit(learnt[0]) == -1 {
                self.ok = false;
                return false;
            }
            if self.value_lit(learnt[0]) == UNDEF {
                self.enqueue(learnt[0], None);
            }
            true
        } else {
            let idx = self.clauses.len() as u32;
            self.watches[learnt[0].index()].push(idx);
            self.watches[learnt[1].index()].push(idx);
            let first = learnt[0];
            self.clauses.push(learnt);
            debug_assert_eq!(self.value_lit(first), UNDEF);
            self.enqueue(first, Some(idx));
            true
        }
    }

    /// Learns the first-UIP clause of the conflicting clause `ci` and
    /// backjumps to assert it. Returns `false` when the clause system
    /// became unsatisfiable.
    fn learn_from_conflict(&mut self, ci: u32) -> bool {
        let (learnt, backjump) = self.analyze(ci);
        self.backtrack_to(backjump);
        self.var_inc *= 1.05;
        self.record_learnt(learnt)
    }

    /// Handles a theory conflict clause, falsified by the current
    /// assignment, as a Boolean conflict at the clause's highest
    /// decision level (DPLL(T) conflict handling; Dutertre & de Moura,
    /// CAV 2006): backtrack to that level, add the clause watching its
    /// two highest-level literals, then learn and backjump. Returns
    /// `false` when the clause system became unsatisfiable.
    fn theory_conflict(&mut self, mut clause: Vec<Lit>) -> bool {
        clause.sort_unstable();
        clause.dedup();
        debug_assert!(
            clause.iter().all(|&l| self.value_lit(l) == -1),
            "a theory conflict clause must be falsified by the assignment"
        );
        for slot in 0..clause.len().min(2) {
            let top = (slot..clause.len())
                .max_by_key(|&i| self.level[clause[i].var() as usize])
                .expect("slot < clause.len()");
            clause.swap(slot, top);
        }
        let top_level = clause.first().map_or(0, |l| self.level[l.var() as usize]);
        if top_level == 0 {
            self.ok = false;
            return false;
        }
        if clause.len() == 1 {
            self.backtrack_to(0);
            self.enqueue(clause[0], None);
            return true;
        }
        self.backtrack_to(top_level);
        let idx = self.clauses.len() as u32;
        self.watches[clause[0].index()].push(idx);
        self.watches[clause[1].index()].push(idx);
        self.clauses.push(clause);
        self.learn_from_conflict(idx)
    }

    /// Solves with a theory hook (see [`Theory`] for the protocol). On
    /// return the theory holds no asserted literals.
    pub fn solve_with(&mut self, theory: &mut dyn Theory) -> SatOutcome {
        let outcome = self.search(theory);
        theory.backtrack(0);
        self.theory_fed = 0;
        outcome
    }

    fn search(&mut self, theory: &mut dyn Theory) -> SatOutcome {
        if !self.ok {
            return SatOutcome::Unsat;
        }
        let mut restart_limit = 100u64;
        let mut conflicts_since_restart = 0u64;
        loop {
            if let Some(ci) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_since_restart += 1;
                if let Some(max) = self.max_conflicts {
                    if self.stats.conflicts > max {
                        return SatOutcome::Unknown;
                    }
                }
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SatOutcome::Unsat;
                }
                if !self.learn_from_conflict(ci) {
                    return SatOutcome::Unsat;
                }
                continue;
            }
            // Propagation fixpoint: bring the theory up to date.
            if self.feed_theory(theory) {
                self.stats.theory_checks += 1;
                if let TheoryVerdict::Conflict(clause) = theory.partial_check() {
                    if !self.theory_conflict(clause) {
                        return SatOutcome::Unsat;
                    }
                    continue;
                }
            }
            if self.trail.len() == self.num_vars() {
                // Complete assignment: the theory's final check.
                self.stats.theory_checks += 1;
                let assigns = &self.assigns;
                let value = |v: BVar| assigns[v as usize] == 1;
                match theory.final_check(&value) {
                    TheoryVerdict::Consistent => {
                        return SatOutcome::Sat(self.assigns.iter().map(|&a| a == 1).collect());
                    }
                    TheoryVerdict::Unknown => return SatOutcome::Unknown,
                    TheoryVerdict::Conflict(clause) => {
                        if !self.theory_conflict(clause) {
                            return SatOutcome::Unsat;
                        }
                    }
                }
            } else {
                if conflicts_since_restart >= restart_limit {
                    self.stats.restarts += 1;
                    conflicts_since_restart = 0;
                    restart_limit = restart_limit * 3 / 2;
                    self.backtrack_to(0);
                }
                if !self.decide() {
                    unreachable!("decide fails only when all variables are assigned");
                }
            }
        }
    }

    /// Solves as a pure SAT problem.
    pub fn solve(&mut self) -> SatOutcome {
        self.solve_with(&mut NoTheory)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: BVar, pos: bool) -> Lit {
        Lit::new(v, pos)
    }

    fn solver_with_vars(n: usize) -> SatSolver {
        let mut s = SatSolver::new();
        for _ in 0..n {
            s.new_var();
        }
        s
    }

    #[test]
    fn lit_encoding() {
        let l = lit(3, true);
        assert_eq!(l.var(), 3);
        assert!(l.is_positive());
        assert_eq!(l.negated().var(), 3);
        assert!(!l.negated().is_positive());
        assert_eq!(l.negated().negated(), l);
    }

    #[test]
    fn trivial_sat() {
        let mut s = solver_with_vars(2);
        s.add_clause(vec![lit(0, true), lit(1, true)]);
        match s.solve() {
            SatOutcome::Sat(m) => assert!(m[0] || m[1]),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn trivial_unsat() {
        let mut s = solver_with_vars(1);
        s.add_clause(vec![lit(0, true)]);
        s.add_clause(vec![lit(0, false)]);
        assert_eq!(s.solve(), SatOutcome::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = solver_with_vars(1);
        assert!(!s.add_clause(vec![]));
        assert_eq!(s.solve(), SatOutcome::Unsat);
    }

    #[test]
    fn tautology_is_dropped() {
        let mut s = solver_with_vars(1);
        assert!(s.add_clause(vec![lit(0, true), lit(0, false)]));
        assert!(matches!(s.solve(), SatOutcome::Sat(_)));
    }

    #[test]
    fn chain_implication_unsat() {
        // x0, x0→x1, x1→x2, ¬x2
        let mut s = solver_with_vars(3);
        s.add_clause(vec![lit(0, true)]);
        s.add_clause(vec![lit(0, false), lit(1, true)]);
        s.add_clause(vec![lit(1, false), lit(2, true)]);
        s.add_clause(vec![lit(2, false)]);
        assert_eq!(s.solve(), SatOutcome::Unsat);
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // p_{i,j}: pigeon i in hole j. 3 pigeons, 2 holes.
        let mut s = solver_with_vars(6);
        let p = |i: u32, j: u32| i * 2 + j;
        for i in 0..3 {
            s.add_clause(vec![lit(p(i, 0), true), lit(p(i, 1), true)]);
        }
        for j in 0..2 {
            for a in 0..3 {
                for b in (a + 1)..3 {
                    s.add_clause(vec![lit(p(a, j), false), lit(p(b, j), false)]);
                }
            }
        }
        assert_eq!(s.solve(), SatOutcome::Unsat);
    }

    #[test]
    fn model_satisfies_all_clauses() {
        // A small structured instance; verify the returned model.
        let mut s = solver_with_vars(4);
        let clauses = vec![
            vec![lit(0, true), lit(1, false)],
            vec![lit(1, true), lit(2, true), lit(3, false)],
            vec![lit(0, false), lit(3, true)],
            vec![lit(2, false), lit(3, false)],
        ];
        for c in &clauses {
            s.add_clause(c.clone());
        }
        match s.solve() {
            SatOutcome::Sat(m) => {
                for c in &clauses {
                    assert!(
                        c.iter().any(|l| m[l.var() as usize] == l.is_positive()),
                        "model must satisfy every clause"
                    );
                }
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    struct ParityTheory;
    impl Theory for ParityTheory {
        // Require an even number of true variables among b0..b2.
        fn final_check(&mut self, value: &dyn Fn(BVar) -> bool) -> TheoryVerdict {
            let count = (0..3).filter(|&v| value(v)).count();
            if count % 2 == 0 {
                TheoryVerdict::Consistent
            } else {
                let clause = (0..3).map(|v| Lit::new(v, !value(v))).collect::<Vec<_>>();
                TheoryVerdict::Conflict(clause)
            }
        }
    }

    #[test]
    fn theory_hook_vetoes_assignments() {
        let mut s = solver_with_vars(3);
        // At least one variable true.
        s.add_clause(vec![lit(0, true), lit(1, true), lit(2, true)]);
        let mut theory = ParityTheory;
        match s.solve_with(&mut theory) {
            SatOutcome::Sat(m) => {
                let count = m.iter().filter(|&&b| b).count();
                assert!(count % 2 == 0 && count > 0);
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    struct RejectAll;
    impl Theory for RejectAll {
        fn final_check(&mut self, value: &dyn Fn(BVar) -> bool) -> TheoryVerdict {
            let clause = (0..2).map(|v| Lit::new(v, !value(v))).collect();
            TheoryVerdict::Conflict(clause)
        }
    }

    #[test]
    fn theory_rejecting_everything_gives_unsat() {
        let mut s = solver_with_vars(2);
        let mut theory = RejectAll;
        assert_eq!(s.solve_with(&mut theory), SatOutcome::Unsat);
    }

    /// Forbids `b2` true with a one-literal clause, reported at the
    /// deepest decision level.
    struct ForbidB2;
    impl Theory for ForbidB2 {
        fn final_check(&mut self, value: &dyn Fn(BVar) -> bool) -> TheoryVerdict {
            if value(2) {
                TheoryVerdict::Conflict(vec![lit(2, false)])
            } else {
                TheoryVerdict::Consistent
            }
        }
    }

    #[test]
    fn one_literal_theory_conflict_becomes_a_root_fact() {
        let mut s = solver_with_vars(3);
        // Decide every variable true: b2 is set at level 3.
        s.phase = vec![true; 3];
        match s.solve_with(&mut ForbidB2) {
            SatOutcome::Sat(m) => assert_eq!(m, vec![true, true, false]),
            other => panic!("expected sat, got {other:?}"),
        }
        assert_eq!(s.level[2], 0, "the unit theory clause holds at the root");
        assert_eq!(s.stats.theory_checks, 2);
        assert_eq!(s.stats.conflicts, 0, "theory conflicts are not budgeted");
    }

    /// Rejects each value of `b0` with a one-literal clause.
    struct ForbidB0Either;
    impl Theory for ForbidB0Either {
        fn final_check(&mut self, value: &dyn Fn(BVar) -> bool) -> TheoryVerdict {
            TheoryVerdict::Conflict(vec![lit(0, !value(0))])
        }
    }

    #[test]
    fn one_literal_theory_conflict_at_the_root_is_unsat() {
        let mut s = solver_with_vars(2);
        assert_eq!(s.solve_with(&mut ForbidB0Either), SatOutcome::Unsat);
        assert_eq!(s.stats.theory_checks, 2);
    }

    #[test]
    fn mark_and_pop_restore_satisfiability() {
        let mut s = solver_with_vars(1);
        s.add_clause(vec![lit(0, true)]);
        let mark = s.mark();
        s.add_clause(vec![lit(0, false)]);
        assert_eq!(s.solve(), SatOutcome::Unsat);
        s.pop_to(mark);
        match s.solve() {
            SatOutcome::Sat(m) => assert!(m[0]),
            other => panic!("expected sat after pop, got {other:?}"),
        }
    }

    #[test]
    fn pop_frees_variables_and_clauses_added_since() {
        let mut s = solver_with_vars(2);
        s.add_clause(vec![lit(0, true), lit(1, true)]);
        let mark = s.mark();
        let v = s.new_var();
        s.add_clause(vec![lit(v, true)]);
        s.add_clause(vec![lit(v, false), lit(0, false)]);
        assert!(matches!(s.solve(), SatOutcome::Sat(_)));
        s.reset_to_root();
        s.pop_to(mark);
        assert_eq!(s.num_vars(), 2);
        // The popped clauses must no longer constrain the search: b0 can
        // be true again.
        s.add_clause(vec![lit(0, true)]);
        assert!(matches!(s.solve(), SatOutcome::Sat(_)));
    }

    #[test]
    fn learned_clauses_survive_within_a_scope_but_drop_on_pop() {
        // Pigeonhole forces learning; pop must return to the pre-mark
        // clause count so popped-scope lemmas cannot leak.
        let mut s = solver_with_vars(6);
        let mark = s.mark();
        let base_clauses = s.clauses.len();
        let p = |i: u32, j: u32| i * 2 + j;
        for i in 0..3 {
            s.add_clause(vec![lit(p(i, 0), true), lit(p(i, 1), true)]);
        }
        for j in 0..2 {
            for a in 0..3 {
                for b in (a + 1)..3 {
                    s.add_clause(vec![lit(p(a, j), false), lit(p(b, j), false)]);
                }
            }
        }
        assert_eq!(s.solve(), SatOutcome::Unsat);
        assert!(!s.ok);
        s.pop_to(mark);
        assert_eq!(s.clauses.len(), base_clauses);
        assert!(s.ok, "pop restores the ok flag");
        assert!(matches!(s.solve(), SatOutcome::Sat(_)));
    }

    #[test]
    fn heap_breaks_equal_activity_toward_lowest_index() {
        let mut order = VarOrder::default();
        let activity = [1.0, 3.0, 3.0, 0.5, 3.0, 1.0];
        for _ in &activity {
            order.grow();
        }
        for v in [5, 3, 4, 0, 2, 1] {
            order.insert(v, &activity);
        }
        let popped: Vec<BVar> = std::iter::from_fn(|| order.pop(&activity)).collect();
        assert_eq!(popped, vec![1, 2, 4, 0, 5, 3]);

        // Through the solver: equal bumps on b3 and b1 decide b1 first.
        let mut s = solver_with_vars(4);
        s.bump(3);
        s.bump(1);
        assert!(s.decide());
        assert_eq!(s.trail, vec![lit(1, false)]);
        assert!(s.decide());
        assert_eq!(s.trail[1], lit(3, false));
    }

    #[test]
    fn freed_variables_are_never_decided_after_pop() {
        let mut s = solver_with_vars(2);
        let mark = s.mark();
        let fresh: Vec<BVar> = (0..3).map(|_| s.new_var()).collect();
        // Put the soon-freed variables at the top of the order, and some
        // on the root trail.
        for &v in &fresh {
            for _ in 0..4 {
                s.bump(v);
            }
        }
        s.add_clause(vec![lit(fresh[0], true)]);
        s.pop_to(mark);
        let mut decided = Vec::new();
        while s.decide() {
            decided.push(s.trail.last().expect("just decided").var());
        }
        decided.sort_unstable();
        assert_eq!(decided, vec![0, 1]);
        s.reset_to_root();
        match s.solve() {
            SatOutcome::Sat(m) => assert_eq!(m.len(), 2),
            other => panic!("expected sat, got {other:?}"),
        }
    }
}
