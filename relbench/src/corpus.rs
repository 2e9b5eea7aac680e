//! The benchmark's inputs as source text: the six programs of the paper's
//! §5 (Swish++ knobs, Water lock elision, LU approximate memory, and one
//! mutant of each), the variant families the generators draw from, and
//! the hand-written verdict table every operation is checked against.
//!
//! Every verdict is known by construction:
//! * strengthening a unary precondition keeps every obligation valid;
//! * Swish with one threshold `k` in both its `relax` and its `relate`
//!   is valid, and lowering the `relax` bound alone to `k' < k` lets the
//!   relaxed run present fewer than `k` results (invalid);
//! * LU with one error multiplier `c` in its `rinvariant`, `relax` and
//!   `relate` is valid, and widening the `relax` alone to `cr > c`
//!   breaks the Lipschitz bound (invalid).

use relaxed_programs::lang::{parse_formula, parse_program, parse_rel_formula, Program};
use relaxed_programs::Spec;

/// One program of a corpus, as the text a user would edit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Source {
    /// The corpus slot the program fills (`swish`, `water_broken`, …).
    pub name: &'static str,
    /// Which verdict row of [`TABLE`] the program must reproduce.
    pub family: Family,
    /// The annotated program.
    pub program: String,
    /// The unary precondition of the spec.
    pub pre: String,
    /// The relational precondition of the spec.
    pub rel_pre: String,
}

/// A parsed [`Source`].
pub struct Parsed {
    pub name: &'static str,
    pub family: Family,
    pub program: Program,
    pub spec: Spec,
}

impl Source {
    /// Parses the program and its spec (the `lang` layer).
    pub fn parse(&self) -> Result<Parsed, String> {
        let err = |what: &str, e: &dyn std::fmt::Display| format!("{}: {what}: {e}", self.name);
        Ok(Parsed {
            name: self.name,
            family: self.family,
            program: parse_program(&self.program).map_err(|e| err("program", &e))?,
            spec: Spec {
                pre: parse_formula(&self.pre).map_err(|e| err("pre", &e))?,
                post: parse_formula("true").map_err(|e| err("post", &e))?,
                rel_pre: parse_rel_formula(&self.rel_pre).map_err(|e| err("rel_pre", &e))?,
                rel_post: parse_rel_formula("true").map_err(|e| err("rel_post", &e))?,
            },
        })
    }
}

/// The verdict row a program must reproduce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    SwishValid,
    SwishInvalid,
    WaterValid,
    WaterInvalid,
    LuValid,
    LuInvalid,
}

/// What an obligation's verdict must be.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// Proved valid. `Unknown` is a failure, a counterexample is wrong.
    Valid,
    /// Invalid with a quantifier-free counterexample the solver must
    /// find. `Unknown` is a failure, `Valid` is a soundness bug.
    Invalid,
    /// Invalid, but the goal is quantified: the solver's finite
    /// ∀-instantiation can only refute it or answer `Unknown`, and both
    /// are correct. `Valid` is a soundness bug.
    NotValid,
}

use Expect::{Invalid, NotValid, Valid};

/// One obligation's expected verdict: stage (`o` or `r`), obligation
/// name, and verdict.
pub type Row = (&'static str, &'static str, Expect);

/// The expected verdict of every obligation, in pipeline order, per
/// family. Hand-written from the argument in the module docs.
pub const TABLE: [(Family, &[Row]); 6] = [
    (
        Family::SwishValid,
        &[
            ("o", "precondition-establishes-wp", Valid),
            ("o", "invariant-preserved", Valid),
            ("r", "precondition-establishes-wp", Valid),
            ("r", "precondition-establishes-wp", Valid),
            ("r", "invariant-preserved", Valid),
            ("r", "precondition-establishes-wp", Valid),
            ("r", "invariant-preserved", Valid),
        ],
    ),
    (
        Family::SwishInvalid,
        &[
            ("o", "precondition-establishes-wp", Valid),
            ("o", "invariant-preserved", Valid),
            // The relaxed entry obligation carries the `relate`: a knob
            // below the threshold presents too few results.
            ("r", "precondition-establishes-wp", Invalid),
            ("r", "precondition-establishes-wp", Valid),
            ("r", "invariant-preserved", Valid),
            ("r", "precondition-establishes-wp", Valid),
            ("r", "invariant-preserved", Valid),
        ],
    ),
    (
        Family::WaterValid,
        &[
            ("o", "precondition-establishes-wp", Valid),
            ("o", "invariant-preserved", Valid),
            ("r", "precondition-establishes-wp", Valid),
            ("r", "precondition-establishes-wp", Valid),
            ("r", "precondition-establishes-wp", Valid),
            ("r", "loop-convergence", Valid),
            ("r", "rinvariant-preserved", Valid),
        ],
    ),
    (
        Family::WaterInvalid,
        &[
            ("o", "precondition-establishes-wp", Valid),
            ("o", "invariant-preserved", Valid),
            // A relaxed `K` cannot establish `K<o> == K<r>`.
            ("r", "precondition-establishes-wp", Invalid),
            ("r", "precondition-establishes-wp", Valid),
            ("r", "precondition-establishes-wp", Valid),
            ("r", "loop-convergence", Valid),
            ("r", "rinvariant-preserved", Valid),
        ],
    ),
    (
        Family::LuValid,
        &[
            ("o", "precondition-establishes-wp", Valid),
            ("o", "invariant-preserved", Valid),
            ("r", "precondition-establishes-wp", Valid),
            ("r", "loop-convergence", Valid),
            ("r", "rinvariant-preserved", Valid),
        ],
    ),
    (
        Family::LuInvalid,
        &[
            ("o", "precondition-establishes-wp", Valid),
            ("o", "invariant-preserved", Valid),
            ("r", "precondition-establishes-wp", Valid),
            ("r", "loop-convergence", Valid),
            // A wider perturbation than the bound breaks the invariant.
            ("r", "rinvariant-preserved", NotValid),
        ],
    ),
];

/// The expected rows of `family`.
pub fn rows(table: &[(Family, &'static [Row])], family: Family) -> &'static [Row] {
    table
        .iter()
        .find(|(f, _)| *f == family)
        .map(|(_, rows)| *rows)
        .expect("every family has a table row")
}

/// The Swish++ knob program with result threshold `k` in the `relate`
/// and `relax` lower bound `k_relax`, under precondition `N >= n_min`.
/// `swish(10, 10, 0)` is the paper's program, `swish(10, 5, 0)` its
/// mutant.
pub fn swish(name: &'static str, k: i64, k_relax: i64, n_min: i64) -> Source {
    let program = format!(
        "original_max_r = max_r;
         relax (max_r) st ((original_max_r <= {k} && max_r == original_max_r)
                        || ({k} < original_max_r && {k_relax} <= max_r));
         num_r = 0;
         while (num_r < max_r && num_r < N)
           invariant (0 <= num_r && num_r <= max_r && num_r <= N)
           diverge pre_o (num_r == 0 && max_r >= 0 && N >= 0)
                   pre_r (num_r == 0 && max_r >= 0 && N >= 0)
                   post_o (0 <= num_r && num_r <= max_r && num_r <= N
                           && (num_r >= max_r || num_r >= N))
                   post_r (0 <= num_r && num_r <= max_r && num_r <= N
                           && (num_r >= max_r || num_r >= N))
         {{
           num_r = num_r + 1;
         }}
         relate presented : (num_r<o> < {k} && num_r<o> == num_r<r>)
                         || ({k} <= num_r<o> && {k} <= num_r<r>);"
    );
    Source {
        name,
        family: if k_relax >= k {
            Family::SwishValid
        } else {
            Family::SwishInvalid
        },
        program,
        pre: format!("max_r >= 0 && N >= {n_min}"),
        rel_pre: "max_r<o> == max_r<r> && N<o> == N<r> && num_r<o> == num_r<r>
             && original_max_r<o> == original_max_r<r>
             && max_r<o> >= 0 && N<o> >= 0"
            .to_string(),
    }
}

/// The Water lock-elision program; `broken` relaxes the loop counter
/// too. `n_max` adds the precondition conjunct `N <= n_max`.
pub fn water(name: &'static str, broken: bool, n_max: Option<i64>) -> Source {
    let relax_k = if broken {
        "relax (K) st (K == 0 || K == 1);"
    } else {
        ""
    };
    let program = format!(
        "relax (RS) st (true);
         K = 0;
         {relax_k}
         while (K < N)
           invariant (0 <= K && len_FF == len(FF) && len_FF <= len(RS))
           rinvariant (K<o> == K<r> && N<o> == N<r>
                       && len_FF<o> == len_FF<r> && 0 <= K<o>
                       && len_FF<o> == len(FF<o>) && len_FF<r> == len(FF<r>)
                       && len_FF<o> <= len(RS<o>) && len_FF<r> <= len(RS<r>))
         {{
           assume K < len_FF;
           if (RS[K] < gCUT2)
             diverge pre_o (0 <= K && K < len_FF && len_FF == len(FF) && len_FF <= len(RS))
                     pre_r (0 <= K && K < len_FF && len_FF == len(FF) && len_FF <= len(RS))
                     post_o (true) post_r (true)
           {{
             assume K < len_FF;
             FF[K] = RS[K] * 2;
           }} else {{
             skip;
           }}
           K = K + 1;
         }}"
    );
    let mut pre = "len_FF == len(FF) && len_FF <= len(RS)".to_string();
    if let Some(n_max) = n_max {
        pre.push_str(&format!(" && N <= {n_max}"));
    }
    Source {
        name,
        family: if broken {
            Family::WaterInvalid
        } else {
            Family::WaterValid
        },
        program,
        pre,
        rel_pre: "K<o> == K<r> && N<o> == N<r> && len_FF<o> == len_FF<r>
             && gCUT2<o> == gCUT2<r>
             && len_FF<o> == len(FF<o>) && len_FF<r> == len(FF<r>)
             && len_FF<o> <= len(RS<o>) && len_FF<r> <= len(RS<r>)"
            .to_string(),
    }
}

/// The LU pivot scan over approximate memory. `None` is the paper's
/// program (bound `e`, perturbation `e`); `Some((c, cr))` bounds the
/// scan by `c * e` and perturbs reads by `cr * e`.
pub fn lu(name: &'static str, mult: Option<(i64, i64)>) -> Source {
    match mult {
        None => lu_text(
            name,
            "e<o>",
            "original_a - e <= a && a <= original_a + e",
            Family::LuValid,
        ),
        Some((c, cr)) => lu_text(
            name,
            &format!("{c} * e<o>"),
            &format!("original_a - {cr} * e <= a && a <= original_a + {cr} * e"),
            if cr > c {
                Family::LuInvalid
            } else {
                Family::LuValid
            },
        ),
    }
}

/// The paper's LU mutant: the perturbation doubled to `e + e`.
pub fn lu_broken(name: &'static str) -> Source {
    lu_text(
        name,
        "e<o>",
        "original_a - e - e <= a && a <= original_a + e + e",
        Family::LuInvalid,
    )
}

fn lu_text(name: &'static str, bound_o: &str, relax: &str, family: Family) -> Source {
    let program = format!(
        "i = 0;
         max = col[0] - e;
         while (i < N)
           invariant (0 <= i && N <= len(col) && e >= 0)
           rinvariant (i<o> == i<r> && 0 <= i<o> && N<o> == N<r> && e<o> == e<r> && e<o> >= 0
                       && N<o> <= len(col<o>) && len(col<o>) == len(col<r>)
                       && max<o> - max<r> <= {bound_o} && max<r> - max<o> <= {bound_o}
                       && (forall k<o> . ((0 <= k<o> && k<o> < len(col<o>))
                             ==> col<o>[k<o>] == col<r>[k<o>])))
         {{
           a = col[i];
           original_a = a;
           relax (a) st ({relax});
           if (a > max) {{ max = a; p = i; }} else {{ skip; }}
           i = i + 1;
         }}
         relate lipschitz : max<o> - max<r> <= {bound_o} && max<r> - max<o> <= {bound_o};"
    );
    Source {
        name,
        family,
        program,
        pre: "e >= 0 && N <= len(col) && 0 < len(col)".to_string(),
        rel_pre: "i<o> == i<r> && N<o> == N<r> && e<o> == e<r> && e<o> >= 0
             && N<o> <= len(col<o>) && len(col<o>) == len(col<r>) && 0 < len(col<o>)
             && max<o> == max<r>
             && (forall k<o> . ((0 <= k<o> && k<o> < len(col<o>))
                   ==> col<o>[k<o>] == col<r>[k<o>]))"
            .to_string(),
    }
}

/// The six §5 programs in the paper's order: the three case studies,
/// then their mutants.
pub fn paper_corpus() -> Vec<Source> {
    vec![
        swish("swish", 10, 10, 0),
        water("water", false, None),
        lu("lu", None),
        swish("swish_broken", 10, 5, 0),
        water("water_broken", true, None),
        lu_broken("lu_broken"),
    ]
}
