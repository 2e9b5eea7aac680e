//! The traced run's per-layer replay.
//!
//! After each traced op, the benchmark re-runs the op's live inputs
//! through each layer's public entry point, timing every call from here:
//! no span is added inside the program. The replay runs sequentially on
//! the benchmark thread, so its times add up; the op itself is timed as
//! the single `check_corpus_named` call (`api.corpus_ms`).
//!
//! Nesting, for the self-time table: `engine.discharge` contains the
//! engine's own encode, prefilter and solver work, and `smt.solve`
//! contains quantifier elimination, grounding and CNF encoding. Each is
//! also measured in isolation, so a layer's self time is its call minus
//! the isolated calls of the layers it contains.

use crate::corpus::{rows, Expect, Family, Parsed, Source, TABLE};
use crate::oracle::check_verdict;
use relaxed_programs::core::depmap::{self, ProgramDeps};
use relaxed_programs::core::engine::{encode_goal, DischargeConfig, DischargeEngine};
use relaxed_programs::core::vcgen::Vc;
use relaxed_programs::core::Prefilter;
use relaxed_programs::smt::cnf::CnfBuilder;
use relaxed_programs::smt::ground::groundify;
use relaxed_programs::smt::preprocess::{eliminate_quantifiers, FreshNames};
use relaxed_programs::smt::{BTerm, Solver, Validity};
use relaxed_programs::{CorpusReport, GoalKey, Stage, Verifier};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Instant;

/// Every per-layer metric: name, unit, and which direction is better.
/// `BENCHMARK.json` lists exactly these (a test checks it).
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("lang.parse_ms", "ms", "lower"),
    ("vcgen.ms", "ms", "lower"),
    ("vcgen.vcs", "count", "lower"),
    ("encode.ms", "ms", "lower"),
    ("encode.goals", "count", "lower"),
    ("prefilter.ms", "ms", "lower"),
    ("prefilter.proved", "count", "higher"),
    ("prefilter.attempts", "count", "lower"),
    ("smt.qe_ms", "ms", "lower"),
    ("smt.ground_ms", "ms", "lower"),
    ("smt.cnf_ms", "ms", "lower"),
    ("smt.atoms", "count", "lower"),
    ("smt.solve_ms", "ms", "lower"),
    ("smt.solve_max_ms", "ms", "lower"),
    ("smt.decisions", "count", "lower"),
    ("smt.propagations", "count", "lower"),
    ("smt.conflicts", "count", "lower"),
    ("smt.theory_checks", "count", "lower"),
    ("smt.pivots", "count", "lower"),
    ("smt.branch_nodes", "count", "lower"),
    ("smt.unknowns", "count", "lower"),
    ("engine.discharge_ms", "ms", "lower"),
    ("engine.cache_hits", "count", "higher"),
    ("engine.cache_misses", "count", "lower"),
    ("engine.static_hits", "count", "higher"),
    ("engine.redundant_solves", "count", "lower"),
    ("cache.load_ms", "ms", "lower"),
    ("cache.persist_ms", "ms", "lower"),
    ("cache.entries", "count", "lower"),
    ("cache.bytes", "bytes", "lower"),
    ("depmap.hash_ms", "ms", "lower"),
    ("depmap.diff_ms", "ms", "lower"),
    ("depmap.dirty_goals", "count", "lower"),
    ("depmap.replayed_programs", "count", "higher"),
    ("api.corpus_ms", "ms", "lower"),
    ("api.self_ms", "ms", "lower"),
    ("service.request_ms", "ms", "lower"),
    ("service.served", "count", "higher"),
    ("service.rejected", "count", "lower"),
    ("service.queue_peak", "count", "lower"),
    ("service.resident_hit_share", "share", "higher"),
    ("harness.gen_lag_p95_ms", "ms", "lower"),
    ("harness.backlog_end", "count", "lower"),
    ("harness.trace_overhead_share", "share", "lower"),
    ("harness.uncovered_share", "share", "lower"),
];

/// Counters that must repeat exactly across traced `cold_corpus` ops.
/// `engine.redundant_solves` is left out on purpose: it counts goals two
/// corpus workers solved at once, which depends on the schedule.
pub const DETERMINISTIC: &[&str] = &[
    "vcgen.vcs",
    "encode.goals",
    "prefilter.proved",
    "prefilter.attempts",
    "smt.atoms",
    "smt.decisions",
    "smt.propagations",
    "smt.conflicts",
    "smt.theory_checks",
    "smt.pivots",
    "smt.branch_nodes",
    "smt.unknowns",
    "engine.cache_hits",
    "engine.cache_misses",
    "engine.static_hits",
];

/// The timed calls of one traced op, summed per metric.
#[derive(Debug, Default)]
pub struct OpTrace {
    pub values: BTreeMap<&'static str, f64>,
    /// The slowest fresh solve: time and `program/stage/obligation#index`.
    pub slowest: Option<(f64, String)>,
}

impl OpTrace {
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.values.entry(name).or_insert(0.0) += value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Runs `f`, adding its wall time in ms to `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.add(name, started.elapsed().as_secs_f64() * 1e3);
        out
    }

    /// The metrics the op's own calls leave to be derived: the api's
    /// unexplained remainder and, against `wall_ms` (the whole traced op
    /// including the replay), the share no timed call covers.
    pub fn derive(&mut self, wall_ms: f64) {
        let in_call = self.get("vcgen.ms")
            + self.get("engine.discharge_ms")
            + self.get("depmap.hash_ms")
            + self.get("depmap.diff_ms");
        self.values
            .insert("api.self_ms", self.get("api.corpus_ms") - in_call);
        let covered: f64 = [
            "api.corpus_ms",
            "op.apply_ms",
            "cache.persist_ms",
            "cache.load_ms",
            "lang.parse_ms",
            "vcgen.ms",
            "encode.ms",
            "prefilter.ms",
            "smt.qe_ms",
            "smt.ground_ms",
            "smt.cnf_ms",
            "smt.solve_ms",
            "engine.discharge_ms",
            "depmap.hash_ms",
            "depmap.diff_ms",
        ]
        .iter()
        .map(|name| self.get(name))
        .sum();
        self.values.insert(
            "harness.uncovered_share",
            ((wall_ms - covered) / wall_ms).max(0.0),
        );
        if let Some((ms, _)) = &self.slowest {
            self.values.insert("smt.solve_max_ms", *ms);
        }
    }
}

/// Per-op traces of a traced window.
#[derive(Debug, Default)]
pub struct Layers {
    pub ops: Vec<OpTrace>,
}

impl Layers {
    /// The per-op median of `name` (counters repeat exactly on
    /// deterministic workloads, so their median is the exact value).
    pub fn median(&self, name: &str) -> f64 {
        let values: Vec<f64> = self.ops.iter().map(|op| op.get(name)).collect();
        crate::drive::median(&values)
    }

    /// The slowest solve of the op whose slowest solve is the median one.
    pub fn median_slowest(&self) -> Option<String> {
        let mut slow: Vec<&(f64, String)> = self
            .ops
            .iter()
            .filter_map(|op| op.slowest.as_ref())
            .collect();
        slow.sort_by(|a, b| a.0.total_cmp(&b.0));
        slow.get(slow.len() / 2)
            .map(|(ms, name)| format!("{name} ({ms:.3} ms)"))
    }

    /// Fails when a deterministic counter differs between two ops.
    pub fn check_deterministic(&self) -> Result<(), String> {
        let Some(first) = self.ops.first() else {
            return Err("no traced op ran".to_string());
        };
        if self.ops.len() < 2 {
            return Err("determinism needs at least two traced ops".to_string());
        }
        for (i, op) in self.ops.iter().enumerate().skip(1) {
            for name in DETERMINISTIC {
                if op.get(name) != first.get(name) {
                    return Err(format!(
                        "counter {name} differs between traced ops 0 and {i}: {} vs {}",
                        first.get(name),
                        op.get(name)
                    ));
                }
            }
        }
        Ok(())
    }
}

/// One program's obligations as the replay regenerated them.
struct Staged {
    name: &'static str,
    family: Family,
    vcs: Vec<(Stage, Vc)>,
}

/// The replay's layer calls, shared by every workload.
pub struct Replayer {
    verifier: Verifier,
    discharge: DischargeConfig,
    /// The engine the replay discharges through. Holds the same verdicts
    /// as the op's own cache, so its hits and misses are the op's.
    pub shadow: DischargeEngine,
    /// The last recorded revision of each program, as the depmap keeps
    /// it (edit loop only).
    pub revisions: HashMap<&'static str, ProgramDeps>,
}

impl Replayer {
    pub fn new(discharge: DischargeConfig) -> Replayer {
        Replayer {
            verifier: Verifier::new(),
            shadow: DischargeEngine::with_config(discharge.clone()),
            discharge,
            revisions: HashMap::new(),
        }
    }

    /// Starts the shadow engine over with an empty cache.
    pub fn reset_shadow(&mut self) {
        self.shadow = DischargeEngine::with_config(self.discharge.clone());
    }

    /// Primes the shadow cache (and the revision map) with `corpus`,
    /// untimed: the state the op's own session starts from.
    pub fn prime(&mut self, corpus: &[Parsed]) {
        for p in corpus {
            let vcs = self
                .verifier
                .vcs(&p.program, &p.spec)
                .expect("paper programs have VCs");
            self.shadow.discharge(vcs);
            self.record(p);
        }
    }

    fn record(&mut self, p: &Parsed) {
        let staged = self.stage_vcs(p).expect("vcgen succeeded once");
        self.revisions.insert(
            p.name,
            ProgramDeps {
                hash: depmap::program_hash(&p.program, &p.spec),
                goals: depmap::goal_deps(&staged),
            },
        );
    }

    fn stage_vcs(&self, p: &Parsed) -> Result<Vec<(Stage, Vec<Vc>)>, String> {
        let mut staged = Vec::new();
        for stage in [Stage::Original, Stage::Relaxed] {
            let vcs = self.verifier.stage(stage).vcs(&p.program, &p.spec);
            staged.push((stage, vcs.map_err(|e| format!("{}: vcgen: {e}", p.name))?));
        }
        Ok(staged)
    }

    /// The depmap's replay decision over a whole corpus: hashes every
    /// program and returns the names whose revision changed.
    pub fn depmap_decide(&self, trace: &mut OpTrace, corpus: &[Parsed]) -> Vec<&'static str> {
        let mut live = Vec::new();
        for p in corpus {
            let hash = trace.time("depmap.hash_ms", || {
                depmap::program_hash(&p.program, &p.spec)
            });
            match self.revisions.get(p.name) {
                Some(stored) if stored.hash == hash => trace.add("depmap.replayed_programs", 1.0),
                _ => live.push(p.name),
            }
        }
        live
    }

    /// Replays the live programs of one op: parse, vcgen, encode, the
    /// goals the op solved through the prefilter and the solver, and
    /// the op's discharge through the shadow engine. `solved` holds the
    /// keys the op did not take from its cache (`None`: all of them).
    /// With `diff`, also records the new revisions in the revision map.
    pub fn replay(
        &mut self,
        trace: &mut OpTrace,
        live: &[&Source],
        solved: Option<&HashSet<GoalKey>>,
        diff: bool,
    ) -> Result<(), String> {
        let mut staged_programs = Vec::new();
        for source in live {
            let parsed = trace.time("lang.parse_ms", || source.parse())?;
            let staged = trace.time("vcgen.ms", || self.stage_vcs(&parsed))?;
            if diff {
                let old = self.revisions.get(parsed.name).cloned().unwrap_or_default();
                let fresh = trace.time("depmap.diff_ms", || {
                    let fresh = depmap::goal_deps(&staged);
                    let dirty = depmap::dirty_goals(&old, &fresh);
                    (fresh, dirty.len())
                });
                trace.add("depmap.dirty_goals", fresh.1 as f64);
                self.revisions.insert(
                    parsed.name,
                    ProgramDeps {
                        hash: depmap::program_hash(&parsed.program, &parsed.spec),
                        goals: fresh.0,
                    },
                );
            }
            let vcs: Vec<(Stage, Vc)> = staged
                .into_iter()
                .flat_map(|(stage, vcs)| vcs.into_iter().map(move |vc| (stage, vc)))
                .collect();
            trace.add("vcgen.vcs", vcs.len() as f64);
            staged_programs.push(Staged {
                name: parsed.name,
                family: parsed.family,
                vcs,
            });
        }

        // Encode every obligation; the engine dedups by key.
        let mut unique: Vec<(GoalKey, BTerm, String, Expect)> = Vec::new();
        let mut seen: HashSet<GoalKey> = HashSet::new();
        for program in &staged_programs {
            let table = rows(&TABLE, program.family);
            for (i, (stage, vc)) in program.vcs.iter().enumerate() {
                let (key, goal) = trace.time("encode.ms", || {
                    let goal = encode_goal(vc);
                    (GoalKey::of(&goal), goal)
                });
                if seen.insert(key.clone()) {
                    let label = format!("{}/{}/{}#{i}", program.name, stage_tag(*stage), vc.name);
                    let expect = table.get(i).map_or(Expect::Valid, |row| row.2);
                    unique.push((key, goal, label, expect));
                }
            }
        }
        trace.add("encode.goals", unique.len() as f64);

        // The goals the op had to decide: prefilter first, then a fresh
        // solver per goal, its preprocessing stages timed in isolation.
        let mut prefilter = Prefilter::new();
        for (key, goal, label, expect) in &unique {
            if solved.is_some_and(|solved| !solved.contains(key)) {
                continue;
            }
            trace.add("prefilter.attempts", 1.0);
            if trace.time("prefilter.ms", || prefilter.proves(goal)) {
                trace.add("prefilter.proved", 1.0);
                continue;
            }
            let mut fresh = FreshNames::new();
            let negated = goal.clone().not();
            let qf = trace.time("smt.qe_ms", || eliminate_quantifiers(&negated, &mut fresh));
            let grounding = trace.time("smt.ground_ms", || groundify(&qf.formula, &mut fresh));
            let full = grounding.formula.and(grounding.defs);
            let atoms = trace.time("smt.cnf_ms", || {
                let mut cnf = CnfBuilder::new();
                let _ = cnf.encode(&full);
                cnf.atoms.iter().flatten().count()
            });
            trace.add("smt.atoms", atoms as f64);
            let mut solver =
                Solver::with_budgets(self.discharge.max_conflicts, self.discharge.branch_budget);
            let started = Instant::now();
            let verdict = solver.check_valid(goal);
            let ms = started.elapsed().as_secs_f64() * 1e3;
            trace.add("smt.solve_ms", ms);
            if trace.slowest.as_ref().is_none_or(|(max, _)| ms > *max) {
                trace.slowest = Some((ms, label.clone()));
            }
            let stats = solver.stats();
            trace.add("smt.decisions", stats.sat.decisions as f64);
            trace.add("smt.propagations", stats.sat.propagations as f64);
            trace.add("smt.conflicts", stats.sat.conflicts as f64);
            trace.add("smt.theory_checks", stats.sat.theory_checks as f64);
            trace.add("smt.pivots", stats.pivots as f64);
            trace.add("smt.branch_nodes", stats.branch_nodes as f64);
            if matches!(verdict, Validity::Unknown(_)) {
                trace.add("smt.unknowns", 1.0);
            }
            check_verdict(*expect, &verdict).map_err(|why| format!("replay: {label}: {why}"))?;
        }

        // The op's discharge, through an engine holding the op's cache.
        for program in staged_programs {
            let vcs: Vec<Vc> = program.vcs.into_iter().map(|(_, vc)| vc).collect();
            let report = trace.time("engine.discharge_ms", || self.shadow.discharge(vcs));
            trace.add("engine.cache_hits", report.engine.cache_hits as f64);
            trace.add("engine.cache_misses", report.engine.cache_misses as f64);
            trace.add("engine.static_hits", report.engine.static_hits as f64);
        }
        Ok(())
    }
}

fn stage_tag(stage: Stage) -> &'static str {
    match stage {
        Stage::Original => "o",
        Stage::Intermediate => "i",
        Stage::Relaxed => "r",
    }
}

/// The keys of every obligation `report` did not take from a cache:
/// the goals the op's engine had to decide.
pub fn solved_keys(report: &CorpusReport) -> HashSet<GoalKey> {
    let mut keys = HashSet::new();
    for entry in &report.entries {
        let Ok(report) = &entry.outcome else { continue };
        for stage in [
            Some(&report.original),
            report.intermediate.as_ref(),
            Some(&report.relaxed),
        ]
        .into_iter()
        .flatten()
        {
            for result in stage.results.iter().filter(|r| !r.cached) {
                keys.insert(GoalKey::of(&encode_goal(&result.vc)));
            }
        }
    }
    keys
}

/// Prints the layer self-time table of a traced window: per-op medians,
/// each as a share of the op's wall time (`api.corpus_ms`).
pub fn print_self_times(layers: &Layers) {
    let op = layers.median("api.corpus_ms");
    let m = |name: &str| layers.median(name);
    let solve = m("smt.solve_ms");
    let rows: [(&str, f64); 13] = [
        ("lang (parse)", m("lang.parse_ms")),
        ("vcgen", m("vcgen.ms")),
        ("encode", m("encode.ms")),
        ("prefilter", m("prefilter.ms")),
        ("smt.qe", m("smt.qe_ms")),
        ("smt.ground", m("smt.ground_ms")),
        ("smt.cnf", m("smt.cnf_ms")),
        (
            "smt.search (solve - qe - ground - cnf)",
            solve - m("smt.qe_ms") - m("smt.ground_ms") - m("smt.cnf_ms"),
        ),
        (
            "engine (discharge - encode - prefilter - solve)",
            m("engine.discharge_ms") - m("encode.ms") - m("prefilter.ms") - solve,
        ),
        ("depmap", m("depmap.hash_ms") + m("depmap.diff_ms")),
        ("cache", m("cache.load_ms") + m("cache.persist_ms")),
        ("api (self)", m("api.self_ms")),
        ("smt.solve (whole call)", solve),
    ];
    println!("layer self time, per-op median, as a share of the op ({op:.3} ms):");
    for (name, ms) in rows {
        println!("  {name:<50} {ms:>10.4} ms  {:>7.1}%", 100.0 * ms / op);
    }
    println!(
        "  {:<50} {:>10.4} share of the traced op",
        "harness (uncovered)",
        m("harness.uncovered_share")
    );
    if let Some(slowest) = layers.median_slowest() {
        println!("slowest goal (median op): {slowest}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The string value of `"key": "value"` in `object`.
    fn value<'a>(object: &'a str, key: &str) -> &'a str {
        let start = object.find(&format!("\"{key}\": \"")).expect("key present") + key.len() + 5;
        let len = object[start..].find('"').expect("closing quote");
        &object[start..start + len]
    }

    #[test]
    fn benchmark_json_lists_exactly_the_per_layer_metrics() {
        let raw =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the package");
        let section = &raw[raw.find("\"per_layer\"").expect("per_layer listed")..];
        let section = &section[..section.find(']').expect("per_layer ends")];
        let listed: Vec<(&str, &str, &str)> = section
            .split('{')
            .skip(1)
            .map(|object| {
                (
                    value(object, "name"),
                    value(object, "unit"),
                    value(object, "better"),
                )
            })
            .collect();
        assert_eq!(listed, PER_LAYER);
    }
}
