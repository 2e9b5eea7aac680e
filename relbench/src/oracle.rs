//! The verdict oracle: every corpus report the benchmark receives is
//! checked obligation by obligation against [`crate::corpus::TABLE`].

use crate::corpus::{rows, Expect, Family, Row};
use relaxed_programs::smt::Validity;
use relaxed_programs::CorpusReport;

/// How one operation's verdicts compare with the table.
#[derive(Debug, PartialEq, Eq)]
pub enum Check {
    /// Every obligation got its expected verdict.
    Correct,
    /// No wrong verdict, but the operation did not deliver every verdict:
    /// an `Unknown` where the table expects a decision, or a program that
    /// errored (vcgen, shard or service failure). Counts as failed.
    Failed(String),
}

/// A verdict that contradicts the table. The run must abort.
#[derive(Debug, PartialEq, Eq)]
pub struct WrongVerdict(pub String);

/// Checks one obligation. `Ok(false)` is an undecided verdict.
pub fn check_verdict(expect: Expect, verdict: &Validity) -> Result<bool, &'static str> {
    match (expect, verdict) {
        (Expect::Valid, Validity::Valid) => Ok(true),
        (Expect::Invalid | Expect::NotValid, Validity::Invalid(_)) => Ok(true),
        (Expect::NotValid, Validity::Unknown(_)) => Ok(true),
        (Expect::Valid | Expect::Invalid, Validity::Unknown(_)) => Ok(false),
        (Expect::Valid, Validity::Invalid(_)) => Err("refuted, but the table says valid"),
        (Expect::Invalid | Expect::NotValid, Validity::Valid) => {
            Err("proved valid, but the table says invalid (a soundness bug)")
        }
    }
}

/// Checks a corpus report whose entries are the programs of `families`,
/// in order, against `table`.
pub fn check_report(
    table: &[(Family, &'static [Row])],
    families: &[Family],
    report: &CorpusReport,
) -> Result<Check, WrongVerdict> {
    if report.entries.len() != families.len() {
        return Err(WrongVerdict(format!(
            "{} programs submitted, {} reported",
            families.len(),
            report.entries.len()
        )));
    }
    let mut failed = Vec::new();
    for (entry, family) in report.entries.iter().zip(families) {
        let report = match &entry.outcome {
            Ok(report) => report,
            Err(e) => {
                failed.push(format!("{}: {e}", entry.name));
                continue;
            }
        };
        let mut got: Vec<(&str, &str, &Validity)> = Vec::new();
        for (stage, results) in [
            ("o", Some(&report.original)),
            ("i", report.intermediate.as_ref()),
            ("r", Some(&report.relaxed)),
        ] {
            for result in results.iter().flat_map(|r| &r.results) {
                got.push((stage, result.vc.name.as_str(), &result.verdict));
            }
        }
        let want = rows(table, *family);
        if got.len() != want.len() {
            return Err(WrongVerdict(format!(
                "{}: {} obligations, the table lists {}",
                entry.name,
                got.len(),
                want.len()
            )));
        }
        for (i, ((stage, name, verdict), (want_stage, want_name, expect))) in
            got.iter().zip(want).enumerate()
        {
            if stage != want_stage || name != want_name {
                return Err(WrongVerdict(format!(
                    "{}: obligation {i} is {stage}/{name}, the table lists {want_stage}/{want_name}",
                    entry.name
                )));
            }
            match check_verdict(*expect, verdict) {
                Ok(true) => {}
                Ok(false) => failed.push(format!("{}: {stage}/{name} undecided", entry.name)),
                Err(why) => {
                    return Err(WrongVerdict(format!(
                        "{}: obligation {i} ({stage}/{name}) {why}",
                        entry.name
                    )))
                }
            }
        }
    }
    Ok(if failed.is_empty() {
        Check::Correct
    } else {
        Check::Failed(failed.join("; "))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{paper_corpus, TABLE};
    use relaxed_programs::Verifier;

    fn paper_report() -> (Vec<Family>, CorpusReport) {
        let parsed: Vec<_> = paper_corpus().iter().map(|s| s.parse().unwrap()).collect();
        let corpus: Vec<_> = parsed
            .iter()
            .map(|p| (p.name, p.program.clone(), p.spec.clone()))
            .collect();
        let report = Verifier::builder()
            .workers(1)
            .build()
            .check_corpus_named(&corpus);
        (parsed.iter().map(|p| p.family).collect(), report)
    }

    #[test]
    fn the_paper_corpus_matches_the_table() {
        let (families, report) = paper_report();
        assert_eq!(check_report(&TABLE, &families, &report), Ok(Check::Correct));
    }

    #[test]
    fn one_flipped_table_entry_fails_the_run() {
        let (families, report) = paper_report();
        for (f, (family, family_rows)) in TABLE.iter().enumerate() {
            for (i, (stage, name, expect)) in family_rows.iter().enumerate() {
                let flipped_expect = match expect {
                    Expect::Valid => Expect::Invalid,
                    Expect::Invalid | Expect::NotValid => Expect::Valid,
                };
                let mut flipped_rows: Vec<Row> = family_rows.to_vec();
                flipped_rows[i] = (stage, name, flipped_expect);
                let leaked: &'static [Row] = Box::leak(flipped_rows.into_boxed_slice());
                let mut table = TABLE.to_vec();
                table[f] = (*family, leaked);
                // A decided verdict against the flipped row is wrong (the
                // run aborts); the undecided LU goal fails the op.
                let check = check_report(&table, &families, &report);
                assert!(
                    !matches!(check, Ok(Check::Correct)),
                    "flipping {family:?} row {i} went unnoticed"
                );
                if *expect != Expect::NotValid {
                    assert!(check.is_err(), "flipping {family:?} row {i} did not abort");
                }
            }
        }
    }
}
