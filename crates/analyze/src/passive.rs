//! Lint passes over passively learned grammars.
//!
//! A [`PassiveResult`] is built from a positive corpus with no oracle in the
//! loop, so the usual "is it right" questions are unanswerable statically —
//! but the construction makes promises that *are* checkable: training
//! consistency (every well-matched corpus word is accepted) and explicit
//! accounting of everything the pipeline dropped (ill-matched words, demoted
//! bracket occurrences). These passes audit those promises and lead with an
//! always-on stats card so a passive artifact can never lint as silently
//! "clean because nothing looked".

use vstar_passive::{PassiveResult, ReinferReport};

use crate::report::{AnalysisReport, Severity};
use crate::vpg_lints::analyze_vpg;

/// Runs every passive-artifact lint and returns the findings.
///
/// The extracted grammar's lints run too, prefixed `grammar/`. Passive-layer
/// codes: `PSV000` construction stats card (info, always emitted), `PSV001`
/// training-consistency violation (error — the merged automaton rejects a
/// word it was built from, which the windowed-suffix construction is supposed
/// to make impossible), `PSV002` corpus words skipped as ill-matched under
/// the tagging (warn — the conversion layer promises well-matched output, so
/// skips mean the words were converted elsewhere), `PSV003` bracket
/// occurrences demoted to plain during conversion (info), `PSV004` no
/// character-level nesting inferred — the automaton is finite-state (info).
///
/// Pass the [`ReinferReport`] of a tokenizer-repair run when one happened;
/// the stats card records whether re-inference was applied either way.
#[must_use]
pub fn analyze_passive(result: &PassiveResult, reinfer: Option<&ReinferReport>) -> AnalysisReport {
    let mut report = AnalysisReport::new("passive");
    report.absorb(analyze_vpg(&result.automaton.vpg), "grammar");

    let stats = &result.automaton.stats;
    let reinfer_note = match reinfer {
        Some(r) => format!(
            "yes ({} rejected member(s), tokenizer {}, {} -> {} pair(s))",
            r.rejected_members,
            if r.tokenizer_changed { "changed" } else { "kept" },
            r.pairs_before,
            r.pairs_after,
        ),
        None => "no".to_string(),
    };
    report.push(
        "PSV000",
        Severity::Info,
        "stats",
        format!(
            "passively learned grammar: corpus of {} word(s), {} merged state(s) \
             ({} unmerged), {} inferred pair(s), {} plain character(s), \
             re-inference applied: {}",
            stats.corpus_size,
            stats.merged_states,
            stats.tree_states,
            result.pairs.len(),
            stats.plain_alphabet,
            reinfer_note,
        ),
    );

    let expected = stats.corpus_size - stats.skipped_ill_matched;
    if stats.train_accepted != expected {
        report.push(
            "PSV001",
            Severity::Error,
            "consistency",
            format!(
                "merged automaton accepts {} of {} well-matched training word(s) — \
                 the construction's consistency guarantee is broken",
                stats.train_accepted, expected,
            ),
        );
    }
    if stats.skipped_ill_matched > 0 {
        report.push(
            "PSV002",
            Severity::Warn,
            "conversion",
            format!(
                "{} corpus word(s) skipped as ill-matched under the tagging; \
                 the passive converter always produces well-matched words, so \
                 these were converted by something else",
                stats.skipped_ill_matched,
            ),
        );
    }
    if result.demoted_occurrences > 0 {
        report.push(
            "PSV003",
            Severity::Info,
            "conversion",
            format!(
                "{} bracket occurrence(s) demoted to plain (unmatched under \
                 strict LIFO pairing — string-literal noise or corpus typos)",
                result.demoted_occurrences,
            ),
        );
    }
    if result.pairs.is_empty() && stats.corpus_size > 0 {
        report.push(
            "PSV004",
            Severity::Info,
            "structure",
            "no character-level nesting inferred from the corpus; the \
             hypothesis degenerates to a finite-state language",
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use vstar_passive::learn_passive;

    use super::*;

    fn bracket_result() -> PassiveResult {
        let corpus: Vec<String> =
            ["(a)", "((a)b)", "(ab)", "(a(b))"].iter().map(|s| (*s).to_string()).collect();
        learn_passive(&corpus)
    }

    #[test]
    fn stats_card_is_always_emitted() {
        let report = analyze_passive(&bracket_result(), None);
        assert!(report.has("PSV000"));
        let card = report.diagnostics.iter().find(|d| d.code == "PSV000").unwrap();
        assert!(card.message.contains("corpus of 4 word(s)"));
        assert!(card.message.contains("re-inference applied: no"));
    }

    #[test]
    fn consistent_construction_has_no_consistency_error() {
        let report = analyze_passive(&bracket_result(), None);
        assert!(!report.has("PSV001"));
        assert!(report.is_clean(Severity::Error));
    }

    #[test]
    fn reinfer_report_shows_up_on_the_card() {
        let reinfer = ReinferReport {
            rejected_members: 3,
            ill_matched: 0,
            tokenizer_changed: true,
            pairs_before: 1,
            pairs_after: 2,
        };
        let report = analyze_passive(&bracket_result(), Some(&reinfer));
        let card = report.diagnostics.iter().find(|d| d.code == "PSV000").unwrap();
        assert!(card.message.contains("re-inference applied: yes"));
        assert!(card.message.contains("3 rejected member(s)"));
        assert!(card.message.contains("tokenizer changed"));
    }

    #[test]
    fn demotion_and_degeneration_findings_fire() {
        let noisy: Vec<String> = [
            "{\"a\":1}",
            "{\"a\":{\"b\":[1,2]}}",
            "{}",
            "{\"x\":[{\"y\":0}]}",
            "{\"k\":[]}",
            "{\"n\":{\"m\":7}}",
            "{\"p\":[0]}",
            "{\"q\":{\"r\":[5,6]}}",
            "{\"s\":8}",
            "{\"a\":\"}\"}",
        ]
        .iter()
        .map(|s| (*s).to_string())
        .collect();
        let report = analyze_passive(&learn_passive(&noisy), None);
        assert!(report.has("PSV003"));
        assert!(!report.has("PSV004"));

        let flat: Vec<String> = ["ab", "abab"].iter().map(|s| (*s).to_string()).collect();
        let report = analyze_passive(&learn_passive(&flat), None);
        assert!(report.has("PSV004"));
        assert!(!report.has("PSV003"));
    }
}
