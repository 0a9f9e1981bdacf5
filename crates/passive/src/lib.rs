//! Passive and hybrid k-SEVPA learning from positive sample corpora.
//!
//! Active V-Star (the `vstar` crate) needs a membership oracle; in many
//! deployments all that exists is a *corpus* — a directory of inputs the
//! target program is known to accept. This crate learns from that weaker
//! signal and escalates gracefully when an oracle appears:
//!
//! * **Pure passive** ([`learn_passive`]): infer bracket-like character
//!   pairs from distributional balance evidence ([`structure`]), convert the
//!   corpus with LIFO marker insertion ([`convert`]), and build a merged
//!   k-SEVPA-shaped automaton whose language contains every training sample
//!   and grows monotonically with the corpus ([`learner`]).
//! * **Hybrid** ([`hybrid::learn_hybrid`]): preload the corpus into the
//!   [`Mat`](vstar::Mat) as answered membership queries, distil the passive
//!   construction into an observation seed, and run the full active
//!   `learn_refined` pipeline warm — same result type, smaller query bill.
//! * **Tokenizer re-inference** ([`reinfer::repair_with_corpus`]): diff a
//!   finished active run against the corpus, re-derive the tokenizer from
//!   rejected members, and re-learn under the repaired tokenizer with the
//!   corpus as refinement evidence.
//!
//! ```
//! use vstar_passive::learn_passive;
//!
//! let corpus: Vec<String> =
//!     ["(a)", "((a)b)", "(ab)"].iter().map(|s| (*s).to_string()).collect();
//! let result = learn_passive(&corpus);
//! assert_eq!(result.pairs, vec![('(', ')')]);
//! for word in &corpus {
//!     assert!(result.accepts_raw(word));
//! }
//! assert!(result.accepts_raw("(b)")); // letter classes generalise
//! assert!(!result.accepts_raw("(a")); // unbalanced stays out
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod convert;
pub mod hybrid;
pub mod learner;
pub mod reinfer;
pub mod structure;

pub use convert::{marker_tagging, passive_convert, Conversion};
pub use hybrid::{learn_hybrid, HybridOutcome};
pub use learner::{learn_from_converted, PassiveAutomaton, PassiveLearnerConfig, PassiveStats};
pub use reinfer::{repair_with_corpus, ReinferReport, RepairedLearning};
pub use structure::infer_char_pairs;

/// A pure-passive learning result: inferred pairs plus the merged automaton.
#[derive(Clone, Debug)]
pub struct PassiveResult {
    /// Character pairs inferred from the corpus (empty when it exhibits no
    /// character-level nesting; the automaton is then finite-state).
    pub pairs: Vec<(char, char)>,
    /// The merged automaton, grammar and statistics.
    pub automaton: PassiveAutomaton,
    /// Bracket-character occurrences demoted to plain across the corpus.
    pub demoted_occurrences: usize,
}

impl PassiveResult {
    /// Whether the hypothesis accepts a raw (unconverted) string.
    #[must_use]
    pub fn accepts_raw(&self, word: &str) -> bool {
        self.automaton.accepts(&passive_convert(&self.pairs, word).converted)
    }

    /// Converts a raw string under the inferred pairs.
    #[must_use]
    pub fn convert(&self, word: &str) -> String {
        passive_convert(&self.pairs, word).converted
    }
}

/// Learns a language from a positive corpus alone: structure inference,
/// conversion, merged construction.
#[must_use]
pub fn learn_passive(corpus: &[String]) -> PassiveResult {
    let pairs = infer_char_pairs(corpus);
    let tagging = marker_tagging(&pairs);
    let mut demoted = 0usize;
    let converted: Vec<String> = corpus
        .iter()
        .map(|w| {
            let conv = passive_convert(&pairs, w);
            demoted += conv.demoted;
            conv.converted
        })
        .collect();
    let automaton = learn_from_converted(&converted, &tagging, &PassiveLearnerConfig::default());
    PassiveResult { pairs, automaton, demoted_occurrences: demoted }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pure_passive_is_consistent_on_a_noisy_bracket_corpus() {
        let corpus: Vec<String> = [
            "{\"a\":1}",
            "{\"a\":{\"b\":[1,2]}}",
            "{}",
            "{\"x\":[{\"y\":0}]}",
            "{\"k\":[]}",
            "{\"n\":{\"m\":7}}",
            "{\"p\":[0]}",
            "{\"q\":{\"r\":[5,6]}}",
            "{\"s\":8}",
            "{\"a\":\"}\"}", // stray '}' inside a string literal: demoted, not fatal
        ]
        .iter()
        .map(|s| (*s).to_string())
        .collect();
        let result = learn_passive(&corpus);
        assert!(!result.pairs.is_empty());
        for word in &corpus {
            assert!(result.accepts_raw(word), "training word {word:?} rejected");
        }
        assert_eq!(result.automaton.stats.train_accepted, corpus.len());
        assert!(result.demoted_occurrences > 0);
    }

    #[test]
    fn corpus_without_nesting_degenerates_to_finite_state() {
        let corpus: Vec<String> =
            ["ab", "abab", "ababab"].iter().map(|s| (*s).to_string()).collect();
        let result = learn_passive(&corpus);
        assert!(result.pairs.is_empty());
        assert_eq!(result.automaton.vpa.tagging().pair_count(), 0);
        for word in &corpus {
            assert!(result.accepts_raw(word));
        }
    }
}
