//! Simulated equivalence queries (paper §6, "Implementation").
//!
//! Black-box programs answer membership queries but not equivalence queries. The
//! paper approximates an equivalence query by testing the hypothesis against a pool
//! of *test strings* assembled from the seed strings: "we construct a set of strings
//! by combining prefixes, infixes, and suffixes of the seed strings; for each such
//! string s, if conv_τ(s) is well-matched, we add it to a set of test strings". A
//! test string on which the hypothesis and the oracle disagree becomes the
//! counterexample. This is the conformance-testing flavour of the W-method that the
//! related-work section discusses.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::mat::Mat;
use crate::pipeline::TokenDiscovery;
use crate::sevpa_learner::Hypothesis;
use crate::tokenizer::PartialTokenizer;

/// Everything an equivalence strategy may inspect when asked for a
/// counterexample: the current hypothesis, the learning-time artifacts that
/// translate between raw strings and the (converted) alphabet the hypothesis
/// reads, and the precomputed [`TestPool`].
///
/// The pipeline rebuilds this view for every equivalence round, so strategies
/// always see the *current* hypothesis.
pub struct EquivalenceContext<'c> {
    /// The membership teacher.
    pub mat: &'c Mat<'c>,
    /// The hypothesis under test.
    pub hypothesis: &'c Hypothesis,
    /// The inferred tokenizer (single-character literal tokens in character
    /// mode); converts raw strings into hypothesis words.
    pub tokenizer: &'c PartialTokenizer,
    /// The structure-discovery mode of the run.
    pub mode: TokenDiscovery,
    /// The seed-derived test-string pool (the paper's simulated equivalence
    /// check); strategies are free to consult it, wrap it, or ignore it.
    pub pool: &'c TestPool,
}

impl EquivalenceContext<'_> {
    /// Converts a raw string into the word the hypothesis reads: the identity
    /// in character mode, `conv_τ(s)` in token mode.
    #[must_use]
    pub fn convert(&self, s: &str) -> String {
        match self.mode {
            TokenDiscovery::Characters => s.to_owned(),
            TokenDiscovery::Tokens => self.tokenizer.convert(self.mat, s),
        }
    }
}

/// A pluggable equivalence check for the learning pipeline.
///
/// The pipeline's classic behaviour — scan the seed-derived [`TestPool`] for a
/// disagreement — is [`PoolEquivalence`]; the counterexample-guided refinement
/// loop ([`crate::refine`]) wraps that same check in an evidence-driven oracle
/// that keeps interrogating the hypothesis after the pool runs clean.
///
/// Implementations return the counterexample in *converted* form (a word over
/// the hypothesis alphabet on which hypothesis and oracle disagree), or `None`
/// to declare the hypothesis equivalent and end learning.
pub trait EquivalenceStrategy {
    /// Finds a counterexample to the current hypothesis, or `None`.
    fn find_counterexample(&mut self, cx: &EquivalenceContext<'_>) -> Option<String>;
}

/// The default strategy: simulate the equivalence query with the test-string
/// pool exactly as the paper's §6 implementation does.
#[derive(Copy, Clone, Debug, Default)]
pub struct PoolEquivalence;

impl EquivalenceStrategy for PoolEquivalence {
    fn find_counterexample(&mut self, cx: &EquivalenceContext<'_>) -> Option<String> {
        cx.pool.find_counterexample(cx.mat, cx.hypothesis)
    }
}

/// Configuration for test-string generation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TestPoolConfig {
    /// Maximum number of test strings kept in the pool (the paper reports the
    /// number used per grammar in the "#TS" column).
    pub max_test_strings: usize,
    /// Maximum length (in characters) of a test string; longer combinations are
    /// discarded. `None` means unlimited.
    pub max_length: Option<usize>,
    /// Seed for the deterministic subsampling applied when the combination space
    /// exceeds `max_test_strings`.
    pub rng_seed: u64,
}

impl Default for TestPoolConfig {
    fn default() -> Self {
        TestPoolConfig { max_test_strings: 6000, max_length: Some(64), rng_seed: 0x5eed }
    }
}

/// A pool of test strings together with their converted forms, used to simulate
/// equivalence queries against hypothesis VPAs.
#[derive(Clone, Debug)]
pub struct TestPool {
    /// Raw candidate strings (over Σ).
    raw: Vec<String>,
    /// `conv_τ` of each raw string (over Σ̃), precomputed once.
    converted: Vec<String>,
}

impl TestPool {
    /// Builds the pool from the seed strings using `conv_τ` of a partial tokenizer:
    /// prefixes, infixes and suffixes of the seeds are combined
    /// (prefix·infix·suffix), the seeds themselves and the empty string are always
    /// included, and only strings whose conversion is well matched are kept
    /// (paper §6).
    #[must_use]
    pub fn build(
        mat: &Mat<'_>,
        tokenizer: &PartialTokenizer,
        seeds: &[String],
        config: &TestPoolConfig,
    ) -> Self {
        let marker_tagging = tokenizer.marker_tagging();
        Self::build_with(seeds, config, |s| {
            let conv = tokenizer.convert(mat, s);
            marker_tagging.is_well_matched(&conv).then_some(conv)
        })
    }

    /// Builds the pool with a custom conversion: `convert` returns the string the
    /// hypothesis should be run on, or `None` if the candidate is not well matched
    /// under the inferred structure (and should be dropped). The character-level
    /// mode passes the identity conversion guarded by the tagging's
    /// well-matchedness check.
    #[must_use]
    pub fn build_with(
        seeds: &[String],
        config: &TestPoolConfig,
        convert: impl Fn(&str) -> Option<String>,
    ) -> Self {
        let mut prefixes: BTreeSet<String> = BTreeSet::new();
        let mut suffixes: BTreeSet<String> = BTreeSet::new();
        let mut infixes: BTreeSet<String> = BTreeSet::new();
        infixes.insert(String::new());
        for seed in seeds {
            let chars: Vec<char> = seed.chars().collect();
            for i in 0..=chars.len() {
                prefixes.insert(chars[..i].iter().collect());
                suffixes.insert(chars[i..].iter().collect());
            }
            for i in 0..chars.len() {
                for j in i + 1..=chars.len() {
                    infixes.insert(chars[i..j].iter().collect());
                }
            }
        }

        let mut candidates: BTreeSet<String> = BTreeSet::new();
        candidates.insert(String::new());
        for seed in seeds {
            candidates.insert(seed.clone());
        }
        let prefixes: Vec<String> = prefixes.into_iter().collect();
        let infixes: Vec<String> = infixes.into_iter().collect();
        let suffixes: Vec<String> = suffixes.into_iter().collect();
        let within_length = |s: &str| config.max_length.is_none_or(|max| s.chars().count() <= max);
        // Always include every prefix, infix and suffix on its own (they are the
        // highest-value probes: e.g. the infix "true" of a seed is itself a valid
        // JSON document) …
        for piece in prefixes.iter().chain(&infixes).chain(&suffixes) {
            if within_length(piece) {
                candidates.insert(piece.clone());
            }
        }
        // … and every prefix·suffix splice across seeds, if that stays affordable.
        if prefixes.len() * suffixes.len() <= config.max_test_strings.saturating_mul(2) {
            for p in &prefixes {
                for s in &suffixes {
                    let combined = format!("{p}{s}");
                    if within_length(&combined) {
                        candidates.insert(combined);
                    }
                }
            }
        }
        let total_combinations =
            prefixes.len().saturating_mul(infixes.len()).saturating_mul(suffixes.len());
        if total_combinations <= config.max_test_strings.saturating_mul(4) {
            // Small combination space: enumerate it exhaustively.
            for p in &prefixes {
                for m in &infixes {
                    for s in &suffixes {
                        let combined = format!("{p}{m}{s}");
                        if within_length(&combined) {
                            candidates.insert(combined);
                        }
                    }
                }
            }
        } else {
            // Large combination space: draw a deterministic random sample so that
            // all seeds contribute prefixes/infixes/suffixes uniformly.
            let mut rng = StdRng::seed_from_u64(config.rng_seed);
            let budget = config.max_test_strings.saturating_mul(4);
            for _ in 0..budget {
                let p = prefixes.choose(&mut rng).expect("nonempty");
                let m = infixes.choose(&mut rng).expect("nonempty");
                let s = suffixes.choose(&mut rng).expect("nonempty");
                let combined = format!("{p}{m}{s}");
                if within_length(&combined) {
                    candidates.insert(combined);
                }
            }
        }

        // Deterministically subsample if the candidate set is still too large,
        // always keeping the seeds, the empty string and the individual
        // prefix/infix/suffix pieces.
        let mut all: Vec<String> = candidates.into_iter().collect();
        if all.len() > config.max_test_strings {
            let mut priority: BTreeSet<String> = BTreeSet::new();
            priority.insert(String::new());
            priority.extend(seeds.iter().cloned());
            for piece in prefixes.iter().chain(&infixes).chain(&suffixes) {
                if within_length(piece) {
                    priority.insert(piece.clone());
                }
            }
            let mut rng = StdRng::seed_from_u64(config.rng_seed);
            all.shuffle(&mut rng);
            let mut kept: Vec<String> = priority.iter().cloned().collect();
            let kept_set: BTreeSet<String> = priority;
            for s in all {
                if kept.len() >= config.max_test_strings.max(kept_set.len()) {
                    break;
                }
                if !kept_set.contains(&s) {
                    kept.push(s);
                }
            }
            all = kept;
        }

        // Keep only strings whose conversion is well matched, and precompute the
        // conversions (they are reused every equivalence round).
        let mut raw = Vec::new();
        let mut converted = Vec::new();
        for s in all {
            if let Some(conv) = convert(&s) {
                raw.push(s);
                converted.push(conv);
            }
        }
        TestPool { raw, converted }
    }

    /// Number of test strings in the pool (the paper's "#TS" column).
    #[must_use]
    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// Returns `true` if the pool is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// The raw test strings.
    #[must_use]
    pub fn raw_strings(&self) -> &[String] {
        &self.raw
    }

    /// Simulates an equivalence query: returns the *converted* form of the first
    /// test string on which the oracle and the hypothesis disagree, or `None`.
    ///
    /// The counterexample is returned in converted form because the learner works
    /// over the extended alphabet Σ̃.
    #[must_use]
    pub fn find_counterexample(&self, mat: &Mat<'_>, hypothesis: &Hypothesis) -> Option<String> {
        for (raw, conv) in self.raw.iter().zip(&self.converted) {
            let oracle_says = mat.member(raw);
            let hypothesis_says = hypothesis.vpa.accepts(conv);
            if oracle_says != hypothesis_says {
                return Some(conv.clone());
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sevpa_learner::{SevpaLearner, TaggedAlphabet};
    use crate::tokenizer::strip_markers;
    use vstar_vpl::Tagging;

    fn dyck(s: &str) -> bool {
        let mut depth = 0i64;
        for c in s.chars() {
            match c {
                '(' => depth += 1,
                ')' => {
                    depth -= 1;
                    if depth < 0 {
                        return false;
                    }
                }
                'x' => {}
                _ => return false,
            }
        }
        depth == 0
    }

    fn dyck_tokenizer() -> PartialTokenizer {
        PartialTokenizer::from_tagging(&Tagging::from_pairs([('(', ')')]).unwrap())
    }

    #[test]
    fn pool_contains_seeds_and_only_well_matched_strings() {
        let oracle = dyck;
        let mat = Mat::new(&oracle);
        let tokenizer = dyck_tokenizer();
        let seeds = vec!["(x)".to_string(), "()x".to_string()];
        let pool = TestPool::build(&mat, &tokenizer, &seeds, &TestPoolConfig::default());
        assert!(!pool.is_empty());
        for seed in &seeds {
            assert!(pool.raw_strings().contains(seed), "{seed}");
        }
        let marker_tagging = tokenizer.marker_tagging();
        for (raw, conv) in pool.raw.iter().zip(&pool.converted) {
            assert_eq!(&strip_markers(conv), raw);
            assert!(marker_tagging.is_well_matched(conv), "{raw:?}");
        }
        // Ill-matched combinations like "((x" must have been filtered out.
        assert!(!pool.raw_strings().contains(&"(".to_string()));
    }

    #[test]
    fn pool_respects_size_limit() {
        let oracle = dyck;
        let mat = Mat::new(&oracle);
        let tokenizer = dyck_tokenizer();
        let seeds = vec!["(x(x))x".to_string(), "((x))".to_string()];
        let config = TestPoolConfig { max_test_strings: 50, max_length: Some(20), rng_seed: 1 };
        let pool = TestPool::build(&mat, &tokenizer, &seeds, &config);
        assert!(pool.len() <= 50);
        assert!(pool.raw_strings().contains(&"(x(x))x".to_string()));
    }

    #[test]
    fn equivalence_simulation_drives_learning_to_exactness_on_pool() {
        let oracle = dyck;
        let mat = Mat::new(&oracle);
        let tokenizer = dyck_tokenizer();
        let seeds = vec!["(x(x))x".to_string(), "()".to_string()];
        let pool = TestPool::build(&mat, &tokenizer, &seeds, &TestPoolConfig::default());

        let member = |w: &str| mat.member(&strip_markers(w));
        let member_ref: &dyn Fn(&str) -> bool = &member;
        let alphabet = TaggedAlphabet::new(tokenizer.marker_tagging(), vec!['(', ')', 'x']);
        let mut learner = SevpaLearner::new(member_ref, alphabet);
        let hyp = learner.learn(|h| pool.find_counterexample(&mat, h)).expect("learning succeeds");
        // After convergence the hypothesis agrees with the oracle on every pool string.
        assert!(pool.find_counterexample(&mat, &hyp).is_none());
    }

    #[test]
    fn counterexample_is_reported_in_converted_form() {
        let oracle = dyck;
        let mat = Mat::new(&oracle);
        let tokenizer = dyck_tokenizer();
        let seeds = vec!["(x)".to_string()];
        let pool = TestPool::build(&mat, &tokenizer, &seeds, &TestPoolConfig::default());
        // A trivially wrong hypothesis: accepts nothing (no accepting states).
        let member = |_: &str| false;
        let member_ref: &dyn Fn(&str) -> bool = &member;
        let alphabet = TaggedAlphabet::new(tokenizer.marker_tagging(), vec!['(', ')', 'x']);
        let mut learner = SevpaLearner::new(member_ref, alphabet);
        let wrong = learner.learn(|_| None).expect("no counterexamples requested");
        let ce = pool.find_counterexample(&mat, &wrong);
        assert!(ce.is_some());
        let ce = ce.unwrap();
        // The counterexample is the converted form of a raw pool member.
        assert!(pool.raw_strings().contains(&strip_markers(&ce)));
    }
}
