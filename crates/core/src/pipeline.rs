//! The end-to-end V-Star pipeline.
//!
//! Orchestrates the stages of the paper: tagging/tokenizer inference from seed
//! strings (Algorithms 3/4), conversion of the oracle language into a
//! character-based VPL (`conv_τ`), table-based k-SEVPA learning with simulated
//! equivalence queries (Algorithms 1/2), and extraction of a well-matched VPG from
//! the learned VPA. Query counts are attributed to the token-inference and
//! VPA-learning phases exactly as in Table 1 of the paper.

use std::time::{Duration, Instant};

use vstar_vpl::{vpa_to_vpg, Vpa, Vpg};

use crate::equivalence::{
    EquivalenceContext, EquivalenceStrategy, PoolEquivalence, TestPool, TestPoolConfig,
};
use crate::error::VStarError;
use crate::mat::Mat;
use crate::refine::{EvidenceEquivalence, EvidenceSource, RefineConfig, RefineLog};
use crate::sevpa_learner::{Hypothesis, ObservationSeed, SevpaLearner, TaggedAlphabet};
use crate::tag_infer::{tag_infer, TAG_INFER_MAX_K};
use crate::token_infer::{token_infer, TokenInferConfig};
use crate::tokenizer::{strip_markers, PartialTokenizer};

/// How call/return structure is discovered from the seed strings.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum TokenDiscovery {
    /// Infer multi-character call/return tokens (paper §5, Algorithm 4) and learn
    /// over the converted alphabet Σ̃. This is the general mode and the default.
    #[default]
    Tokens,
    /// Infer a character-level tagging (paper §4.3, Algorithm 3) and learn directly
    /// over Σ. Matches the paper's character-based setting (e.g. Figure 1).
    Characters,
}

/// Configuration of the [`VStar`] pipeline.
#[derive(Clone, Debug, Default)]
pub struct VStarConfig {
    /// Structure-discovery mode.
    pub token_discovery: TokenDiscovery,
    /// Token inference options (used in [`TokenDiscovery::Tokens`]).
    pub token_config: TokenInferConfig,
    /// Test-string pool options (simulated equivalence queries).
    pub test_pool: TestPoolConfig,
    /// Optional warm-start seed for the k-SEVPA observation structure:
    /// corpus-mined access words and test contexts (see `vstar-passive`)
    /// installed before the first closure pass, behind the learner's
    /// separability guard.
    pub hypothesis_seed: Option<ObservationSeed>,
    /// Optional pre-inferred tokenizer. When set (token mode only),
    /// structure inference is skipped and this tokenizer is used as-is — the
    /// hook corpus-driven token re-inference uses to re-learn a language
    /// under a repaired tokenizer.
    pub tokenizer_override: Option<PartialTokenizer>,
}

/// Query and size statistics of a learning run (the measurements reported in the
/// paper's Table 1).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VStarStats {
    /// Total number of unique membership queries.
    pub queries_total: usize,
    /// Unique membership queries spent on token/tagging inference ("%Q(Token)").
    pub queries_token_inference: usize,
    /// Unique membership queries spent on VPA learning ("%Q(VPA)").
    pub queries_vpa_learning: usize,
    /// Number of test strings used to simulate equivalence queries ("#TS").
    pub test_strings: usize,
    /// Number of simulated equivalence queries.
    pub equivalence_queries: usize,
    /// Number of counterexamples processed.
    pub counterexamples: usize,
    /// Number of states of the learned VPA.
    pub states: usize,
    /// Number of inferred call/return token pairs.
    pub token_pairs: usize,
    /// Wall-clock duration of the run.
    pub duration: Duration,
}

impl VStarStats {
    /// Fraction of queries attributed to token inference, in percent.
    #[must_use]
    pub fn token_query_percent(&self) -> f64 {
        if self.queries_total == 0 {
            0.0
        } else {
            100.0 * self.queries_token_inference as f64 / self.queries_total as f64
        }
    }

    /// Fraction of queries attributed to VPA learning, in percent.
    #[must_use]
    pub fn vpa_query_percent(&self) -> f64 {
        if self.queries_total == 0 {
            0.0
        } else {
            100.0 * self.queries_vpa_learning as f64 / self.queries_total as f64
        }
    }
}

/// The artifacts produced by a successful V-Star run.
#[derive(Clone, Debug)]
pub struct VStarResult {
    /// The learned VPA (over Σ in character mode, over Σ̃ in token mode).
    pub vpa: Vpa,
    /// The well-matched VPG extracted from the VPA.
    pub vpg: Vpg,
    /// The inferred partial tokenizer (single-character literal tokens in
    /// character mode).
    pub tokenizer: PartialTokenizer,
    /// The discovery mode that produced this result.
    pub mode: TokenDiscovery,
    /// Statistics of the run.
    pub stats: VStarStats,
}

/// A learned language handle detached from the learning-time [`Mat`]: the learned
/// grammar, automaton and tokenizer bundled so that downstream consumers (parsers,
/// samplers, fuzzers) can execute the learned artifacts on raw strings
/// (`χ_{(H,τ)}` in the paper).
///
/// Tokenization needs k-Repetition membership checks, so a membership function must
/// still be supplied; queries made here are not attributed to learning.
#[derive(Clone, Debug)]
pub struct LearnedLanguage {
    vpa: Vpa,
    vpg: Vpg,
    tokenizer: PartialTokenizer,
    mode: TokenDiscovery,
}

impl LearnedLanguage {
    /// Bundles learned artifacts into a language handle. Normally obtained via
    /// [`VStarResult::as_learned_language`]; this constructor exists so that
    /// downstream tooling (differential fuzzers, tests) can assemble variants —
    /// e.g. a deliberately weakened grammar paired with the original tokenizer.
    #[must_use]
    pub fn new(vpa: Vpa, vpg: Vpg, tokenizer: PartialTokenizer, mode: TokenDiscovery) -> Self {
        LearnedLanguage { vpa, vpg, tokenizer, mode }
    }

    /// Returns the same handle with the grammar swapped out (tokenizer, VPA and
    /// mode retained). Grammar-level consumers (parsers, samplers, fuzzers)
    /// will then execute `vpg` while [`LearnedLanguage::convert`] still
    /// produces words of the original converted alphabet — the knob used to
    /// inject known divergences into a differential fuzzing campaign.
    ///
    /// **The retained VPA is not touched**, so on the resulting handle
    /// [`LearnedLanguage::accepts`] (VPA-based) and grammar-level recognizers
    /// over [`LearnedLanguage::vpg`] decide *different* languages — that
    /// disagreement is the point of the knob. Don't mix the two sides on a
    /// reassembled handle expecting them to agree.
    #[must_use]
    pub fn with_vpg(mut self, vpg: Vpg) -> Self {
        self.vpg = vpg;
        self
    }

    /// Inverse of [`LearnedLanguage::convert`] on its image: strips the
    /// artificial token markers from a grammar word, recovering the raw string
    /// (the identity in character mode). Note that `convert(strip(w))` need not
    /// equal `w` for arbitrary grammar words — only raw-string round trips are
    /// guaranteed — so fuzzers must re-check the fixed point when they build
    /// words directly from grammar derivations.
    #[must_use]
    pub fn strip(&self, word: &str) -> String {
        match self.mode {
            TokenDiscovery::Characters => word.to_owned(),
            TokenDiscovery::Tokens => crate::tokenizer::strip_markers(word),
        }
    }

    /// Decides membership of a raw string **with the learned VPA**. On handles
    /// straight from [`VStarResult::as_learned_language`] this agrees with the
    /// grammar-level recognizers over [`LearnedLanguage::vpg`] (the pipeline
    /// extracts the grammar from this very automaton); on handles reassembled
    /// via [`LearnedLanguage::new`] or [`LearnedLanguage::with_vpg`] the VPA
    /// and the grammar are whatever the caller paired up, and this method
    /// keeps answering from the VPA side.
    #[must_use]
    pub fn accepts(&self, mat: &Mat<'_>, s: &str) -> bool {
        match self.mode {
            TokenDiscovery::Characters => self.vpa.accepts(s),
            TokenDiscovery::Tokens => {
                let converted = self.tokenizer.convert(mat, s);
                self.vpa.accepts(&converted)
            }
        }
    }

    /// The learned VPA (over Σ in character mode, over Σ̃ in token mode).
    #[must_use]
    pub fn vpa(&self) -> &Vpa {
        &self.vpa
    }

    /// The well-matched VPG extracted from the learned VPA. Its tagging is the
    /// word alphabet of [`LearnedLanguage::convert`], so grammar-level tools
    /// (recognizers, parsers, samplers) run directly on converted words.
    #[must_use]
    pub fn vpg(&self) -> &Vpg {
        &self.vpg
    }

    /// The inferred partial tokenizer.
    #[must_use]
    pub fn tokenizer(&self) -> &PartialTokenizer {
        &self.tokenizer
    }

    /// The discovery mode the language was learned in.
    #[must_use]
    pub fn mode(&self) -> TokenDiscovery {
        self.mode
    }

    /// Converts a raw string into the word the learned grammar and VPA read: the
    /// identity in character mode, `conv_τ(s)` (artificial markers inserted
    /// around token occurrences) in token mode. The k-Repetition checks of
    /// tokenization issue membership queries through `mat`.
    #[must_use]
    pub fn convert(&self, mat: &Mat<'_>, s: &str) -> String {
        match self.mode {
            TokenDiscovery::Characters => s.to_owned(),
            TokenDiscovery::Tokens => self.tokenizer.convert(mat, s),
        }
    }
}

impl VStarResult {
    /// Decides membership of a raw string with the learned artifacts
    /// (`χ_{(H,τ)}(s)` in the paper): the string is converted with the inferred
    /// tokenizer and run through the learned VPA.
    #[must_use]
    pub fn accepts(&self, mat: &Mat<'_>, s: &str) -> bool {
        self.as_learned_language().accepts(mat, s)
    }

    /// Extracts a standalone recogniser for the learned language.
    #[must_use]
    pub fn as_learned_language(&self) -> LearnedLanguage {
        LearnedLanguage {
            vpa: self.vpa.clone(),
            vpg: self.vpg.clone(),
            tokenizer: self.tokenizer.clone(),
            mode: self.mode,
        }
    }
}

/// The V-Star learner (paper Algorithm 1 + tagging/tokenizer inference + simulated
/// equivalence queries).
#[derive(Clone, Debug, Default)]
pub struct VStar {
    config: VStarConfig,
}

impl VStar {
    /// Creates a pipeline with the given configuration.
    #[must_use]
    pub fn new(config: VStarConfig) -> Self {
        VStar { config }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &VStarConfig {
        &self.config
    }

    /// Runs the full pipeline: infer structure from the seeds, learn a VPA with
    /// simulated equivalence queries, and extract a VPG.
    ///
    /// # Errors
    ///
    /// * [`VStarError::NoSeeds`] / [`VStarError::InvalidSeed`] on bad seed sets,
    /// * [`VStarError::NoCompatibleTagging`] when structure inference fails,
    /// * [`VStarError::LearnerDidNotConverge`] when the counterexample budget is
    ///   exhausted,
    /// * [`VStarError::IncompatibleCounterexample`] when a member of the oracle
    ///   language cannot be well matched under the inferred structure.
    pub fn learn(
        &self,
        mat: &Mat<'_>,
        alphabet: &[char],
        seeds: &[String],
    ) -> Result<VStarResult, VStarError> {
        self.learn_with_strategy(mat, alphabet, seeds, &mut PoolEquivalence)
    }

    /// Runs the full pipeline with counterexample-guided refinement: the
    /// classic pool check is wrapped in an [`EvidenceEquivalence`] strategy so
    /// that every pool-clean hypothesis is interrogated by `source` (e.g. a
    /// differential fuzz campaign) and its divergences are replayed as
    /// counterexamples, until the evidence runs dry or the budget is spent.
    ///
    /// Returns the learned artifacts together with the [`RefineLog`]
    /// describing what the refinement loop did.
    ///
    /// # Errors
    ///
    /// As [`VStar::learn`].
    pub fn learn_refined(
        &self,
        mat: &Mat<'_>,
        alphabet: &[char],
        seeds: &[String],
        source: &mut dyn EvidenceSource,
        refine: RefineConfig,
    ) -> Result<(VStarResult, RefineLog), VStarError> {
        let mut strategy = EvidenceEquivalence::new(source, refine);
        let result = self.learn_with_strategy(mat, alphabet, seeds, &mut strategy)?;
        Ok((result, strategy.into_log()))
    }

    /// Runs the full pipeline with a caller-supplied equivalence strategy
    /// (the pluggable core of [`VStar::learn`] and [`VStar::learn_refined`]).
    ///
    /// The pipeline still builds the seed-derived test pool and hands it to
    /// the strategy via the [`EquivalenceContext`]; what the strategy does
    /// with it — replay it, wrap it, ignore it — is its own business.
    ///
    /// # Errors
    ///
    /// As [`VStar::learn`].
    pub fn learn_with_strategy(
        &self,
        mat: &Mat<'_>,
        alphabet: &[char],
        seeds: &[String],
        strategy: &mut dyn EquivalenceStrategy,
    ) -> Result<VStarResult, VStarError> {
        let start_time = Instant::now();
        let _learn_span = vstar_telemetry::span("learn");
        if seeds.is_empty() {
            return Err(VStarError::NoSeeds);
        }
        {
            let _seed_check = vstar_telemetry::span("seed-check");
            for seed in seeds {
                if !mat.member(seed) {
                    return Err(VStarError::InvalidSeed { seed: seed.clone() });
                }
            }
        }
        let queries_at_start = mat.unique_queries();

        // Phase 1: structure inference (tagging or tokenizer).
        let token_inference = vstar_telemetry::span("token-inference");
        let (tokenizer, tagged_alphabet, char_mode_tagging) = match self.config.token_discovery {
            TokenDiscovery::Characters => {
                let tagging = tag_infer(mat, seeds)
                    .ok_or(VStarError::NoCompatibleTagging { max_k: TAG_INFER_MAX_K })?;
                let tokenizer = PartialTokenizer::from_tagging(&tagging);
                let alpha = TaggedAlphabet::new(tagging.clone(), alphabet.to_vec());
                (tokenizer, alpha, Some(tagging))
            }
            TokenDiscovery::Tokens => {
                let tokenizer = match &self.config.tokenizer_override {
                    Some(tokenizer) => tokenizer.clone(),
                    None => token_infer(mat, seeds, alphabet, &self.config.token_config).ok_or(
                        VStarError::NoCompatibleTagging { max_k: self.config.token_config.max_k },
                    )?,
                };
                let alpha = TaggedAlphabet::new(tokenizer.marker_tagging(), alphabet.to_vec());
                (tokenizer, alpha, None)
            }
        };
        drop(token_inference);
        let queries_after_tokens = mat.unique_queries();

        // Phase 2: test-string pool for simulated equivalence queries.
        let pool_build = vstar_telemetry::span("pool-build");
        let pool = match self.config.token_discovery {
            TokenDiscovery::Characters => {
                let tagging = char_mode_tagging.clone().expect("set in character mode");
                TestPool::build_with(seeds, &self.config.test_pool, |s| {
                    tagging.is_well_matched(s).then(|| s.to_string())
                })
            }
            TokenDiscovery::Tokens => {
                TestPool::build(mat, &tokenizer, seeds, &self.config.test_pool)
            }
        };
        drop(pool_build);

        // Phase 3: VPA learning over the (converted) alphabet.
        let vpa_learning = vstar_telemetry::span("vpa-learning");
        let membership: Box<dyn Fn(&str) -> bool> = match self.config.token_discovery {
            TokenDiscovery::Characters => Box::new(move |w: &str| mat.member(w)),
            TokenDiscovery::Tokens => Box::new(move |w: &str| mat.member(&strip_markers(w))),
        };
        let mut learner = SevpaLearner::new(&membership, tagged_alphabet);
        if let Some(seed) = &self.config.hypothesis_seed {
            learner.seed_observations(seed);
        }
        let mode = self.config.token_discovery;
        let hypothesis: Hypothesis = learner.learn(|hyp| {
            let cx = EquivalenceContext {
                mat,
                hypothesis: hyp,
                tokenizer: &tokenizer,
                mode,
                pool: &pool,
            };
            strategy.find_counterexample(&cx)
        })?;
        let learner_stats = learner.stats();
        let queries_total = mat.unique_queries();
        drop(vpa_learning);

        // Phase 4: grammar extraction.
        let extraction = vstar_telemetry::span("extraction");
        let vpg = vpa_to_vpg(&hypothesis.vpa);
        drop(extraction);

        let stats = VStarStats {
            queries_total: queries_total - queries_at_start,
            queries_token_inference: queries_after_tokens - queries_at_start,
            queries_vpa_learning: queries_total - queries_after_tokens,
            test_strings: pool.len(),
            equivalence_queries: learner_stats.equivalence_queries,
            counterexamples: learner_stats.counterexamples,
            states: hypothesis.vpa.state_count(),
            token_pairs: tokenizer.pair_count(),
            duration: start_time.elapsed(),
        };
        Ok(VStarResult {
            vpa: hypothesis.vpa,
            vpg,
            tokenizer,
            mode: self.config.token_discovery,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn fig1(s: &str) -> bool {
        fn l(s: &[u8], mut pos: usize) -> Option<usize> {
            loop {
                match s.get(pos) {
                    Some(b'a') => {
                        pos = a(s, pos + 1)?;
                        if s.get(pos) != Some(&b'b') {
                            return None;
                        }
                        pos += 1;
                    }
                    Some(b'c') => {
                        if s.get(pos + 1) != Some(&b'd') {
                            return None;
                        }
                        pos += 2;
                    }
                    _ => return Some(pos),
                }
            }
        }
        fn a(s: &[u8], pos: usize) -> Option<usize> {
            if s.get(pos) != Some(&b'g') {
                return None;
            }
            let pos = l(s, pos + 1)?;
            if s.get(pos) != Some(&b'h') {
                return None;
            }
            Some(pos + 1)
        }
        l(s.as_bytes(), 0) == Some(s.len())
    }

    #[test]
    fn rejects_empty_and_invalid_seed_sets() {
        let oracle = dyck;
        let mat = Mat::new(&oracle);
        let vstar = VStar::new(VStarConfig::default());
        assert!(matches!(vstar.learn(&mat, &['(', ')', 'x'], &[]), Err(VStarError::NoSeeds)));
        let bad = vec!["((".to_string()];
        assert!(matches!(
            vstar.learn(&mat, &['(', ')', 'x'], &bad),
            Err(VStarError::InvalidSeed { .. })
        ));
    }

    #[test]
    fn learns_dyck_in_token_mode() {
        let oracle = dyck;
        let mat = Mat::new(&oracle);
        let vstar = VStar::new(VStarConfig::default());
        let seeds = vec!["(x(x))x".to_string(), "()".to_string()];
        let result = vstar.learn(&mat, &['(', ')', 'x'], &seeds).expect("learning succeeds");
        // Exact learning on an exhaustive bound.
        for w in vstar_vpl::words::all_strings(&['(', ')', 'x'], 6) {
            assert_eq!(dyck(&w), result.accepts(&mat, &w), "mismatch on {w:?}");
        }
        assert_eq!(result.stats.token_pairs, 1);
        assert!(result.stats.queries_total > 0);
        assert!(result.stats.test_strings > 0);
        assert!(
            result.stats.queries_token_inference + result.stats.queries_vpa_learning
                == result.stats.queries_total
        );
        // The extracted grammar agrees with the VPA on the converted strings of the
        // test-language sample.
        assert!(result.vpg.rule_count() > 0);
    }

    #[test]
    fn learns_fig1_in_character_mode() {
        let oracle = fig1;
        let mat = Mat::new(&oracle);
        let config =
            VStarConfig { token_discovery: TokenDiscovery::Characters, ..VStarConfig::default() };
        let vstar = VStar::new(config);
        let seeds = vec!["agcdcdhbcd".to_string()];
        let result =
            vstar.learn(&mat, &['a', 'b', 'c', 'd', 'g', 'h'], &seeds).expect("learning succeeds");
        assert_eq!(result.mode, TokenDiscovery::Characters);
        // The learned recognizer agrees with the oracle on all short strings.
        for w in vstar_vpl::words::all_strings(&['a', 'b', 'c', 'd', 'g', 'h'], 5) {
            assert_eq!(fig1(&w), result.accepts(&mat, &w), "mismatch on {w:?}");
        }
        // And on the paper's pumped variants of the seed.
        for k in 1..4 {
            let s = format!("{}cdcd{}cd", "ag".repeat(k), "hb".repeat(k));
            assert!(result.accepts(&mat, &s), "{s}");
        }
        assert!(!result.accepts(&mat, "agcd"));
        // The VPG recognizes the same strings as the VPA in character mode.
        for w in vstar_vpl::words::all_strings(&['a', 'b', 'c', 'd', 'g', 'h'], 4) {
            assert_eq!(result.vpa.accepts(&w), result.vpg.accepts(&w), "vpg/vpa mismatch on {w:?}");
        }
    }

    #[test]
    fn stats_percentages_sum_to_about_100() {
        let oracle = dyck;
        let mat = Mat::new(&oracle);
        let vstar = VStar::new(VStarConfig::default());
        let seeds = vec!["(x)".to_string()];
        let result = vstar.learn(&mat, &['(', ')', 'x'], &seeds).unwrap();
        let total = result.stats.token_query_percent() + result.stats.vpa_query_percent();
        assert!((total - 100.0).abs() < 1e-9);
        assert!(result.stats.duration.as_nanos() > 0);
    }

    #[test]
    fn learned_language_is_detachable() {
        let oracle = dyck;
        let mat = Mat::new(&oracle);
        let vstar = VStar::new(VStarConfig::default());
        let seeds = vec!["(x)".to_string(), "()".to_string()];
        let result = vstar.learn(&mat, &['(', ')', 'x'], &seeds).unwrap();
        let learned = result.as_learned_language();
        assert!(learned.accepts(&mat, "(())"));
        assert!(!learned.accepts(&mat, "(()"));
        // The handle exposes every learned artifact.
        assert_eq!(learned.mode(), TokenDiscovery::Tokens);
        assert_eq!(learned.vpa().state_count(), result.vpa.state_count());
        assert_eq!(learned.vpg(), &result.vpg);
        assert_eq!(learned.tokenizer().pair_count(), result.tokenizer.pair_count());
        // convert() produces the word the grammar reads: stripping its markers
        // recovers the raw string, and the grammar's tagging covers the word.
        let converted = learned.convert(&mat, "(())");
        assert_eq!(crate::tokenizer::strip_markers(&converted), "(())");
        assert!(learned.vpg().tagging().is_well_matched(&converted));
        assert!(learned.vpg().accepts(&converted));
    }

    #[test]
    fn learned_language_can_be_reassembled_and_stripped() {
        let oracle = dyck;
        let mat = Mat::new(&oracle);
        let result = VStar::new(VStarConfig::default())
            .learn(&mat, &['(', ')', 'x'], &["(x)".to_string(), "()".to_string()])
            .unwrap();
        let learned = result.as_learned_language();
        // strip ∘ convert is the identity on raw strings.
        let converted = learned.convert(&mat, "(x)");
        assert_eq!(learned.strip(&converted), "(x)");
        // Reassembling from parts yields an equivalent handle.
        let rebuilt = LearnedLanguage::new(
            result.vpa.clone(),
            result.vpg.clone(),
            result.tokenizer.clone(),
            result.mode,
        );
        assert_eq!(rebuilt.vpg(), learned.vpg());
        assert!(rebuilt.accepts(&mat, "(())"));
        // with_vpg swaps only the grammar.
        let other = result.vpg.trimmed();
        let swapped = rebuilt.with_vpg(other.clone());
        assert_eq!(swapped.vpg(), &other);
        assert_eq!(swapped.vpa().state_count(), result.vpa.state_count());
    }

    #[test]
    fn convert_is_identity_in_character_mode() {
        let oracle = fig1;
        let mat = Mat::new(&oracle);
        let config =
            VStarConfig { token_discovery: TokenDiscovery::Characters, ..VStarConfig::default() };
        let result = VStar::new(config)
            .learn(&mat, &['a', 'b', 'c', 'd', 'g', 'h'], &["agcdcdhbcd".to_string()])
            .unwrap();
        let learned = result.as_learned_language();
        assert_eq!(learned.convert(&mat, "agcdhb"), "agcdhb");
        assert_eq!(learned.mode(), TokenDiscovery::Characters);
    }

    #[test]
    fn tokenizer_override_skips_structure_inference() {
        use crate::tokenizer::{TokenMatcher, TokenPair};
        let oracle = dyck;
        let mat = Mat::new(&oracle);
        // A hand-built tokenizer: no token-inference queries are spent.
        let mut tokenizer = PartialTokenizer::new();
        tokenizer.push_pair(TokenPair {
            call: TokenMatcher::Literal("(".into()),
            ret: TokenMatcher::Literal(")".into()),
        });
        let config = VStarConfig { tokenizer_override: Some(tokenizer), ..VStarConfig::default() };
        let result = VStar::new(config)
            .learn(&mat, &['(', ')', 'x'], &["(x)".to_string(), "()".to_string()])
            .expect("learning succeeds");
        assert_eq!(result.stats.queries_token_inference, 0, "structure inference was skipped");
        assert_eq!(result.stats.token_pairs, 1);
        for w in vstar_vpl::words::all_strings(&['(', ')', 'x'], 5) {
            assert_eq!(dyck(&w), result.accepts(&mat, &w), "mismatch on {w:?}");
        }
    }

    #[test]
    fn hypothesis_seed_is_installed_before_learning() {
        use crate::sevpa_learner::{ModuleSeed, ObservationSeed};
        let oracle = dyck;
        let mat = Mat::new(&oracle);
        // Seed module 0 with corpus-style access words; the separability
        // guard keeps the structure sound, and learning still converges.
        let seed = ObservationSeed {
            modules: vec![ModuleSeed {
                access: vec!["x".into(), "xx".into()],
                tests: vec![(String::new(), String::new())],
            }],
        };
        let config = VStarConfig { hypothesis_seed: Some(seed), ..VStarConfig::default() };
        let result = VStar::new(config)
            .learn(&mat, &['(', ')', 'x'], &["(x)".to_string(), "()".to_string()])
            .expect("learning succeeds");
        for w in vstar_vpl::words::all_strings(&['(', ')', 'x'], 5) {
            assert_eq!(dyck(&w), result.accepts(&mat, &w), "mismatch on {w:?}");
        }
    }

    #[test]
    fn empty_tagging_stats() {
        // Regular language: token inference returns an empty tokenizer and the
        // learner degenerates to a DFA learner.
        let oracle = |s: &str| s.chars().all(|c| c == 'a') && s.len() % 2 == 0;
        let mat = Mat::new(&oracle);
        let vstar = VStar::new(VStarConfig::default());
        let seeds = vec!["aa".to_string(), "aaaa".to_string()];
        let result = vstar.learn(&mat, &['a'], &seeds).unwrap();
        assert_eq!(result.stats.token_pairs, 0);
        for w in ["", "a", "aa", "aaa", "aaaa", "aaaaa"] {
            assert_eq!(oracle(w), result.accepts(&mat, w), "mismatch on {w:?}");
        }
    }
}
