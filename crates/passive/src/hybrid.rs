//! Hybrid learning: passive construction first, active refinement second.
//!
//! The passive learner ([`crate::learner`]) is cheap but approximate; the
//! active pipeline (`VStar::learn_refined`) is exact on its test pool but
//! pays for every membership query. The hybrid path spends the corpus twice
//! to make the active run cheaper:
//!
//! 1. Every corpus word is preloaded into the [`Mat`] as a known member
//!    ([`Mat::assume`]) — a positive corpus *is* a bag of already-answered
//!    membership queries, so the corpus-evidence refinement loop never pays
//!    for them again.
//! 2. The passive automaton's merged classes and mined contexts are distilled
//!    into an [`ObservationSeed`](vstar::ObservationSeed), so the k-SEVPA
//!    learner starts from corpus-shaped distinctions instead of discovering
//!    them one counterexample at a time.
//!
//! The oracle is still the authority: seeding is filtered by the learner's
//! separability guard and refinement replays any divergence between the
//! hypothesis and the corpus, so warm starts change the query bill, not the
//! learned language.

use vstar::refine::CorpusEvidence;
use vstar::token_infer::token_infer;
use vstar::{
    Mat, RefineConfig, RefineLog, TokenInferConfig, VStar, VStarConfig, VStarError, VStarResult,
};

use crate::learner::{learn_from_converted, PassiveLearnerConfig, PassiveStats};

/// Per-module cap on seeded access words.
const ACCESS_CAP: usize = 2;

/// Per-module cap on seeded test contexts.
const TEST_CAP: usize = 1;

/// What a hybrid run produced, with enough bookkeeping to audit the warm
/// start.
#[derive(Clone, Debug)]
pub struct HybridOutcome {
    /// The actively refined result (same type as a cold `learn_refined`).
    pub result: VStarResult,
    /// The refinement loop's log.
    pub log: RefineLog,
    /// Statistics of the passive construction that seeded the run.
    pub passive_stats: PassiveStats,
    /// Access words offered to the learner (before its separability guard).
    pub seeded_access_words: usize,
    /// Test contexts offered to the learner.
    pub seeded_tests: usize,
}

/// Learns `mat`'s language with a corpus-warmed active run.
///
/// The corpus must consist of members of the target language (they are
/// preloaded as positive answers); `seeds` and `alphabet` are the usual
/// active-learning inputs. Corpus words whose conversion under the inferred
/// tokenizer is not well matched are skipped by the passive stage — the
/// refinement loop still sees them through [`CorpusEvidence`].
///
/// # Errors
///
/// Propagates pipeline errors ([`VStarError`]) from token inference and the
/// active run.
pub fn learn_hybrid(
    mat: &Mat<'_>,
    alphabet: &[char],
    seeds: &[String],
    corpus: &[String],
) -> Result<HybridOutcome, VStarError> {
    for word in corpus {
        mat.assume(word, true);
    }

    let token_config = TokenInferConfig::default();
    let tokenizer = token_infer(mat, seeds, alphabet, &token_config)
        .ok_or(VStarError::NoCompatibleTagging { max_k: token_config.max_k })?;
    let tagging = tokenizer.marker_tagging();
    let converted: Vec<String> = corpus.iter().map(|w| tokenizer.convert(mat, w)).collect();
    let passive = learn_from_converted(&converted, &tagging, &PassiveLearnerConfig::default());
    let seed = passive.observation_seed(ACCESS_CAP, TEST_CAP);
    let seeded_access_words = seed.access_words();
    let seeded_tests = seed.tests();

    let vstar_config = VStarConfig {
        tokenizer_override: Some(tokenizer),
        hypothesis_seed: Some(seed),
        ..VStarConfig::default()
    };
    let mut evidence = CorpusEvidence::new(corpus.to_vec());
    let (result, log) = VStar::new(vstar_config).learn_refined(
        mat,
        alphabet,
        seeds,
        &mut evidence,
        RefineConfig::default(),
    )?;
    Ok(HybridOutcome {
        result,
        log,
        passive_stats: passive.stats,
        seeded_access_words,
        seeded_tests,
    })
}
