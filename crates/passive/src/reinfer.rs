//! Corpus-driven tokenizer re-inference ("repair").
//!
//! Active V-Star infers its tokenizer from a handful of seed strings
//! (paper §5.2); a corpus is a much richer witness. After a base run, this
//! module diffs the learned language against the corpus:
//!
//! * Members the hypothesis rejects whose conversion is **not well matched**
//!   are direct evidence the tokenizer itself is wrong — their structure was
//!   never representable. They are promoted to token-inference seeds and the
//!   tokenizer is re-derived from corpus evidence.
//! * Rejected members that *do* convert well-matched witness hypothesis
//!   incompleteness, not a tokenizer fault; re-learning under the (possibly
//!   unchanged) tokenizer with the corpus as refinement evidence replays
//!   them as counterexamples.
//!
//! Either way the repaired run is a full `learn_refined` under
//! `tokenizer_override` with [`CorpusEvidence`], so the result closes every
//! corpus-witnessed gap the test pool missed — this is the mechanism that
//! takes the JSON recall of the base Table-1 run from 0.915 to 1.00.
//!
//! When the base hypothesis already accepts the whole corpus there is
//! nothing to repair and [`repair_with_corpus`] returns `Ok(None)`.

use serde::Serialize;
use vstar::refine::CorpusEvidence;
use vstar::token_infer::token_infer;
use vstar::{
    Mat, RefineConfig, RefineLog, TokenInferConfig, VStar, VStarConfig, VStarError, VStarResult,
};

/// Cap on rejected corpus members promoted to token-inference seeds
/// (re-inference cost grows with the seed set).
const MAX_RESEEDS: usize = 12;

/// What the re-inference diagnosis saw, for benches and analysis cards.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct ReinferReport {
    /// Corpus members the base hypothesis rejected.
    pub rejected_members: usize,
    /// Of those, how many convert to ill-matched words under the base
    /// tokenizer (tokenizer faults, not learner gaps).
    pub ill_matched: usize,
    /// Whether re-derivation produced a tokenizer different from the base
    /// one (compared on their canonical descriptions).
    pub tokenizer_changed: bool,
    /// Token pairs of the base tokenizer.
    pub pairs_before: usize,
    /// Token pairs of the repaired tokenizer.
    pub pairs_after: usize,
}

/// A repaired learning run.
#[derive(Clone, Debug)]
pub struct RepairedLearning {
    /// The re-learned result under the repaired tokenizer.
    pub result: VStarResult,
    /// The refinement log of the repaired run.
    pub log: RefineLog,
    /// The diagnosis that triggered the repair.
    pub report: ReinferReport,
}

/// Diagnoses `base` against `corpus` and re-learns when the corpus witnesses
/// a gap. Returns `Ok(None)` when every corpus word is already accepted.
///
/// Rejected members are only promoted to token-inference seeds when the
/// oracle confirms them (a corpus may be stale); if re-inference fails to
/// produce a tokenizer from the enriched seed set, the base tokenizer is
/// kept and the repair degenerates to corpus-evidence refinement.
///
/// # Errors
///
/// Propagates pipeline errors ([`VStarError`]) from the repaired run.
pub fn repair_with_corpus(
    mat: &Mat<'_>,
    alphabet: &[char],
    seeds: &[String],
    base: &VStarResult,
    corpus: &[String],
) -> Result<Option<RepairedLearning>, VStarError> {
    let rejected: Vec<&String> = corpus.iter().filter(|w| !base.accepts(mat, w)).collect();
    if rejected.is_empty() {
        return Ok(None);
    }
    let ill_matched =
        rejected.iter().filter(|w| !base.tokenizer.converts_to_well_matched(mat, w)).count();

    let mut reseed: Vec<String> = seeds.to_vec();
    for w in rejected.iter().filter(|w| mat.member(w)).take(MAX_RESEEDS) {
        if !reseed.contains(*w) {
            reseed.push((*w).clone());
        }
    }
    let repaired_tokenizer = token_infer(mat, &reseed, alphabet, &TokenInferConfig::default())
        .unwrap_or_else(|| base.tokenizer.clone());
    let tokenizer_changed = repaired_tokenizer.to_string() != base.tokenizer.to_string();
    let report = ReinferReport {
        rejected_members: rejected.len(),
        ill_matched,
        tokenizer_changed,
        pairs_before: base.tokenizer.pair_count(),
        pairs_after: repaired_tokenizer.pair_count(),
    };

    let vstar_config =
        VStarConfig { tokenizer_override: Some(repaired_tokenizer), ..VStarConfig::default() };
    let mut evidence = CorpusEvidence::new(corpus.to_vec());
    let (result, log) = VStar::new(vstar_config).learn_refined(
        mat,
        alphabet,
        seeds,
        &mut evidence,
        RefineConfig::default(),
    )?;
    Ok(Some(RepairedLearning { result, log, report }))
}
