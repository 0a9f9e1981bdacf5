//! Property tests for the passive learner, driven by corpora sampled from
//! *refined* Table-1 grammars via `GrammarSampler` (proptest):
//!
//! * **training consistency** — whatever corpus the sampler draws, the
//!   passive hypothesis accepts every training sample;
//! * **corpus monotonicity** — at a fixed sampling seed, growing the corpus
//!   (same-seed corpora are nested by construction here) never shrinks the
//!   hypothesis language: the acceptance rate on a fixed held-out draw from
//!   the refined grammar never decreases. This is the corpus-side accuracy
//!   direction that *is* monotone; precision against the target can
//!   legitimately drop as character classes generalise (see the curve in
//!   `BENCH_passive.json`), so it is reported by the bench, not pinned here.
//!
//! The five refined grammars are learned once (OnceLock) with
//! corpus-evidence refinement — repeating a debug-build refinement per
//! property case would dominate the suite's runtime.

use std::sync::OnceLock;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use vstar::refine::CorpusEvidence;
use vstar::tokenizer::strip_markers;
use vstar::{Mat, RefineConfig, VStar, VStarConfig, VStarResult};
use vstar_oracles::table1_languages;
use vstar_parser::GrammarSampler;
use vstar_passive::learn_passive;

/// Sentence-size budget for sampling (matches the bench corpora).
const SAMPLE_BUDGET: usize = 18;
/// Evidence-corpus size for the one-time refinement (kept modest: this runs
/// in a debug build).
const EVIDENCE_CORPUS: usize = 80;

fn refined_results() -> &'static Vec<(String, VStarResult)> {
    static CELL: OnceLock<Vec<(String, VStarResult)>> = OnceLock::new();
    CELL.get_or_init(|| {
        table1_languages()
            .iter()
            .map(|lang| {
                let oracle = |s: &str| lang.accepts(s);
                let mat = Mat::new(&oracle);
                let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ lang.name().len() as u64);
                let corpus = lang.generate_corpus(&mut rng, SAMPLE_BUDGET, EVIDENCE_CORPUS);
                let mut evidence = CorpusEvidence::new(corpus);
                let (result, _log) = VStar::new(VStarConfig::default())
                    .learn_refined(
                        &mat,
                        &lang.alphabet(),
                        &lang.seeds(),
                        &mut evidence,
                        RefineConfig::default(),
                    )
                    .unwrap_or_else(|e| panic!("{}: refined learning failed: {e}", lang.name()));
                (lang.name().to_string(), result)
            })
            .collect()
    })
}

/// Draws `count` raw words from the refined grammar: sampler output is a
/// converted word, so stripping the markers recovers the raw string.
fn sample_raw_corpus(result: &VStarResult, seed: u64, count: usize) -> Vec<String> {
    let learned = result.as_learned_language();
    let sampler = GrammarSampler::new(learned.vpg());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut words = Vec::with_capacity(count);
    let mut attempts = 0usize;
    while words.len() < count && attempts < count * 20 {
        attempts += 1;
        if let Some(converted) = sampler.sample(&mut rng, SAMPLE_BUDGET) {
            words.push(strip_markers(&converted));
        }
    }
    assert!(
        words.len() == count,
        "sampler starved: {} of {count} words after {attempts} attempts",
        words.len(),
    );
    words
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Consistency invariant: the passive hypothesis accepts every training
    /// sample, whatever refined grammar the corpus was drawn from.
    #[test]
    fn passive_hypothesis_accepts_every_training_sample(seed in 0u64..10_000) {
        let grammars = refined_results();
        let (name, result) = &grammars[(seed % grammars.len() as u64) as usize];
        let size = 20 + (seed / grammars.len() as u64 % 41) as usize;
        let corpus = sample_raw_corpus(result, seed, size);
        let passive = learn_passive(&corpus);
        prop_assert_eq!(passive.automaton.stats.skipped_ill_matched, 0);
        for word in &corpus {
            prop_assert!(
                passive.accepts_raw(word),
                "{}: training sample {:?} rejected (corpus size {})",
                name, word, size,
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Monotonicity: at a fixed seed, same-seed corpora are nested prefixes,
    /// and a larger corpus only adds witnesses — so the acceptance rate on a
    /// fixed held-out draw from the refined grammar never decreases.
    #[test]
    fn held_out_acceptance_never_decreases_as_corpus_grows(seed in 0u64..10_000) {
        let grammars = refined_results();
        let (name, result) = &grammars[(seed % grammars.len() as u64) as usize];
        let pool = sample_raw_corpus(result, seed, 96);
        let held_out = sample_raw_corpus(result, seed ^ 0x5A5A_5A5A, 60);
        let mut previous = 0usize;
        for size in [12usize, 24, 48, 96] {
            let passive = learn_passive(&pool[..size]);
            let accepted = held_out.iter().filter(|w| passive.accepts_raw(w)).count();
            prop_assert!(
                accepted >= previous,
                "{}: held-out acceptance dropped {previous} -> {accepted} at corpus size {size}",
                name,
            );
            previous = accepted;
        }
    }
}
