//! Runners: learn a grammar with one of the three tools and measure the Table-1
//! metrics against the bundled oracle languages.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use vstar::{Mat, VStar, VStarConfig, VStarResult};
use vstar_baselines::{Arvada, Glade, LearnedGrammar};
use vstar_oracles::Language;
use vstar_parser::{CompileLearned, GrammarSampler};

use crate::metrics::{f1_score, precision, recall, Accuracy};
use crate::report::ToolRow;

/// Configuration shared by all evaluation runs.
#[derive(Clone, Debug)]
pub struct EvalConfig {
    /// Number of sentences sampled from the oracle for the recall dataset.
    pub recall_samples: usize,
    /// Number of sentences sampled from the learned grammar for the precision
    /// dataset.
    pub precision_samples: usize,
    /// Size budget passed to the sentence generators.
    pub generation_budget: usize,
    /// RNG seed (datasets are deterministic given this seed).
    pub rng_seed: u64,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            recall_samples: 200,
            precision_samples: 200,
            generation_budget: 18,
            rng_seed: 0xEA11_5EED,
        }
    }
}

/// Builds the recall dataset for a language (deterministic for a given seed).
#[must_use]
pub fn recall_dataset(lang: &dyn Language, config: &EvalConfig) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(config.rng_seed);
    lang.generate_corpus(&mut rng, config.generation_budget, config.recall_samples)
}

/// Measures recall and precision of learned V-Star artifacts against the
/// oracle, on the same deterministic datasets [`evaluate_vstar`] uses — so the
/// pre-refinement row and the post-refinement columns of Table 1 are directly
/// comparable.
///
/// Recall is measured against the compiled serving artifact — the thing a
/// deployment would actually run — rather than against the oracle-backed
/// learning-time path (the two agree on the evaluation corpora; the compiled
/// scan resolves every `conv_τ` decision from its tables).
///
/// Precision samples from the learned VPG with the grammar sampler of
/// `vstar_parser` (over the converted alphabet), strips the artificial markers
/// to obtain raw strings, and asks the oracle. Samples are kept only when the
/// compiled serving artifact re-accepts the raw string — the `conv ∘ strip`
/// fixed points, plus the words whose raw form converts to a different but
/// still accepted word. That is exactly the raw language a deployment serves,
/// `{s : compiled.recognize(s)}`; derivations outside it are unreachable
/// words of the converted alphabet, and the filter is oracle-free.
///
/// # Panics
///
/// Panics when the learned grammar exceeds the serving compilation budget.
#[must_use]
pub fn measure_vstar_accuracy(
    lang: &dyn Language,
    config: &EvalConfig,
    result: &VStarResult,
) -> Accuracy {
    let corpus = recall_dataset(lang, config);
    let compiled = result.compile().expect("learned grammar compiles for serving");
    let recall_value = recall(|s| compiled.recognize(s), &corpus);

    let mut rng = StdRng::seed_from_u64(config.rng_seed ^ 0xA11CE);
    let sampler = GrammarSampler::new(&result.vpg);
    let samples: Vec<String> = sampler
        .sample_many(&mut rng, config.generation_budget, config.precision_samples * 12)
        .into_iter()
        .filter_map(|w| {
            let raw = vstar::tokenizer::strip_markers(&w);
            compiled.recognize(&raw).then_some(raw)
        })
        .take(config.precision_samples)
        .collect();
    let precision_value =
        if samples.is_empty() { 0.0 } else { precision(|s| lang.accepts(s), &samples) };
    Accuracy::new(recall_value, precision_value)
}

/// Evaluates V-Star on one language (paper Table 1, bottom block).
#[must_use]
pub fn evaluate_vstar(lang: &dyn Language, config: &EvalConfig) -> ToolRow {
    let seeds = lang.seeds();
    let oracle = |s: &str| lang.accepts(s);
    let mat = Mat::new(&oracle);
    let start = Instant::now();
    let result = VStar::new(VStarConfig::default())
        .learn(&mat, &lang.alphabet(), &seeds)
        .expect("V-Star learning should succeed on the bundled grammars");
    let learn_time = start.elapsed();

    let accuracy = measure_vstar_accuracy(lang, config, &result);
    ToolRow {
        tool: "vstar".into(),
        grammar: lang.name().into(),
        seeds: seeds.len(),
        recall: accuracy.recall,
        precision: accuracy.precision,
        f1: accuracy.f1,
        queries: result.stats.queries_total,
        token_query_percent: Some(result.stats.token_query_percent()),
        vpa_query_percent: Some(result.stats.vpa_query_percent()),
        test_strings: Some(result.stats.test_strings),
        time_seconds: learn_time.as_secs_f64(),
        refined_recall: None,
        refined_precision: None,
        refined_f1: None,
        refine_counterexamples: None,
    }
}

/// Evaluates the GLADE-style baseline on one language.
#[must_use]
pub fn evaluate_glade(lang: &dyn Language, config: &EvalConfig) -> ToolRow {
    let seeds = lang.seeds();
    let oracle = |s: &str| lang.accepts(s);
    let start = Instant::now();
    let glade = Glade::learn(&oracle, &seeds);
    let learn_time = start.elapsed();
    baseline_row("glade", &glade, lang, seeds.len(), learn_time.as_secs_f64(), config)
}

/// Evaluates the ARVADA-style baseline on one language.
#[must_use]
pub fn evaluate_arvada(lang: &dyn Language, config: &EvalConfig) -> ToolRow {
    let seeds = lang.seeds();
    let oracle = |s: &str| lang.accepts(s);
    let start = Instant::now();
    let arvada = Arvada::learn(&oracle, &seeds);
    let learn_time = start.elapsed();
    baseline_row("arvada", &arvada, lang, seeds.len(), learn_time.as_secs_f64(), config)
}

fn baseline_row(
    tool: &str,
    learned: &dyn LearnedGrammar,
    lang: &dyn Language,
    seeds: usize,
    time_seconds: f64,
    config: &EvalConfig,
) -> ToolRow {
    let corpus = recall_dataset(lang, config);
    let recall_value = recall(|s| learned.accepts(s), &corpus);
    let mut rng = StdRng::seed_from_u64(config.rng_seed ^ 0xBA5E);
    let samples: Vec<String> = (0..config.precision_samples * 4)
        .filter_map(|_| learned.sample(&mut rng, config.generation_budget))
        .take(config.precision_samples)
        .collect();
    let precision_value =
        if samples.is_empty() { 0.0 } else { precision(|s| lang.accepts(s), &samples) };
    ToolRow {
        tool: tool.into(),
        grammar: lang.name().into(),
        seeds,
        recall: recall_value,
        precision: precision_value,
        f1: f1_score(recall_value, precision_value),
        queries: learned.queries_used(),
        token_query_percent: None,
        vpa_query_percent: None,
        test_strings: None,
        time_seconds,
        refined_recall: None,
        refined_precision: None,
        refined_f1: None,
        refine_counterexamples: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vstar_oracles::{Lisp, ToyXml};

    fn quick_config() -> EvalConfig {
        EvalConfig {
            recall_samples: 30,
            precision_samples: 30,
            generation_budget: 12,
            ..EvalConfig::default()
        }
    }

    #[test]
    fn vstar_beats_baselines_on_toy_xml() {
        let lang = ToyXml::new();
        let config = quick_config();
        let vstar = evaluate_vstar(&lang, &config);
        let glade = evaluate_glade(&lang, &config);
        assert!(vstar.recall >= 0.9, "vstar recall {}", vstar.recall);
        assert!(vstar.f1 >= glade.f1, "vstar {} vs glade {}", vstar.f1, glade.f1);
        assert!(vstar.queries > glade.queries, "V-Star issues more queries than GLADE");
        assert!(vstar.test_strings.is_some());
        assert!(glade.test_strings.is_none());
    }

    #[test]
    fn arvada_runs_on_lisp() {
        let lang = Lisp::new();
        let config = quick_config();
        let row = evaluate_arvada(&lang, &config);
        assert_eq!(row.tool, "arvada");
        assert_eq!(row.grammar, "lisp");
        assert!(row.queries > 0);
        assert!(row.recall >= 0.0 && row.recall <= 1.0);
        assert!(row.precision >= 0.0 && row.precision <= 1.0);
    }

    #[test]
    fn grammar_sampler_precision_dataset_is_usable_and_accurate() {
        // `vstar_parser::GrammarSampler` is the single sampling entry point
        // (the legacy `Vpg::sampler` path is gone): the precision dataset it
        // produces under the conv∘strip fixed-point filter must be non-empty
        // and, on an exactly-learned language, must score (near-)perfect
        // precision against the oracle.
        let lang = ToyXml::new();
        let config = quick_config();
        let oracle = |s: &str| lang.accepts(s);
        let mat = Mat::new(&oracle);
        let result = VStar::new(VStarConfig::default())
            .learn(&mat, &lang.alphabet(), &lang.seeds())
            .expect("learning succeeds");

        let compiled = result.compile().expect("compiles for serving");
        let dataset = || -> Vec<String> {
            let mut rng = StdRng::seed_from_u64(config.rng_seed ^ 0xA11CE);
            GrammarSampler::new(&result.vpg)
                .sample_many(&mut rng, config.generation_budget, config.precision_samples * 12)
                .into_iter()
                .filter_map(|w| {
                    let raw = vstar::tokenizer::strip_markers(&w);
                    compiled.recognize(&raw).then_some(raw)
                })
                .take(config.precision_samples)
                .collect()
        };
        let kept = dataset();
        assert!(
            kept.len() >= config.precision_samples / 2,
            "sampler produced only {} usable samples",
            kept.len()
        );
        // The quick-config hypothesis is not exact — and the serving-path
        // filter deliberately keeps its cross-matched over-acceptances in the
        // dataset — so the bar is a sanity floor, not perfection (the
        // committed BENCH_table1.json tracks the real numbers at the default
        // configuration, where refinement drives precision to 1.0).
        let precision_value = precision(|s| lang.accepts(s), &kept);
        assert!(precision_value >= 0.2, "toy-xml precision {precision_value}");

        // The dataset is deterministic for a fixed seed, and the shared
        // measurement helper agrees with the inline computation.
        assert_eq!(kept, dataset());
        let accuracy = measure_vstar_accuracy(&lang, &config, &result);
        assert!((accuracy.precision - precision_value).abs() < 1e-12);
    }

    #[test]
    fn recall_dataset_is_deterministic() {
        let lang = Lisp::new();
        let config = quick_config();
        assert_eq!(recall_dataset(&lang, &config), recall_dataset(&lang, &config));
    }
}
