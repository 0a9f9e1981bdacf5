//! Shared helpers for the benchmark harness and the table-regeneration binaries.
//!
//! The paper's evaluation (§6) has a single table (Table 1) plus two illustrative
//! figures (Figure 1 and Figure 2). `cargo run -p vstar_bench --bin table1
//! --release` regenerates the table against the bundled oracles; the Criterion
//! benches in `benches/` time the individual components and the figure examples;
//! `--bin ablation` sweeps V-Star's two tunables, the test-string budget and the
//! pumping bound `K`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use vstar_eval::{evaluate_arvada, evaluate_glade, evaluate_vstar, EvalConfig, Table1Report};
use vstar_oracles::table1_languages;

pub mod cli;

/// Runs all three tools on every Table-1 grammar and collects the report.
///
/// `tools` selects which tools run ("glade", "arvada", "vstar"); an empty slice
/// runs all three.
#[must_use]
pub fn run_table1(config: &EvalConfig, tools: &[&str]) -> Table1Report {
    let run_all = tools.is_empty();
    let selected = |t: &str| run_all || tools.contains(&t);
    let mut report = Table1Report::new();
    let languages = table1_languages();
    if selected("glade") {
        for lang in &languages {
            report.push(evaluate_glade(lang.as_ref(), config));
        }
    }
    if selected("arvada") {
        for lang in &languages {
            report.push(evaluate_arvada(lang.as_ref(), config));
        }
    }
    if selected("vstar") {
        for lang in &languages {
            report.push(evaluate_vstar(lang.as_ref(), config));
        }
    }
    report
}

/// Enriches every V-Star row of `report` with post-refinement accuracy: each
/// grammar is re-learned with the counterexample-guided refinement loop
/// ([`learn_refined_language`]) and measured on the *same* deterministic
/// recall/precision datasets as the plain row
/// ([`vstar_eval::measure_vstar_accuracy`]), so `BENCH_table1.json` tracks the
/// pre/post trajectory side by side.
///
/// `fuzz` is the in-loop campaign template; `refine` bounds the loop.
pub fn attach_refined_vstar_metrics(
    report: &mut Table1Report,
    config: &EvalConfig,
    fuzz: &vstar_fuzz::FuzzConfig,
    refine: &vstar::refine::RefineConfig,
) {
    for row in report.rows.iter_mut().filter(|r| r.tool == "vstar") {
        let Some(lang) = vstar_oracles::language_by_name(&row.grammar) else {
            continue;
        };
        let refined = learn_refined_language(lang.as_ref(), fuzz, refine);
        let accuracy = vstar_eval::measure_vstar_accuracy(lang.as_ref(), config, &refined.result);
        row.refined_recall = Some(accuracy.recall);
        row.refined_precision = Some(accuracy.precision);
        row.refined_f1 = Some(accuracy.f1);
        row.refine_counterexamples = Some(refined.log.counterexamples_replayed());
    }
}

/// Learns one bundled language with the plain V-Star pipeline at the
/// default configuration (no refinement) — the pre-refinement baseline of
/// the `refine` binary and the grammars the `serve`, `daemon`, `sample` and
/// `passive` binaries start from. Pass a
/// [`vstar_oracles::CountedLanguage`] to count the queries it spends.
///
/// # Panics
///
/// Panics when learning fails — the bundled Table-1 grammars always learn.
#[must_use]
pub fn learn_plain(lang: &dyn vstar_oracles::Language) -> vstar::VStarResult {
    let oracle = |s: &str| lang.accepts(s);
    let mat = vstar::Mat::new(&oracle);
    vstar::VStar::new(vstar::VStarConfig::default())
        .learn(&mat, &lang.alphabet(), &lang.seeds())
        .expect("learning the bundled grammars succeeds")
}

/// Everything a counterexample-guided refinement run produces: the refined
/// artifacts, the full pipeline result and the refinement log.
pub struct RefinedLearning {
    /// The refined learned language, detached for serving/fuzzing.
    pub learned: vstar::LearnedLanguage,
    /// The full pipeline result (stats included).
    pub result: vstar::VStarResult,
    /// What the refinement loop did.
    pub log: vstar::refine::RefineLog,
}

/// Learns one bundled language with counterexample-guided refinement: the
/// default pipeline, with every pool-clean hypothesis interrogated by a
/// differential fuzz campaign (`vstar_fuzz::CampaignEvidence`) whose
/// divergences are replayed into the learner until the campaigns run dry.
///
/// `fuzz` is the in-loop campaign template (its `seed` is the base of the
/// per-round seed window); `refine` bounds the loop. As with [`learn_plain`],
/// a [`vstar_oracles::CountedLanguage`] routes the learner's and the
/// campaigns' membership queries through one counting oracle.
///
/// # Panics
///
/// Panics when learning fails — the bundled Table-1 grammars always learn.
#[must_use]
pub fn learn_refined_language(
    lang: &dyn vstar_oracles::Language,
    fuzz: &vstar_fuzz::FuzzConfig,
    refine: &vstar::refine::RefineConfig,
) -> RefinedLearning {
    let oracle = |s: &str| lang.accepts(s);
    let mat = vstar::Mat::new(&oracle);
    let mut source = vstar_fuzz::CampaignEvidence::new(lang, fuzz.clone())
        .with_seed_window(refine.clean_passes as u64);
    let (result, log) = vstar::VStar::new(vstar::VStarConfig::default())
        .learn_refined(&mat, &lang.alphabet(), &lang.seeds(), &mut source, refine.clone())
        .expect("refined learning of the bundled grammars succeeds");
    RefinedLearning { learned: result.as_learned_language(), result, log }
}

/// The serving benchmarks' deterministic corpus of converted words: `samples`
/// grammar samples of `vpg` within `budget` (members by construction), then a
/// single-character mutant of each non-empty sample (mostly rejects), all
/// drawn from one `StdRng` seeded with `seed`.
#[must_use]
pub fn sample_corpus(
    vpg: &vstar_vpl::Vpg,
    seed: u64,
    budget: usize,
    samples: usize,
) -> Vec<String> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut words = vstar_parser::GrammarSampler::new(vpg).sample_many(&mut rng, budget, samples);
    let terminals: Vec<char> = vpg.terminals().into_iter().collect();
    push_mutants(&mut words, &terminals, &mut rng);
    words
}

/// The serving benchmarks' deterministic corpus of raw strings: `samples`
/// members the oracle generates within `budget`, then a single-character
/// mutant of each non-empty member over the language's alphabet (mostly
/// rejects), all drawn from one `StdRng` seeded with `seed`. Unlike stripped
/// samples of a learned grammar ([`sample_corpus`]), the members are members
/// of the language whatever the grammar learned.
#[must_use]
pub fn raw_corpus(
    lang: &dyn vstar_oracles::Language,
    seed: u64,
    budget: usize,
    samples: usize,
) -> Vec<String> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut raws: Vec<String> = (0..samples).map(|_| lang.generate(&mut rng, budget)).collect();
    push_mutants(&mut raws, &lang.alphabet(), &mut rng);
    raws
}

/// Appends a mutant of each non-empty string of `words`, in order: one
/// character replaced by a random character of `alphabet`.
fn push_mutants(words: &mut Vec<String>, alphabet: &[char], rng: &mut rand::rngs::StdRng) {
    use rand::Rng;
    for k in 0..words.len() {
        let mut mutant: Vec<char> = words[k].chars().collect();
        if mutant.is_empty() {
            continue;
        }
        let i = rng.gen_range(0..mutant.len());
        mutant[i] = alphabet[rng.gen_range(0..alphabet.len())];
        words.push(mutant.into_iter().collect());
    }
}

/// Seed of the deterministic repair corpus the corpus-driven re-inference
/// step diffs a hypothesis against. Deliberately disjoint from the
/// evaluation-dataset seed (`0xEA11_5EED`) so the recall gate never trains on
/// its own test set.
pub const REPAIR_CORPUS_SEED: u64 = 0x9A55_1FE5;
/// Size of the repair corpus.
pub const REPAIR_CORPUS_SIZE: usize = 300;

/// The deterministic positive corpus used by [`repair_learned_language`].
#[must_use]
pub fn repair_corpus(lang: &dyn vstar_oracles::Language, budget: usize) -> Vec<String> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(REPAIR_CORPUS_SEED);
    lang.generate_corpus(&mut rng, budget, REPAIR_CORPUS_SIZE)
}

/// What a corpus-driven repair pass produced: the recall trajectory on the
/// standard evaluation dataset plus the re-inference outcome.
pub struct RepairedRun {
    /// Repaired learning + diagnosis; `None` when the base result already
    /// accepted the whole repair corpus and nothing needed repairing.
    pub repaired: Option<vstar_passive::RepairedLearning>,
    /// Recall of the base result on the evaluation dataset.
    pub recall_before: f64,
    /// Recall after the repair (equals `recall_before` when no repair ran).
    pub recall_after: f64,
}

/// Diffs `base` against the deterministic repair corpus
/// ([`repair_corpus`]) and, when the corpus witnesses a gap, re-learns under
/// a corpus-re-inferred tokenizer with the corpus as refinement evidence
/// (`vstar_passive::repair_with_corpus`). Recall is measured before and
/// after on the standard evaluation dataset via the compiled serving
/// artifact, exactly like `measure_vstar_accuracy`.
///
/// # Panics
///
/// Panics when the repaired run fails or a learned grammar does not compile.
#[must_use]
pub fn repair_learned_language(
    lang: &dyn vstar_oracles::Language,
    base: &vstar::VStarResult,
    eval: &EvalConfig,
) -> RepairedRun {
    use vstar_parser::CompileLearned;
    let corpus = repair_corpus(lang, eval.generation_budget);
    let recall_corpus = vstar_eval::recall_dataset(lang, eval);
    let compiled = base.compile().expect("base grammar compiles for serving");
    let recall_before = vstar_eval::recall(|s| compiled.recognize(s), &recall_corpus);

    let oracle = |s: &str| lang.accepts(s);
    let mat = vstar::Mat::new(&oracle);
    let repaired =
        vstar_passive::repair_with_corpus(&mat, &lang.alphabet(), &lang.seeds(), base, &corpus)
            .expect("corpus-driven repair succeeds on the bundled grammars");
    let recall_after = match &repaired {
        Some(run) => {
            let compiled = run.result.compile().expect("repaired grammar compiles for serving");
            vstar_eval::recall(|s| compiled.recognize(s), &recall_corpus)
        }
        None => recall_before,
    };
    RepairedRun { repaired, recall_before, recall_after }
}

/// The in-loop campaign iteration floor used by the refined `fuzz`/`refine`
/// binaries: refinement keeps iterating until full campaigns of at least this
/// many iterations run divergence-free, so any shorter (or equal, same-seed)
/// CI gate campaign over the final grammar is certified clean by
/// construction.
pub const REFINE_MIN_ITERATIONS: usize = 300;

/// The divergence classes `report` contains — the failure condition of
/// `fuzz --check` (CI's fuzz smoke step). Since counterexample-guided
/// refinement closed the gaps the fuzzer first found (the learned `while`
/// grammar accepting identifiers in arithmetic positions, the learned `json`
/// grammar accepting value concatenations), every Table-1 language is held to
/// the same bar: **any divergence is a regression**. The pre-refinement gaps
/// stay visible as the `pre` campaigns of `BENCH_refine.json`.
#[must_use]
pub fn unexpected_divergence_classes(report: &vstar_fuzz::CampaignReport) -> Vec<&'static str> {
    let mut bad = Vec::new();
    if report.counts.false_positive > 0 {
        bad.push("false-positive");
    }
    if report.counts.false_negative > 0 {
        bad.push("false-negative");
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn divergence_allowances_match_known_accuracy() {
        use vstar_eval::DifferentialCounts;
        use vstar_fuzz::{CampaignReport, FuzzCampaign, FuzzConfig};
        use vstar_oracles::Lisp;

        // Post-refinement, every language is held to the same bar: no
        // divergence class is tolerated anywhere.
        let report = |language: &str, fp: usize, fn_: usize| CampaignReport {
            language: language.into(),
            seed: 0,
            iterations: 10,
            counts: DifferentialCounts {
                agree_accept: 5,
                agree_reject: 5,
                false_positive: fp,
                false_negative: fn_,
            },
            precision_estimate: 1.0,
            recall_estimate: 1.0,
            rules_covered: 1,
            rules_total: 1,
            corpus_trees: 1,
            divergences: Vec::new(),
            divergences_beyond_cap: 0,
        };
        assert!(unexpected_divergence_classes(&report("lisp", 0, 0)).is_empty());
        assert_eq!(unexpected_divergence_classes(&report("lisp", 1, 0)), ["false-positive"]);
        assert_eq!(unexpected_divergence_classes(&report("while", 3, 0)), ["false-positive"]);
        assert_eq!(
            unexpected_divergence_classes(&report("json", 3, 1)),
            ["false-positive", "false-negative"]
        );

        // End to end on the fastest exactly-learned language: a real campaign
        // over the real learned grammar stays divergence-free (the `--check`
        // smoke gate in miniature).
        let lang = Lisp::new();
        let learned = learn_plain(&lang).as_learned_language();
        let config = FuzzConfig { iterations: 60, ..FuzzConfig::default() };
        let run = FuzzCampaign::new(&learned, &lang, config).run();
        assert!(unexpected_divergence_classes(&run).is_empty(), "lisp diverged: {run:?}");
        assert!(run.rules_covered > 0);
    }
}
