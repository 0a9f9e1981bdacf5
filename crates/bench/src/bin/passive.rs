//! Passive and hybrid corpus-driven learning across the Table-1 languages.
//!
//! For each selected grammar the binary (1) learns pure-passively from
//! oracle-sampled corpora of increasing size and reports the
//! recall/precision trajectory of the corpus-only hypothesis
//! (`vstar_passive::learn_passive`), (2) compares a cold corpus-evidence
//! refinement run against the hybrid warm start — corpus preloaded as
//! answered membership queries plus a passive observation seed
//! (`vstar_passive::learn_hybrid`) — on the same counting oracle, and
//! (3) runs the corpus-driven tokenizer re-inference repair over a plain
//! base run and reports the recall trajectory it closes.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p vstar_bench --bin passive -- \
//!     [grammar ...] [--seed N] [--corpus-size N] [--check] [--json]
//! ```
//!
//! Defaults: all five grammars, `--seed 42` (the corpus seed; evaluation
//! datasets keep their own fixed seed), `--corpus-size 200`; corpus
//! sentences are generated with a size budget of 18.
//! The run is fully deterministic — wall-clock chatter goes to stderr —
//! and `BENCH_passive.json` is only (re)written by a full-grammar-set run
//! at the default configuration.
//!
//! `--check` turns the run into the CI passive gate: the process exits
//! nonzero when a passive hypothesis rejects one of its own training
//! samples, when the hybrid warm start fails to save membership queries on
//! a majority of the grammars, or when the re-inference repair leaves the
//! known JSON recall gap open (evaluation recall below 1.0).

use serde::Serialize;

use vstar::refine::CorpusEvidence;
use vstar::{Mat, RefineConfig, VStar, VStarConfig};
use vstar_bench::cli::{usage_error, write_tracked_report, Args};
use vstar_bench::{learn_plain, repair_learned_language};
use vstar_eval::{measure_vstar_accuracy, recall_dataset, EvalConfig};
use vstar_oracles::CountingOracle;
use vstar_parser::GrammarSampler;
use vstar_passive::{learn_hybrid, learn_passive};

use rand::rngs::StdRng;
use rand::SeedableRng;

/// File the machine-readable report is written to (current directory).
const JSON_REPORT_PATH: &str = "BENCH_passive.json";

const DEFAULT_SEED: u64 = 42;
/// Largest corpus size: the corpus the hybrid comparison and the curve's
/// final point use.
const DEFAULT_CORPUS_SIZE: usize = 200;
/// Sentence-size budget for corpus generation (matches the evaluation
/// datasets' generation budget).
const DEFAULT_BUDGET: usize = 18;
/// Corpus sizes of the pure-passive learning curve (filtered to the
/// configured maximum). Same-seed corpora are nested by construction, so
/// each point's training set contains the previous one.
const CURVE_SIZES: &[usize] = &[25, 50, 100, 200];
/// Sample count for pure-passive precision estimates.
const PRECISION_SAMPLES: usize = 200;
/// How many grammars the hybrid warm start must beat the cold run on.
const HYBRID_MAJORITY: usize = 3;

const USAGE: &str = "passive [grammar ...] [--seed N] [--corpus-size N] [--check] [--json]";

/// One point of the pure-passive learning curve.
#[derive(Serialize)]
struct CurvePoint {
    corpus_size: usize,
    pairs: usize,
    tree_states: usize,
    merged_states: usize,
    demoted_occurrences: usize,
    train_accepted: usize,
    /// Training consistency: every corpus word accepted by the hypothesis.
    consistent: bool,
    recall: f64,
    precision: f64,
    precision_samples: usize,
}

/// Cold corpus-evidence refinement vs the hybrid warm start, on identical
/// counting oracles.
#[derive(Serialize)]
struct HybridComparison {
    corpus_size: usize,
    cold_queries: usize,
    warm_queries: usize,
    /// `cold_queries - warm_queries` (negative when warming cost queries).
    queries_saved: i64,
    cold_campaigns: usize,
    warm_campaigns: usize,
    seeded_access_words: usize,
    seeded_tests: usize,
    cold_recall: f64,
    cold_precision: f64,
    warm_recall: f64,
    warm_precision: f64,
}

/// The re-inference repair trajectory over a plain base run.
#[derive(Serialize)]
struct RepairSummary {
    /// Whether the repair corpus witnessed a gap and a repair ran.
    applied: bool,
    rejected_members: usize,
    ill_matched: usize,
    tokenizer_changed: bool,
    pairs_before: usize,
    pairs_after: usize,
    recall_before: f64,
    recall_after: f64,
}

/// Everything measured for one grammar.
#[derive(Serialize)]
struct GrammarPassiveReport {
    language: String,
    curve: Vec<CurvePoint>,
    hybrid: HybridComparison,
    repair: RepairSummary,
}

/// The tracked machine-readable summary (no wall-clock fields: reruns with
/// the same configuration are byte-identical).
#[derive(Serialize)]
struct PassiveBenchReport {
    seed: u64,
    budget: usize,
    corpus_sizes: Vec<usize>,
    grammars: Vec<GrammarPassiveReport>,
}

fn main() {
    let args = Args::parse_or_exit(USAGE, &["seed", "corpus-size"], &["check", "json"]);
    let fail = |e: String| -> ! { usage_error(USAGE, e) };
    let seed = args.seed(DEFAULT_SEED).unwrap_or_else(|e| fail(e));
    let corpus_size: usize =
        args.parsed("corpus-size", DEFAULT_CORPUS_SIZE).unwrap_or_else(|e| fail(e));
    if corpus_size == 0 {
        fail("--corpus-size must be positive".into());
    }
    let selection = args.languages().unwrap_or_else(|e| fail(e));
    let tracked_config = seed == DEFAULT_SEED && corpus_size == DEFAULT_CORPUS_SIZE;

    let mut sizes: Vec<usize> = CURVE_SIZES.iter().copied().filter(|&n| n < corpus_size).collect();
    sizes.push(corpus_size);
    let eval = EvalConfig::default();

    let mut grammars: Vec<GrammarPassiveReport> = Vec::new();
    for lang in &selection.languages {
        let name = lang.name();
        let eval_corpus = recall_dataset(lang.as_ref(), &eval);

        // (1) Pure passive: learning curve over nested corpora.
        let mut curve = Vec::new();
        for &n in &sizes {
            let mut rng = StdRng::seed_from_u64(seed);
            let corpus = lang.generate_corpus(&mut rng, DEFAULT_BUDGET, n);
            let result = learn_passive(&corpus);
            let recall_value = {
                let mut hits = 0usize;
                for w in &eval_corpus {
                    if result.accepts_raw(w) {
                        hits += 1;
                    }
                }
                hits as f64 / eval_corpus.len().max(1) as f64
            };
            let mut sample_rng = StdRng::seed_from_u64(seed ^ 0xA11CE);
            let sampler = GrammarSampler::new(&result.automaton.vpg);
            let samples: Vec<String> = sampler
                .sample_many(&mut sample_rng, DEFAULT_BUDGET, PRECISION_SAMPLES)
                .iter()
                .map(|s| vstar::tokenizer::strip_markers(s))
                .collect();
            let precision_value = if samples.is_empty() {
                0.0
            } else {
                samples.iter().filter(|s| lang.accepts(s)).count() as f64 / samples.len() as f64
            };
            let stats = result.automaton.stats;
            eprintln!(
                "passive {name}: corpus {n} → {} states ({} unmerged), recall {recall_value:.3}, \
                 precision {precision_value:.3}",
                stats.merged_states, stats.tree_states
            );
            curve.push(CurvePoint {
                corpus_size: corpus.len(),
                pairs: result.pairs.len(),
                tree_states: stats.tree_states,
                merged_states: stats.merged_states,
                demoted_occurrences: result.demoted_occurrences,
                train_accepted: stats.train_accepted,
                consistent: stats.train_accepted == corpus.len(),
                recall: recall_value,
                precision: precision_value,
                precision_samples: samples.len(),
            });
        }

        // (2) Hybrid: cold corpus-evidence refinement vs warm start, same
        // corpus, fresh counting oracles.
        let mut corpus_rng = StdRng::seed_from_u64(seed);
        let corpus = lang.generate_corpus(&mut corpus_rng, DEFAULT_BUDGET, corpus_size);
        eprintln!("hybrid {name}: cold corpus-evidence refinement …");
        let cold_counting = CountingOracle::new(|s: &str| lang.accepts(s));
        let cold_oracle = |s: &str| cold_counting.member(s);
        let cold_mat = Mat::new(&cold_oracle);
        let mut cold_evidence = CorpusEvidence::new(corpus.clone());
        let (cold_result, cold_log) = VStar::new(VStarConfig::default())
            .learn_refined(
                &cold_mat,
                &lang.alphabet(),
                &lang.seeds(),
                &mut cold_evidence,
                RefineConfig::default(),
            )
            .expect("cold corpus-evidence run succeeds");
        let cold_queries = cold_counting.unique_queries();

        eprintln!("hybrid {name}: warm start (preload + observation seed) …");
        let warm_counting = CountingOracle::new(|s: &str| lang.accepts(s));
        let warm_oracle = |s: &str| warm_counting.member(s);
        let warm_mat = Mat::new(&warm_oracle);
        let warm = learn_hybrid(&warm_mat, &lang.alphabet(), &lang.seeds(), &corpus)
            .expect("hybrid run succeeds");
        let warm_queries = warm_counting.unique_queries();

        let cold_accuracy = measure_vstar_accuracy(lang.as_ref(), &eval, &cold_result);
        let warm_accuracy = measure_vstar_accuracy(lang.as_ref(), &eval, &warm.result);
        eprintln!(
            "hybrid {name}: cold {cold_queries} vs warm {warm_queries} unique queries \
             (saved {})",
            cold_queries as i64 - warm_queries as i64
        );
        let hybrid = HybridComparison {
            corpus_size: corpus.len(),
            cold_queries,
            warm_queries,
            queries_saved: cold_queries as i64 - warm_queries as i64,
            cold_campaigns: cold_log.campaigns_run,
            warm_campaigns: warm.log.campaigns_run,
            seeded_access_words: warm.seeded_access_words,
            seeded_tests: warm.seeded_tests,
            cold_recall: cold_accuracy.recall,
            cold_precision: cold_accuracy.precision,
            warm_recall: warm_accuracy.recall,
            warm_precision: warm_accuracy.precision,
        };

        // (3) Re-inference repair over a plain base run.
        eprintln!("repair {name}: plain base run + corpus-driven re-inference …");
        let base = learn_plain(lang.as_ref());
        let run = repair_learned_language(lang.as_ref(), &base, &eval);
        let repair = match &run.repaired {
            Some(r) => RepairSummary {
                applied: true,
                rejected_members: r.report.rejected_members,
                ill_matched: r.report.ill_matched,
                tokenizer_changed: r.report.tokenizer_changed,
                pairs_before: r.report.pairs_before,
                pairs_after: r.report.pairs_after,
                recall_before: run.recall_before,
                recall_after: run.recall_after,
            },
            None => RepairSummary {
                applied: false,
                rejected_members: 0,
                ill_matched: 0,
                tokenizer_changed: false,
                pairs_before: base.tokenizer.pair_count(),
                pairs_after: base.tokenizer.pair_count(),
                recall_before: run.recall_before,
                recall_after: run.recall_after,
            },
        };
        eprintln!(
            "repair {name}: recall {:.3} → {:.3} ({})",
            repair.recall_before,
            repair.recall_after,
            if repair.applied { "repair applied" } else { "nothing to repair" }
        );

        grammars.push(GrammarPassiveReport { language: name.to_string(), curve, hybrid, repair });
    }

    println!("Passive & hybrid corpus-driven learning (seed {seed}, corpus {corpus_size})");
    println!();
    println!("grammar\tpassR\tpassP\tcold\twarm\tsaved\trepR0\trepR1");
    for g in &grammars {
        let last = g.curve.last().expect("at least one curve point");
        println!(
            "{}\t{:.3}\t{:.3}\t{}\t{}\t{}\t{:.3}\t{:.3}",
            g.language,
            last.recall,
            last.precision,
            g.hybrid.cold_queries,
            g.hybrid.warm_queries,
            g.hybrid.queries_saved,
            g.repair.recall_before,
            g.repair.recall_after,
        );
    }

    let bench =
        PassiveBenchReport { seed, budget: DEFAULT_BUDGET, corpus_sizes: sizes.clone(), grammars };
    let json = serde_json::to_string_pretty(&bench).expect("report serialises");
    write_tracked_report(&[(JSON_REPORT_PATH, &json)], selection.full_set, tracked_config);
    if args.switch("json") {
        println!("{json}");
    }

    if args.switch("check") {
        let mut failed = false;
        for g in &bench.grammars {
            // (a) Training consistency, with a vacuity guard on the corpora.
            for point in &g.curve {
                if point.corpus_size == 0 {
                    failed = true;
                    eprintln!(
                        "FAIL {}: empty training corpus — the gate probes nothing",
                        g.language
                    );
                }
                if !point.consistent {
                    failed = true;
                    eprintln!(
                        "FAIL {}: passive hypothesis rejects {} of its {} training samples \
                         (corpus size {})",
                        g.language,
                        point.corpus_size - point.train_accepted,
                        point.corpus_size,
                        point.corpus_size,
                    );
                }
            }
            // The curve must actually probe generalisation, not just replay
            // the training set.
            if g.curve.iter().all(|p| p.precision_samples == 0) {
                failed = true;
                eprintln!(
                    "FAIL {}: passive hypotheses produced no precision samples — the curve \
                     is vacuous",
                    g.language
                );
            }
            // (c) The repair gate: the known JSON recall gap must be closed.
            if g.language == "json" {
                if tracked_config && !g.repair.applied {
                    failed = true;
                    eprintln!(
                        "FAIL json: the repair corpus no longer witnesses the known recall \
                         gap — the re-inference gate went blind"
                    );
                }
                if g.repair.recall_after < 1.0 {
                    failed = true;
                    eprintln!(
                        "FAIL json: post-repair evaluation recall is {:.3}, expected 1.0",
                        g.repair.recall_after
                    );
                }
            }
        }
        // (b) The hybrid warm start must save queries on a majority of the
        // grammars (only meaningful over the full set).
        if selection.full_set {
            let winners: Vec<&str> = bench
                .grammars
                .iter()
                .filter(|g| g.hybrid.warm_queries < g.hybrid.cold_queries)
                .map(|g| g.language.as_str())
                .collect();
            if winners.len() < HYBRID_MAJORITY {
                failed = true;
                eprintln!(
                    "FAIL hybrid: warm start saved queries on only {}/{} grammars ({:?}); \
                     need at least {HYBRID_MAJORITY}",
                    winners.len(),
                    bench.grammars.len(),
                    winners
                );
            }
        } else {
            println!("partial grammar selection: hybrid majority gate skipped");
        }
        if failed {
            std::process::exit(1);
        }
        println!("check passed: passive hypotheses consistent, hybrid saves queries, repair closes the json gap");
    }
}
