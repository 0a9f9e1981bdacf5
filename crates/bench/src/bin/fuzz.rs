//! Grammar-directed differential fuzzing across the Table-1 languages.
//!
//! For each selected grammar the binary (1) learns the language with the
//! counterexample-guided refinement loop (the `refine` subsystem: the plain
//! pipeline, plus in-loop fuzz campaigns whose divergences are replayed as
//! counterexamples until the campaigns run dry), (2) runs a seeded
//! `vstar_fuzz::FuzzCampaign` that samples and mutates derivations of the
//! learned VPG and judges every input with both the learned artifact and the
//! black-box oracle, (3) writes the divergence corpus to disk and (4) emits a
//! machine-readable summary.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p vstar_bench --bin fuzz -- \
//!     [grammar ...] [--seed N] [--iterations N] [--corpus DIR] [--check] [--json]
//! ```
//!
//! Defaults: all five grammars (json lisp xml while mathexpr), `--seed 42`,
//! `--iterations 300`, `--corpus FUZZ_corpus`; every campaign samples with a
//! budget of 24. The run is fully
//! deterministic: the same seed produces a byte-identical `BENCH_fuzz.json`
//! and corpus tree. `BENCH_fuzz.json` is only written when the run covers all
//! five grammars *at the default configuration*, so partial or overridden
//! runs never clobber the tracked report. Campaigns over the plain
//! pipeline's grammars are the `pre` rows of the `refine` binary's
//! `BENCH_refine.json`.
//!
//! `--check` turns the run into the CI gate: the process exits nonzero
//! when any campaign reports a divergence (see
//! `vstar_bench::unexpected_divergence_classes`: since refinement, *no*
//! class is allowed anywhere). The in-loop refinement campaigns run at the
//! same seed and at least `REFINE_MIN_ITERATIONS` iterations, so a fixed
//! point certifies the gate campaign clean by prefix determinism.

use serde::Serialize;

use vstar::refine::RefineConfig;
use vstar_bench::cli::{usage_error, write_tracked_report, Args};
use vstar_bench::{learn_refined_language, unexpected_divergence_classes, REFINE_MIN_ITERATIONS};
use vstar_fuzz::{corpus::write_corpus, CampaignReport, FuzzCampaign, FuzzConfig};

/// File the machine-readable report is written to (current directory). Only
/// a full-grammar-set run at exactly the default seed and iterations
/// rewrites it, so ad-hoc and CI-smoke invocations never clobber the tracked
/// numbers.
const JSON_REPORT_PATH: &str = "BENCH_fuzz.json";

/// The tracked report's configuration (`BENCH_fuzz.json` is regenerated by a
/// bare `cargo run -p vstar_bench --bin fuzz --release`).
const DEFAULT_SEED: u64 = 42;
/// See [`DEFAULT_SEED`].
const DEFAULT_ITERATIONS: usize = 300;
/// Sample budget of every campaign.
const DEFAULT_BUDGET: usize = 24;

const USAGE: &str = "fuzz [grammar ...] [--seed N] [--iterations N] [--corpus DIR] [--check] \
                     [--json]";

/// The tracked machine-readable summary: configuration plus one report per
/// campaign. Deliberately contains no wall-clock fields so that reruns with
/// the same seed are byte-identical.
#[derive(Serialize)]
struct FuzzBenchReport {
    seed: u64,
    iterations: usize,
    campaigns: Vec<CampaignReport>,
}

fn main() {
    let args = Args::parse_or_exit(USAGE, &["seed", "iterations", "corpus"], &["check", "json"]);
    let fail = |e: String| -> ! { usage_error(USAGE, e) };
    let seed = args.seed(DEFAULT_SEED).unwrap_or_else(|e| fail(e));
    let iterations: usize =
        args.parsed("iterations", DEFAULT_ITERATIONS).unwrap_or_else(|e| fail(e));
    let corpus_dir = args.value("corpus").unwrap_or("FUZZ_corpus").to_string();
    let selection = args.languages().unwrap_or_else(|e| fail(e));
    // The committed report is generated at exactly the default configuration;
    // any override must not clobber it with numbers from a different run.
    let tracked_config = seed == DEFAULT_SEED && iterations == DEFAULT_ITERATIONS;

    // Refinement fuzzes in-loop with the same seed/budget but at least the
    // iteration floor, so its fixed point certifies the campaign below.
    let loop_config = FuzzConfig {
        seed,
        iterations: iterations.max(REFINE_MIN_ITERATIONS),
        sample_budget: DEFAULT_BUDGET,
    };
    let config = FuzzConfig { seed, iterations, sample_budget: DEFAULT_BUDGET };
    let mut campaigns: Vec<CampaignReport> = Vec::new();
    for lang in &selection.languages {
        let name = lang.name();
        eprintln!("learning {name} (with counterexample-guided refinement) …");
        let refined = learn_refined_language(lang.as_ref(), &loop_config, &RefineConfig::default());
        eprintln!(
            "refined {name}: {} campaign(s), {} counterexample(s) replayed",
            refined.log.campaigns_run,
            refined.log.counterexamples_replayed()
        );
        if refined.log.budget_exhausted {
            // Without a fixed point the prefix-determinism certification
            // does not apply; the gate campaign below still judges the
            // grammar empirically, but make the weaker guarantee visible.
            eprintln!("note {name}: refinement stopped on the campaign budget, not a fixed point");
        }
        let learned = refined.learned;
        eprintln!(
            "fuzzing {name}: {} rules, {iterations} iterations, seed {seed}",
            learned.vpg().rule_count()
        );
        let report = FuzzCampaign::new(&learned, lang.as_ref(), config.clone()).run();
        match write_corpus(std::path::Path::new(&corpus_dir), &report) {
            Ok(dir) => eprintln!("wrote corpus {}", dir.display()),
            Err(e) => eprintln!("could not write corpus for {name}: {e}"),
        }
        campaigns.push(report);
    }

    println!("Differential fuzzing of learned grammars vs. oracle (seed {seed})");
    println!();
    println!("grammar\tcases\tagree+\tagree-\tFP\tFN\trule-cov\tdistinct\tP-est\tR-est");
    for r in &campaigns {
        println!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}/{}\t{}\t{:.2}\t{:.2}",
            r.language,
            r.counts.total(),
            r.counts.agree_accept,
            r.counts.agree_reject,
            r.counts.false_positive,
            r.counts.false_negative,
            r.rules_covered,
            r.rules_total,
            r.distinct_divergences(),
            r.precision_estimate,
            r.recall_estimate,
        );
    }

    let bench = FuzzBenchReport { seed, iterations, campaigns };
    let json = serde_json::to_string_pretty(&bench).expect("report serialises");
    write_tracked_report(&[(JSON_REPORT_PATH, &json)], selection.full_set, tracked_config);
    if args.switch("json") {
        println!("{json}");
    }

    if args.switch("check") {
        let mut failed = false;
        for r in &bench.campaigns {
            let unexpected = unexpected_divergence_classes(r);
            if !unexpected.is_empty() {
                failed = true;
                eprintln!(
                    "FAIL {}: unexpected divergence class(es) {:?}; witnesses: {:?}",
                    r.language,
                    unexpected,
                    r.divergences.iter().map(|d| d.minimized.as_str()).collect::<Vec<_>>(),
                );
            }
            if r.rules_covered == 0 {
                failed = true;
                eprintln!("FAIL {}: campaign exercised no grammar rules", r.language);
            }
            // Guard against a vacuously clean campaign: "zero divergences"
            // must mean "probed and agreed", not "generated nothing worth
            // classifying" (e.g. a generation-starved fixed-point filter).
            if r.counts.agree_accept == 0 {
                failed = true;
                eprintln!("FAIL {}: campaign never confirmed a single member", r.language);
            }
            if r.counts.total() < r.iterations / 4 {
                failed = true;
                eprintln!(
                    "FAIL {}: generation starved — only {} of {} iterations produced a \
                     classifiable case",
                    r.language,
                    r.counts.total(),
                    r.iterations,
                );
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!("check passed: no unexpected divergence classes");
    }
}
