//! Static analysis over the refined Table-1 grammars.
//!
//! For each selected grammar the binary re-learns the language with
//! counterexample-guided refinement (the same loop as the `refine` binary),
//! then runs the full `vstar-analyze` lint stack over everything the pipeline
//! produced: the learned language (grammar + automaton + congruence report),
//! the compiled serving artifact, and the refinement log's rule-liveness
//! trajectory. Each grammar also gets a corpus-only passive construction
//! (`vstar_passive::learn_passive` over a deterministic generated corpus) so
//! the passive lint pass and its `PSV000` stats card are exercised on real
//! artifacts. No oracle query is spent on analysis — every pass is static,
//! and passive learning itself never consults an oracle.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p vstar_bench --bin analyze -- \
//!     [grammar ...] [--seed N] [--refine-iterations N] [--check] [--json]
//! ```
//!
//! Defaults: all five grammars, `--seed 42`, `--refine-iterations 300`
//! (matching the `refine` binary's tracked configuration, so the analyzed
//! grammars are the same artifacts `BENCH_refine.json` tracks). Like the
//! `refine` binary, the in-loop campaigns sample with a budget of 24 and a
//! loop runs at most `RefineConfig::default().max_campaigns` (40) evidence
//! rounds. The run is fully deterministic; `BENCH_analyze.json` is only
//! (re)written by a full-grammar-set run at the default configuration.
//!
//! `--check` turns the run into the CI analysis gate: the process exits
//! nonzero when any refined grammar lints at warn-or-worse severity, when a
//! report is missing the always-emitted summary lints (which would mean a
//! pass silently did not run), when a passive report is missing its `PSV000`
//! stats card or lints at error severity (warn-level findings are expected on
//! partial passive automata), or when the analyzer fails the blindness
//! self-check — a surgically broken variant of a refined grammar must light
//! up the named diagnostic codes (`VPG003`, `LRN001`), otherwise "lint-clean"
//! is indistinguishable from "looked at nothing".

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use vstar::refine::{RefineConfig, RuleLiveness};
use vstar_analyze::{
    analyze_passive, congruence_summary, AnalysisReport, Analyze, CongruenceSummary, Severity,
};
use vstar_bench::cli::{usage_error, write_tracked_report, Args};
use vstar_bench::{learn_refined_language, REFINE_MIN_ITERATIONS};
use vstar_fuzz::surgery::with_crossed_returns;
use vstar_fuzz::FuzzConfig;
use vstar_parser::CompileLearned;
use vstar_passive::learn_passive;

/// File the machine-readable report is written to (current directory).
const JSON_REPORT_PATH: &str = "BENCH_analyze.json";

const DEFAULT_SEED: u64 = 42;
/// In-loop campaign iterations (must match the `refine` binary so the
/// analyzed grammars are the tracked refined artifacts).
const DEFAULT_REFINE_ITERATIONS: usize = REFINE_MIN_ITERATIONS;
/// Sample budget of the in-loop campaigns.
const DEFAULT_BUDGET: usize = 24;
/// Corpus size of the per-grammar passive construction the passive lint pass
/// runs over.
const PASSIVE_CORPUS_SIZE: usize = 120;
/// Sentence-size budget of the passive corpus (matches the `passive`
/// binary's generation budget).
const PASSIVE_CORPUS_BUDGET: usize = 18;

const USAGE: &str = "analyze [grammar ...] [--seed N] [--refine-iterations N] [--check] [--json]";

/// Findings-by-severity accounting for one report.
#[derive(Serialize)]
struct SeverityCounts {
    info: usize,
    warn: usize,
    error: usize,
}

impl SeverityCounts {
    fn of(report: &AnalysisReport) -> Self {
        SeverityCounts {
            info: report.count(Severity::Info),
            warn: report.count(Severity::Warn),
            error: report.count(Severity::Error),
        }
    }
}

/// The full static-analysis picture of one refined grammar.
#[derive(Serialize)]
struct GrammarAnalyzeReport {
    language: String,
    /// Learned-language report: grammar, automaton, congruence and
    /// cross-artifact consistency lints.
    learned: AnalysisReport,
    learned_counts: SeverityCounts,
    /// Compiled serving-artifact report: table integrity, reachability and
    /// tokenizer-ambiguity lints.
    compiled: AnalysisReport,
    compiled_counts: SeverityCounts,
    /// Passive-construction report: stats card, training-consistency audit,
    /// conversion-loss accounting (over a corpus-only construction, not the
    /// refined artifact).
    passive: AnalysisReport,
    passive_counts: SeverityCounts,
    /// State/stack-symbol merge headroom of the learned automaton.
    congruence: CongruenceSummary,
    /// Rule liveness of the first refinement hypothesis.
    pre_liveness: Option<RuleLiveness>,
    /// Rule liveness of the final refined grammar.
    post_liveness: Option<RuleLiveness>,
}

/// The tracked machine-readable summary (no wall-clock fields: reruns with
/// the same configuration are byte-identical).
#[derive(Serialize)]
struct AnalyzeBenchReport {
    seed: u64,
    refine_iterations: usize,
    max_campaigns: usize,
    grammars: Vec<GrammarAnalyzeReport>,
}

fn main() {
    let args = Args::parse_or_exit(USAGE, &["seed", "refine-iterations"], &["check", "json"]);
    let fail = |e: String| -> ! { usage_error(USAGE, e) };
    let seed = args.seed(DEFAULT_SEED).unwrap_or_else(|e| fail(e));
    let refine_iterations: usize =
        args.parsed("refine-iterations", DEFAULT_REFINE_ITERATIONS).unwrap_or_else(|e| fail(e));
    let selection = args.languages().unwrap_or_else(|e| fail(e));
    let tracked_config = seed == DEFAULT_SEED && refine_iterations == DEFAULT_REFINE_ITERATIONS;

    let loop_config =
        FuzzConfig { seed, iterations: refine_iterations, sample_budget: DEFAULT_BUDGET };
    let refine_config = RefineConfig::default();

    let mut grammars: Vec<GrammarAnalyzeReport> = Vec::new();
    // The first analyzed language doubles as the blindness self-check
    // subject; keep it (and the check's findings) out of the tracked report.
    let mut self_check: Option<(String, AnalysisReport)> = None;
    for lang in &selection.languages {
        let name = lang.name();
        eprintln!("learning {name} (refined pipeline) …");
        let refined = learn_refined_language(lang.as_ref(), &loop_config, &refine_config);
        let learned = refined.learned.analyze();
        let compiled_artifact = refined.result.compile().expect("refined Table-1 grammars compile");
        let compiled = compiled_artifact.analyze();
        let congruence = congruence_summary(refined.learned.vpa());
        let mut corpus_rng = StdRng::seed_from_u64(seed);
        let corpus =
            lang.generate_corpus(&mut corpus_rng, PASSIVE_CORPUS_BUDGET, PASSIVE_CORPUS_SIZE);
        let passive = analyze_passive(&learn_passive(&corpus), None);
        eprintln!(
            "analyzed {name}: {} learned finding(s), {} compiled finding(s), \
             {} passive finding(s), {}/{} states mergeable",
            learned.diagnostics.len(),
            compiled.diagnostics.len(),
            passive.diagnostics.len(),
            congruence.mergeable_states,
            congruence.states,
        );
        if self_check.is_none() {
            if let Some(crossed) = with_crossed_returns(refined.learned.vpg()) {
                let broken = refined.learned.clone().with_vpg(crossed);
                self_check = Some((name.to_string(), broken.analyze()));
            }
        }
        grammars.push(GrammarAnalyzeReport {
            language: name.to_string(),
            learned_counts: SeverityCounts::of(&learned),
            learned,
            compiled_counts: SeverityCounts::of(&compiled),
            compiled,
            passive_counts: SeverityCounts::of(&passive),
            passive,
            congruence,
            pre_liveness: refined.log.pre_liveness,
            post_liveness: refined.log.post_liveness,
        });
    }

    println!("Static analysis of refined learned grammars (seed {seed})");
    println!();
    println!(
        "grammar\tlearned(i/w/e)\tcompiled(i/w/e)\tpassive(i/w/e)\tstates\tmergeable\tlive rules"
    );
    for g in &grammars {
        let live = g
            .post_liveness
            .map_or_else(|| "-".to_string(), |l| format!("{}/{}", l.live_rules, l.rules));
        println!(
            "{}\t{}/{}/{}\t{}/{}/{}\t{}/{}/{}\t{}\t{}\t{}",
            g.language,
            g.learned_counts.info,
            g.learned_counts.warn,
            g.learned_counts.error,
            g.compiled_counts.info,
            g.compiled_counts.warn,
            g.compiled_counts.error,
            g.passive_counts.info,
            g.passive_counts.warn,
            g.passive_counts.error,
            g.congruence.states,
            g.congruence.mergeable_states,
            live,
        );
    }

    let bench = AnalyzeBenchReport {
        seed,
        refine_iterations,
        max_campaigns: refine_config.max_campaigns,
        grammars,
    };
    let json = serde_json::to_string_pretty(&bench).expect("report serialises");
    write_tracked_report(&[(JSON_REPORT_PATH, &json)], selection.full_set, tracked_config);
    if args.switch("json") {
        println!("{json}");
    }

    if args.switch("check") {
        let mut failed = false;
        for g in &bench.grammars {
            for (layer, report) in [("learned", &g.learned), ("compiled", &g.compiled)] {
                if !report.is_clean(Severity::Warn) {
                    failed = true;
                    for d in report.at_least(Severity::Warn) {
                        eprintln!("FAIL {}: {layer} artifact lints at {d}", g.language);
                    }
                }
            }
            // "Lint-clean" must mean "every pass ran", not "nothing looked":
            // the automaton coverage summary and the congruence summary are
            // emitted unconditionally by their passes.
            if !g.learned.has("VPA007") || !g.learned.has("CNG000") {
                failed = true;
                eprintln!(
                    "FAIL {}: learned report is missing the always-on summary lints \
                     (have {:?}) — an analysis pass did not run",
                    g.language,
                    g.learned.codes(),
                );
            }
            // The passive pass has its own vacuity guard: the stats card is
            // emitted unconditionally, and a corpus-built construction must
            // never carry error-severity findings (training consistency and
            // nonempty language hold by construction). Warn-level findings
            // are expected — partial passive automata legitimately carry
            // unproductive grammar structure.
            if !g.passive.has("PSV000") {
                failed = true;
                eprintln!(
                    "FAIL {}: passive report is missing the PSV000 stats card \
                     (have {:?}) — the passive analysis pass did not run",
                    g.language,
                    g.passive.codes(),
                );
            }
            if !g.passive.is_clean(Severity::Error) {
                failed = true;
                for d in g.passive.at_least(Severity::Error) {
                    eprintln!("FAIL {}: passive artifact lints at {d}", g.language);
                }
            }
        }
        match &self_check {
            Some((name, report)) if report.has("VPG003") && report.has("LRN001") => {
                eprintln!(
                    "self-check: surgically crossed {name} lints as expected ({:?})",
                    report.codes()
                );
            }
            Some((name, report)) => {
                failed = true;
                eprintln!(
                    "FAIL self-check: crossed-return surgery on {name} produced {:?}, \
                     expected VPG003 and LRN001 — the analyzer went blind",
                    report.codes(),
                );
            }
            None => {
                failed = true;
                eprintln!(
                    "FAIL self-check: no selected grammar offered a second tagging pair \
                     to cross — the blindness probe never ran",
                );
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "check passed: refined grammars analyze clean at warn severity, \
             passive constructions carded and error-free"
        );
    }
}
