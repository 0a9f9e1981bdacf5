//! Counterexample-guided refinement across the Table-1 languages.
//!
//! For each selected grammar the binary (1) learns the language with the
//! plain V-Star pipeline and fuzzes the result (the *pre* campaign — the
//! precision/recall gaps PR 3 exposed), (2) re-learns with the evidence-driven
//! equivalence oracle (`vstar::refine` + `vstar_fuzz::CampaignEvidence`),
//! which iterates learn → fuzz → refine until the in-loop campaigns run dry,
//! and (3) fuzzes the refined grammar at the same gate configuration (the
//! *post* campaign). The machine-readable summary tracks the shrinkage.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p vstar_bench --bin refine -- \
//!     [grammar ...] [--seed N] [--iterations N] [--refine-iterations N] [--check] [--json]
//! ```
//!
//! Defaults: all five grammars, `--seed 42`, `--iterations 150` (the pre/post
//! gate campaigns, matching CI's fuzz smoke), `--refine-iterations 300`
//! (in-loop campaigns; at least `REFINE_MIN_ITERATIONS`). Every campaign
//! samples with a budget of 24, and a refinement loop runs at most
//! `RefineConfig::default().max_campaigns` (40) evidence rounds. The run is
//! fully deterministic; `BENCH_refine.json` is only (re)written by a
//! full-grammar-set run at the default configuration.
//!
//! `--check` turns the run into the CI refinement gate: the process exits
//! nonzero when any post-refinement campaign still diverges, or when — at the
//! tracked configuration — the `while`/`json` pre campaigns fail to exhibit
//! the known gaps the loop is supposed to repair (which would mean the gate
//! went blind, not that the grammars got better).

use serde::Serialize;

use vstar::refine::{RefineConfig, RefineLog};
use vstar_bench::cli::{usage_error, write_tracked_report, Args};
use vstar_bench::{
    learn_plain, learn_refined_language, repair_learned_language, REFINE_MIN_ITERATIONS,
};
use vstar_eval::{DifferentialCounts, EvalConfig};
use vstar_fuzz::{CampaignReport, FuzzCampaign, FuzzConfig};
use vstar_oracles::{CountedLanguage, CountingOracle};

/// File the machine-readable report is written to (current directory).
const JSON_REPORT_PATH: &str = "BENCH_refine.json";

const DEFAULT_SEED: u64 = 42;
/// Pre/post gate-campaign iterations (CI's fuzz smoke budget).
const DEFAULT_ITERATIONS: usize = 150;
/// In-loop campaign iterations (the refinement evidence budget).
const DEFAULT_REFINE_ITERATIONS: usize = REFINE_MIN_ITERATIONS;
/// Sample budget of every campaign involved.
const DEFAULT_BUDGET: usize = 24;

/// Languages whose pre-refinement campaigns are required (at the tracked
/// configuration) to exhibit the known gaps — the `--check` proof that the
/// divergence classes *shrank to empty* rather than never being visible.
const KNOWN_GAPPED: &[&str] = &["while", "json"];

const USAGE: &str = "refine [grammar ...] [--seed N] [--iterations N] [--refine-iterations N] \
                     [--check] [--json]";

/// One campaign boiled down to the fields the refinement trajectory needs.
#[derive(Serialize)]
struct CampaignSummary {
    counts: DifferentialCounts,
    precision_estimate: f64,
    recall_estimate: f64,
    distinct_divergences: usize,
    divergence_classes: Vec<String>,
    witnesses: Vec<String>,
}

impl CampaignSummary {
    fn of(report: &CampaignReport) -> Self {
        let mut classes: Vec<String> = report.divergences.iter().map(|d| d.class.clone()).collect();
        classes.sort();
        classes.dedup();
        CampaignSummary {
            counts: report.counts,
            precision_estimate: report.precision_estimate,
            recall_estimate: report.recall_estimate,
            distinct_divergences: report.distinct_divergences(),
            divergence_classes: classes,
            witnesses: report.divergences.iter().map(|d| d.minimized.clone()).collect(),
        }
    }
}

/// The corpus-driven re-inference repair pass over the refined grammar
/// (`vstar_passive::repair_with_corpus` via the shared bench helper).
#[derive(Serialize)]
struct RepairSummary {
    /// Whether the repair corpus witnessed a gap and a repair ran.
    applied: bool,
    rejected_members: usize,
    ill_matched: usize,
    tokenizer_changed: bool,
    /// Evaluation recall of the refined grammar, before the repair.
    recall_refined: f64,
    /// Evaluation recall after the repair (same value when nothing ran).
    recall_repaired: f64,
}

/// Pre/post refinement trajectory of one grammar.
#[derive(Serialize)]
struct GrammarRefineReport {
    language: String,
    pre: CampaignSummary,
    refine: RefineLog,
    post: CampaignSummary,
    repair: RepairSummary,
    states_before: usize,
    states_after: usize,
    rules_before: usize,
    rules_after: usize,
}

/// The tracked machine-readable summary (no wall-clock fields: reruns with
/// the same configuration are byte-identical).
#[derive(Serialize)]
struct RefineBenchReport {
    seed: u64,
    iterations: usize,
    refine_iterations: usize,
    max_campaigns: usize,
    grammars: Vec<GrammarRefineReport>,
}

fn main() {
    let args = Args::parse_or_exit(
        USAGE,
        &["seed", "iterations", "refine-iterations"],
        &["check", "json"],
    );
    let fail = |e: String| -> ! { usage_error(USAGE, e) };
    let seed = args.seed(DEFAULT_SEED).unwrap_or_else(|e| fail(e));
    let iterations: usize =
        args.parsed("iterations", DEFAULT_ITERATIONS).unwrap_or_else(|e| fail(e));
    let refine_iterations: usize =
        args.parsed("refine-iterations", DEFAULT_REFINE_ITERATIONS).unwrap_or_else(|e| fail(e));
    let selection = args.languages().unwrap_or_else(|e| fail(e));
    let tracked_config = seed == DEFAULT_SEED
        && iterations == DEFAULT_ITERATIONS
        && refine_iterations == DEFAULT_REFINE_ITERATIONS;

    // The in-loop campaigns must dominate the gate campaigns: a fixed point at
    // `refine_iterations ≥ iterations` (same seed, same budget) certifies the
    // gate campaign clean by prefix determinism.
    let gate_config = FuzzConfig { seed, iterations, sample_budget: DEFAULT_BUDGET };
    let loop_config = FuzzConfig {
        seed,
        iterations: refine_iterations.max(iterations),
        sample_budget: DEFAULT_BUDGET,
    };
    let refine_config = RefineConfig::default();

    let mut grammars: Vec<GrammarRefineReport> = Vec::new();
    for lang in &selection.languages {
        let name = lang.name();
        // Route every membership query of the run — learning, in-loop
        // campaigns, gate campaigns — through one shared CountingOracle under
        // an installed telemetry collector, so the per-round query/cache
        // snapshots embedded in the refinement log are live (they read the
        // telemetry `query.oracle.*` counters). Caching changes no answers,
        // so the campaign trajectories are unaffected.
        let telemetry = vstar_telemetry::install();
        let counting = CountingOracle::new(|s: &str| lang.accepts(s));
        let counted = CountedLanguage::new(lang.as_ref(), &counting);
        eprintln!("learning {name} (plain pipeline) …");
        let base = learn_plain(&counted).as_learned_language();
        let pre = FuzzCampaign::new(&base, &counted, gate_config.clone()).run();
        eprintln!(
            "refining {name}: pre campaign found {} divergent case(s) in {} iterations",
            pre.counts.divergences(),
            pre.iterations
        );
        let refined = learn_refined_language(&counted, &loop_config, &refine_config);
        let post = FuzzCampaign::new(&refined.learned, &counted, gate_config.clone()).run();
        drop(telemetry);
        // Corpus-driven re-inference over the refined grammar: fuzz evidence
        // mutates outward from the seeds, a sampled corpus probes the oracle's
        // own distribution — each catches gaps the other misses. Runs against
        // the raw oracle so the telemetry snapshots above stay comparable.
        eprintln!("repairing {name}: diffing against the repair corpus …");
        let run = repair_learned_language(lang.as_ref(), &refined.result, &EvalConfig::default());
        let repair = match &run.repaired {
            Some(r) => RepairSummary {
                applied: true,
                rejected_members: r.report.rejected_members,
                ill_matched: r.report.ill_matched,
                tokenizer_changed: r.report.tokenizer_changed,
                recall_refined: run.recall_before,
                recall_repaired: run.recall_after,
            },
            None => RepairSummary {
                applied: false,
                rejected_members: 0,
                ill_matched: 0,
                tokenizer_changed: false,
                recall_refined: run.recall_before,
                recall_repaired: run.recall_after,
            },
        };
        eprintln!(
            "repaired {name}: recall {:.3} → {:.3} ({})",
            repair.recall_refined,
            repair.recall_repaired,
            if repair.applied { "repair applied" } else { "nothing to repair" }
        );
        eprintln!(
            "refined {name}: {} campaign(s), {} counterexample(s) replayed, post divergences {}",
            refined.log.campaigns_run,
            refined.log.counterexamples_replayed(),
            post.counts.divergences()
        );
        grammars.push(GrammarRefineReport {
            language: name.to_string(),
            pre: CampaignSummary::of(&pre),
            refine: refined.log,
            post: CampaignSummary::of(&post),
            repair,
            states_before: base.vpa().state_count(),
            states_after: refined.learned.vpa().state_count(),
            rules_before: base.vpg().rule_count(),
            rules_after: refined.learned.vpg().rule_count(),
        });
    }

    println!("Counterexample-guided refinement of learned grammars (seed {seed})");
    println!();
    println!("grammar\tpreFP\tpreFN\tcampaigns\tCEs\tpostFP\tpostFN\tstates\trules\trecall");
    for g in &grammars {
        println!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}→{}\t{}→{}\t{:.3}→{:.3}",
            g.language,
            g.pre.counts.false_positive,
            g.pre.counts.false_negative,
            g.refine.campaigns_run,
            g.refine.counterexamples_replayed(),
            g.post.counts.false_positive,
            g.post.counts.false_negative,
            g.states_before,
            g.states_after,
            g.rules_before,
            g.rules_after,
            g.repair.recall_refined,
            g.repair.recall_repaired,
        );
    }

    let bench = RefineBenchReport {
        seed,
        iterations,
        refine_iterations: loop_config.iterations,
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
            if g.post.counts.divergences() > 0 {
                failed = true;
                eprintln!(
                    "FAIL {}: post-refinement campaign still diverges ({} FP, {} FN); \
                     witnesses: {:?}",
                    g.language,
                    g.post.counts.false_positive,
                    g.post.counts.false_negative,
                    g.post.witnesses,
                );
            }
            // "Divergence-free" must mean "probed and agreed", not "generated
            // nothing worth classifying" — same vacuity guards as fuzz --check.
            if g.post.counts.agree_accept == 0 {
                failed = true;
                eprintln!(
                    "FAIL {}: post-refinement campaign never confirmed a single member",
                    g.language
                );
            }
            if g.post.counts.total() < iterations / 4 {
                failed = true;
                eprintln!(
                    "FAIL {}: post-refinement generation starved — only {} classifiable case(s) \
                     in {} iterations",
                    g.language,
                    g.post.counts.total(),
                    iterations,
                );
            }
            if g.refine.budget_exhausted {
                eprintln!(
                    "note {}: refinement stopped on the campaign budget, not a fixed point",
                    g.language
                );
            }
            // The recall gate: the corpus-driven repair must never regress,
            // and the known JSON evaluation-recall gap must end closed.
            if g.repair.recall_repaired < g.repair.recall_refined {
                failed = true;
                eprintln!(
                    "FAIL {}: repair regressed evaluation recall {:.3} → {:.3}",
                    g.language, g.repair.recall_refined, g.repair.recall_repaired,
                );
            }
            if g.language == "json" && g.repair.recall_repaired < 1.0 {
                failed = true;
                eprintln!(
                    "FAIL json: evaluation recall after corpus-driven repair is {:.3}, \
                     expected 1.0",
                    g.repair.recall_repaired,
                );
            }
            if tracked_config
                && KNOWN_GAPPED.contains(&g.language.as_str())
                && g.pre.counts.divergences() == 0
            {
                failed = true;
                eprintln!(
                    "FAIL {}: pre-refinement campaign found no divergence — the gate can no \
                     longer demonstrate the repair of the known gaps",
                    g.language
                );
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "check passed: post-refinement campaigns divergence-free, repair recall gate holds"
        );
    }
}
