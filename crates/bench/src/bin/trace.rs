//! Full-stack instrumented trace: where does the query budget go?
//!
//! For each selected Table-1 language the binary installs a
//! [`vstar_telemetry`] collector and runs the whole stack under it — learn
//! (with counterexample-guided refinement in the loop), a post-refinement
//! differential fuzz campaign, and an oracle-free serving pass over the
//! compiled artifact. Every membership answer of the black-box program is
//! served by one shared [`vstar_oracles::CountingOracle`] (routed into the
//! learner's MAT and into the fuzz campaigns via
//! [`vstar_oracles::CountedLanguage`]), so the oracle's unique-query count is
//! the ground-truth grand total — and the telemetry span tree attributes
//! every one of those queries to the phase that issued it. The headline
//! output is the per-phase query-budget profile: the paper's "#Queries"
//! column (≈550K for json), broken down by where the queries actually went.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p vstar_bench --bin trace -- \
//!     [grammar ...] [--seed N] [--iterations N] [--refine-iterations N] [--check] [--json]
//! ```
//!
//! Defaults: all five grammars, `--seed 42`, `--iterations 150` (the gate
//! campaign), `--refine-iterations 300`. Every campaign samples with a budget
//! of 24, the refinement loop runs at most
//! `RefineConfig::default().max_campaigns` (40) evidence rounds, and the
//! serving pass runs over 120 sampled words. A full-set run at the default
//! configuration rewrites the tracked `BENCH_trace.json` (deterministic
//! facts: counters, span attribution, histograms) and `BENCH_trace.jsonl`
//! (the deterministic event journals). Wall-clock phase timings are printed
//! to **stderr** only — stdout and both files are byte-identical across
//! same-seed runs, the repository's determinism convention.
//!
//! `--check` turns the run into the CI observability gate: the process exits
//! nonzero when the per-phase attribution does not sum to the oracle's grand
//! total, when the serve phase issued any membership query (serving is
//! oracle-free by construction), or when a phase that must have run recorded
//! nothing.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use vstar::refine::RefineConfig;
use vstar_bench::cli::{usage_error, write_tracked_report, Args};
use vstar_bench::{learn_refined_language, REFINE_MIN_ITERATIONS};
use vstar_fuzz::{FuzzCampaign, FuzzConfig};
use vstar_oracles::{CountedLanguage, CountingOracle};
use vstar_parser::{CompileLearned, GrammarSampler};
use vstar_telemetry::{DeterministicFacts, SpanFacts};

const JSON_REPORT_PATH: &str = "BENCH_trace.json";
const JOURNAL_REPORT_PATH: &str = "BENCH_trace.jsonl";

const DEFAULT_SEED: u64 = 42;
/// Post-refinement gate-campaign iterations (CI's fuzz smoke budget).
const DEFAULT_ITERATIONS: usize = 150;
/// In-loop campaign iterations (the refinement evidence budget).
const DEFAULT_REFINE_ITERATIONS: usize = REFINE_MIN_ITERATIONS;
/// Sample budget of every campaign involved.
const DEFAULT_BUDGET: usize = 24;
/// Words in the serving corpus.
const DEFAULT_SERVE_SAMPLES: usize = 120;
/// Size budget of serving-corpus samples.
const SERVE_SAMPLE_BUDGET: usize = 40;

const USAGE: &str = "trace [grammar ...] [--seed N] [--iterations N] [--refine-iterations N] \
                     [--check] [--json]";

/// One row of the per-phase query-budget profile: the membership queries a
/// span itself issued (children excluded — rows partition the grand total).
#[derive(Serialize)]
struct PhaseRow {
    /// Full `/`-separated span path (empty for queries outside any span).
    path: String,
    /// Unique membership queries (innermost `query.oracle.miss`) attributed
    /// to this span itself.
    unique_queries: u64,
}

/// The instrumented trace of one language. Every field is deterministic for
/// a fixed seed.
#[derive(Serialize)]
struct TraceRow {
    language: String,
    /// Ground truth: distinct strings the black-box program ever answered
    /// (the paper's "#Queries"), from the shared [`CountingOracle`].
    oracle_unique_queries: usize,
    /// Membership calls including cache hits.
    oracle_total_queries: usize,
    /// Cache hits across the whole run.
    oracle_cache_hits: usize,
    /// Pre-order per-phase attribution; `unique_queries` sums to
    /// `oracle_unique_queries`.
    phase_profile: Vec<PhaseRow>,
    /// Unique membership queries issued by the serve phase (0: serving is
    /// oracle-free).
    serve_unique_queries: u64,
    /// Deterministic journal entries this run emitted (the entries
    /// themselves go to `BENCH_trace.jsonl`).
    journal_entries: usize,
    /// Journal entries dropped on the journal bound (0 in tracked runs).
    journal_dropped: u64,
    /// Grand-total counters, spans and histograms (journal drained into
    /// `BENCH_trace.jsonl`).
    facts: DeterministicFacts,
}

/// The tracked machine-readable report. No wall-clock fields: reruns with
/// the same configuration are byte-identical.
#[derive(Serialize)]
struct TraceBenchReport {
    seed: u64,
    iterations: usize,
    refine_iterations: usize,
    max_campaigns: usize,
    budget: usize,
    serve_samples: usize,
    rows: Vec<TraceRow>,
}

/// Collects `(path, own unique queries)` rows in pre-order, skipping
/// zero-query spans (the profile shows where the budget went, not the whole
/// span tree — that is in `facts`).
fn phase_profile(root: &SpanFacts) -> Vec<PhaseRow> {
    fn walk(span: &SpanFacts, out: &mut Vec<PhaseRow>) {
        let own = span.own_counter("query.oracle.miss");
        if own > 0 {
            out.push(PhaseRow { path: span.path.clone(), unique_queries: own });
        }
        for child in &span.children {
            walk(child, out);
        }
    }
    let mut out = Vec::new();
    walk(root, &mut out);
    out
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

    let gate_config = FuzzConfig { seed, iterations, sample_budget: DEFAULT_BUDGET };
    let loop_config = FuzzConfig {
        seed,
        iterations: refine_iterations.max(iterations),
        sample_budget: DEFAULT_BUDGET,
    };
    let refine_config = RefineConfig::default();

    let mut rows: Vec<TraceRow> = Vec::new();
    let mut journal_sections: Vec<(&str, Vec<String>)> = Vec::new();
    let mut timing_sections: Vec<(&str, vstar_telemetry::Timings)> = Vec::new();
    for lang in &selection.languages {
        let name = lang.name();
        eprintln!("tracing {name}: learn → refine → fuzz → serve under instrumentation …");

        // One shared counting oracle serves every membership answer of the
        // run: the learner's MAT asks it on cache misses, the in-loop and
        // gate fuzz campaigns ask it through the `CountedLanguage` view. Its
        // unique-query count is the grand total the phase profile must
        // account for.
        let counting = CountingOracle::new(|s: &str| lang.accepts(s));
        let counted = CountedLanguage::new(lang.as_ref(), &counting);
        let guard = vstar_telemetry::install();

        // Learn phase (the pipeline opens the `learn` span; refinement's
        // evidence campaigns nest under `pool-equivalence`).
        let learned = learn_refined_language(&counted, &loop_config, &refine_config).learned;

        // Fuzz phase: the post-refinement gate campaign (opens the
        // top-level `fuzz-campaign` span).
        let gate = FuzzCampaign::new(&learned, &counted, gate_config.clone()).run();

        // Serve phase: compile and serve the artifact — deliberately *not*
        // through the counting oracle; the gate asserts this subtree issued
        // zero membership queries.
        {
            let _serve_span = vstar_telemetry::span("serve");
            let compiled = learned.compile().expect("learned grammars compile");
            let mut rng = StdRng::seed_from_u64(seed);
            let sampler = GrammarSampler::new(learned.vpg());
            let words = sampler.sample_many(&mut rng, SERVE_SAMPLE_BUDGET, DEFAULT_SERVE_SAMPLES);
            let mut session = compiled.session();
            let mut served_members = 0usize;
            for w in &words {
                let raw = learned.strip(w);
                session.reset();
                session.push_str(&raw);
                served_members += usize::from(session.finish());
                let _ = compiled.recognize(&raw);
            }
            vstar_telemetry::event(
                "serve.summary",
                &[("words", words.len() as u64), ("members", served_members as u64)],
            );
        }

        let report = guard.finish();
        let mut facts = report.facts;
        let journal_lines = facts.journal_lines();
        let journal_entries = facts.journal.len();
        let journal_dropped = facts.journal_dropped;
        facts.journal = Vec::new();

        eprintln!(
            "traced {name}: {} unique queries, {} learner rounds, gate divergences {}",
            counting.unique_queries(),
            facts.counter("learner.rounds"),
            gate.counts.divergences(),
        );

        rows.push(TraceRow {
            language: name.to_string(),
            oracle_unique_queries: counting.unique_queries(),
            oracle_total_queries: counting.total_queries(),
            oracle_cache_hits: counting.cache_hits(),
            phase_profile: phase_profile(&facts.root),
            serve_unique_queries: facts.subtree_counter("serve", "query.oracle.miss"),
            journal_entries,
            journal_dropped,
            facts,
        });
        journal_sections.push((name, journal_lines));
        timing_sections.push((name, report.timings));
    }

    // The headline: the per-phase query-budget profile ("where did 550K
    // queries go"). Deterministic — safe for the stdout determinism diff.
    println!("Per-phase membership-query attribution (seed {seed})");
    for row in &rows {
        println!();
        println!(
            "{}: {} unique membership queries ({} total, {} cache hits)",
            row.language,
            row.oracle_unique_queries,
            row.oracle_total_queries,
            row.oracle_cache_hits,
        );
        println!("  {:<68} {:>10} {:>7}", "phase", "unique", "%");
        for phase in &row.phase_profile {
            let label = if phase.path.is_empty() { "(outside any span)" } else { &phase.path };
            let share = if row.oracle_unique_queries == 0 {
                0.0
            } else {
                100.0 * phase.unique_queries as f64 / row.oracle_unique_queries as f64
            };
            println!("  {label:<68} {:>10} {share:>6.1}%", phase.unique_queries);
        }
        println!(
            "  {:<68} {:>10} {:>6.1}%",
            "total",
            row.phase_profile.iter().map(|p| p.unique_queries).sum::<u64>(),
            100.0,
        );
        // Quantiles of automaton steps per served parse: a deterministic
        // shape summary of the serving workload (steps count input
        // characters, not wall clock).
        if let Some(steps) = row
            .facts
            .span("serve")
            .and_then(|s| s.histograms.iter().find(|h| h.name == "serve.steps_per_parse"))
        {
            let q = steps.summary();
            println!(
                "  serve steps/parse: p50={} p90={} p99={} max={} over {} parses",
                q.p50, q.p90, q.p99, q.max, q.count,
            );
        }
    }

    // Wall-clock timings go to stderr only: reported, never part of the
    // deterministic output (the BENCH_serve.json convention).
    eprintln!();
    eprintln!("wall-clock phase timings (stderr only, excluded from determinism):");
    for (name, timings) in &timing_sections {
        for t in &timings.spans {
            if !t.path.contains('/') {
                eprintln!("  {name}: {:<20} {:>9.3}s", t.path, t.nanos as f64 / 1e9);
            }
        }
    }

    let report = TraceBenchReport {
        seed,
        iterations,
        refine_iterations: loop_config.iterations,
        max_campaigns: refine_config.max_campaigns,
        budget: DEFAULT_BUDGET,
        serve_samples: DEFAULT_SERVE_SAMPLES,
        rows,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    let mut journal_doc = String::new();
    for (name, lines) in &journal_sections {
        journal_doc.push_str(&format!("{{\"language\":{:?}}}\n", name));
        for line in lines {
            journal_doc.push_str(line);
            journal_doc.push('\n');
        }
    }
    write_tracked_report(
        &[(JSON_REPORT_PATH, &json), (JOURNAL_REPORT_PATH, &journal_doc)],
        selection.full_set,
        tracked_config,
    );
    if args.switch("json") {
        println!("{json}");
    }

    if args.switch("check") {
        let mut failed = false;
        for row in &report.rows {
            let attributed: u64 = row.phase_profile.iter().map(|p| p.unique_queries).sum();
            let grand = row.oracle_unique_queries as u64;
            if attributed != grand || row.facts.counter("query.oracle.miss") != grand {
                failed = true;
                eprintln!(
                    "FAIL {}: phase attribution sums to {attributed}, telemetry total {}, \
                     oracle ground truth {grand}",
                    row.language,
                    row.facts.counter("query.oracle.miss"),
                );
            }
            if row.serve_unique_queries != 0
                || row.facts.subtree_counter("serve", "query.oracle.hit") != 0
            {
                failed = true;
                eprintln!(
                    "FAIL {}: serve phase touched the membership oracle ({} unique) — serving \
                     must be oracle-free",
                    row.language, row.serve_unique_queries,
                );
            }
            if row.facts.subtree_counter("learn", "query.oracle.miss") == 0 {
                failed = true;
                eprintln!("FAIL {}: learn phase recorded no membership queries", row.language);
            }
            for (counter, what) in [
                ("learner.rounds", "learner rounds"),
                ("serve.words_finished", "served words"),
                ("compile.grammars", "compilations"),
            ] {
                if row.facts.counter(counter) == 0 {
                    failed = true;
                    eprintln!("FAIL {}: no {what} recorded ({counter} is 0)", row.language);
                }
            }
            if row.journal_dropped != 0 {
                failed = true;
                eprintln!(
                    "FAIL {}: journal dropped {} entries — the trace is no longer complete",
                    row.language, row.journal_dropped,
                );
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "check passed: every membership query is phase-attributed and serving stayed \
             oracle-free"
        );
    }
}
