//! Regenerates the paper's Table 1: GLADE-style, ARVADA-style and V-Star on the
//! five oracle grammars (json, lisp, xml, while, mathexpr), reporting Recall,
//! Precision, F1, #Queries, %Q(Token), %Q(VPA), #TS and learning time — plus,
//! for the V-Star rows, the post-refinement `Recall+`/`Precision+` columns
//! (the same datasets, measured after the counterexample-guided refinement
//! loop of `vstar::refine` closed the fuzzer-found gaps).
//!
//! Usage:
//!   cargo run -p vstar_bench --bin table1 --release [-- tool ...] [--seed N] [--json]
//! where each optional `tool` is one of `glade`, `arvada`, `vstar` (default: all)
//! and `--seed` overrides the dataset RNG seed (default: the tracked
//! configuration). Pass `--json` to additionally print the report as JSON.
//!
//! Besides the human-readable table on stdout, a full run (all tools, default
//! seed) writes the report as machine-readable JSON to `BENCH_table1.json` in
//! the current directory, so the performance/accuracy trajectory can be
//! tracked across commits; partial or seed-overridden runs leave the tracked
//! file untouched. All numbers except the wall-clock `time_seconds` fields are
//! deterministic for a fixed seed.

use vstar_bench::cli::{usage_error, write_tracked_report, Args};
use vstar_bench::{attach_refined_vstar_metrics, run_table1, REFINE_MIN_ITERATIONS};
use vstar_eval::EvalConfig;

/// File the machine-readable report is written to (current directory).
const JSON_REPORT_PATH: &str = "BENCH_table1.json";

const USAGE: &str = "table1 [glade|arvada|vstar ...] [--seed N] [--json]";

fn main() {
    let args = Args::parse_or_exit(USAGE, &["seed"], &["json"]);
    let mut config = EvalConfig::default();
    let tracked_seed = config.rng_seed;
    config.rng_seed = args.seed(tracked_seed).unwrap_or_else(|e| usage_error(USAGE, e));
    // Reject unknown tool names: a typo must not silently select "all tools"
    // and overwrite the committed full report with an unintended run.
    if let Some(bad) =
        args.positionals().iter().find(|a| !["glade", "arvada", "vstar"].contains(&a.as_str()))
    {
        usage_error(USAGE, format!("unknown tool {bad:?}"));
    }
    let tools: Vec<&str> = args.positionals().iter().map(String::as_str).collect();
    let mut report = run_table1(&config, &tools);
    // Post-refinement columns for the V-Star rows (`Recall+`/`Precision+`):
    // re-learn with the counterexample-guided refinement loop and measure on
    // the same datasets. The in-loop campaigns mirror the `fuzz`/`refine`
    // binaries' default configuration.
    if tools.is_empty() || tools.contains(&"vstar") {
        let fuzz = vstar_fuzz::FuzzConfig {
            seed: 42,
            iterations: REFINE_MIN_ITERATIONS,
            ..vstar_fuzz::FuzzConfig::default()
        };
        attach_refined_vstar_metrics(
            &mut report,
            &config,
            &fuzz,
            &vstar::refine::RefineConfig::default(),
        );
    }
    println!("Table 1 — evaluation on datasets where the oracle grammars are VPGs");
    println!(
        "(recall/precision estimated on {} / {} samples; see EXPERIMENTS.md)",
        config.recall_samples, config.precision_samples
    );
    println!();
    print!("{report}");
    let json = report.to_json();
    write_tracked_report(
        &[(JSON_REPORT_PATH, &json)],
        tools.is_empty(),
        config.rng_seed == tracked_seed,
    );
    if args.switch("json") {
        println!("{json}");
    }
}
