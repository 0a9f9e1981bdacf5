//! Samples strings from a learned grammar: learns one of the bundled oracle
//! languages with V-Star, then draws sentences from the extracted VPG with the
//! `vstar_parser` grammar sampler. Every printed string is round-tripped
//! through the derivative parser (sample → parse → accept) and through the
//! compiled artifact's raw-input conversion (strip → convert gives the sample
//! back) before printing, so the output is a ready-to-use precision/fuzzing
//! corpus of raw oracle inputs.
//!
//! Usage:
//!
//! ```text
//! cargo run -p vstar_bench --bin sample --release -- <grammar> \
//!     [--count N] [--budget N] [--seed N]
//! ```
//!
//! where `<grammar>` is one of json, lisp, xml, while, mathexpr (defaults:
//! `--count 20`, `--budget 24`, `--seed 1`).

use vstar::tokenizer::strip_markers;
use vstar_bench::cli::{language, usage_error, Args};
use vstar_bench::learn_plain;
use vstar_parser::{CompileLearned, GrammarSampler, VpgParser};

const USAGE: &str = "sample <json|lisp|xml|while|mathexpr> [--count N] [--budget N] [--seed N]";

fn main() {
    let args = Args::parse_or_exit(USAGE, &["count", "budget", "seed"], &[]);
    let fail = |e: String| -> ! { usage_error(USAGE, e) };
    let Some(name) = args.positionals().first() else {
        fail("missing <grammar>".to_string());
    };
    let lang = language(name).unwrap_or_else(|e| fail(e));
    let count: usize = args.parsed("count", 20).unwrap_or_else(|e| fail(e));
    let budget: usize = args.parsed("budget", 24).unwrap_or_else(|e| fail(e));
    let seed = args.seed(1).unwrap_or_else(|e| fail(e));
    let mut rng = args.seeded_rng(1).unwrap_or_else(|e| fail(e));

    let result = learn_plain(lang.as_ref());
    let compiled = result.compile().expect("learned grammars compile");
    eprintln!(
        "learned {} ({} states, {} nonterminals, {} unique queries)",
        lang.name(),
        result.vpa.state_count(),
        result.vpg.nonterminal_count(),
        result.stats.queries_total,
    );

    let sampler = GrammarSampler::new(&result.vpg);
    let parser = VpgParser::new(&result.vpg);
    let mut printed = 0usize;
    let mut attempts = 0usize;
    let max_attempts = count.saturating_mul(50).max(1000);
    let mut seen = std::collections::BTreeSet::new();
    while printed < count && attempts < max_attempts {
        attempts += 1;
        let Some(word) = sampler.sample(&mut rng, budget) else {
            break;
        };
        // Round-trip: the sampled word must parse back to itself.
        let tree = parser.parse(&word).expect("sampled word parses");
        assert_eq!(tree.yielded(), word, "parse tree must yield the sample");
        // Keep only words that correspond to raw strings of the learned
        // language (fixed points of conv ∘ strip), then print the raw form.
        let raw = strip_markers(&word);
        if compiled.converted_word(&raw).as_deref() != Some(word.as_str())
            || !seen.insert(raw.clone())
        {
            continue;
        }
        println!("{raw}");
        printed += 1;
    }
    eprintln!("{printed} distinct samples in {attempts} draws (budget {budget}, seed {seed})");
}
