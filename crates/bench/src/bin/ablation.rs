//! Ablations of V-Star's two tunables:
//!
//! * **Ablation A — test-string budget**: V-Star simulates equivalence queries
//!   from seed-derived test strings; this sweep varies the budget and reports the
//!   resulting F1, showing how accuracy depends on the simulated-equivalence pool.
//! * **Ablation B — nesting bound K**: `candidateNesting` checks pumping up to a
//!   bound `K`; this sweep varies `K` and reports query counts and success.
//!
//! Usage: `cargo run -p vstar_bench --bin ablation --release [-- grammar] [--seed N]`
//! (default grammar: lisp; `--seed` overrides the dataset RNG seed).

use vstar::equivalence::TestPoolConfig;
use vstar::{Mat, VStar, VStarConfig};
use vstar_bench::cli::{language, usage_error, Args};
use vstar_eval::{f1_score, precision, recall, EvalConfig};
use vstar_oracles::Language;

const USAGE: &str = "ablation [grammar] [--seed N]";

fn main() {
    let args = Args::parse_or_exit(USAGE, &["seed"], &[]);
    let grammar = args.positionals().first().cloned().unwrap_or_else(|| "lisp".to_string());
    let lang = language(&grammar).unwrap_or_else(|e| usage_error(USAGE, e));
    let mut eval_config =
        EvalConfig { recall_samples: 120, precision_samples: 120, ..EvalConfig::default() };
    eval_config.rng_seed =
        args.seed(eval_config.rng_seed).unwrap_or_else(|e| usage_error(USAGE, e));

    println!("== Ablation A: simulated-equivalence test-string budget ({grammar}) ==");
    println!("budget\t#TS\tRecall\tPrecision\tF1\t#Queries");
    for budget in [50usize, 200, 1000, 6000] {
        let config = VStarConfig {
            test_pool: TestPoolConfig { max_test_strings: budget, ..TestPoolConfig::default() },
            ..VStarConfig::default()
        };
        report_run(lang.as_ref(), &config, &eval_config, &budget.to_string());
    }

    println!();
    println!("== Ablation B: nesting-pattern pumping bound K ({grammar}) ==");
    println!("K\t#TS\tRecall\tPrecision\tF1\t#Queries");
    for k in [2usize, 3, 4] {
        let mut config = VStarConfig::default();
        config.token_config.max_k = k;
        report_run(lang.as_ref(), &config, &eval_config, &k.to_string());
    }
}

fn report_run(lang: &dyn Language, config: &VStarConfig, eval_config: &EvalConfig, label: &str) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let oracle = |s: &str| lang.accepts(s);
    let mat = Mat::new(&oracle);
    match VStar::new(config.clone()).learn(&mat, &lang.alphabet(), &lang.seeds()) {
        Ok(result) => {
            let mut rng = StdRng::seed_from_u64(eval_config.rng_seed);
            let corpus = lang.generate_corpus(
                &mut rng,
                eval_config.generation_budget,
                eval_config.recall_samples,
            );
            let learned = result.as_learned_language();
            let r = recall(|s| learned.accepts(&mat, s), &corpus);
            let sampler = vstar_parser::GrammarSampler::new(&result.vpg);
            let mut rng = StdRng::seed_from_u64(eval_config.rng_seed ^ 1);
            let samples: Vec<String> = sampler
                .sample_many(
                    &mut rng,
                    eval_config.generation_budget,
                    eval_config.precision_samples * 4,
                )
                .into_iter()
                .map(|s| vstar::tokenizer::strip_markers(&s))
                .take(eval_config.precision_samples)
                .collect();
            let p = if samples.is_empty() { 0.0 } else { precision(|s| lang.accepts(s), &samples) };
            println!(
                "{label}\t{}\t{r:.2}\t{p:.2}\t{:.2}\t{}",
                result.stats.test_strings,
                f1_score(r, p),
                result.stats.queries_total
            );
        }
        Err(e) => println!("{label}\t-\t-\t-\t-\tfailed: {e}"),
    }
}
