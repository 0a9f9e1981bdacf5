//! Differential fuzzing of a learned grammar against its oracle.
//!
//! Learns the LISP (S-expression) language with the V-Star pipeline, then
//! turns the learned grammar into a fuzzer: derivations are sampled and
//! mutated at the tree level (members by construction), some inputs are
//! deliberately corrupted at the character level, and every input is judged
//! by both the learned artifact and the black-box oracle. LISP learns
//! exactly, so the campaign must report zero divergences — and to prove the
//! campaign has teeth, the paper's Figure-1 language is learned in character
//! mode, weakened by one injected rule, and fuzzed again, which must surface
//! false positives.
//!
//! Run with: `cargo run --example fuzz_learned_grammar --release`

use vstar::{Mat, TokenDiscovery, VStar, VStarConfig};
use vstar_fuzz::{surgery, FuzzCampaign, FuzzConfig};
use vstar_oracles::{Fig1, Language, Lisp};
use vstar_vpl::{NonterminalId, RuleRhs};

fn main() {
    let lang = Lisp::new();
    println!("learning {} from {} seeds …", lang.name(), lang.seeds().len());
    let learned = vstar_bench::learn_plain(&lang).as_learned_language();
    println!(
        "learned grammar: {} nonterminals, {} rules",
        learned.vpg().nonterminal_count(),
        learned.vpg().rule_count()
    );

    let config = FuzzConfig { seed: 42, iterations: 200, ..FuzzConfig::default() };
    let report = FuzzCampaign::new(&learned, &lang, config.clone()).run();
    println!(
        "faithful campaign: {} cases, {} agree-accept / {} agree-reject, \
         {} divergences, rule coverage {}/{}",
        report.counts.total(),
        report.counts.agree_accept,
        report.counts.agree_reject,
        report.counts.divergences(),
        report.rules_covered,
        report.rules_total,
    );
    assert_eq!(report.counts.divergences(), 0, "lisp learns exactly: no divergence expected");

    // Fault injection on the character-mode Figure-1 language: add the
    // over-generalizing rule `L → d L` to the learned grammar (a bare "d" is
    // not in the language, which requires "cd"). The campaign samples from the
    // weakened grammar, so it must find and minimize false positives.
    let fig1 = Fig1::new();
    let fig1_oracle = |s: &str| fig1.accepts(s);
    let mat = Mat::new(&fig1_oracle);
    let char_config =
        VStarConfig { token_discovery: TokenDiscovery::Characters, ..VStarConfig::default() };
    let fig1_learned = VStar::new(char_config)
        .learn(&mat, &fig1.alphabet(), &fig1.seeds())
        .expect("figure-1 learns in character mode")
        .as_learned_language();
    let start = fig1_learned.vpg().start();
    let weakened_vpg = surgery::with_extra_rule(
        fig1_learned.vpg(),
        NonterminalId(start.0),
        RuleRhs::Linear { plain: 'd', next: start },
    )
    .expect("`L → d L` is a valid rule under the figure-1 tagging");
    let weakened = fig1_learned.with_vpg(weakened_vpg);
    let weak_report = FuzzCampaign::new(&weakened, &fig1, config).run();
    println!(
        "weakened fig1 campaign: {} false positives ({} distinct after minimization)",
        weak_report.counts.false_positive,
        weak_report.distinct_divergences(),
    );
    for case in weak_report.divergences.iter().take(3) {
        println!(
            "  {} via {}: {:?} → minimized {:?}",
            case.class, case.mutation, case.raw, case.minimized
        );
    }
    assert!(
        weak_report.counts.false_positive > 0,
        "the campaign must catch the injected over-generalization"
    );
}
