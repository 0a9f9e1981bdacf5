//! Campaign-level regression tests: the differential fuzzer must (a) stay
//! silent on a faithful grammar, (b) detect injected divergences in both
//! directions within a small iteration budget, (c) produce minimized cases
//! that still reproduce their classification, and (d) be bit-for-bit
//! deterministic for a fixed seed.

use vstar::tokenizer::PartialTokenizer;
use vstar::{LearnedLanguage, Mat, TokenDiscovery};
use vstar_fuzz::{surgery, CaseClass, FuzzCampaign, FuzzConfig};
use vstar_oracles::{Fig1, Language};
use vstar_parser::VpgParser;
use vstar_vpl::grammar::figure1_grammar;
use vstar_vpl::{NonterminalId, RuleRhs, VpaBuilder, Vpg};

/// Wraps a VPG as a character-mode learned language (the VPA member is a
/// placeholder; campaigns run the grammar through its compiled artifact).
fn char_mode_learned(vpg: Vpg) -> LearnedLanguage {
    let tagging = vpg.tagging().clone();
    let mut b = VpaBuilder::new(tagging.clone());
    let q0 = b.add_state();
    b.set_initial(q0);
    LearnedLanguage::new(
        b.build().unwrap(),
        vpg,
        PartialTokenizer::from_tagging(&tagging),
        TokenDiscovery::Characters,
    )
}

fn quick_config(seed: u64) -> FuzzConfig {
    FuzzConfig { seed, iterations: 150, ..FuzzConfig::default() }
}

#[test]
fn faithful_grammar_yields_zero_divergences_and_full_coverage() {
    let learned = char_mode_learned(figure1_grammar());
    let oracle = Fig1::new();
    let report = FuzzCampaign::new(&learned, &oracle, quick_config(42)).run();
    assert_eq!(report.counts.divergences(), 0, "faithful fig1 diverged: {report:?}");
    assert!(report.divergences.is_empty());
    assert_eq!(report.divergences_beyond_cap, 0);
    assert_eq!(report.iterations, 150);
    assert_eq!(report.rules_total, figure1_grammar().rule_count());
    assert_eq!(
        report.rules_covered, report.rules_total,
        "150 grammar-directed iterations must exercise all 6 figure-1 rules"
    );
    assert!(report.corpus_trees > 0);
    assert!((report.precision_estimate - 1.0).abs() < 1e-12);
    assert!((report.recall_estimate - 1.0).abs() < 1e-12);
    // Both agreement classes must be populated: samples/mutations land inside
    // the language, perturbations land outside it.
    assert!(report.counts.agree_accept > 0);
    assert!(report.counts.agree_reject > 0);
}

#[test]
fn injected_overgeneralization_is_detected_as_false_positive() {
    // Weaken the grammar with `L → d L`: it now derives strings the oracle
    // rejects (a bare "d" to start with). The campaign samples from the
    // weakened grammar, so it must find the precision gap quickly.
    let l = NonterminalId(0);
    let weak =
        surgery::with_extra_rule(&figure1_grammar(), l, RuleRhs::Linear { plain: 'd', next: l })
            .unwrap();
    let learned = char_mode_learned(weak);
    let oracle = Fig1::new();
    let report = FuzzCampaign::new(&learned, &oracle, quick_config(42)).run();
    assert!(
        report.divergences_of(CaseClass::FalsePositive) > 0,
        "campaign missed the injected over-generalization: {report:?}"
    );
    assert!(report.counts.false_positive > 0);
    assert!(report.precision_estimate < 1.0);
    // Greedy subtree deletion reaches a witness of the injected rule: a
    // minimal false positive for this weakening is the single character "d".
    let smallest = report
        .divergences
        .iter()
        .filter(|d| d.class == CaseClass::FalsePositive.label())
        .map(|d| d.minimized.len())
        .min()
        .unwrap();
    assert_eq!(smallest, 1, "minimizer should shrink a divergence to one character");
}

#[test]
fn injected_undergeneralization_is_detected_as_false_negative() {
    // Remove `L → c B`: the grammar loses every string containing "cd…", and
    // the oracle's own seed string already witnesses the recall gap.
    let (l, b) = (NonterminalId(0), NonterminalId(2));
    let strict =
        surgery::without_rule(&figure1_grammar(), l, &RuleRhs::Linear { plain: 'c', next: b })
            .unwrap();
    let learned = char_mode_learned(strict);
    let oracle = Fig1::new();
    let report = FuzzCampaign::new(&learned, &oracle, quick_config(42)).run();
    assert!(
        report.divergences_of(CaseClass::FalseNegative) > 0,
        "campaign missed the injected under-generalization: {report:?}"
    );
    assert!(report.counts.false_negative > 0);
    assert!(report.recall_estimate < 1.0);
    // The seed phase alone must catch it (mutation label "seed").
    assert!(report
        .divergences
        .iter()
        .any(|d| d.class == CaseClass::FalseNegative.label() && d.mutation == "seed"));
}

#[test]
fn minimized_divergences_reproduce_their_classification() {
    let l = NonterminalId(0);
    let weak =
        surgery::with_extra_rule(&figure1_grammar(), l, RuleRhs::Linear { plain: 'd', next: l })
            .unwrap();
    let learned = char_mode_learned(weak);
    let oracle = Fig1::new();
    let report = FuzzCampaign::new(&learned, &oracle, quick_config(7)).run();
    assert!(report.found_divergence());

    let oracle_fn = |s: &str| oracle.accepts(s);
    let mat = Mat::new(&oracle_fn);
    let parser = VpgParser::new(learned.vpg());
    for case in &report.divergences {
        let reclass = CaseClass::from_flags(
            parser.recognize(&learned.convert(&mat, &case.minimized)),
            oracle.accepts(&case.minimized),
        );
        assert_eq!(
            reclass.label(),
            case.class,
            "minimized witness {:?} no longer reproduces {}",
            case.minimized,
            case.class
        );
        assert!(
            case.minimized.len() <= case.raw.len(),
            "minimization grew {:?} into {:?}",
            case.raw,
            case.minimized
        );
    }
}

#[test]
fn campaigns_are_deterministic_for_a_fixed_seed() {
    let l = NonterminalId(0);
    let weak =
        surgery::with_extra_rule(&figure1_grammar(), l, RuleRhs::Linear { plain: 'd', next: l })
            .unwrap();
    let learned = char_mode_learned(weak);
    let oracle = Fig1::new();
    let a = FuzzCampaign::new(&learned, &oracle, quick_config(1234)).run();
    let b = FuzzCampaign::new(&learned, &oracle, quick_config(1234)).run();
    assert_eq!(
        serde_json::to_string_pretty(&a).unwrap(),
        serde_json::to_string_pretty(&b).unwrap(),
        "same seed must reproduce the identical report"
    );
    // A different seed still finds the injected bug (not a fluke of one seed),
    // though the exact report may differ.
    let c = FuzzCampaign::new(&learned, &oracle, quick_config(99)).run();
    assert!(c.counts.false_positive > 0);
}
