//! Workspace-level integration tests: exercise the public APIs of all crates
//! together, end to end, the way the examples and the bench harness do.

use rand::rngs::StdRng;
use rand::SeedableRng;

use vstar::{Mat, TokenDiscovery, VStar, VStarConfig};
use vstar_baselines::{Glade, LearnedGrammar};
use vstar_eval::{evaluate_glade, evaluate_vstar, EvalConfig, Table1Report};
use vstar_oracles::{Fig1, Language, Lisp, ToyXml};
use vstar_vpl::vpa_to_vpg;

#[test]
fn fig1_character_mode_end_to_end() {
    let lang = Fig1::new();
    let oracle = |s: &str| lang.accepts(s);
    let mat = Mat::new(&oracle);
    let config =
        VStarConfig { token_discovery: TokenDiscovery::Characters, ..VStarConfig::default() };
    let result = VStar::new(config).learn(&mat, &lang.alphabet(), &lang.seeds()).unwrap();

    // Exact agreement on everything the reference grammar enumerates up to length 8
    // and on every string over the alphabet up to length 5.
    for w in lang.grammar().enumerate(8) {
        assert!(result.accepts(&mat, &w), "reference word {w:?} rejected");
    }
    for w in vstar_vpl::words::all_strings(&lang.alphabet(), 5) {
        assert_eq!(lang.accepts(&w), result.accepts(&mat, &w), "mismatch on {w:?}");
    }
    // The extracted grammar and the learned automaton agree.
    for w in vstar_vpl::words::all_strings(&lang.alphabet(), 4) {
        assert_eq!(result.vpa.accepts(&w), result.vpg.accepts(&w));
    }
    // Re-converting the learned VPA through the public conversion is stable.
    let again = vpa_to_vpg(&result.vpa);
    for w in vstar_vpl::words::all_strings(&lang.alphabet(), 4) {
        assert_eq!(again.accepts(&w), result.vpg.accepts(&w));
    }
}

#[test]
fn toy_xml_token_mode_end_to_end() {
    let lang = ToyXml::new();
    let oracle = |s: &str| lang.accepts(s);
    let mat = Mat::new(&oracle);
    let result =
        VStar::new(VStarConfig::default()).learn(&mat, &lang.alphabet(), &lang.seeds()).unwrap();
    assert_eq!(result.stats.token_pairs, 1);
    let mut rng = StdRng::seed_from_u64(3);
    for s in lang.generate_corpus(&mut rng, 25, 60) {
        assert!(result.accepts(&mat, &s), "member {s:?} rejected");
    }
    for bad in ["<p>", "</p>", "<p>x</p", "<p><p>x</p>", ""] {
        assert!(!result.accepts(&mat, bad), "non-member {bad:?} accepted");
    }
}

#[test]
fn vstar_outperforms_glade_on_recursive_language() {
    let lang = Lisp::new();
    let config = EvalConfig {
        recall_samples: 60,
        precision_samples: 60,
        generation_budget: 16,
        ..EvalConfig::default()
    };
    let vstar_row = evaluate_vstar(&lang, &config);
    let glade_row = evaluate_glade(&lang, &config);

    // The Table-1 shape: V-Star reaches (near-)exact accuracy, the regular
    // approximation of GLADE cannot, and V-Star pays for it with more queries.
    assert!(vstar_row.recall >= 0.95, "vstar recall {}", vstar_row.recall);
    assert!(vstar_row.precision >= 0.95, "vstar precision {}", vstar_row.precision);
    assert!(vstar_row.f1 > glade_row.f1, "vstar {} vs glade {}", vstar_row.f1, glade_row.f1);
    assert!(vstar_row.queries > glade_row.queries);

    let mut report = Table1Report::new();
    report.push(glade_row);
    report.push(vstar_row);
    let rendered = report.to_string();
    assert!(rendered.contains("== vstar =="));
    assert!(rendered.contains("lisp"));
}

#[test]
fn baseline_trait_object_usage() {
    let lang = Lisp::new();
    let oracle = |s: &str| lang.accepts(s);
    let glade = Glade::learn(&oracle, &lang.seeds());
    let learned: &dyn LearnedGrammar = &glade;
    for s in lang.seeds() {
        assert!(learned.accepts(&s));
    }
    let mut rng = StdRng::seed_from_u64(1);
    assert!(learned.sample(&mut rng, 16).is_some());
}
