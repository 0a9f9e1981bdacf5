//! End-to-end acceptance tests: `vstar-parser` must recognize, parse and
//! sample every bundled oracle language's *learned* grammar.
//!
//! For each Table-1 language the full V-Star pipeline runs on the bundled
//! seeds, then the learned grammar is exercised in both directions:
//!
//! * **sample → parse → accept**: grammar-sampler outputs parse back to trees
//!   that validate and yield the sampled word, and the recognizer accepts them;
//! * **seeds parse**: every seed string (converted with the learned tokenizer)
//!   parses, and the compiled raw-string parser accepts it too.

use rand::rngs::StdRng;
use rand::SeedableRng;

use vstar::{Mat, VStar, VStarConfig};
use vstar_oracles::{Json, Language, Lisp, MathExpr, WhileLang, Xml};
use vstar_parser::{CompileLearned, GrammarSampler, VpgParser};

fn round_trip(lang: &dyn Language) {
    let oracle = |s: &str| lang.accepts(s);
    let mat = Mat::new(&oracle);
    let result = VStar::new(VStarConfig::default())
        .learn(&mat, &lang.alphabet(), &lang.seeds())
        .unwrap_or_else(|e| panic!("{}: learning failed: {e}", lang.name()));
    let learned = result.as_learned_language();
    let parser = VpgParser::new(learned.vpg());
    let sampler = GrammarSampler::new(learned.vpg());
    let compiled = learned.compile().unwrap_or_else(|e| panic!("{}: compile: {e}", lang.name()));

    // Every seed parses: convert the raw seed and parse the converted word.
    for seed in lang.seeds() {
        let converted = learned.convert(&mat, &seed);
        let tree = parser
            .parse(&converted)
            .unwrap_or_else(|e| panic!("{}: seed {seed:?} failed to parse: {e}", lang.name()));
        assert!(tree.validate(learned.vpg()), "{}: seed tree invalid", lang.name());
        assert_eq!(tree.yielded(), converted, "{}: seed tree yield", lang.name());
        assert!(compiled.parse(&seed).is_ok(), "{}: raw parser rejects seed", lang.name());
    }

    // Sample → parse → accept on the learned grammar.
    let mut rng = StdRng::seed_from_u64(0x5EED ^ lang.name().len() as u64);
    let mut samples = 0usize;
    for _ in 0..60 {
        let Some(word) = sampler.sample(&mut rng, 24) else {
            break;
        };
        assert!(parser.recognize(&word), "{}: sample {word:?} rejected", lang.name());
        let tree = parser
            .parse(&word)
            .unwrap_or_else(|e| panic!("{}: sample {word:?} failed to parse: {e}", lang.name()));
        assert!(tree.validate(learned.vpg()), "{}: sample tree invalid", lang.name());
        assert_eq!(tree.yielded(), word, "{}: sample tree yield", lang.name());
        samples += 1;
    }
    assert!(samples >= 50, "{}: sampler produced only {samples} samples", lang.name());
}

#[test]
fn json_round_trip() {
    round_trip(&Json::new());
}

#[test]
fn lisp_round_trip() {
    round_trip(&Lisp::new());
}

#[test]
fn xml_round_trip() {
    round_trip(&Xml::new());
}

#[test]
fn while_lang_round_trip() {
    round_trip(&WhileLang::new());
}

#[test]
fn mathexpr_round_trip() {
    round_trip(&MathExpr::new());
}
