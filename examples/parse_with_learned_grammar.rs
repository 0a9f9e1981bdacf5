//! Parse raw inputs with a grammar learned by V-Star.
//!
//! Learns the JSON input language from the bundled black-box recognizer, then
//! uses `vstar_parser` to turn the learned grammar into a working parser:
//! the compiled artifact parses raw strings into explicit parse trees without
//! the oracle, and rejected inputs come back with a parse error carrying the
//! raw-input byte span. The uncompiled derivative parser (`VpgParser`) reads
//! the same grammar's converted words and agrees. Finally the grammar sampler
//! generates fresh members — the sample → parse → accept loop that
//! grammar-directed fuzzing builds on. (For the serving-side workflow —
//! save/load/batch/streaming — see the `serve_compiled_grammar` example.)
//!
//! Run with: `cargo run --example parse_with_learned_grammar --release`

use rand::rngs::StdRng;
use rand::SeedableRng;

use vstar::{Mat, VStar, VStarConfig};
use vstar_oracles::{Json, Language};
use vstar_parser::{CompileLearned, GrammarSampler, VpgParser};

fn main() {
    let lang = Json::new();
    let oracle = |s: &str| lang.accepts(s);
    let mat = Mat::new(&oracle);

    let result = VStar::new(VStarConfig::default())
        .learn(&mat, &lang.alphabet(), &lang.seeds())
        .expect("json learning succeeds");
    let learned = result.as_learned_language();
    println!(
        "learned json: {} states, {} nonterminals, {} rules",
        learned.vpa().state_count(),
        learned.vpg().nonterminal_count(),
        learned.vpg().rule_count(),
    );

    // Compile once: the artifact tokenizes and parses raw strings on its own.
    let compiled = learned.compile().expect("learned grammar compiles");

    // Parse a member: the tree makes the inferred call/return nesting explicit.
    let doc = "{\"a\":[1,{\"b\":true}]}";
    let tree = compiled.parse(doc).expect("member parses");
    println!(
        "parsed {doc:?}: {} terminals, nesting depth {}, {} rule applications",
        tree.len(),
        tree.depth(),
        tree.rule_applications(),
    );
    assert!(tree.validate(learned.vpg()));

    // The uncompiled reference parser reads the oracle-backed conversion of
    // the same input and derives the same word.
    let parser = VpgParser::new(learned.vpg());
    let converted = learned.convert(&mat, doc);
    let reference = parser.parse(&converted).expect("converted member parses");
    assert_eq!(reference.yielded(), tree.yielded());
    println!("uncompiled parser agrees on {doc:?} ({} converted chars)", converted.chars().count());

    // Parse errors carry the raw-input byte span of the offending fragment.
    for bad in ["{\"a\":1", "[1,2,,3]"] {
        match compiled.parse(bad) {
            Ok(_) => println!("unexpectedly parsed {bad:?}"),
            Err(e) => println!("rejected {bad:?}: {e}"),
        }
    }

    // Sample → parse → accept: grammar-sampler output always parses back.
    let sampler = GrammarSampler::new(learned.vpg());
    let mut rng = StdRng::seed_from_u64(11);
    let mut shown = 0usize;
    for _ in 0..200 {
        let Some(word) = sampler.sample(&mut rng, 20) else {
            break;
        };
        let tree = parser.parse(&word).expect("sampled word parses");
        assert_eq!(tree.yielded(), word);
        // Show the samples that correspond to raw JSON documents.
        let raw = learned.strip(&word);
        if compiled.converted_word(&raw).as_deref() == Some(word.as_str())
            && lang.accepts(&raw)
            && shown < 5
        {
            println!("sampled member: {raw}");
            shown += 1;
        }
    }
    println!("sample → parse → accept round-trip held for 200 samples");
}
