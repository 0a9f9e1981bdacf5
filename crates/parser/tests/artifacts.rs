//! Artifact round-trip acceptance tests: for every Table-1 language,
//! `learn → compile → save → load → serve` must produce identical verdicts
//! and identical parse trees, with no membership oracle anywhere near the
//! serving side; a streamed `Session` must give the one-shot verdict on the
//! same raw bytes, however they are chunked.

mod support;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use vstar::{Mat, VStar, VStarConfig};
use vstar_oracles::{Json, Language, Lisp, MathExpr, WhileLang, Xml};
use vstar_parser::{ArtifactError, CompileLearned, CompiledGrammar, VpgParser};

/// Learns `lang`, compiles it, round-trips the artifact through disk and
/// checks the reloaded copy serves identically on a mixed corpus of members,
/// mutants and truncations.
fn round_trip(lang: &dyn Language) {
    let oracle = |s: &str| lang.accepts(s);
    let mat = Mat::new(&oracle);
    let result = VStar::new(VStarConfig::default())
        .learn(&mat, &lang.alphabet(), &lang.seeds())
        .unwrap_or_else(|e| panic!("{}: learning failed: {e}", lang.name()));
    let compiled = result.compile().unwrap_or_else(|e| panic!("{}: compile: {e}", lang.name()));

    let path = std::env::temp_dir().join(format!("vstar_artifact_{}.json", lang.name()));
    compiled.save(&path).unwrap_or_else(|e| panic!("{}: save: {e}", lang.name()));
    let reloaded =
        CompiledGrammar::load(&path).unwrap_or_else(|e| panic!("{}: load: {e}", lang.name()));
    std::fs::remove_file(&path).ok();

    // The document is canonical: re-serializing the reload is byte-identical.
    assert_eq!(compiled.to_json(), reloaded.to_json(), "{}: document drift", lang.name());
    assert_eq!(
        compiled.table_view().state_count(),
        reloaded.table_view().state_count(),
        "{}: automaton drift",
        lang.name()
    );

    let corpus = support::corpus(lang);

    // The oracle-backed learning-time path, for the agreement check below:
    // the Mat-backed `conv_τ` feeding the uncompiled grammar parser. The
    // compiled tokenization (takes-if-executable / skips-if-looping) is an
    // approximation of it, so its agreement with the oracle path on real
    // learned grammars is an empirical claim — this pins it as a regression
    // test across all five Table-1 languages.
    let learned = result.as_learned_language();
    let reference = VpgParser::new(learned.vpg());

    let mut members = 0usize;
    for s in &corpus {
        if !s.is_ascii() {
            continue;
        }
        let before = compiled.recognize(s);
        let after = reloaded.recognize(s);
        assert_eq!(before, after, "{}: verdict drift on {s:?}", lang.name());
        assert_eq!(
            before,
            reference.recognize(&learned.convert(&mat, s)),
            "{}: compiled scan disagrees with the oracle-backed path on {s:?}",
            lang.name()
        );
        match (compiled.parse(s), reloaded.parse(s)) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a, b, "{}: tree drift on {s:?}", lang.name());
                assert!(a.validate(reloaded.vpg()), "{}: invalid tree on {s:?}", lang.name());
                members += 1;
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "{}: error drift on {s:?}", lang.name()),
            (a, b) => panic!("{}: parse verdict drift on {s:?}: {a:?} vs {b:?}", lang.name()),
        }
    }
    assert!(members >= 30, "{}: only {members} members exercised", lang.name());

    // A session decides the raw bytes it was fed, exactly as `recognize`
    // does, under seeded random chunkings. The converted words and the
    // `λ`-prefixed inputs carry multi-byte characters, so chunk boundaries
    // also fall mid-codepoint.
    let mut inputs = corpus.clone();
    inputs.extend(corpus.iter().filter_map(|s| compiled.converted_word(s)));
    inputs.extend(corpus.iter().map(|s| format!("λ{s}")));
    let mut chunk_rng = StdRng::seed_from_u64(0x5E55 ^ lang.name().len() as u64);
    let mut session = reloaded.session();
    let mut streamed_members = 0usize;
    for s in &inputs {
        let expect = compiled.recognize(s);
        for _ in 0..3 {
            session.reset();
            let mut rest = s.as_bytes();
            while !rest.is_empty() {
                let (chunk, tail) = rest.split_at(chunk_rng.gen_range(1..=5).min(rest.len()));
                session.push_bytes(chunk);
                rest = tail;
            }
            assert_eq!(session.finish(), expect, "{}: streamed verdict on {s:?}", lang.name());
        }
        streamed_members += usize::from(expect);
    }
    assert!(streamed_members >= 30, "{}: only {streamed_members} streamed members", lang.name());

    // Every seed is served by the reloaded artifact — recall survives the
    // round trip, with no Mat in sight.
    for seed in lang.seeds() {
        assert!(
            reloaded.recognize(&seed),
            "{}: reloaded artifact rejects seed {seed:?}",
            lang.name()
        );
    }
}

#[test]
fn json_artifact_round_trip() {
    round_trip(&Json::new());
}

#[test]
fn lisp_artifact_round_trip() {
    round_trip(&Lisp::new());
}

#[test]
fn xml_artifact_round_trip() {
    round_trip(&Xml::new());
}

#[test]
fn while_artifact_round_trip() {
    round_trip(&WhileLang::new());
}

#[test]
fn mathexpr_artifact_round_trip() {
    round_trip(&MathExpr::new());
}

#[test]
fn corrupted_artifacts_fail_with_typed_errors() {
    let lang = Lisp::new();
    let oracle = |s: &str| lang.accepts(s);
    let mat = Mat::new(&oracle);
    let result =
        VStar::new(VStarConfig::default()).learn(&mat, &lang.alphabet(), &lang.seeds()).unwrap();
    let compiled = result.compile().unwrap();
    let json = compiled.to_json();

    // Truncation: invalid JSON.
    let truncated = CompiledGrammar::from_json(&json[..json.len() / 2]);
    assert!(matches!(truncated, Err(ArtifactError::Json(_))), "{truncated:?}");

    // Version bump: typed mismatch naming both versions.
    let bumped = json.replacen("\"version\": 1", "\"version\": 2", 1);
    match CompiledGrammar::from_json(&bumped) {
        Err(ArtifactError::UnsupportedVersion { found: 2, supported: 1 }) => {}
        other => panic!("expected a version mismatch, got {other:?}"),
    }

    // Field vandalism: typed format error, no panic.
    let vandalized = json.replacen("\"mode\"", "\"mood\"", 1);
    let e = CompiledGrammar::from_json(&vandalized);
    assert!(matches!(e, Err(ArtifactError::Format { .. })), "{e:?}");
}

#[test]
fn inconsistent_artifacts_fail_integrity_checks() {
    use vstar_parser::MAX_MATCHER_STATES;
    use vstar_vpl::grammar::figure1_grammar;

    let compiled = CompiledGrammar::from_vpg(&figure1_grammar()).unwrap();
    let json = compiled.to_json();

    // A matcher DFA declaring an absurd state count: each index is in range,
    // so the per-field bounds checks pass, but accepting the document would
    // let a later re-save materialize the full declared range. The load must
    // reject it up front, and quickly.
    let huge = format!(
        "\"dfa\": {{\"alphabet\":[\"a\"],\"states\":{},\"initial\":0,\
         \"accepting\":[],\"transitions\":[]}}",
        MAX_MATCHER_STATES + 1
    );
    let inflated = json.replacen("\"literal\": \"a\"", &huge, 1);
    assert_ne!(inflated, json, "the figure-1 artifact should carry a literal 'a' matcher");
    let e = CompiledGrammar::from_json(&inflated);
    assert!(matches!(e, Err(ArtifactError::Integrity { .. })), "{e:?}");

    // A tokenizer with an extra pair the tagging knows nothing about: every
    // field is well-formed in isolation, only the cross-layer view is broken.
    let extra_pair = json.replacen(
        "\"pairs\": [",
        "\"pairs\": [{\"call\": {\"literal\": \"q\"}, \"ret\": {\"literal\": \"z\"}},",
        1,
    );
    assert_ne!(extra_pair, json);
    let e = CompiledGrammar::from_json(&extra_pair);
    assert!(matches!(e, Err(ArtifactError::Integrity { .. })), "{e:?}");
    let text = e.unwrap_err().to_string();
    assert!(text.contains("integrity"), "{text}");
}
