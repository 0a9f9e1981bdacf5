//! Property tests for the derivative recognizer/parser, the compiled serving
//! artifact and the grammar sampler (proptest, both directions required by
//! the subsystem's contract):
//!
//! * on random hypothesis VPAs, the derivative recognizer over the extracted
//!   VPG agrees with `Vpa::accepts` on random words;
//! * on random seeded VPGs, every sampler output is accepted by the recognizer
//!   (and parses to a validating tree that yields the sample back);
//! * on random VPGs, `CompiledGrammar` (table-driven) agrees with the
//!   uncompiled `VpgParser` (item sets rebuilt per position) on recognition,
//!   parse trees and serialization round trips, and the byte-at-a-time
//!   streaming `Session` agrees with whole-string recognition;
//! * randomly corrupted artifact documents never panic the loader.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use vstar::tokenizer::TokenMatcher;
use vstar::{LearnedLanguage, PartialTokenizer, TokenDiscovery, TokenPair};
use vstar_parser::{CompileLearned, CompiledGrammar, GrammarSampler, VpgParser};
use vstar_vpl::grammar::figure1_grammar;
use vstar_vpl::{vpa_to_vpg, Tagging, Vpa, Vpg, VpgBuilder};

const CALLS: [char; 2] = ['(', '['];
const RETS: [char; 2] = [')', ']'];
const PLAINS: [char; 3] = ['x', 'y', 'z'];

fn two_pair_tagging() -> Tagging {
    Tagging::from_pairs([('(', ')'), ('[', ']')]).unwrap()
}

/// A random small deterministic VPA over two call/return pairs (a random
/// hypothesis automaton, the shape the learner produces).
fn random_vpa(seed: u64) -> Vpa {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = vstar_vpl::VpaBuilder::new(two_pair_tagging());
    let n_states = rng.gen_range(1usize..4);
    let states = b.add_states(n_states);
    let n_syms = rng.gen_range(1usize..3);
    let syms: Vec<_> = (0..n_syms).map(|_| b.add_stack_symbol()).collect();
    b.set_initial(states[rng.gen_range(0..n_states)]);
    for &q in &states {
        if rng.gen_bool(0.6) {
            b.add_accepting(q);
        }
        for &c in &PLAINS {
            if rng.gen_bool(0.5) {
                let to = states[rng.gen_range(0..n_states)];
                b.plain(q, c, to).unwrap();
            }
        }
        for &c in &CALLS {
            if rng.gen_bool(0.7) {
                let to = states[rng.gen_range(0..n_states)];
                let push = syms[rng.gen_range(0..n_syms)];
                b.call(q, c, to, push).unwrap();
            }
        }
        for &c in &RETS {
            for &g in &syms {
                if rng.gen_bool(0.7) {
                    let to = states[rng.gen_range(0..n_states)];
                    b.ret(q, c, g, to).unwrap();
                }
            }
        }
    }
    b.build().unwrap()
}

/// A random small well-matched VPG over two call/return pairs.
fn random_vpg(seed: u64) -> Vpg {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = VpgBuilder::new(two_pair_tagging());
    let n = rng.gen_range(1usize..5);
    let nts: Vec<_> = (0..n).map(|i| b.nonterminal(&format!("N{i}"))).collect();
    for &nt in &nts {
        let alts = rng.gen_range(1usize..4);
        for _ in 0..alts {
            match rng.gen_range(0u8..3) {
                0 => {
                    b.empty_rule(nt);
                }
                1 => {
                    let c = PLAINS[rng.gen_range(0..PLAINS.len())];
                    let next = nts[rng.gen_range(0..n)];
                    b.linear_rule(nt, c, next);
                }
                _ => {
                    let pair = rng.gen_range(0..CALLS.len());
                    let inner = nts[rng.gen_range(0..n)];
                    let next = nts[rng.gen_range(0..n)];
                    b.match_rule(nt, CALLS[pair], inner, RETS[pair], next);
                }
            }
        }
    }
    b.build(nts[0]).unwrap()
}

/// A random word biased toward well-matchedness (pure uniform words are almost
/// always trivially rejected, which would test nothing).
fn random_word(rng: &mut StdRng, max_len: usize) -> String {
    let mut out = String::new();
    let mut open: Vec<usize> = Vec::new();
    let len = rng.gen_range(0..=max_len);
    for _ in 0..len {
        let roll = rng.gen_range(0u8..10);
        if roll < 4 {
            out.push(PLAINS[rng.gen_range(0..PLAINS.len())]);
        } else if roll < 7 {
            let pair = rng.gen_range(0..CALLS.len());
            out.push(CALLS[pair]);
            open.push(pair);
        } else if let Some(pair) = open.pop() {
            // Occasionally close with the wrong pair to probe mismatches.
            let pair = if rng.gen_bool(0.9) { pair } else { 1 - pair };
            out.push(RETS[pair]);
        } else if rng.gen_bool(0.2) {
            out.push(RETS[rng.gen_range(0..RETS.len())]);
        }
    }
    for pair in open.into_iter().rev() {
        if rng.gen_bool(0.9) {
            out.push(RETS[pair]);
        }
    }
    out
}

/// A hand-built token-mode artifact: the marker-pair grammar
/// `S → ⟨call⟩ E ⟨ret⟩ E`, `E → ε` over the 3-byte artificial markers, with
/// the literal tokens `<p>` / `</p>` as its one tokenizer pair.
fn marker_pair_artifact() -> CompiledGrammar {
    let call = vstar::tokenizer::call_marker(0);
    let ret = vstar::tokenizer::return_marker(0);
    let tagging = Tagging::from_pairs([(call, ret)]).unwrap();
    let mut b = VpgBuilder::new(tagging.clone());
    let s = b.nonterminal("S");
    let e = b.nonterminal("E");
    b.match_rule(s, call, e, ret, e);
    b.empty_rule(e);
    let vpg = b.build(s).unwrap();

    let mut tokenizer = PartialTokenizer::new();
    tokenizer.push_pair(TokenPair {
        call: TokenMatcher::Literal("<p>".to_string()),
        ret: TokenMatcher::Literal("</p>".to_string()),
    });
    let mut vb = vstar_vpl::VpaBuilder::new(tagging);
    let q0 = vb.add_state();
    vb.set_initial(q0);
    vb.add_accepting(q0);
    let vpa = vb.build().unwrap();
    LearnedLanguage::new(vpa, vpg, tokenizer, TokenDiscovery::Tokens).compile().unwrap()
}

/// Applies 1–4 random edits to `doc`: overwrite a byte (with a JSON
/// delimiter, a digit, a letter or any byte), delete a short run of bytes, or
/// truncate.
fn corrupt(doc: &[u8], rng: &mut StdRng) -> Vec<u8> {
    const POOL: &[u8] = b"{}[]\":,-.0123456789eEtfnul \n\\";
    let mut bytes = doc.to_vec();
    for _ in 0..rng.gen_range(1..=4) {
        if bytes.is_empty() {
            break;
        }
        let at = rng.gen_range(0..bytes.len());
        match rng.gen_range(0u8..4) {
            0 => bytes[at] = POOL[rng.gen_range(0..POOL.len())],
            1 => bytes[at] = rng.gen_range(0u8..=255),
            2 => {
                let end = (at + rng.gen_range(1..8)).min(bytes.len());
                bytes.drain(at..end);
            }
            _ => bytes.truncate(at),
        }
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The derivative recognizer on the VPG extracted from a random hypothesis
    /// VPA agrees with `Vpa::accepts` on random words, and parse success
    /// coincides with membership.
    #[test]
    fn recognizer_agrees_with_hypothesis_vpa(seed in 0u64..4000, word_seed in 0u64..4000) {
        let vpa = random_vpa(seed);
        let vpg = vpa_to_vpg(&vpa);
        let parser = VpgParser::new(&vpg);
        let mut rng = StdRng::seed_from_u64(word_seed);
        for _ in 0..8 {
            let w = random_word(&mut rng, 14);
            let expected = vpa.accepts(&w);
            prop_assert!(parser.recognize(&w) == expected, "word {:?} on vpa seed {}", w, seed);
            prop_assert!(vpg.accepts(&w) == expected, "vpl reference on {:?}", w);
            match parser.parse(&w) {
                Ok(tree) => {
                    prop_assert!(expected, "parsed non-member {:?}", w);
                    prop_assert!(tree.validate(&vpg));
                    prop_assert_eq!(tree.yielded(), w);
                }
                Err(_) => prop_assert!(!expected, "member {:?} failed to parse", w),
            }
        }
    }

    /// Every output of the grammar sampler on a random seeded VPG is accepted
    /// by the derivative recognizer, and its tree validates.
    #[test]
    fn sampler_outputs_are_recognized(seed in 0u64..4000, sample_seed in 0u64..4000, budget in 0usize..24) {
        let vpg = random_vpg(seed);
        let sampler = GrammarSampler::new(&vpg);
        let parser = VpgParser::new(&vpg);
        let mut rng = StdRng::seed_from_u64(sample_seed);
        for _ in 0..6 {
            let Some(tree) = sampler.sample_tree(&mut rng, budget) else {
                // Unproductive start: nothing to check, but this must be stable.
                prop_assert!(!sampler.is_productive());
                break;
            };
            prop_assert!(tree.validate(&vpg));
            let s = tree.yielded();
            prop_assert!(parser.recognize(&s), "sample {:?} rejected (vpg seed {})", s, seed);
            prop_assert!(vpg.accepts(&s), "vpl reference rejected {:?}", s);
            let reparsed = parser.parse(&s).expect("sample parses");
            prop_assert_eq!(reparsed.yielded(), s);
        }
    }

    /// Recognizer and the vpl reference recognizer agree on random words for
    /// random grammars (not only conversion-shaped ones).
    #[test]
    fn recognizer_agrees_with_vpl_reference(seed in 0u64..4000, word_seed in 0u64..4000) {
        let vpg = random_vpg(seed);
        let parser = VpgParser::new(&vpg);
        let mut rng = StdRng::seed_from_u64(word_seed);
        for _ in 0..8 {
            let w = random_word(&mut rng, 12);
            prop_assert!(parser.recognize(&w) == vpg.accepts(&w), "word {:?} on vpg seed {}", w, seed);
        }
    }

    /// The compiled artifact agrees with the uncompiled parser on random
    /// grammars and random words — recognition, parse trees and the
    /// serialization round trip all coincide.
    #[test]
    fn compiled_agrees_with_uncompiled(seed in 0u64..4000, word_seed in 0u64..4000) {
        let vpg = random_vpg(seed);
        let parser = VpgParser::new(&vpg);
        let compiled = CompiledGrammar::from_vpg(&vpg).expect("small grammars compile");
        let reloaded = CompiledGrammar::from_json(&compiled.to_json()).expect("round trip");
        let mut rng = StdRng::seed_from_u64(word_seed);
        for _ in 0..8 {
            let w = random_word(&mut rng, 14);
            let expected = parser.recognize(&w);
            prop_assert!(compiled.recognize(&w) == expected, "word {:?} on vpg seed {}", w, seed);
            prop_assert!(compiled.recognize_word(&w) == expected, "word-level {:?} on seed {}", w, seed);
            prop_assert!(reloaded.recognize(&w) == expected, "reloaded {:?} on seed {}", w, seed);
            match (compiled.parse(&w), parser.parse(&w)) {
                (Ok(a), Ok(b)) => prop_assert!(a == b, "trees differ on {:?} (seed {})", w, seed),
                (Err(a), Err(b)) => {
                    prop_assert!(a.kind() == b.kind(), "error kinds differ on {:?}", w);
                    prop_assert!(a.position() == b.position(), "positions differ on {:?}", w);
                }
                (a, b) => prop_assert!(false, "parse verdicts differ on {:?}: {:?} vs {:?}", w, a, b),
            }
        }
    }

    /// The streaming `Session`, fed one byte at a time across arbitrary chunk
    /// boundaries, agrees with whole-string recognition.
    #[test]
    fn session_agrees_with_whole_string(seed in 0u64..4000, word_seed in 0u64..4000) {
        let vpg = random_vpg(seed);
        let compiled = CompiledGrammar::from_vpg(&vpg).expect("small grammars compile");
        let mut rng = StdRng::seed_from_u64(word_seed);
        let mut session = compiled.session();
        for _ in 0..8 {
            let w = random_word(&mut rng, 14);
            session.reset();
            for b in w.as_bytes() {
                session.push_bytes(std::slice::from_ref(b));
            }
            prop_assert!(
                session.finish() == compiled.recognize_word(&w),
                "streaming mismatch on {:?} (seed {})", w, seed
            );
        }
    }
    /// The artifact loader never panics: randomly edited, shortened and
    /// truncated canonical documents of a character-mode and a token-mode
    /// artifact load or fail with a typed `ArtifactError`, and every document
    /// that loads round-trips through `to_json` unchanged.
    #[test]
    fn artifact_loader_survives_corrupted_documents(edit_seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(edit_seed);
        let figure1 = CompiledGrammar::from_vpg(&figure1_grammar()).unwrap();
        for artifact in [&figure1, &marker_pair_artifact()] {
            let doc = artifact.to_json();
            let edited = corrupt(doc.as_bytes(), &mut rng);
            let text = String::from_utf8_lossy(&edited);
            if let Ok(loaded) = CompiledGrammar::from_json(&text) {
                let canonical = loaded.to_json();
                let again = CompiledGrammar::from_json(&canonical);
                prop_assert!(
                    again.as_ref().is_ok_and(|g| g.to_json() == canonical),
                    "loaded document does not round-trip (seed {}): {:?}", edit_seed, again.err()
                );
            }
        }
    }
}
