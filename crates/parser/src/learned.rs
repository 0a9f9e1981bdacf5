//! Raw-input parsing of grammars learned end to end (tests only).
//!
//! A learned language parses a raw `&str` either through its compiled
//! artifact ([`crate::CompiledGrammar::parse`]) or, as the uncompiled
//! reference, by converting the input with the learned tokenizer
//! ([`vstar::LearnedLanguage::convert`]) and parsing the converted word with
//! [`crate::VpgParser`]. These tests pin both against the oracle on a learned
//! Dyck language.

mod tests {
    use vstar::{Mat, VStar, VStarConfig, VStarResult};
    use vstar_vpl::words::all_strings;

    use crate::{CompileLearned, VpgParser};

    fn dyck(s: &str) -> bool {
        let mut depth = 0i64;
        for c in s.chars() {
            match c {
                '(' => depth += 1,
                ')' => {
                    depth -= 1;
                    if depth < 0 {
                        return false;
                    }
                }
                'x' => {}
                _ => return false,
            }
        }
        depth == 0
    }

    fn learn_dyck(mat: &Mat<'_>) -> VStarResult {
        VStar::new(VStarConfig::default())
            .learn(mat, &['(', ')', 'x'], &["(x(x))x".to_string(), "()".to_string()])
            .expect("learning succeeds")
    }

    #[test]
    fn raw_string_round_trip_on_learned_dyck() {
        let oracle = dyck;
        let mat = Mat::new(&oracle);
        let result = learn_dyck(&mat);
        let learned = result.as_learned_language();
        let reference = VpgParser::new(learned.vpg());
        let compiled = learned.compile().unwrap();

        for w in all_strings(&['(', ')', 'x'], 6) {
            let expected = dyck(&w);
            assert_eq!(learned.accepts(&mat, &w), expected, "vpa reference on {w:?}");
            let converted = learned.convert(&mat, &w);
            match reference.parse(&converted) {
                Ok(tree) => {
                    assert!(expected, "parsed a non-member {w:?}");
                    assert!(tree.validate(learned.vpg()));
                    assert_eq!(tree.yielded(), converted);
                    assert_eq!(learned.strip(&converted), w);
                }
                Err(_) => assert!(!expected, "failed to parse member {w:?}"),
            }
            if expected {
                let tree = compiled.parse(&w).expect("compiled parses every member");
                assert!(tree.validate(compiled.vpg()));
            }
        }
    }

    #[test]
    fn parse_trees_expose_inferred_nesting() {
        let oracle = dyck;
        let mat = Mat::new(&oracle);
        let result = learn_dyck(&mat);
        let learned = result.as_learned_language();
        // One token pair was inferred, so the converted word nests two levels,
        // both through the uncompiled reference and the compiled artifact.
        let tree = VpgParser::new(learned.vpg()).parse(&learned.convert(&mat, "((x)x)")).unwrap();
        assert_eq!(tree.depth(), 2);
        assert!(!tree.is_empty());
        let tree = learned.compile().unwrap().parse("((x)x)").unwrap();
        assert_eq!(tree.depth(), 2);
        assert!(!tree.is_empty());
    }
}
