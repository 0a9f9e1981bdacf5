//! Black-box program-input oracles for the V-Star reproduction.
//!
//! The paper instantiates the minimally adequate teacher with black-box programs:
//! an input string is "in the language" iff the program accepts it. This crate
//! provides from-scratch recursive-descent recognizers for the five evaluation
//! grammars of the paper's Table 1 — JSON, LISP (S-expressions), XML, While and
//! MathExpr — plus the two illustrative toy languages (Figure 1 and Figure 2) and a
//! Dyck-style warm-up language.
//!
//! Each language implements the [`Language`] trait:
//!
//! * [`Language::accepts`] — the membership oracle (what the black-box program answers),
//! * [`Language::seeds`] — the seed strings given to the learners,
//! * [`Language::generate`] — a random sentence generator used to build recall
//!   datasets (the paper samples its recall datasets from the ARVADA artifact,
//!   which is not bundled here, so each language samples from its own reference
//!   generator instead),
//! * [`Language::alphabet`] — the character alphabet Σ.
//!
//! [`CountingOracle`] wraps any membership function with caching and unique-query
//! counting, which is how the paper's "#Queries" column is measured.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counting;
pub mod json;
pub mod lisp;
pub mod mathexpr;
pub mod toy;
pub mod while_lang;
pub mod xml;

pub use counting::{CountedLanguage, CountingOracle};
pub use json::Json;
pub use lisp::Lisp;
pub use mathexpr::MathExpr;
pub use toy::{Dyck, Fig1, ToyXml};
pub use while_lang::WhileLang;
pub use xml::Xml;

use rand::RngCore;

/// A black-box program-input language: the oracle of the active-learning problem.
pub trait Language {
    /// A short identifier ("json", "xml", …) used in reports.
    fn name(&self) -> &'static str;

    /// The membership oracle `χ_L` (paper §4.1): `true` iff `input` is a valid
    /// program input.
    fn accepts(&self, input: &str) -> bool;

    /// The character alphabet Σ from which valid strings draw characters.
    fn alphabet(&self) -> Vec<char>;

    /// The seed strings handed to the grammar learners.
    fn seeds(&self) -> Vec<String>;

    /// Generates one random sentence of the language. `budget` loosely bounds the
    /// sentence size; generated sentences are always members of the language.
    fn generate(&self, rng: &mut dyn RngCore, budget: usize) -> String;

    /// Generates `count` random sentences (deduplicated, best effort).
    fn generate_corpus(&self, rng: &mut dyn RngCore, budget: usize, count: usize) -> Vec<String> {
        let mut out = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        let mut attempts = 0;
        while out.len() < count && attempts < count * 20 {
            attempts += 1;
            let s = self.generate(rng, budget);
            debug_assert!(self.accepts(&s), "generator produced a non-member: {s:?}");
            if seen.insert(s.clone()) {
                out.push(s);
            }
        }
        out
    }
}

/// Returns every bundled Table-1 language, in the paper's row order.
#[must_use]
pub fn table1_languages() -> Vec<Box<dyn Language>> {
    vec![
        Box::new(Json::new()),
        Box::new(Lisp::new()),
        Box::new(Xml::new()),
        Box::new(WhileLang::new()),
        Box::new(MathExpr::new()),
    ]
}

/// Looks up one Table-1 language by its [`Language::name`], the shared resolver
/// of every binary that takes a grammar name on the command line.
#[must_use]
pub fn language_by_name(name: &str) -> Option<Box<dyn Language>> {
    table1_languages().into_iter().find(|l| l.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn all_table1_languages_accept_their_seeds() {
        for lang in table1_languages() {
            for seed in lang.seeds() {
                assert!(lang.accepts(&seed), "{} rejects its own seed {seed:?}", lang.name());
            }
        }
    }

    #[test]
    fn all_table1_generators_produce_members() {
        let mut rng = StdRng::seed_from_u64(1);
        for lang in table1_languages() {
            for _ in 0..50 {
                let s = lang.generate(&mut rng, 20);
                assert!(lang.accepts(&s), "{} rejects generated {s:?}", lang.name());
            }
        }
    }

    #[test]
    fn seeds_use_only_alphabet_characters() {
        for lang in table1_languages() {
            let alphabet = lang.alphabet();
            for seed in lang.seeds() {
                for c in seed.chars() {
                    assert!(
                        alphabet.contains(&c),
                        "{}: seed char {c:?} missing from alphabet",
                        lang.name()
                    );
                }
            }
        }
    }

    #[test]
    fn languages_resolve_by_name() {
        for lang in table1_languages() {
            let found = language_by_name(lang.name()).expect("bundled language resolves");
            assert_eq!(found.name(), lang.name());
        }
        assert!(language_by_name("cobol").is_none());
    }

    #[test]
    fn corpus_generation_dedups() {
        let mut rng = StdRng::seed_from_u64(3);
        let lang = Json::new();
        let corpus = lang.generate_corpus(&mut rng, 15, 30);
        let unique: std::collections::BTreeSet<_> = corpus.iter().collect();
        assert_eq!(unique.len(), corpus.len());
        assert!(!corpus.is_empty());
    }
}
