//! Executing learned visibly pushdown grammars: recognition, parsing, sampling.
//!
//! The V-Star pipeline ([`vstar::VStar::learn`]) ends with an extracted
//! [`vstar_vpl::Vpg`]. This crate makes that artifact *usable* the way the
//! paper intends its output to be used, following the same authors'
//! derivative-based parsing line of work ("A Derivative-based Parser Generator
//! for Visibly Pushdown Grammars", Jia, Kumar & Tan, OOPSLA 2021):
//!
//! * [`VpgParser`] — a derivative-style recognizer and parser over words of
//!   the grammar's own alphabet (in token mode, the converted word
//!   [`vstar::LearnedLanguage::convert`] produces), and the uncompiled
//!   reference every compiled verdict is tested against. Recognition and
//!   parsing are linear in the input length (grammar fixed), with no
//!   backtracking; parsing produces a [`ParseTree`] whose call/return nesting
//!   is explicit ([`ParseStep::Nest`]).
//! * [`GrammarSampler`] — a budget-aware, seeded random sentence generator.
//!   Every sample carries a derivation ([`GrammarSampler::sample_tree`]), so
//!   samples are members by construction; the evaluation harness builds its
//!   precision datasets with it, and it is the substrate for grammar-directed
//!   fuzzing.
//! * [`CompiledGrammar`] — raw-`&str` recognition and parsing for a learned
//!   language, with parse errors mapped back to raw byte spans: the owned,
//!   serializable, **oracle-free serving artifact** ([`compiled`]/[`artifact`]/
//!   [`serve`] modules): item-set transitions precompiled into lookup tables, the tokenizer's k-Repetition
//!   decisions materialized into the same tables, versioned `save`/`load`,
//!   streaming [`Session`]s and sequential batches. Obtained from a
//!   learned language via [`CompileLearned::compile`].
//!
//! # Example
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use vstar_parser::{GrammarSampler, VpgParser};
//! use vstar_vpl::grammar::figure1_grammar;
//!
//! let grammar = figure1_grammar();
//! let parser = VpgParser::new(&grammar);
//!
//! // Parse the paper's seed string; the tree yields it back.
//! let tree = parser.parse("agcdcdhbcd").unwrap();
//! assert_eq!(tree.yielded(), "agcdcdhbcd");
//! assert_eq!(tree.depth(), 2);
//! assert!(tree.validate(&grammar));
//!
//! // Sample → parse → accept: sampler output is always recognizable.
//! let sampler = GrammarSampler::new(&grammar);
//! let mut rng = StdRng::seed_from_u64(1);
//! let sentence = sampler.sample(&mut rng, 24).unwrap();
//! assert!(parser.recognize(&sentence));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod compiled;
mod error;
#[cfg(test)]
mod learned;
pub mod recognizer;
pub mod sampler;
pub mod serve;
pub mod tree;

pub use artifact::{ArtifactError, ARTIFACT_VERSION, MAX_MATCHER_STATES};
pub use compiled::{
    CompileError, CompileLearned, CompiledGrammar, GrammarStats, TableView, MAX_PRODUCT_SIZE,
};
pub use error::{ParseError, ParseErrorKind};
pub use recognizer::VpgParser;
pub use sampler::GrammarSampler;
pub use serve::{Session, SessionState};
pub use tree::{NestPath, NestSummary, ParseStep, ParseTree};
