//! Grammar-directed differential fuzzing over learned visibly pushdown
//! grammars.
//!
//! V-Star's claim is that the learned VPG *describes the program's input
//! language*; the strongest stress test of that claim is to weaponize the
//! grammar as a fuzzer and hunt for disagreements with the ground-truth
//! oracle, the way Mimid and Arvada validate inferred grammars by generation.
//! This crate turns the `vstar_parser` artifacts into that instrument:
//!
//! * [`Mutator`] — tree-level mutations over [`vstar_parser::ParseTree`]
//!   (subtree swap between compatible nonterminals, nest regrowth, fragment
//!   splicing) that stay inside the grammar by construction, plus
//!   character-level perturbation that deliberately steps outside it;
//! * [`RuleCoverage`] — rule-coverage bitmaps ([`vstar_vpl::Vpg::rule_id`])
//!   extracted from derivations, the feedback signal that keys the corpus;
//! * [`FuzzCampaign`] — the seeded, deterministic differential driver: every
//!   input is judged by both the learned artifact (its oracle-free
//!   [`vstar_parser::CompiledGrammar`]) and the black-box
//!   [`vstar_oracles::Language`] oracle and classified as agree-accept,
//!   agree-reject, false positive or false negative;
//! * [`TreeMinimizer`] / [`minimize_string`] — greedy subtree/string deletion
//!   that shrinks divergent cases while preserving their classification;
//! * [`corpus::write_corpus`] — a reproducible on-disk corpus per language;
//! * [`surgery`] — fault injection (add/remove one grammar rule) so the
//!   campaign can prove it detects a deliberately weakened grammar;
//! * [`CampaignEvidence`] — the campaign packaged as a
//!   `vstar::refine::EvidenceSource`, so `VStar::learn_refined` can replay
//!   minimized divergences into the learner until the campaigns run dry
//!   (the counterexample-guided refinement loop that *closes* the gaps this
//!   crate finds).
//!
//! # Example
//!
//! ```
//! use vstar::{LearnedLanguage, TokenDiscovery};
//! use vstar::tokenizer::PartialTokenizer;
//! use vstar_fuzz::{FuzzCampaign, FuzzConfig};
//! use vstar_oracles::Fig1;
//! use vstar_vpl::grammar::figure1_grammar;
//! use vstar_vpl::VpaBuilder;
//!
//! // A faithful "learned" artifact for the Figure-1 language (character mode).
//! let vpg = figure1_grammar();
//! let tagging = vpg.tagging().clone();
//! let mut b = VpaBuilder::new(tagging.clone());
//! let q0 = b.add_state();
//! b.set_initial(q0);
//! let learned = LearnedLanguage::new(
//!     b.build().unwrap(),
//!     vpg,
//!     PartialTokenizer::from_tagging(&tagging),
//!     TokenDiscovery::Characters,
//! );
//!
//! let oracle = Fig1::new();
//! let config = FuzzConfig { iterations: 60, ..FuzzConfig::default() };
//! let report = FuzzCampaign::new(&learned, &oracle, config).run();
//! assert!(!report.found_divergence(), "faithful grammar must not diverge");
//! assert!(report.rules_covered > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod corpus;
pub mod coverage;
pub mod minimize;
pub mod mutate;
pub mod refine;
pub mod surgery;

pub use campaign::{CampaignReport, CaseClass, DivergenceCase, FuzzCampaign, FuzzConfig};
pub use coverage::RuleCoverage;
pub use minimize::{minimize_string, TreeMinimizer};
pub use mutate::{MutationKind, Mutator};
pub use refine::CampaignEvidence;
