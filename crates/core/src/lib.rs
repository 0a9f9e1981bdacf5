//! V-Star: active learning of visibly pushdown grammars from program inputs.
//!
//! This crate is the primary contribution of the reproduced paper
//! (*V-Star: Learning Visibly Pushdown Grammars from Program Inputs*, PLDI 2024).
//! Given a black-box membership oracle (typically a parser: a string is a member iff
//! the program accepts it) and a handful of valid *seed strings*, V-Star infers a
//! visibly pushdown automaton — and from it a visibly pushdown grammar — for the
//! oracle language. It proceeds in stages:
//!
//! 1. **Nesting-pattern discovery** ([`nesting`], paper Definition 4.4): partitions
//!    `u·x·z·y·v` of seed strings such that `u xᵏ z yᵏ v` is valid for all `k` but
//!    unbalanced pumpings are not. These witness the call/return structure.
//! 2. **Tagging / tokenizer inference** ([`mod@tag_infer`] for character-level tags,
//!    Algorithm 3; [`mod@token_infer`] for multi-character call/return tokens,
//!    Algorithm 4). Token lexical rules are generalised with Angluin's L\*.
//! 3. **Conversion** ([`tokenizer`], paper §5.1): `conv_τ` inserts artificial call
//!    and return markers around inferred tokens, turning the oracle language into a
//!    character-based VPL.
//! 4. **VPA learning** ([`sevpa_learner`], Algorithm 1/2 and Proposition 4.3): an
//!    L\*-style, table-based learner for *k*-SEVPAs over the congruences of
//!    Alur et al. (2005).
//! 5. **Equivalence-query simulation** ([`equivalence`], paper §6): test strings
//!    assembled from prefixes/infixes/suffixes of the seed strings stand in for
//!    equivalence queries, behind a pluggable [`EquivalenceStrategy`].
//! 6. **Counterexample-guided refinement** ([`refine`], beyond the paper):
//!    evidence sources — e.g. the differential fuzz campaigns of `vstar-fuzz` —
//!    interrogate every pool-clean hypothesis and replay minimized divergences
//!    into the learner until the evidence runs dry.
//! 7. **Grammar extraction**: the learned VPA is converted to a well-matched VPG
//!    via [`vstar_vpl::vpa_to_vpg()`].
//!
//! The one-call entry points are [`VStar::learn`] and [`VStar::learn_refined`];
//! see `examples/` at the workspace root for end-to-end usage on JSON, XML and
//! the paper's running examples.
//!
//! ```
//! use vstar::{Mat, VStar, VStarConfig};
//!
//! // Learn the Dyck language of balanced parentheses with 'x' bodies.
//! let oracle = |s: &str| {
//!     let mut depth = 0i64;
//!     for c in s.chars() {
//!         match c {
//!             '(' => depth += 1,
//!             ')' => { depth -= 1; if depth < 0 { return false; } }
//!             'x' => {}
//!             _ => return false,
//!         }
//!     }
//!     depth == 0
//! };
//! let mat = Mat::new(&oracle);
//! let seeds = vec!["(x(x))x".to_string(), "()".to_string()];
//! let alphabet = vec!['(', ')', 'x'];
//! let result = VStar::new(VStarConfig::default())
//!     .learn(&mat, &alphabet, &seeds)
//!     .expect("learning succeeds");
//! assert!(result.accepts(&mat, "((x)x)"));
//! assert!(!result.accepts(&mat, "((x)"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod equivalence;
mod error;
pub mod mat;
pub mod nesting;
pub mod pipeline;
pub mod refine;
pub mod sevpa_learner;
pub mod tag_infer;
pub mod token_infer;
pub mod tokenizer;

pub use equivalence::{EquivalenceContext, EquivalenceStrategy, PoolEquivalence};
pub use error::VStarError;
pub use mat::Mat;
pub use nesting::{candidate_nesting, NestingPattern};
pub use pipeline::{LearnedLanguage, TokenDiscovery, VStar, VStarConfig, VStarResult, VStarStats};
pub use refine::{
    rule_liveness, CorpusEvidence, Evidence, EvidenceEquivalence, EvidenceSource, RefineConfig,
    RefineLog, RuleLiveness,
};
pub use sevpa_learner::{ModuleSeed, ObservationSeed, SevpaLearner, TaggedAlphabet};
pub use tag_infer::tag_infer;
pub use token_infer::{token_infer, TokenInferConfig};
pub use tokenizer::{PartialTokenizer, TokenKind, TokenMatcher, TokenPair};
