//! GLADE-style and ARVADA-style grammar-inference baselines.
//!
//! The paper compares V-Star against two black-box grammar-inference tools:
//!
//! * **GLADE** (Bastani et al. 2017) first generalises seed strings into regular
//!   expressions (repetition and character-class generalisation steps, each checked
//!   with membership queries) and then merges the results. [`glade::Glade`]
//!   re-implements this regular-expression phase; like the original, it captures
//!   token-level structure well but cannot discover unbounded recursion, which is
//!   why its recall on recursive grammars is low (paper Table 1).
//! * **ARVADA** (Kulkarni et al. 2022) "bubbles" substrings of the seeds into fresh
//!   nonterminals and merges nonterminals whose yields are interchangeable under the
//!   oracle, which lets it discover recursion heuristically.
//!   [`arvada::Arvada`] re-implements the bubble-and-merge loop on character-level
//!   sequences.
//!
//! Both are faithful to the published algorithms' key ideas but deliberately
//! simplified: GLADE stops after its regular-expression phase, and ARVADA makes one
//! seeded run where the paper reports a mean over ten. They exist so that the
//! Table-1 comparison (README, "Reproducing Table 1") can be regenerated with the
//! same oracles, seeds and metrics as V-Star.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arvada;
pub mod cfg;
pub mod glade;

pub use arvada::Arvada;
pub use cfg::{Cfg, SymbolRef};
pub use glade::Glade;

/// A learned grammar that can both recognise and generate strings — the interface
/// the evaluation harness needs to compute recall (membership of oracle samples)
/// and precision (oracle membership of grammar samples).
pub trait LearnedGrammar {
    /// Returns `true` if the learned grammar accepts `input`.
    fn accepts(&self, input: &str) -> bool;

    /// Samples one string from the learned grammar.
    fn sample(&self, rng: &mut dyn rand::RngCore, budget: usize) -> Option<String>;

    /// Number of unique membership queries spent learning this grammar.
    fn queries_used(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dyck(s: &str) -> bool {
        let mut d = 0i64;
        for c in s.chars() {
            match c {
                '(' => d += 1,
                ')' => {
                    d -= 1;
                    if d < 0 {
                        return false;
                    }
                }
                'x' => {}
                _ => return false,
            }
        }
        d == 0
    }

    #[test]
    fn both_baselines_learn_something_from_dyck_seeds() {
        let seeds = vec!["(x)".to_string(), "((x)x)".to_string(), "x".to_string()];
        let glade = Glade::learn(&dyck, &seeds);
        let arvada = Arvada::learn(&dyck, &seeds);
        let mut rng = StdRng::seed_from_u64(1);
        for learned in [&glade as &dyn LearnedGrammar, &arvada as &dyn LearnedGrammar] {
            // Seeds must be accepted.
            for s in &seeds {
                assert!(learned.accepts(s), "seed {s:?} rejected");
            }
            // Samples must be generatable.
            let sample = learned.sample(&mut rng, 20);
            assert!(sample.is_some());
            assert!(learned.queries_used() > 0);
        }
    }
}
